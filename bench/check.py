"""Independent checks of the library's outputs.

The evaluators here share no code with the package.  Where the library
premultiplies rows from the right end of a word, these postmultiply columns
from the left end, so a defect common to both would have to be one in the
arithmetic itself.  Letters are read from the package's words through their
public attributes (alphabet, i, j, e, sym) or from the CLI's text and JSON.
"""

import math
import random
import re
from collections import deque

_TOKEN_RE = re.compile(r"^(?:e\((\d+),(\d+)\)|([AB]))(\^-1)?$")

# Two Mersenne primes for the randomized A/B check; their product exceeds 2^90.
FREIVALDS_PRIMES = (2**61 - 1, 2**31 - 1)


def letters_of(word) -> list[tuple]:
    """Package word -> [(i, j, s)] or [("A"|"B", s)]."""
    out = []
    for l in word.letters:
        if l.alphabet == "elementary":
            out.append((l.i, l.j, l.e))
        else:
            out.append((l.sym, l.e))
    return out


def parse_tokens(text: str) -> list[tuple]:
    out = []
    for tok in text.split():
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ValueError(f"bad token {tok!r}")
        s = -1 if m.group(4) else 1
        out.append((m.group(3), s) if m.group(3) else (int(m.group(1)), int(m.group(2)), s))
    return out


def runs(letters):
    """Fold runs of one repeated elementary letter into (i, j, total exponent)."""
    prev, total = None, 0
    for i, j, s in letters:
        if (i, j) == prev:
            total += s
            continue
        if prev is not None:
            yield prev[0], prev[1], total
        prev, total = (i, j), s
    if prev is not None:
        yield prev[0], prev[1], total


def eval_elementary(n: int, letters, p: int | None = None) -> list[list[int]]:
    """Exact product M(l_1) ... M(l_k), as rows, optionally mod p.

    Columns are kept separately: right-multiplying by e(i, j)^s adds s times
    column i to column j.
    """
    cols = [[int(r == c) for r in range(n)] for c in range(n)]
    for i, j, s in runs(letters):
        ci, cj = cols[i - 1], cols[j - 1]
        if p is None:
            cols[j - 1] = [a + s * b for a, b in zip(cj, ci)]
        else:
            cols[j - 1] = [(a + s * b) % p for a, b in zip(cj, ci)]
    return [list(r) for r in zip(*cols)]


def _act_vector(n: int, letters, x: list[int], q: int) -> list[int]:
    """Row vector x times the word, mod q, for elementary or A/B letters."""
    sign = (-1) ** (n - 1)
    v = deque(x)
    for l in letters:
        if len(l) == 3:
            i, j, s = l
            v[j - 1] = (v[j - 1] + s * v[i - 1]) % q
        elif l[0] == "A":
            v[1] = (v[1] + l[1] * v[0]) % q
        elif l[1] == 1:
            # x B = (sign * x_n, x_1, ..., x_{n-1})
            v.appendleft(sign * v.pop() % q)
        else:
            v.append(sign * v.popleft() % q)
    return list(v)


def same_group_element(n: int, a, b, rng: random.Random) -> bool:
    """Randomized test that two words evaluate to the same matrix.

    Both words act on one random row vector modulo each prime in
    FREIVALDS_PRIMES.  If the two matrices differ modulo a prime q, a random
    vector tells them apart with probability at least 1 - 1/q; they can only
    agree modulo both primes if every difference of entries is a multiple of
    their product.
    """
    for q in FREIVALDS_PRIMES:
        x = [rng.randrange(q) for _ in range(n)]
        if _act_vector(n, a, x, q) != _act_vector(n, b, x, q):
            return False
    return True


def group_order(n: int, p: int) -> int:
    """|SL_n(F_p)| = p^(n(n-1)/2) * prod_{k=2..n} (p^k - 1)."""
    order = p ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        order *= p**k - 1
    return order


def sup_norm(rows) -> int:
    return max(abs(x) for row in rows for x in row)


def ln_norm(rows) -> float:
    return math.log(sup_norm(rows))


def power_matrix(n: int, i: int, j: int, m: int) -> list[list[int]]:
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    rows[i - 1][j - 1] = m
    return rows
