"""Exhaustive breadth-first oracles over small groups.

These searches provide ground truth for the constructive algorithms: exact
Cayley distances and diameters for SL_n over tiny prime fields, the word
ball around the identity in SL_2(Z), and optimal pair-reduction counts.
All of them are exponential in nature, so every entry point checks its
state budget before touching memory.
"""

from collections import Counter
from dataclasses import dataclass

from .core import (
    AB,
    ELEMENTARY,
    MatFp,
    abletter,
    apply_letter_fp,
    apply_letter_z,
    determinant_fp,
    eletter,
    is_prime,
)
from .errors import BudgetExceededError, DomainError, InternalStateError, NotInGroupError
from .fibonacci import fib

DEFAULT_BUDGET = 10_000_000
SL2_RADIUS_LIMIT = 14


def sl_group_order(n: int, p: int) -> int:
    """|SL_n(F_p)| = p^(n(n-1)/2) * prod_{k=2..n} (p^k - 1)."""
    if n < 2:
        raise DomainError(f"group order needs dimension >= 2, got {n}")
    if not is_prime(p):
        raise DomainError(f"modulus {p} is not prime")
    order = p ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        order *= p**k - 1
    return order


def generator_letters(n: int, alphabet: str = ELEMENTARY) -> list:
    """Symmetrized generating set: every letter together with its inverse."""
    if alphabet == ELEMENTARY:
        return [
            eletter(i, j, e)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
            for e in (1, -1)
        ]
    if alphabet == AB:
        return [abletter("A", 1), abletter("A", -1), abletter("B", 1), abletter("B", -1)]
    raise DomainError(f"unknown alphabet {alphabet!r}")


def _distances(n: int, p: int, alphabet: str, budget: int, target: tuple | None = None) -> dict:
    """Breadth-first distances from the identity, stopping once target is found.

    Only newly discovered states are compared with the target.
    """
    order = sl_group_order(n, p)
    if order > budget:
        raise BudgetExceededError(
            f"SL_{n}(F_{p}) has {order} elements, over the budget of {budget}"
        )
    letters = generator_letters(n, alphabet)
    start = tuple(1 if r == c else 0 for r in range(n) for c in range(n))
    dist = {start: 0}
    if target == start:
        return dist
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for key in frontier:
            rows = [list(key[r * n : (r + 1) * n]) for r in range(n)]
            for letter in letters:
                out = rows[:]
                apply_letter_fp(out, letter, p)
                k2 = tuple(x for row in out for x in row)
                if k2 not in dist:
                    dist[k2] = d
                    nxt.append(k2)
                    if k2 == target:
                        return dist
        frontier = nxt
    if len(dist) != order:
        raise InternalStateError(
            f"reached {len(dist)} elements, expected {order}: generators do not generate"
        )
    return dist


def bfs_distance_map(n: int, p: int, alphabet: str = ELEMENTARY, budget: int = DEFAULT_BUDGET) -> dict:
    """Exact distance from the identity for every element of SL_n(F_p).

    Keys are flat row-major entry tuples.  Elementary letters and the two
    shift generators act as O(n) row operations, so the cost is linear in
    the number of group elements times generators.
    """
    return _distances(n, p, alphabet, budget)


@dataclass(frozen=True)
class DiameterReport:
    """Eccentricity of the identity in a finite Cayley graph."""

    n: int
    p: int
    alphabet: str
    order: int
    diameter: int
    histogram: dict[int, int]


def bfs_diameter(n: int, p: int, alphabet: str = ELEMENTARY, budget: int = DEFAULT_BUDGET) -> DiameterReport:
    """Exact diameter of SL_n(F_p) and the count of elements per distance."""
    dist = bfs_distance_map(n, p, alphabet, budget)
    hist = dict(sorted(Counter(dist.values()).items()))
    return DiameterReport(n, p, alphabet, len(dist), max(dist.values()), hist)


def bfs_distance_fp(m: MatFp, alphabet: str = ELEMENTARY, budget: int = DEFAULT_BUDGET) -> int:
    """Exact Cayley distance of one element, stopping as soon as it is found."""
    if determinant_fp(m) != 1:
        raise NotInGroupError("matrix is not in SL: determinant is not 1 mod p")
    target = m.key()
    return _distances(m.n, m.p, alphabet, budget, target)[target]


def bfs_ball_sl2z(radius: int, budget: int = DEFAULT_BUDGET) -> dict:
    """Distances for the SL_2(Z) ball over e(1,2), e(2,1) and inverses.

    Returns flat 4-tuple keys mapped to exact distances up to the given
    radius.  The group is infinite, so the radius is capped; every state
    is also checked against the Fibonacci norm bound sup <= F_(d+1).
    """
    if radius < 0:
        raise DomainError(f"radius must be non-negative, got {radius}")
    if radius > SL2_RADIUS_LIMIT:
        raise DomainError(
            f"radius {radius} exceeds the exhaustive limit of {SL2_RADIUS_LIMIT}"
        )
    letters = generator_letters(2, ELEMENTARY)
    start = (1, 0, 0, 1)
    dist = {start: 0}
    frontier = [start]
    for d in range(1, radius + 1):
        bound = fib(d + 1)
        nxt = []
        for key in frontier:
            rows = [list(key[:2]), list(key[2:])]
            for letter in letters:
                out = rows[:]
                apply_letter_z(out, letter)
                k2 = (*out[0], *out[1])
                if k2 not in dist:
                    if max(abs(x) for x in k2) > bound:
                        raise InternalStateError(
                            f"element {k2} at distance {d} breaks the F_{d + 1} norm bound"
                        )
                    dist[k2] = d
                    nxt.append(k2)
        if len(dist) > budget:
            raise BudgetExceededError(f"ball exceeded the budget of {budget} states")
        frontier = nxt
    return dist


def min_pair_reduction_steps(a: int, b: int, max_steps: int = 64) -> int:
    """Fewest single-multiple moves sending (a, b) to a pair with a zero.

    Moves are a := a +- b and b := b +- a.  Exact by breadth-first search;
    states beyond four times the starting magnitude are pruned, which no
    shortest path at these sizes ever needs.
    """
    a, b = int(a), int(b)
    if a == 0 or b == 0:
        return 0
    cap = 4 * max(abs(a), abs(b)) + 4
    seen = {(a, b)}
    frontier = [(a, b)]
    for d in range(1, max_steps + 1):
        nxt = []
        for x, y in frontier:
            for u, v in ((x + y, y), (x - y, y), (x, y + x), (x, y - x)):
                if u == 0 or v == 0:
                    return d
                if abs(u) <= cap and abs(v) <= cap and (u, v) not in seen:
                    seen.add((u, v))
                    nxt.append((u, v))
        if not nxt:
            break
        frontier = nxt
    raise BudgetExceededError(f"no reduction found within {max_steps} moves")
