"""Seeded inputs for the benchmark workloads, built with the standard library only.

Nothing here calls the package: the same seed gives the same inputs on every
commit, whatever the library's own generators do.  Letters are plain tuples
(i, j, s) with 1-based indices, meaning e(i, j)^s.
"""

import hashlib
import math
import random

# Target ln||m|| per dimension for the integer corpus.  Word length grows
# roughly like 2^N * ln||m|| at the seed, so the targets fall with N to keep
# one op per dimension within a few hundred milliseconds.
ZINT_TARGETS = {3: 60.0, 4: 42.0, 5: 28.0, 6: 18.0, 7: 11.0}

# The acceptance-08 grid plus word-size primes, where exponents need 31 and
# 61 bits and is_prime runs on large moduli.
FP_CELLS = [(n, p) for n in (3, 4, 5) for p in (101, 1009, 10007)] + [
    (n, p) for p in (2**31 - 1, 2**61 - 1) for n in (4, 5, 6)
]

# Exhaustive searches with the diameters the benchmark pins.  tracemalloc
# makes a search about eight times slower, so the traced run measures bytes
# per state on one mid-sized group only.
BFS_CASES = [
    # (n, p, alphabet, pinned diameter, measure memory in the traced run)
    (3, 3, "elementary", 7, False),
    (3, 3, "ab", 16, False),
    (4, 2, "elementary", 9, False),
    (4, 2, "ab", 28, True),
    (3, 5, "ab", 20, False),
]
REWRITE_DIMS = (3, 6, 12)
REWRITE_MIN, REWRITE_MAX = 1_000, 10_000

# Rounds per workload.  A round holds one input per stratum (dimension,
# modulus, subcommand).  The counts are sized so that a run's ops and checks
# take about RUN_SECONDS (BENCHMARK.json's run_seconds) on a shared 2-core
# machine, and the bounds in BENCHMARK.json were validated on exactly these
# inputs.  The work is fixed rather than cut off by a clock, so every run of
# a workload holds the same ops whatever the machine's speed at the time.
RUN_SECONDS = 20
ROUNDS = {"zint": 40, "fp": 64, "oracle": 24, "cli": 15}


def random_letter(rng: random.Random, n: int) -> tuple[int, int, int]:
    i, j = rng.sample(range(1, n + 1), 2)
    return i, j, rng.choice((1, -1))


def apply_letter_rows(rows: list[list[int]], letter) -> None:
    """Premultiply by e(i, j)^s: row i += s * row j."""
    i, j, s = letter
    rows[i - 1] = [x + s * y for x, y in zip(rows[i - 1], rows[j - 1])]


def identity(n: int) -> list[list[int]]:
    return [[int(r == c) for c in range(n)] for r in range(n)]


def product_to_norm(rng: random.Random, n: int, ln_target: float):
    """Random elementary product whose sup norm first exceeds e^ln_target.

    Returns (rows, word) where word lists the letters left to right, so that
    evaluating word gives rows.
    """
    bound = math.exp(ln_target)
    rows = identity(n)
    applied = []
    while max(abs(x) for row in rows for x in row) <= bound:
        letter = random_letter(rng, n)
        apply_letter_rows(rows, letter)
        applied.append(letter)
    return rows, applied[::-1]


def det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant mod the prime p by Gaussian elimination."""
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for r in range(k + 1, n):
            f = a[r][k] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[k])]
    return det % p


def uniform_sl_fp(rng: random.Random, n: int, p: int) -> list[list[int]]:
    """Uniform element of SL_n(F_p): a uniform invertible matrix, first row
    divided by its determinant."""
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        d = det_mod(rows, p)
        if d:
            break
    dinv = pow(d, -1, p)
    rows[0] = [x * dinv % p for x in rows[0]]
    return rows


def zint_inputs(rng: random.Random, rounds: int) -> list[dict]:
    """Integer matrices, one per dimension in each round."""
    cases = []
    for _ in range(rounds):
        for n, target in ZINT_TARGETS.items():
            rows, _ = product_to_norm(rng, n, target)
            cases.append({"n": n, "rows": rows})
    return cases


def fp_inputs(rng: random.Random, rounds: int) -> list[dict]:
    cases = []
    for _ in range(rounds):
        for n, p in FP_CELLS:
            cases.append({"n": n, "p": p, "rows": uniform_sl_fp(rng, n, p)})
    return cases


def rewrite_inputs(rng: random.Random, rounds: int) -> list[dict]:
    """Elementary words for A/B rewriting, one per dimension in each round.

    The lengths are fixed and log-spaced over [REWRITE_MIN, REWRITE_MAX],
    each dimension taking every third one, so the seed only draws letters.
    """
    cases = []
    dims = len(REWRITE_DIMS)
    slots = rounds * dims
    span = math.log(REWRITE_MAX / REWRITE_MIN)
    for k in range(rounds):
        for d, n in enumerate(REWRITE_DIMS):
            slot = k * dims + (d + k) % dims
            length = round(REWRITE_MIN * math.exp(span * (slot + 0.5) / slots))
            cases.append({"n": n, "word": [random_letter(rng, n) for _ in range(length)]})
    return cases


def oracle_inputs(rng: random.Random, rounds: int) -> list[dict]:
    cases = [
        {"kind": "bfs", "n": n, "p": p, "alphabet": a, "diameter": d, "memory": mem}
        for n, p, a, d, mem in BFS_CASES
    ]
    for c in rewrite_inputs(rng, rounds):
        c["kind"] = "rewrite"
        cases.append(c)
    return cases


def word_text(word) -> str:
    return " ".join(f"e({i},{j})" + ("^-1" if s < 0 else "") for i, j, s in word)


def matrix_text(rows, p: int | None = None) -> str:
    header = f"{len(rows)}" if p is None else f"{len(rows)} {p}"
    return header + "\n" + "\n".join(" ".join(map(str, row)) for row in rows) + "\n"


def cli_inputs(rng: random.Random, rounds: int) -> list[dict]:
    """Small inputs for each subcommand, one of each per round.

    Sizes (dimension, modulus, norm, length) cycle through fixed values with
    the round; the seed draws the entries and letters.  Each case holds argv
    (after the program name), optional stdin text and what the benchmark
    needs to check the output.
    """
    cases = []
    for k in range(rounds):
        n3, n2 = (3, 4, 5)[k % 3], (3, 4)[k % 2]
        i, j = rng.sample(range(1, n3 + 1), 2)
        m = rng.choice((1, -1)) * rng.randrange(10**6, 2 * 10**6)
        cases.append({"cmd": "compress", "argv": ["compress", str(n3), str(i), str(j), str(m)],
                      "n": n3, "i": i, "j": j, "m": m})

        g = rng.randrange(1, 50)
        entries = [g * rng.randrange(1, 10**6) for _ in range(n2)]
        cases.append({"cmd": "gcd", "argv": ["gcd", *map(str, entries)], "entries": entries})

        rows, _ = product_to_norm(rng, n2, 12.0)
        cases.append({"cmd": "normal-form", "argv": ["normal-form", "-"],
                      "stdin": matrix_text(rows), "rows": rows})

        blocks = [product_to_norm(rng, d, 8.0)[0] for d in (3, 4, 3)]
        cases.append({"cmd": "normal-form-stats", "argv": ["normal-form", "--stats", "-"],
                      "stdin": "\n".join(matrix_text(b) for b in blocks), "blocks": blocks})

        p = (101, 1009, 10007)[k % 3]
        rows = uniform_sl_fp(rng, n2, p)
        cases.append({"cmd": "reduce-modp", "argv": ["reduce-modp", "--json", "-"],
                      "stdin": matrix_text(rows, p), "rows": rows, "p": p})

        p, samples = (5, 7)[k % 2], 20
        cases.append({"cmd": "fp-report",
                      "argv": ["fp-report", "3", str(p), "--samples", str(samples),
                               "--seed", str(rng.randrange(10**6))],
                      "n": 3, "p": p, "samples": samples})

        word = [random_letter(rng, n3) for _ in range(40)]
        cases.append({"cmd": "rewrite-ab", "argv": ["rewrite-ab", str(n3), *word_text(word).split()],
                      "n": n3, "word": word})

        rows, word = product_to_norm(rng, n2, 8.0)
        cases.append({"cmd": "verify", "argv": ["verify", "--matrix", "-", *word_text(word).split()],
                      "stdin": matrix_text(rows), "length": len(word)})

        cases.append({"cmd": "bfs-diameter", "argv": ["bfs-diameter", "3", "2"],
                      "n": 3, "p": 2, "diameter": 6})
    return cases


GENERATORS = {"zint": zint_inputs, "fp": fp_inputs, "oracle": oracle_inputs, "cli": cli_inputs}


def make_inputs(workload: str, seed: int, traced: bool = False) -> list[dict]:
    """The workload's inputs for this seed.  A traced run times every op
    twice, so it takes half the rounds."""
    rounds = ROUNDS[workload] // 2 if traced else ROUNDS[workload]
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), rounds)


def digest(cases: list[dict]) -> str:
    """Short hash of the inputs, printed so two commits can be seen to share them."""
    h = hashlib.sha256()
    for c in cases:
        h.update(repr(sorted(c.items())).encode())
    return h.hexdigest()[:16]
