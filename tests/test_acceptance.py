"""End-to-end acceptance checks.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Timing limits are generous; the seeds pin every random
draw so the numbers in the detail strings are reproducible.
"""

import math
import random
import time

from cayleynav.abwords import eij_ab_word
from cayleynav.bfs import bfs_diameter, bfs_distance_map, row_move_distances
from cayleynav.compression import _fused_template, compress_power
from cayleynav.core import (
    MatFp,
    MatZ,
    elementary_matrix,
    eletter,
    eval_word_fp,
    eval_word_z,
    sup_norm,
    Word,
)
from cayleynav.euclid import DEFAULT_K, accelerated_reduce, replay_word_on_tuple, subtractive_gcd
from cayleynav.fibonacci import fib, zeckendorf_length_bound
from cayleynav.modp import diameter_upper_bound_report, word_for_modp
from cayleynav.normalform import normal_form


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def transvection_power(n, i, j, m):
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i - 1][j - 1] = m
    return MatZ.from_rows(rows)


def test_acceptance_01_power_words_are_correct_and_short():
    start = time.monotonic()
    worst = 0.0
    for n in (3, 4, 5):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for i, j in pairs:
            for m in range(-512, 513):
                w = compress_power(n, i, j, m)
                assert eval_word_z(w) == transvection_power(n, i, j, m)
                if m:
                    worst = max(worst, len(w) / zeckendorf_length_bound(abs(m)))
    rng = random.Random(0)
    for _ in range(10_000):
        n = rng.choice((3, 4, 5))
        i = rng.randrange(1, n + 1)
        j = rng.choice([x for x in range(1, n + 1) if x != i])
        m = rng.choice((1, -1)) * rng.randint(1, 10**9)
        w = compress_power(n, i, j, m)
        assert eval_word_z(w) == transvection_power(n, i, j, m)
        worst = max(worst, len(w) / zeckendorf_length_bound(abs(m)))
    elapsed = time.monotonic() - start
    report(
        1,
        "power compression",
        worst <= 1.0 and elapsed < 60.0,
        f"worst length/bound={worst:.3f} elapsed={elapsed:.1f}s",
    )


def fib_template(k):
    """The template carrying the single Fibonacci index k: e(1,3)^F_k in dimension 3."""
    return Word(3, tuple(_fused_template(3, 2, ((1, (k,), 1),))))


def test_acceptance_02_fibonacci_template_exactness():
    ok = True
    for t in range(41):
        even = fib_template(2 * t)
        odd = fib_template(2 * t + 1)
        ok = ok and len(even) == 6 + 8 * t and len(odd) == 6 + 8 * t
        ok = ok and eval_word_z(even) == transvection_power(3, 1, 3, fib(2 * t))
        ok = ok and eval_word_z(odd) == transvection_power(3, 1, 3, fib(2 * t + 1))
    report(
        2,
        "fixed Fibonacci power templates",
        ok,
        f"exponents up to F_81={fib(81)} reproduced exactly",
    )


def test_acceptance_03_deterministic_reduction_trace():
    tr = subtractive_gcd((-32, 8, -12))
    expected = [
        (-32, 8, -12),
        (-20, 8, -12),
        (-8, 8, -12),
        (-8, 8, -4),
        (0, 8, -4),
        (0, 4, -4),
        (0, 0, -4),
    ]
    ok = tr.step_count == 6 and tr.final == (0, 0, -4) and tr.tuples() == expected
    ok = ok and replay_word_on_tuple(tr.word(), (-32, 8, -12)) == (0, 0, -4)
    report(3, "worked reduction trace", ok, f"steps={tr.step_count} final={tr.final}")


def test_acceptance_04_accelerated_reduction_letter_budget():
    rng = random.Random(0)
    worst = total = 0.0
    for trial in range(1000):
        n = rng.randrange(3, 9)
        entries = tuple(rng.choice((1, -1)) * rng.randint(1, 10**9) for _ in range(n))
        k = rng.randrange(2, n + 1) if trial % 10 < 3 else n
        res = accelerated_reduce(entries, k)
        assert replay_word_on_tuple(res.word, entries) == res.final
        assert res.final[: n - k] == entries[: n - k]
        nonzero = [x for x in res.final[n - k :] if x]
        assert len(nonzero) == 1
        assert abs(nonzero[0]) == math.gcd(*entries[n - k :])
        max_abs = max(abs(x) for x in entries[n - k :])
        constant = len(res.word) / ((k - 1) * (1.0 + math.log(max_abs)))
        worst = max(worst, constant)
        total += constant
    report(
        4,
        "accelerated reduction budget",
        worst <= DEFAULT_K,
        f"minimal constant={worst:.2f} (mean {total / 1000:.2f}) "
        f"against default budget constant {DEFAULT_K}",
    )


def test_acceptance_05_no_compression_in_dimension_two():
    start = time.monotonic()
    ball = row_move_distances(((1, 0, 0, 1),), 2, radius=12)
    ok = len(ball) == 36844
    for k in range(1, 13):
        ok = ok and ball[(1, 0, k, 1)] == k
    elapsed = time.monotonic() - start
    report(
        5,
        "dimension two lower bound",
        ok and elapsed < 60.0,
        f"d(e(2,1)^k)=k for k<=12, ball size {len(ball)}, elapsed={elapsed:.1f}s",
    )


def test_acceptance_06_normal_form_round_trip():
    start = time.monotonic()
    rng = random.Random(0)
    worst_ratio = 0.0
    for n in (3, 4, 5):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for _ in range(1000):
            length = rng.randint(20, 200)
            letters = tuple(
                eletter(*rng.choice(pairs), rng.choice((1, -1))) for _ in range(length)
            )
            m = eval_word_z(Word(n, letters))
            norm = sup_norm(m)
            assert norm <= fib(length)
            w = normal_form(m)
            assert eval_word_z(w) == m
            assert norm <= fib(len(w))
            if norm >= 2:
                worst_ratio = max(worst_ratio, len(w) / math.log(norm))
    elapsed = time.monotonic() - start
    # measured worst 56.7 with LLL's runs on one row fused (72.4 before)
    report(
        6,
        "normal form round trip",
        elapsed < 120.0 and worst_ratio <= 70.0,
        f"3000 matrices exact, worst length/ln(norm)={worst_ratio:.1f} (<= 70), "
        f"elapsed={elapsed:.1f}s",
    )


def test_acceptance_07_exhaustive_small_fields():
    details = []
    ok = True
    for p in (2, 3):
        diam = bfs_diameter(3, p).diameter
        max_len = 0
        for key in bfs_distance_map(3, p):
            m = MatFp(3, p, (key[0:3], key[3:6], key[6:9]))
            w = word_for_modp(m)
            ok = ok and eval_word_fp(w, p) == m
            max_len = max(max_len, len(w))
        ok = ok and max_len >= diam
        details.append(f"p={p}: max length {max_len} vs diameter {diam}")
    report(7, "exhaustive small fields", ok, "; ".join(details))


def test_acceptance_08_length_scales_like_n_squared_log_p():
    values = {}
    for n in (3, 4, 5):
        for p in (101, 1009, 10007):
            rep = diameter_upper_bound_report(n, p, samples=200, seed=0)
            values[(n, p)] = rep.normalized_max
    spread = max(values.values()) / min(values.values())
    worst = max(values.values())
    report(
        8,
        "mod p length scaling",
        spread <= 2.0 and worst <= 8.0,
        f"normalized max spread={spread:.3f}, worst normalized max={worst:.3f} (<= 8.0) "
        "over a 3x3 grid of (n, p)",
    )


def test_acceptance_09_two_generator_tables():
    ok = True
    for n in range(2, 13):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                w = eij_ab_word(i, j, n)
                ok = ok and eval_word_z(w) == elementary_matrix(n, i, j)
                ok = ok and len(w) <= 10 * n
        for k in range(3, n + 1):
            ok = ok and len(eij_ab_word(1, k, n)) == 8 * k - 16
    report(
        9,
        "two generator rewriting",
        ok,
        "all e(i,j) words exact for n<=12, lengths within 10n, corner words 8k-16",
    )


def test_acceptance_10_average_subtractive_cost():
    start = time.monotonic()
    rng = random.Random(0)
    modulus = 10**5
    total = 0
    samples = 10_000
    for _ in range(samples):
        m = rng.randint(1, modulus)
        total += subtractive_gcd((m, modulus)).step_count
    mean = total / samples
    target = 6.0 / math.pi**2 * math.log(modulus) ** 2
    ratio = mean / target
    elapsed = time.monotonic() - start
    report(
        10,
        "average subtractive cost",
        0.75 <= ratio <= 1.25 and elapsed < 60.0,
        f"mean={mean:.3f} predicted={target:.3f} ratio={ratio:.3f} elapsed={elapsed:.1f}s",
    )
