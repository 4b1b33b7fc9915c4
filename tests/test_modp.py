import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleynav.bfs import bfs_distance_map
from cayleynav.compression import compress_power
from cayleynav.core import (
    MatFp,
    MatZ,
    Word,
    determinant_fp,
    eletter,
    eval_word_fp,
    eval_word_z,
    inverse_mod,
    least_abs_residue,
)
from cayleynav.errors import (
    BudgetExceededError,
    DomainError,
    NotInGroupError,
    UnsupportedDimensionError,
)
from cayleynav.modp import (
    DEFAULT_C,
    FpReport,
    diameter_upper_bound_report,
    length_bound_modp,
    random_sl_fp,
    word_for_modp,
)
from cayleynav.rowreduce import RowReducer


def diag_fp(p, entries):
    n = len(entries)
    rows = [[entries[r] if r == c else 0 for c in range(n)] for r in range(n)]
    return MatFp.from_rows(rows, p)


def all_sl3_f2():
    for bits in itertools.product((0, 1), repeat=9):
        m = MatFp.from_rows([bits[0:3], bits[3:6], bits[6:9]], 2)
        if determinant_fp(m) == 1:
            yield m


def gadget(n, i, a, p):
    """Premultiplier word of the gadget at rows (i, i+1): the engine clears a at i, a^-1 at i+1."""
    diag = [1] * n
    diag[i - 1], diag[i] = a % p, inverse_mod(a, p)
    red = RowReducer([[diag[r] if r == c else 0 for c in range(n)] for r in range(n)], p)
    red.reduce()
    return Word(n, tuple(red.out)).inverse()


def test_gadget_trades_adjacent_diagonal_entries():
    w = gadget(3, 1, 2, 7)
    assert eval_word_fp(w, 7) == diag_fp(7, (4, 2, 1))
    # premultiplying diag(2, 3, 1) moves its first pivot into the second
    m = diag_fp(7, (2, 3, 1))
    assert eval_word_fp(w, 7) * m == diag_fp(7, (1, 6, 1))


def test_gadget_unit_pivot_collapses_to_identity():
    # a pivot of 1 emits no letters
    for a in (1, 6, 11):
        assert len(gadget(3, 1, a, 5)) == 0


def test_gadget_only_touches_the_chosen_block():
    w = gadget(4, 2, 3, 7)
    assert eval_word_fp(w, 7) == diag_fp(7, (1, 5, 3, 1))
    used = {x for l in w.letters for x in (l.i, l.j)}
    assert used == {2, 3}


def test_gadget_across_primes():
    for p in (3, 5, 11, 101):
        for a in range(2, min(p, 8)):
            w = gadget(3, 2, a, p)
            assert eval_word_fp(w, p) == diag_fp(p, (1, inverse_mod(a, p), a))


def test_gadget_letters_follow_the_docstring_formula():
    # the gadget's moves as one premultiplier, the first move rightmost:
    # e(j,i)^a e(i,j)^(-a^-1) e(j,i)^a (e(i,j) e(j,i)^-1 e(i,j)), j = i+1,
    # each power spelled by compress_power with its least-absolute exponent
    for p in (2, 3, 7, 101, 2**31 - 1, 2**61 - 1):
        for a in {1, 2, 3, 5, p - 1, p // 2, p // 2 + 1, 10**12 + 39}:
            if a % p in (0, 1):
                continue
            for n in (3, 5):
                for i in range(1, n):
                    j = i + 1
                    power_a = compress_power(n, j, i, least_abs_residue(a, p)).letters
                    power_inv = compress_power(n, i, j, least_abs_residue(-inverse_mod(a, p), p)).letters
                    swap = (eletter(i, j), eletter(j, i, -1), eletter(i, j))
                    w = gadget(n, i, a, p)
                    assert w.letters == power_a + power_inv + power_a + swap


def test_word_for_modp_diagonal_skips_unit_pivots():
    # one gadget per pair of pivots != 1, none spent on the 1 between them
    for p, entries, length in ((7, (3, 1, 5), 11), (11, (2, 1, 1, 6), 12)):
        m = diag_fp(p, entries)
        w = word_for_modp(m)
        assert len(w) == length
        assert eval_word_fp(w, p) == m


def test_sparse_diagonals_over_large_primes_stay_short():
    # the gadget hands each pivot != 1 to the next one and skips the 1s:
    # measured 325 and 33 letters, where three transvections in place of
    # the gadget take 474 and 46
    for p, entries, length in ((10007, (2, 3, 5, 2335), 325), (101, (5, 1, 1, 1, 1, 81), 33)):
        m = diag_fp(p, entries)
        w = word_for_modp(m)
        assert len(w) <= length
        assert eval_word_fp(w, p) == m


class CountingReducer(RowReducer):
    swaps = 0

    def swap(self, i, j):
        self.swaps += 1
        super().swap(i, j)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((None, 2, 3, 7, 101, 2**61 - 1)), st.integers(3, 7), st.data())
def test_clear_diagonal_round_trip(p, n, data):
    # a unit diagonal with product 1: +-1 with an even number of -1 over Z
    if p is None:
        head = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n - 1, max_size=n - 1))
        diag = head + [math.prod(head)]
    else:
        head = data.draw(st.lists(st.integers(1, p - 1), min_size=n - 1, max_size=n - 1))
        diag = head + [inverse_mod(math.prod(head), p)]
    rows = [[diag[r] if r == c else 0 for c in range(n)] for r in range(n)]
    red = CountingReducer([list(r) for r in rows], p)
    red.reduce()
    # the running product is carried to the next pivot != 1: one gadget at
    # every pivot != 1 where the product so far is not yet 1
    gadgets, prod = 0, 1
    for d in diag:
        prod = prod * d if p is None else prod * d % p
        gadgets += d != 1 and prod != 1
    assert red.swaps == gadgets
    w = Word(n, tuple(red.out))
    if p is None:
        assert len(w) == 6 * gadgets
        assert eval_word_z(w) == MatZ.from_rows(rows)
    else:
        assert eval_word_fp(w, p) == MatFp.from_rows(rows, p)


def test_word_for_modp_identity_and_generator():
    assert len(word_for_modp(MatFp.identity(3, 7))) == 0
    m = MatFp.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 7)
    w = word_for_modp(m)
    assert len(w) == 1
    assert eval_word_fp(w, 7) == m


def test_word_for_modp_exhaustive_sl3_f2():
    count = 0
    for m in all_sl3_f2():
        w = word_for_modp(m)
        assert eval_word_fp(w, 2) == m
        assert len(w) <= length_bound_modp(3, 2)
        count += 1
    assert count == 168


def test_word_for_modp_sampled():
    rng = random.Random(99)
    for p in (5, 101):
        for _ in range(60):
            m = random_sl_fp(3, p, rng)
            w = word_for_modp(m)
            assert eval_word_fp(w, p) == m
            assert len(w) <= length_bound_modp(3, p)


def test_word_for_modp_larger_dimensions():
    rng = random.Random(7)
    for n in (4, 5):
        for _ in range(15):
            m = random_sl_fp(n, 13, rng)
            w = word_for_modp(m)
            assert eval_word_fp(w, 13) == m
            assert len(w) <= length_bound_modp(n, 13)


@pytest.mark.parametrize("n, p, seed, samples", [(16, 2**61 - 1, 116, 6), (32, 10007, 132, 3)])
def test_word_for_modp_large_dimensions(n, p, seed, samples):
    # the worst length / (N^2 ln p) measured on these samples is 1.074 at
    # N = 16 and 0.737 at N = 32; each bound is about 12% above its worst.
    # Each case takes about 0.5 s with evaluation
    bound = {16: 1.2, 32: 0.83}[n]
    rng = random.Random(seed)
    for _ in range(samples):
        m = random_sl_fp(n, p, rng)
        w = word_for_modp(m)
        assert eval_word_fp(w, p) == m
        assert len(w) <= bound * n * n * math.log(p)


def test_word_for_modp_membership_checks():
    with pytest.raises(NotInGroupError):
        word_for_modp(diag_fp(7, (2, 1, 1)))
    with pytest.raises(UnsupportedDimensionError):
        word_for_modp(MatFp.identity(2, 7))


def test_random_sl_fp_lands_in_the_group():
    rng = random.Random(0)
    seen = set()
    for _ in range(40):
        m = random_sl_fp(3, 5, rng)
        assert determinant_fp(m) == 1
        seen.add(m.key())
    assert len(seen) > 30  # draws are spread out, not a fixed point
    with pytest.raises(DomainError, match="dimension >= 2"):
        random_sl_fp(1, 5, rng)


def test_report_exhaustive_sl3_f2():
    rep = diameter_upper_bound_report(3, 2, exhaustive=True)
    assert rep.mode == "exhaustive"
    assert rep.order == 168
    assert rep.count == 168
    # every pivot lands as 1 in column clearing: at most 8 letters, 684 in
    # all, against the diameter 6
    assert rep.max_length == 8
    assert rep.mean_length == pytest.approx(4.071428571428571)
    assert rep.normalized_max == pytest.approx(1.2823955919013008)
    assert rep.seed is None
    assert rep.bound == pytest.approx(74.8598955004741)


def test_report_sampled_is_deterministic():
    a = diameter_upper_bound_report(3, 101, samples=40, seed=5)
    b = diameter_upper_bound_report(3, 101, samples=40, seed=5)
    assert a == b
    assert isinstance(a, FpReport)
    assert a.mode == "sampled"
    assert a.count == 40
    assert a.seed == 5
    assert a.normalized_max < DEFAULT_C
    c = diameter_upper_bound_report(3, 101, samples=40, seed=6)
    assert c != a


def test_report_budget_refusal():
    with pytest.raises(BudgetExceededError):
        diameter_upper_bound_report(3, 101, exhaustive=True)


def test_report_refuses_small_dimension_before_searching():
    # SL_2(F_251) is over the state budget; the dimension is refused first
    for exhaustive in (True, False):
        with pytest.raises(UnsupportedDimensionError, match="dimension >= 3, got 2"):
            diameter_upper_bound_report(2, 251, exhaustive=exhaustive)


def test_report_rejects_empty_sample():
    with pytest.raises(DomainError):
        diameter_upper_bound_report(3, 7, samples=0)


def test_length_bound_modp_scales():
    assert length_bound_modp(3, 2) == pytest.approx(74.8598955004741)
    assert length_bound_modp(3, 101) < length_bound_modp(4, 101)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.sampled_from((2**64 - 59, 2**61 - 1)), st.integers(0, 2**32))
def test_word_for_modp_round_trip_near_2_64(n, p, seed):
    m = random_sl_fp(n, p, random.Random(seed))
    w = word_for_modp(m)
    assert eval_word_fp(w, p) == m
    assert len(w) <= length_bound_modp(n, p)


def test_word_for_modp_is_never_shorter_than_the_bfs_distance():
    # every element of SL_3(F_3), and a seeded sample of SL_3(F_5), against
    # the exact Cayley distance over the elementary generators
    details = []
    for p, sample in ((3, None), (5, 1500)):
        dist = bfs_distance_map(3, p)
        keys = list(dist)
        if sample is not None:
            keys = random.Random(f"bfs-distance:{p}").sample(sorted(keys), sample)
        worst = (0.0, 0, 0)
        for key in keys:
            m = MatFp(3, p, (key[0:3], key[3:6], key[6:9]))
            length, d = len(word_for_modp(m)), dist[key]
            assert length >= d, f"{m.rows}: word of {length} letters, distance {d}"
            if d:
                worst = max(worst, (length / d, length, d))
        details.append(
            f"p={p}: {len(keys)} elements, worst length/distance {worst[0]:.2f} "
            f"({worst[1]} letters at distance {worst[2]})"
        )
    print("PROPERTY (word_for_modp length >= BFS distance): PASS " + "; ".join(details))
