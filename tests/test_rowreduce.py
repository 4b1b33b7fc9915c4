import copy
import math
import random

import pytest

from cayleynav.compression import _batch_letters, compress_power
from cayleynav.core import MatFp, MatZ, Word, eletter, eval_word_fp, eval_word_z, least_abs_residue
from cayleynav.errors import DomainError, NotInGroupError, UnsupportedDimensionError
from cayleynav.modp import random_sl_fp
from cayleynav.rowreduce import RowReducer


def by_hand(red, sup):
    """The phase sequence spelled out step by step, with the sup norms kept aside.

    sup is the sup norm of the input, before any pre-reduction.  LLL runs
    over Z when some entry below the diagonal is nonzero.  The letters of
    the gadgets that column clearing runs in place are counted in red.sign_letters.
    """
    norms = [sup]
    if red.p is None and any(red.rows[r][c] for r in range(red.n) for c in range(r)):
        red.lll()
    for col in range(1, red.n):
        red.clear_column(col)
        if red.p is None:
            norms.append(max(abs(x) for row in red.rows for x in row))
    n1 = len(red.out)
    red.clear_upper()
    red.check_identity()
    return (n1 - red.sign_letters, red.sign_letters, len(red.out) - n1), norms


@pytest.mark.parametrize("p", [None, "upper", 2, 7, 2**31 - 1])
def test_reduce_runs_the_phase_sequence(p):
    # "upper" is over Z too, on upper triangular inputs of determinant 1,
    # which skip LLL: nothing below the diagonal is nonzero
    rng = random.Random(23 if p is None else p)
    ring = None if p == "upper" else p
    for n in (3, 4, 5, 6):
        for _ in range(4):
            if p is None:
                pairs = (rng.sample(range(1, n + 1), 2) for _ in range(20 * n))
                m = eval_word_z(Word(n, tuple(eletter(i, j, rng.choice((1, -1))) for i, j in pairs)))
            elif p == "upper":
                rows = upper_triangular(n, None, rng, range(2, n + 1))
                rows[-1][-1] *= math.prod(rows[r][r] for r in range(n))
                m = MatZ.from_rows(rows)
            else:
                m = random_sl_fp(n, p, rng)
            red = RowReducer([list(r) for r in m.rows], ring)
            hand = copy.deepcopy(red)
            phases, norms = by_hand(hand, max(abs(x) for row in m.rows for x in row))
            word, got, _, _ = red.reduce()
            assert word.letters == tuple(red.out)
            assert red.out == hand.out
            assert got == phases
            assert sum(got) == len(word)
            assert red.norms == norms == hand.norms
            assert red.peak == hand.peak
            if p == "upper":
                # no LLL, and every column is cleared already: no column letter
                assert got[0] == 0
            if ring is None:
                assert len(norms) == n and eval_word_z(word) == m
            else:
                assert red.norms == [red.peak]
                assert eval_word_fp(word, p) == m


def upper_triangular(n, p, rng, cols):
    """Unit upper triangular rows, random above the diagonal in the given columns only.

    Over Z the pivots are +-1 and the entries reach 10^12; over Z/p the
    pivots are nonzero residues and the entries arbitrary residues.
    """
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        rows[r][r] = rng.choice((1, -1)) if p is None else rng.randrange(1, p)
        for c in cols:
            if c > r + 1:
                rows[r][c - 1] = rng.randint(-10**12, 10**12) if p is None else rng.randrange(p)
    return rows


def upper_powers(rows, col, p):
    """The batch (i, m) that clears column col of upper triangular rows with pivots of 1."""
    powers = []
    for i in range(1, col):
        q = -rows[i - 1][col - 1]
        q = q if p is None else least_abs_residue(q, p)
        if q:
            powers.append((i, -q))
    return powers


@pytest.mark.parametrize("p", [None, 10007, 2**61 - 1])
def test_clear_upper_takes_the_half_walk_only_over_fp_before_column_n(p):
    rng = random.Random(f"upper:{p}")
    for n in (3, 4, 5, 6):
        for col in range(2, n + 1):
            rows = upper_triangular(n, p, rng, [col])
            for r in range(n):
                rows[r][r] = 1  # clear_upper takes pivots of 1
            red = RowReducer(copy.deepcopy(rows), p)
            red.clear_upper()
            assert all(red.rows[r][c] == 0 for r in range(n) for c in range(r + 1, n))
            powers = upper_powers(rows, col, p)
            full, _ = _batch_letters(col, powers, range(1, n + 1))
            if p is None or col == n:
                assert red.out == full
                continue
            half, moved = _batch_letters(col, powers, range(1, n + 1), n)
            assert len(half) <= len(full) and red.out[: len(half)] == half
            # the junk lands on column n, which column n then clears with the
            # full template
            for i, x in moved:
                rows[i - 1][n - 1] = (rows[i - 1][n - 1] - x) % p
            assert red.out[len(half) :] == _batch_letters(n, upper_powers(rows, n, p), range(1, n + 1))[0]


@pytest.mark.parametrize("p", [None, 7])
def test_reduce_is_the_one_door(p):
    # N >= 3 at construction, det 1 before any phase, both as typed errors
    with pytest.raises(UnsupportedDimensionError, match="dimension >= 3, got 2"):
        RowReducer([[1, 0], [0, 1]], p)
    cases = [
        ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 0),
        ([[1, 1, 1], [2, 2, 2], [3, 3, 3]], 0),
        ([[0, 0, 0], [0, 1, 0], [0, 0, 1]], 0),
        ([[2, 0, 0], [0, 1, 0], [0, 0, 1]], 2),
        ([[1, 1, 0], [0, 2, 0], [0, 0, 1]], 2),
    ]
    if p is None:
        cases.append(([[0, 1, 0], [1, 0, 0], [0, 0, 1]], -1))
    for rows, det in cases:
        red = RowReducer(copy.deepcopy(rows), p)
        ring = "" if p is None else f" mod {p}"
        with pytest.raises(NotInGroupError, match=f"determinant is {det}{ring}, not 1"):
            red.reduce()
        assert red.out == [] and red.rows == rows


@pytest.mark.parametrize("p", [None, 7])
def test_reduce_refuses_rows_that_are_not_square(p):
    # a typed error before any phase, nothing emitted and no row touched;
    # the constructor still takes euclid's one-column matrix
    for rows in ([[1, 0], [0, 1], [1, 1]], [[1], [2], [3]], [[1, 0, 0], [0, 1, 0], [0, 0, 1, 5]]):
        red = RowReducer(copy.deepcopy(rows), p)
        with pytest.raises(DomainError, match="need 3 x 3 rows"):
            red.reduce()
        assert red.out == [] and red.rows == rows


def test_reduce_takes_entries_mod_p():
    # 8 and -6 are 1 mod 7: an element of SL_3(F_7), the identity
    for a in (8, -6):
        rows = [[a, 0, 0], [0, 1, 0], [0, 0, 1]]
        word = RowReducer(copy.deepcopy(rows), 7).reduce().word
        assert eval_word_fp(word, 7) == MatFp.from_rows(rows, 7)


@pytest.mark.parametrize("p", [None, 2, 7, 10007])
def test_the_record_adds_up_in_both_rings(p):
    # over Z, inputs times a diagonal of signs, so column clearing runs
    # sign gadgets of 6 letters each
    rng = random.Random(f"record:{p}")
    signs = 0
    for n in (3, 4, 5, 6):
        for _ in range(8):
            if p is None:
                pairs = (rng.sample(range(1, n + 1), 2) for _ in range(10 * n))
                m = eval_word_z(Word(n, tuple(eletter(i, j, rng.choice((1, -1))) for i, j in pairs)))
                flips = rng.sample(range(n), 2 * rng.randrange(n // 2 + 1))
                m = MatZ.from_rows([[-x if r in flips else x for x in row] for r, row in enumerate(m.rows)])
            else:
                m = random_sl_fp(n, p, rng)
            r = RowReducer([list(row) for row in m.rows], p).reduce()
            assert sum(r.phase_lengths) == len(r.word)
            if p is None:
                assert r.phase_lengths[1] % 6 == 0
                assert eval_word_z(r.word) == m
            else:
                assert eval_word_fp(r.word, p) == m
            signs += r.phase_lengths[1]
    # over F_2 every nonzero entry is 1, so no gadget runs
    assert (signs > 0) == (p != 2)


def test_lll_refuses_dependent_rows():
    # a Gram determinant vanishes: d_2, d_2, d_3 and d_1 in turn
    cases = [
        [[1, 2, 3], [2, 4, 6], [0, 0, 1]],
        [[1, 1, 1], [2, 2, 2], [3, 3, 3]],
        [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
    ]
    for rows in cases:
        with pytest.raises(NotInGroupError, match="determinant is 0"):
            RowReducer(rows).lll()


def test_lll_spells_a_run_on_one_row_as_one_batch():
    # row 5 = e5 + a e1 + b e2 + c e3 over the unit rows: lll size-reduces it
    # by sources 3, 2 and 1, one run, fused into one template with aux 4
    a, b, c = 1000, -777, 2**40 + 3
    rows = [[int(r == col) for col in range(5)] for r in range(5)]
    rows[4] = [a, b, c, 0, 1]
    m = MatZ.from_rows(rows)
    red = RowReducer(copy.deepcopy(rows))
    assert red.lll() == [0, 1, 2, 3, 4]
    assert red.rows == [[int(r == col) for col in range(5)] for r in range(5)]
    assert eval_word_z(Word(5, tuple(red.out))) == m
    singles = sum(len(compress_power(5, 5, l, q)) for l, q in ((1, a), (2, b), (3, c)))
    assert len(red.out) < singles
