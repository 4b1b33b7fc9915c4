import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleynav.core import (
    MatZ,
    Word,
    determinant,
    eletter,
    elementary_matrix,
    eval_word_z,
    letter_matrix_z,
    sup_norm,
)
from cayleynav.errors import (
    InternalStateError,
    NotInGroupError,
    UnsupportedDimensionError,
)
from cayleynav.normalform import (
    NormalFormResult,
    normal_form,
    normal_form_result,
)
from cayleynav.rowreduce import RowReducer


def random_unimodular(rng, n, length):
    m = MatZ.identity(n)
    for _ in range(length):
        i = rng.randrange(1, n + 1)
        j = rng.choice([x for x in range(1, n + 1) if x != i])
        m = m * elementary_matrix(n, i, j, rng.choice([1, -1]))
    return m


def run_phase(m, phase, *args):
    """Run one phase on a fresh engine; returns (new matrix, premultiplier word)."""
    red = RowReducer([list(r) for r in m.rows])
    phase(red, *args)
    return MatZ(m.n, tuple(map(tuple, red.rows))), Word(m.n, tuple(red.out)).inverse()


def test_identity_gives_empty_word():
    r = normal_form_result(MatZ.identity(3))
    assert len(r.word) == 0
    assert r.phase_lengths == (0, 0, 0)
    assert r.column_norms == (1, 1, 1)
    assert eval_word_z(r.word) == MatZ.identity(3)


def test_single_transvection_power_stays_plain():
    m = MatZ.from_rows([[1, 5, 0], [0, 1, 0], [0, 0, 1]])
    w = normal_form(m)
    assert w.letters == (eletter(1, 2),) * 5
    assert eval_word_z(w) == m


def test_column_clear_is_a_premultiplier():
    m = MatZ.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    out, w = run_phase(m, RowReducer.clear_column, 1)
    assert eval_word_z(w) * m == out
    # pivot row swapped up, displaced row negated
    assert out.rows == ((1, 0, 0), (0, 0, -1), (0, 1, 0))
    assert w.tokens() == "e(1,2) e(2,1)^-1 e(1,2)"


def test_column_clear_random_columns():
    rng = random.Random(12)
    for n in (3, 4, 5):
        for _ in range(10):
            m = random_unimodular(rng, n, 12)
            out, w = run_phase(m, RowReducer.clear_column, 1)
            assert eval_word_z(w) * m == out
            col = [out.rows[r][0] for r in range(n)]
            assert col[0] in (1, -1)
            assert col[1:] == [0] * (n - 1)


def test_column_clear_second_column_needs_cleared_first():
    m = MatZ.from_rows([[1, 0, 0], [0, 2, 3], [0, 3, 5]])
    out, w = run_phase(m, RowReducer.clear_column, 2)
    assert eval_word_z(w) * m == out
    assert [out.rows[r][1] for r in range(1, 3)][1] == 0
    with pytest.raises(InternalStateError):
        run_phase(MatZ.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), RowReducer.clear_column, 2)


def test_engine_guards_name_what_is_wrong():
    clear, check = RowReducer.clear_column, RowReducer.check_identity
    cases = [
        ([[2, 0, 0], [0, 1, 0], [0, 0, 1]], clear, (1,), InternalStateError, "gcd of column 1 is 2"),
        ([[0, 1, 0], [0, 0, 1], [0, 1, 1]], clear, (1,), InternalStateError, "column 1 is zero"),
        ([[1, 0, 0], [1, 1, 0], [0, 0, 1]], clear, (2,), InternalStateError, "column 1 is not cleared"),
        ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], check, (), InternalStateError, "did not reach the identity"),
        ([[1, 0], [0, 1]], clear, (1,), UnsupportedDimensionError, "dimension >= 3"),
    ]
    for rows, phase, args, error, message in cases:
        with pytest.raises(error, match=message):
            phase(RowReducer(rows), *args)


def test_sign_fix_pairs_of_negative_pivots():
    cases = [
        [[-1, 0, 0], [0, -1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [[-1, 0, 0], [0, 1, 0], [0, 0, -1]],
        # non-adjacent pivots pair directly; the 1s between them cost no letters
        [[int(r == c) * (-1 if r in (1, 4) else 1) for c in range(5)] for r in range(5)],
    ]
    for rows in cases:
        out, w = run_phase(MatZ.from_rows(rows), RowReducer.clear_diagonal)
        assert out == MatZ.identity(len(rows))
        assert len(w) == 6
        assert eval_word_z(w) * MatZ.from_rows(rows) == out


def test_sign_fix_negates_whole_rows():
    # the gadget diag(a^-1, a) at a = -1: a signed swap, then e(2,1)^-1 e(1,2) e(2,1)^-1
    m = MatZ.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    out, w = run_phase(m, RowReducer.clear_diagonal)
    assert out == MatZ.identity(3)
    assert w.tokens() == "e(2,1)^-1 e(1,2) e(2,1)^-1 e(1,2) e(2,1)^-1 e(1,2)"
    assert eval_word_z(w) * m == out


def test_sign_fix_preconditions():
    with pytest.raises(InternalStateError, match="not diagonal"):
        run_phase(MatZ.from_rows([[1, 0, 0], [2, 1, 0], [0, 0, 1]]), RowReducer.clear_diagonal)
    with pytest.raises(InternalStateError, match="not diagonal"):
        run_phase(MatZ.from_rows([[1, 2, 0], [0, 1, 0], [0, 0, 1]]), RowReducer.clear_diagonal)
    with pytest.raises(InternalStateError, match="not diagonal"):
        run_phase(MatZ.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]), RowReducer.clear_diagonal)
    # a lone -1 pivot cannot happen for determinant one input
    for k in range(3):
        rows = [[int(r == c) * (-1 if r == k else 1) for c in range(3)] for r in range(3)]
        with pytest.raises(InternalStateError, match=f"pivot -1 at {k + 1} has no partner"):
            run_phase(MatZ.from_rows(rows), RowReducer.clear_diagonal)


def test_upper_clear_compresses_big_entries():
    m = MatZ.from_rows([[1, 0, 999], [0, 1, 0], [0, 0, 1]])
    out, w = run_phase(m, RowReducer.clear_upper)
    assert out == MatZ.identity(3)
    assert len(w) == 76
    assert eval_word_z(w) * m == MatZ.identity(3)


def test_upper_clear_keeps_negative_pivots():
    m = MatZ.from_rows([[1, 2, 7], [0, -1, 3], [0, 0, -1]])
    out, w = run_phase(m, RowReducer.clear_upper)
    assert out.rows == ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert eval_word_z(w) * m == out


def test_upper_clear_over_z_goes_right_to_left():
    # each source row is already a unit row, so every quotient is an entry
    # and no entry grows past the input's 100
    m = MatZ.from_rows([[1, 100, 7], [0, 1, -3], [0, 0, 1]])
    r = normal_form_result(m)
    assert (len(r.word), r.peak_norm, r.phase_lengths) == (60, 100, (0, 0, 60))
    assert eval_word_z(r.word) == m


def test_upper_clear_requires_unit_diagonal():
    with pytest.raises(InternalStateError):
        run_phase(MatZ.from_rows([[1, 2, 0], [0, 2, 0], [0, 0, -1]]), RowReducer.clear_upper)
    with pytest.raises(InternalStateError):
        run_phase(MatZ.from_rows([[1, 0, 0], [3, 1, 0], [0, 0, 1]]), RowReducer.clear_upper)


def test_normal_form_round_trips():
    rng = random.Random(2024)
    for n in (3, 4, 5):
        for _ in range(12):
            m = random_unimodular(rng, n, 25)
            r = normal_form_result(m)
            assert eval_word_z(r.word) == m
            assert sum(r.phase_lengths) == len(r.word)
            assert len(r.column_norms) == n
            assert r.column_norms[0] == sup_norm(m)


def test_normal_form_handles_large_entries():
    m = (
        MatZ.from_rows([[1, 10**9, 0], [0, 1, 0], [0, 0, 1]])
        * MatZ.from_rows([[1, 0, 0], [0, 1, 10**8], [0, 0, 1]])
        * MatZ.from_rows([[1, 0, 0], [7, 1, 0], [0, 0, 1]])
    )
    w = normal_form(m)
    assert eval_word_z(w) == m
    assert len(w) < 500


def test_normal_form_group_membership():
    with pytest.raises(NotInGroupError):
        normal_form(MatZ.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    with pytest.raises(NotInGroupError):
        normal_form(MatZ.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    with pytest.raises(UnsupportedDimensionError):
        normal_form(MatZ.identity(2))


def test_normal_form_result_record():
    m = MatZ.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    r = normal_form_result(m)
    assert isinstance(r, NormalFormResult)
    assert eval_word_z(r.word) == m
    assert r.phase_lengths[1] % 6 == 0


def test_peak_norm_counts_the_input():
    assert normal_form_result(MatZ.identity(4)).peak_norm == 1
    m = MatZ.from_rows([[1, 5, 0], [0, 1, 0], [0, 0, 1]])
    assert normal_form_result(m).peak_norm == 5


def test_lll_keeps_entries_near_the_input_norm():
    rng = random.Random(5)
    for n in (4, 6, 8):
        m = random_unimodular(rng, n, 400)
        r = normal_form_result(m)
        assert eval_word_z(r.word) == m
        assert sup_norm(m) <= r.peak_norm <= 2 * sup_norm(m)
        assert max(r.column_norms[1:]) == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 8), st.integers(1, 288), st.integers(0, 2**32))
def test_normal_form_round_trip_big_entries(n, bits, seed):
    rng = random.Random(seed)
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    while max(abs(x) for row in rows for x in row).bit_length() < bits:
        i, j = rng.sample(range(n), 2)
        q = rng.choice((1, -1)) * rng.randrange(1, 2 ** rng.randint(1, 16))
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    m = MatZ.from_rows(rows)
    r = normal_form_result(m)
    assert eval_word_z(r.word) == m
    assert sum(r.phase_lengths) == len(r.word)
    assert r.peak_norm.bit_length() <= sup_norm(m).bit_length() + n


class NoSwapReducer(RowReducer):
    def swap(self, i, j):
        raise AssertionError(f"LLL moved rows {i} and {j}")


def test_lll_reduces_in_its_virtual_order():
    # an independent check in exact rationals: size reduction, the Lovasz
    # condition at delta = 3/4, and the word against the input
    rng = random.Random(31)
    for n in (3, 4, 5, 6):
        for trial in range(8):
            if trial % 2:
                m = random_unimodular(rng, n, 60)
            else:
                m = MatZ.from_rows([[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)])
                if determinant(m) == 0:
                    continue
            red = NoSwapReducer([list(r) for r in m.rows])
            perm = red.lll()
            assert sorted(perm) == list(range(n))
            basis = [red.rows[i] for i in perm]
            star, norms, mu = [], [], [[Fraction(0)] * n for _ in range(n)]
            for k, b in enumerate(basis):
                v = [Fraction(x) for x in b]
                for j in range(k):
                    mu[k][j] = sum(x * y for x, y in zip(b, star[j])) / norms[j]
                    v = [x - mu[k][j] * y for x, y in zip(v, star[j])]
                star.append(v)
                norms.append(sum(x * x for x in v))
            for k in range(1, n):
                assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
                assert norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
            final = MatZ(n, tuple(map(tuple, red.rows)))
            assert eval_word_z(Word(n, tuple(red.out))) * final == m


def test_lll_swaps_emit_no_letters():
    # two swaps reorder the rows for free; the one size reduction is one letter
    red = NoSwapReducer([[1, 1, 0], [0, 0, 1], [0, -1, 0]])
    assert red.lll() == [1, 2, 0]
    assert red.rows == [[1, 0, 0], [0, 0, 1], [0, -1, 0]]
    assert Word(3, tuple(red.out)).tokens() == "e(1,3)^-1"


def product_to_norm(rng, n, ln_target):
    """A random product of elementary letters, stopped once its sup norm passes e^ln_target.

    Returns the matrix and its letter count, the witness: an upper bound on
    its word length.
    """
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    letters = 0
    while max(abs(x) for row in rows for x in row) <= math.exp(ln_target):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        rows[i] = [x + s * y for x, y in zip(rows[i], rows[j])]
        letters += 1
    return MatZ.from_rows(rows), letters


# worst length / witness over the three matrices, measured: 6.13 at N = 12
# and 7.96 at N = 16, where LLL spelled each size reduction on its own
# before its runs were fused (17.1 and 21.9)
@pytest.mark.parametrize("n,bound", [(12, 7.0), (16, 9.0)])
def test_large_dimension_words_stay_near_the_witness(n, bound):
    rng = random.Random(1000 + n)
    for _ in range(3):
        m, witness = product_to_norm(rng, n, 60.0)
        word = normal_form(m)
        assert eval_word_z(word) == m
        assert len(word) <= bound * witness
