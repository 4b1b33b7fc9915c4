import pickle
import random
import re
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleynav import core
from cayleynav.core import (
    AB,
    ELEMENTARY,
    GenLetter,
    MatFp,
    MatZ,
    Word,
    _word,
    ab_matrix,
    abletter,
    determinant,
    determinant_fp,
    eletter,
    elementary_matrix,
    eval_word_fp,
    eval_word_z,
    inverse_mod,
    is_prime,
    least_abs_residue,
    letter_matrix_z,
    sup_norm,
)
from cayleynav.errors import DomainError, InternalStateError, InvalidGeneratorError, ParseError
from cayleynav.euclid import QuotientStep
from cayleynav.fibonacci import fib, zeckendorf
from cayleynav.formats import parse_word_text


def naive_mul(a, b):
    n = a.n
    return tuple(
        tuple(sum(a.rows[i][k] * b.rows[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for c in range(n):
        minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
        total += (-1) ** c * rows[0][c] * cofactor_det(minor)
    return total


def random_matz(rng, n, bound=9):
    return MatZ.from_rows(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    )


def random_eword(rng, n, length):
    letters = []
    for _ in range(length):
        i = rng.randrange(1, n + 1)
        j = rng.choice([x for x in range(1, n + 1) if x != i])
        letters.append(eletter(i, j, rng.choice([1, -1])))
    return Word(n, tuple(letters))


def random_abword(rng, n, length):
    letters = tuple(
        abletter(rng.choice("AB"), rng.choice([1, -1])) for _ in range(length)
    )
    return Word(n, letters)


# ---------------------------------------------------------------- matrices


def test_matz_mul_against_naive():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            a = random_matz(rng, n)
            b = random_matz(rng, n)
            assert (a * b).rows == naive_mul(a, b)


def test_matz_identity_and_key():
    m = MatZ.identity(3)
    assert m.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert m.key() == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    a = random_matz(random.Random(5), 4)
    assert a * MatZ.identity(4) == a
    assert MatZ.identity(4) * a == a


def test_matz_shape_validation():
    with pytest.raises(DomainError):
        MatZ(3, ((1, 0), (0, 1)))
    with pytest.raises(DomainError):
        MatZ(2, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(DomainError):
        MatZ.identity(2) * MatZ.identity(3)
    with pytest.raises(DomainError):
        MatFp.identity(3, 5) * MatFp.identity(3, 7)


def test_product_needs_one_matrix_type():
    # a product of a MatZ and a MatFp, in either order, is a TypeError
    z = MatZ.from_rows([[1, 4], [0, 1]])
    f = MatFp.from_rows([[1, 4], [0, 1]], 5)
    for a, b in ((z, f), (f, z)):
        with pytest.raises(TypeError, match="unsupported operand"):
            a * b
    assert f * f == MatFp.from_rows([[1, 3], [0, 1]], 5)
    assert z * z == MatZ.from_rows([[1, 8], [0, 1]])


ID3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
HALF3 = ((1, 2.5, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "make",
    [
        lambda: MatZ(3, HALF3),
        lambda: MatZ(3, ((1, "2", 0), (0, 1, 0), (0, 0, 1))),
        lambda: MatFp(3, 7, HALF3),
        lambda: MatFp(3, 7.0, ID3),
        lambda: MatFp.from_rows(ID3, 7.0),
    ],
    ids=["matz-entry", "matz-str-entry", "matfp-entry", "matfp-modulus", "matfp-from-rows-modulus"],
)
def test_matrix_constructors_take_exact_integers_only(make):
    # the same TypeError as from_rows gives for a float entry, at the input
    # rather than from inside the engine, and no float modulus or residue is kept
    with pytest.raises(TypeError, match="object cannot be interpreted as an integer$"):
        make()


def test_determinant_against_cofactor_expansion():
    rng = random.Random(23)
    for n in (2, 3, 4, 5):
        for _ in range(25):
            m = random_matz(rng, n, bound=6)
            assert determinant(m) == cofactor_det([list(r) for r in m.rows])
    assert determinant(MatZ.identity(6)) == 1


def test_determinant_needs_pivot_swap():
    # leading zero forces the row-swap branch
    m = MatZ.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert determinant(m) == -1
    m = MatZ.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert determinant(m) == 1
    assert determinant(MatZ.from_rows([[0, 0], [0, 5]])) == 0


def test_sup_norm():
    assert sup_norm(MatZ.identity(3)) == 1
    assert sup_norm(MatZ.from_rows([[1, -7, 0], [2, 1, 3], [0, 0, 1]])) == 7


# ---------------------------------------------------------------- letters


def test_letter_validation():
    with pytest.raises(InvalidGeneratorError):
        GenLetter(ELEMENTARY, 2, 1, 2)
    with pytest.raises(InvalidGeneratorError):
        GenLetter(ELEMENTARY, 1, 1, 1)
    with pytest.raises(InvalidGeneratorError):
        GenLetter(ELEMENTARY, 1, 0, 2)
    with pytest.raises(InvalidGeneratorError):
        GenLetter(AB, 1, sym="C")
    with pytest.raises(InvalidGeneratorError):
        GenLetter("weird", 1, 1, 2)


def test_letter_tokens_and_inverse():
    assert eletter(1, 2).token() == "e(1,2)"
    assert eletter(2, 1, -1).token() == "e(2,1)^-1"
    assert abletter("A").token() == "A"
    assert abletter("B", -1).token() == "B^-1"
    assert eletter(1, 3).inverse() == eletter(1, 3, -1)
    assert eletter(1, 3).inverse().inverse() == eletter(1, 3)
    assert abletter("B").inverse() == abletter("B", -1)
    # repeated lookups with the same arguments are interned
    assert eletter(1, 3, -1) is eletter(1, 3, -1)


def test_letter_interning_ignores_argument_spelling():
    assert eletter(1, 2) is eletter(1, 2, 1)
    assert eletter(1, 2, e=1) is eletter(i=1, j=2)
    assert eletter(2, 1, -1) is eletter(2, 1, e=-1)
    assert abletter("A") is abletter("A", 1)
    assert abletter("B", e=-1) is abletter(sym="B", e=-1)
    assert eletter(1, 2) is not eletter(1, 2, -1)
    assert abletter("A") is not abletter("B")


def test_elementary_matrix_values():
    m = elementary_matrix(3, 1, 3, -1)
    assert m.rows == ((1, 0, -1), (0, 1, 0), (0, 0, 1))
    with pytest.raises(InvalidGeneratorError):
        elementary_matrix(3, 2, 2)
    with pytest.raises(InvalidGeneratorError):
        elementary_matrix(3, 1, 4)
    with pytest.raises(InvalidGeneratorError):
        elementary_matrix(3, 1, 2, 5)


def test_ab_matrix_corner_sign():
    # B is the cyclic row shift with one corner entry (-1)^(n-1)
    for n in (3, 4, 5, 6):
        b = ab_matrix(n, "B")
        assert b.rows[n - 1][0] == (-1) ** (n - 1)
        for r in range(n - 1):
            assert b.rows[r][r + 1] == 1
        assert determinant(b) == 1
        binv = ab_matrix(n, "B", -1)
        assert b * binv == MatZ.identity(n)
    assert ab_matrix(4, "A") == elementary_matrix(4, 1, 2)
    assert ab_matrix(4, "A", -1) == elementary_matrix(4, 1, 2, -1)
    with pytest.raises(DomainError, match="dimension >= 2"):
        ab_matrix(1, "A")
    with pytest.raises(InvalidGeneratorError, match="must be A or B"):
        ab_matrix(3, "C")
    with pytest.raises(InvalidGeneratorError, match="exponent must be"):
        ab_matrix(3, "B", 2)


def test_letter_matrix_z_matches_explicit():
    assert letter_matrix_z(eletter(2, 3, -1), 4) == elementary_matrix(4, 2, 3, -1)
    assert letter_matrix_z(abletter("B"), 5) == ab_matrix(5, "B")


# ---------------------------------------------------------------- words


def test_word_validation():
    with pytest.raises(DomainError):
        Word(1, ())
    with pytest.raises(DomainError):
        Word(3, (eletter(1, 2), abletter("A")))
    with pytest.raises(InvalidGeneratorError):
        Word(3, (eletter(1, 4),))
    # AB letters carry no indices, so any n >= 2 is fine
    Word(2, (abletter("A"), abletter("B")))


def test_word_boundary_checks_still_raise():
    # library-built words skip the letter check; every outside route keeps it
    with pytest.raises(InvalidGeneratorError):
        Word(3, (eletter(1, 4),))
    with pytest.raises(DomainError, match="mixes elementary and AB"):
        Word(4, (abletter("B"), eletter(2, 3)))
    elementary = Word(3, (eletter(1, 2), eletter(2, 3, -1)))
    ab = Word(3, (abletter("A"), abletter("B", -1)))
    with pytest.raises(DomainError, match="mixes elementary and AB"):
        elementary * ab
    with pytest.raises(DomainError, match="mixes elementary and AB"):
        ab * elementary
    with pytest.raises(ParseError):
        parse_word_text("e(1,4)", 3)
    # one pass in letter order, the alphabet tested before the dimension
    with pytest.raises(InvalidGeneratorError, match="exceeds dimension 3"):
        Word(3, (eletter(1, 4), abletter("A")))
    with pytest.raises(DomainError, match="mixes elementary and AB"):
        Word(3, (abletter("A"), eletter(1, 4)))
    with pytest.raises(DomainError, match="cannot concatenate words of dimension 3 and 4"):
        elementary * Word(4, (eletter(1, 4),))
    # an empty factor takes either alphabet
    assert (Word(3) * ab).letters == ab.letters
    assert (elementary * Word(3)).letters == elementary.letters


def test_word_algebra_keeps_words_valid():
    w = Word(4, (eletter(1, 2), eletter(3, 4, -1), eletter(3, 4), eletter(2, 1)))
    for derived in (w.inverse(), w.free_reduce(), w * w.inverse(), (w * w.inverse()).free_reduce()):
        assert Word(derived.n, derived.letters) == derived


def test_word_basics():
    w = Word(3, (eletter(1, 2), eletter(2, 3, -1)))
    assert len(w) == 2
    assert w.alphabet == ELEMENTARY
    assert Word(3).alphabet is None
    assert str(w) == "e(1,2) e(2,3)^-1"
    assert w.tokens() == "e(1,2) e(2,3)^-1"
    v = Word(3, (eletter(3, 1),))
    assert (w * v).letters == w.letters + v.letters
    assert repr(w) == "Word(n=3, 'e(1,2) e(2,3)^-1')"
    # past eight letters the repr shows the length and the first eight
    long = Word(3, (eletter(1, 2),) * 8 + (eletter(3, 1),))
    assert repr(long) == "Word(n=3, len=9, '" + "e(1,2) " * 7 + "e(1,2) ...')"


def test_value_types_compare_hash_freeze_and_print_by_field():
    pairs = [
        (GenLetter(ELEMENTARY, 1, 1, 2), eletter(1, 2), "e"),
        (GenLetter(AB, -1, sym="B"), abletter("B", -1), "sym"),
        (Word(3, (GenLetter(ELEMENTARY, -1, 2, 3),)), Word(3, (eletter(2, 3, -1),)), "letters"),
        (_word(3, (eletter(2, 3, -1),)), Word(3, (eletter(2, 3, -1),)), "letters"),
        (MatZ.from_rows([[1, 2], [0, 1]]), MatZ(2, ((1, 2), (0, 1))), "rows"),
        (MatFp.from_rows([[1, 7], [0, 1]], 5), MatFp(2, 5, ((1, 2), (0, 1))), "p"),
    ]
    for a, b, field in pairs:
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    # equality never crosses classes, even between equal entries
    assert MatZ.identity(3) != MatFp.identity(3, 5)
    assert MatZ.identity(2) != ((1, 0), (0, 1))
    assert eletter(1, 2) != eletter(1, 2, -1)
    assert Word(3) != Word(4)
    assert repr(eletter(1, 2)) == "GenLetter(alphabet='elementary', e=1, i=1, j=2, sym='')"
    assert repr(abletter("B", -1)) == "GenLetter(alphabet='ab', e=-1, i=0, j=0, sym='B')"
    assert repr(MatZ.identity(3)) == "MatZ(n=3, rows=((1, 0, 0), (0, 1, 0), (0, 0, 1)))"
    assert repr(MatFp.identity(2, 5)) == "MatFp(n=2, p=5, rows=((1, 0), (0, 1)))"
    assert repr(QuotientStep(1, 2, 3)) == "QuotientStep(target=1, source=2, multiple=3)"
    assert repr(zeckendorf(100)) == "ZeckendorfDecomposition(m=100, indices=(4, 6, 11))"


def test_word_inverse_reverses_and_negates():
    w = Word(3, (eletter(1, 2), eletter(2, 3, -1), eletter(1, 3)))
    assert w.inverse().letters == (
        eletter(1, 3, -1),
        eletter(2, 3),
        eletter(1, 2, -1),
    )


def test_free_reduce_examples():
    w = Word(3, (eletter(1, 2), eletter(1, 2, -1)))
    assert w.free_reduce() == Word(3)
    w = Word(3, (eletter(1, 2), eletter(2, 3), eletter(2, 3, -1), eletter(1, 2)))
    assert w.free_reduce().letters == (eletter(1, 2), eletter(1, 2))
    # same letter twice is not a cancellation
    w = Word(3, (eletter(1, 2), eletter(1, 2)))
    assert w.free_reduce() == w


@st.composite
def eword(draw, max_n=4, max_len=12):
    n = draw(st.integers(2, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    letters = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.sampled_from([1, -1])),
            max_size=max_len,
        )
    )
    return Word(n, tuple(eletter(i, j, e) for (i, j), e in letters))


@given(eword())
def test_free_reduce_is_idempotent_and_shorter(w):
    r = w.free_reduce()
    assert len(r) <= len(w)
    assert r.free_reduce() == r


@given(eword())
def test_word_times_inverse_reduces_to_identity(w):
    assert (w * w.inverse()).free_reduce() == Word(w.n)
    assert (w.inverse() * w).free_reduce() == Word(w.n)
    assert w.inverse().inverse() == w


@given(eword(max_len=8))
@settings(max_examples=60)
def test_free_reduce_preserves_evaluation(w):
    assert eval_word_z(w.free_reduce()) == eval_word_z(w)


# ---------------------------------------------------------------- evaluation


def test_eval_word_matches_letter_matrix_product():
    rng = random.Random(77)
    for n in (2, 3, 4):
        for length in (0, 1, 2, 5, 9):
            w = random_eword(rng, n, length)
            direct = reduce(
                lambda acc, l: acc * letter_matrix_z(l, n),
                w.letters,
                MatZ.identity(n),
            )
            assert eval_word_z(w) == direct
    for n in (3, 4, 5):
        for length in (1, 4, 8):
            w = random_abword(rng, n, length)
            direct = reduce(
                lambda acc, l: acc * letter_matrix_z(l, n),
                w.letters,
                MatZ.identity(n),
            )
            assert eval_word_z(w) == direct


def test_eval_rightmost_letter_acts_first():
    # e(1,2) e(2,3) sends row 2 to row 2 + row 3 first, then row 1 to row 1 + row 2
    w = Word(3, (eletter(1, 2), eletter(2, 3)))
    m = eval_word_z(w)
    assert m == elementary_matrix(3, 1, 2) * elementary_matrix(3, 2, 3)
    assert m.rows == ((1, 1, 1), (0, 1, 1), (0, 0, 1))


def test_eval_word_fp_matches_integer_reduction():
    rng = random.Random(99)
    for p in (2, 5, 13):
        for _ in range(15):
            w = random_eword(rng, 3, rng.randrange(0, 10))
            assert eval_word_fp(w, p) == MatFp.from_rows(eval_word_z(w).rows, p)
        w = random_abword(rng, 4, 7)
        assert eval_word_fp(w, p) == MatFp.from_rows(eval_word_z(w).rows, p)


def test_packed_evaluation_matches_letter_matrix_product_across_blocks():
    # Lengths around the re-packing block and several blocks beyond it; A/B
    # at N = 2, 4 (B negates the moved row) and N = 3 (it does not).
    k = core._BLOCK
    rng = random.Random(2024)
    cases = [(n, random_eword) for n in (2, 3, 5, 8, 12)]
    cases += [(n, random_abword) for n in (2, 3, 4)]
    for n, make in cases:
        for length in (0, 1, k - 1, k, k + 1, 3 * k + 7):
            w = make(rng, n, length)
            direct = reduce(
                lambda acc, l: acc * letter_matrix_z(l, n), w.letters, MatZ.identity(n)
            )
            assert eval_word_z(w) == direct
            for p in (2, 3, 101, 2**61 - 1):
                assert eval_word_fp(w, p) == MatFp.from_rows(direct.rows, p)


def test_packed_evaluation_stays_exact_through_entry_growth():
    # (e(1,2) e(2,1))^t = [[F(2t+1), F(2t)], [F(2t), F(2t-1)]]: entries pass
    # 600 bits and every block starts from wider entries than the last.
    t = 500
    w = Word(3, (eletter(1, 2), eletter(2, 1)) * t)
    m = eval_word_z(w)
    assert m.rows[0][0].bit_length() > 600
    assert m == MatZ.from_rows(
        [[fib(2 * t + 1), fib(2 * t), 0], [fib(2 * t), fib(2 * t - 1), 0], [0, 0, 1]]
    )
    assert eval_word_fp(w, 101) == MatFp.from_rows(m.rows, 101)


def test_packed_rows_round_trip_and_refuse_an_overflowed_slot():
    row = [5, -8, 0, 7, -1]
    assert core._unpack(core._pack(row, 4), 5, 4) == row
    # 8 needs a fifth bit; the top slot's overflow is left over after decoding
    with pytest.raises(InternalStateError):
        core._unpack(core._pack([0, 8], 4), 2, 4)


def test_eval_word_fp_decides_primality_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    w = random_eword(random.Random(5), 4, 40)
    expected = MatFp.from_rows(eval_word_z(w).rows, 101)
    monkeypatch.setattr(core, "is_prime", counting)
    assert eval_word_fp(w, 101) == expected
    assert calls == [101]
    for p in (-7, 0, 1, 4, 91, 2**61 + 1):
        with pytest.raises(DomainError, match=f"^modulus {re.escape(str(p))} is not prime$"):
            eval_word_fp(w, p)


def test_word_inverse_evaluates_to_matrix_inverse():
    rng = random.Random(3)
    for _ in range(10):
        w = random_eword(rng, 3, 8)
        assert eval_word_z(w) * eval_word_z(w.inverse()) == MatZ.identity(3)


# ---------------------------------------------------------------- norm growth


def test_sup_norm_exhaustive_sl2_equals_fibonacci():
    # over all words of length L in dim 2 the peak entry is exactly fib(L+1)
    gens = [eletter(1, 2), eletter(1, 2, -1), eletter(2, 1), eletter(2, 1, -1)]
    frontier = [MatZ.identity(2)]
    for length in range(1, 8):
        frontier = [m * letter_matrix_z(g, 2) for m in frontier for g in gens]
        assert max(sup_norm(m) for m in frontier) == fib(length + 1)


def test_sup_norm_two_letter_witness():
    # e(1,2)^2 already has an entry of 2, so fib(L) alone is not a bound
    w = Word(2, (eletter(1, 2), eletter(1, 2)))
    assert sup_norm(eval_word_z(w)) == 2
    assert fib(2) == 1 and fib(3) == 2


@given(eword(max_n=4, max_len=14))
@settings(max_examples=80)
def test_sup_norm_bounded_by_fibonacci(w):
    assert sup_norm(eval_word_z(w)) <= fib(len(w) + 1)


# ---------------------------------------------------------------- mod p


def test_matfp_validation():
    with pytest.raises(DomainError):
        MatFp(2, 6, ((1, 0), (0, 1)))
    with pytest.raises(DomainError):
        MatFp(2, 5, ((1, 7), (0, 1)))
    with pytest.raises(DomainError):
        MatFp(2, 5, ((1, -1), (0, 1)))
    with pytest.raises(DomainError, match="do not form an 2x2 square"):
        MatFp(2, 5, ((1, 0), (0,)))
    m = MatFp.from_rows([[6, -1], [0, 1]], 5)
    assert m.rows == ((1, 4), (0, 1))
    assert m.key() == (1, 4, 0, 1)


def test_determinant_fp_matches_integer_determinant():
    rng = random.Random(31)
    for p in (2, 3, 7, 11):
        for _ in range(20):
            m = random_matz(rng, 3, bound=20)
            assert determinant_fp(MatFp.from_rows(m.rows, p)) == determinant(m) % p
    assert determinant_fp(MatFp.from_rows([[1, 1], [1, 1]], 7)) == 0


# ---------------------------------------------------------------- arithmetic


def test_inverse_mod():
    for p in (2, 3, 7, 101):
        for a in range(1, p):
            assert a * inverse_mod(a, p) % p == 1
    assert inverse_mod(9, 7) == inverse_mod(2, 7)
    assert inverse_mod(-3, 7) == inverse_mod(4, 7) == 2
    p = 2**61 - 1
    for a in (2, -2, p - 1, 10**18 + 9, -(10**30)):
        x = inverse_mod(a, p)
        assert 0 <= x < p and a * x % p == 1
    with pytest.raises(DomainError):
        inverse_mod(0, 7)
    with pytest.raises(DomainError):
        inverse_mod(-14, 7)


def test_least_abs_residue_window():
    for p in (2, 3, 5, 7, 11):
        for m in range(-3 * p, 3 * p + 1):
            r = least_abs_residue(m, p)
            assert (r - m) % p == 0
            assert -p / 2 < r <= p / 2
    assert least_abs_residue(6, 7) == -1
    assert least_abs_residue(100, 101) == -1
    assert least_abs_residue(3, 7) == 3


def test_is_prime_against_trial_division():
    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(-3, 2000):
        assert is_prime(n) == slow(n)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(1)
    assert is_prime(101) and is_prime(1009) and is_prime(10007)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_is_prime_rejects_psi12():
    # strong pseudoprime to the twelve prime bases 2..37
    assert not is_prime(318665857834031151167461)
    assert 399165290221 * 798330580441 == 318665857834031151167461


def test_is_prime_refuses_beyond_its_exact_range():
    # psi13, strong pseudoprime to the thirteen prime bases 2..41
    with pytest.raises(DomainError):
        is_prime(3317044064679887385961981)
    with pytest.raises(DomainError):
        is_prime(2**127 - 1)
    # just below the limit the answer is still given
    assert is_prime(3317044064679887385961980) is False
    assert is_prime(2**64 - 59)


def test_is_prime_memoizes_verdicts_but_not_refusals():
    p = 2**61 - 1
    is_prime.cache_clear()
    assert is_prime(p) and is_prime(p) and not is_prime(p + 2) and not is_prime(p + 2)
    info = is_prime.cache_info()
    assert (info.hits, info.misses) == (2, 2)
    assert info.maxsize is not None  # bounded
    for _ in range(2):
        with pytest.raises(DomainError, match="not decided exactly"):
            is_prime(core._MR_LIMIT)
    assert is_prime.cache_info().currsize == 2
