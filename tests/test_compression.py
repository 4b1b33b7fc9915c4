import random
from functools import reduce

import pytest

from cayleynav.compression import (
    _template,
    compress_power,
    compress_power_modp,
)
from cayleynav.core import (
    MatZ,
    Word,
    elementary_matrix,
    eletter,
    eval_word_fp,
    eval_word_z,
    letter_matrix_z,
    mat_z_mod,
)
from cayleynav.errors import DomainError, InvalidGeneratorError, UnsupportedDimensionError
from cayleynav.fibonacci import fib, zeckendorf, zeckendorf_length_bound


def e13_power(m):
    # independent route: literal product of generator matrices
    if m == 0:
        return MatZ.identity(3)
    letter = eletter(1, 3, 1 if m > 0 else -1)
    return reduce(
        lambda acc, _: acc * letter_matrix_z(letter, 3),
        range(abs(m)),
        MatZ.identity(3),
    )


def target(n, i, j, m):
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i - 1][j - 1] = m
    return MatZ.from_rows(rows)


def fib_template(k):
    """The template carrying the single Fibonacci index k: e(1,3)^F_k in dimension 3."""
    return Word(3, tuple(_template((k,), 1, 2, 3)))


def test_fib_power_word_zero_blocks():
    w = fib_template(0)
    assert len(w) == 6
    assert w.tokens() == "e(2,3)^-1 e(1,3)^-1 e(2,3)^-1 e(1,3) e(2,3) e(2,3)"
    assert eval_word_z(w) == MatZ.identity(3)
    w = fib_template(1)
    assert len(w) == 6
    assert eval_word_z(w) == elementary_matrix(3, 1, 3)


def test_fib_power_word_hits_fibonacci_exponents():
    for t in range(13):
        even = fib_template(2 * t)
        odd = fib_template(2 * t + 1)
        assert len(even) == 6 + 8 * t
        assert len(odd) == 6 + 8 * t
        assert eval_word_z(even) == e13_power(fib(2 * t))
        assert eval_word_z(odd) == e13_power(fib(2 * t + 1))


def zeckendorf_power_word(m):
    """The full template for e(1,3)^m in dimension 3, m >= 1, never spelled plainly."""
    return Word(3, tuple(_template(zeckendorf(m).indices, 1, 2, 3)))


def test_zeckendorf_power_word_single_fibonacci():
    # a pure Fibonacci number reproduces the fixed-template word letter for letter
    for t in range(1, 13):
        assert zeckendorf_power_word(fib(2 * t)).letters == fib_template(2 * t).letters
        assert zeckendorf_power_word(fib(2 * t + 1)).letters == fib_template(2 * t + 1).letters


def test_zeckendorf_power_word_values():
    w = zeckendorf_power_word(1)
    assert len(w) == 14
    assert eval_word_z(w) == elementary_matrix(3, 1, 3)
    w = zeckendorf_power_word(3)
    assert len(w) == 22
    assert eval_word_z(w) == e13_power(3)
    for m in (2, 4, 7, 12, 33, 100, 514229):
        assert eval_word_z(zeckendorf_power_word(m)) == target(3, 1, 3, m)


def test_zeckendorf_power_word_structure():
    # 4 = F_2 + F_4 mixes two carries; the word still ends with the e(2,3) pair
    w = zeckendorf_power_word(4)
    assert len(w) == 24
    assert w.letters[-2:] == (eletter(2, 3), eletter(2, 3))
    assert w.letters[0] == eletter(2, 3, -1)


def test_compress_power_zero_is_empty():
    w = compress_power(3, 1, 2, 0)
    assert len(w) == 0
    assert eval_word_z(w) == MatZ.identity(3)


def test_compress_power_small_magnitude_stays_plain():
    w = compress_power(3, 1, 3, 5)
    assert w.letters == (eletter(1, 3),) * 5
    w = compress_power(3, 1, 3, 30)
    assert len(w) == 30
    assert set(w.letters) == {eletter(1, 3)}
    w = compress_power(3, 2, 1, -4)
    assert w.letters == (eletter(2, 1, -1),) * 4


def test_compress_power_large_magnitude_compresses():
    w = compress_power(3, 1, 3, 100)
    assert len(w) == 50
    assert eval_word_z(w) == target(3, 1, 3, 100)
    w = compress_power(3, 1, 3, 1000)
    assert len(w) == 72
    assert eval_word_z(w) == target(3, 1, 3, 1000)


def test_compress_power_exhaustive_small_exponents():
    for n in (3, 4):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for i, j in pairs:
            for m in range(-64, 65):
                w = compress_power(n, i, j, m)
                assert eval_word_z(w) == target(n, i, j, m)


def test_compress_power_random_large_exponents():
    rng = random.Random(8)
    for n in (3, 4, 5):
        for _ in range(20):
            i = rng.randrange(1, n + 1)
            j = rng.choice([x for x in range(1, n + 1) if x != i])
            m = rng.choice([1, -1]) * rng.randint(10**3, 10**12)
            w = compress_power(n, i, j, m)
            assert eval_word_z(w) == target(n, i, j, m)
            assert len(w) <= zeckendorf_length_bound(abs(m))


def test_compress_power_negative_is_inverse():
    for m in (7, 100, 12345):
        assert compress_power(3, 1, 3, -m) == compress_power(3, 1, 3, m).inverse()


def test_compress_power_support_stays_in_three_indices():
    w = compress_power(5, 2, 4, 10**9)
    used = {x for l in w.letters for x in (l.i, l.j)}
    assert used == {1, 2, 4}  # default helper row is the smallest free index
    w = compress_power(5, 2, 4, 10**9, aux=5)
    used = {x for l in w.letters for x in (l.i, l.j)}
    assert used == {2, 4, 5}
    assert eval_word_z(w) == target(5, 2, 4, 10**9)


def test_compress_power_argument_validation():
    with pytest.raises(UnsupportedDimensionError):
        compress_power(2, 1, 2, 5)
    with pytest.raises(InvalidGeneratorError):
        compress_power(3, 1, 1, 5)
    with pytest.raises(InvalidGeneratorError):
        compress_power(3, 0, 2, 5)
    with pytest.raises(InvalidGeneratorError):
        compress_power(3, 1, 2, 5, aux=1)
    with pytest.raises(InvalidGeneratorError):
        compress_power(3, 1, 2, 5, aux=4)


def test_compress_power_modp_reduces_exponent_first():
    # 100 = -1 mod 101, so one inverse letter beats any template
    w = compress_power_modp(3, 1, 2, 100, 101)
    assert w.letters == (eletter(1, 2, -1),)
    assert len(compress_power_modp(3, 1, 2, 101 * 7, 101)) == 0


def test_compress_power_modp_matches_plain_power():
    rng = random.Random(15)
    for p in (5, 101, 1009):
        for _ in range(15):
            m = rng.randint(-(10**9), 10**9)
            w = compress_power_modp(3, 1, 3, m, p)
            assert eval_word_fp(w, p) == mat_z_mod(target(3, 1, 3, m % p), p)


def test_compress_power_modp_rejects_composite_modulus():
    with pytest.raises(DomainError):
        compress_power_modp(3, 1, 2, 5, 10)


def test_compress_power_length_bound_sweep():
    for m in list(range(1, 400)) + [10**6, 10**9, 10**15]:
        w = compress_power(3, 1, 3, m)
        assert len(w) <= zeckendorf_length_bound(m)
