import itertools
import math
import random

import pytest

from cayleynav.cli import main
from cayleynav.compression import _batch_letters, _fused_template, _gather_letters, compress_power
from cayleynav.core import (
    MatFp,
    MatZ,
    Word,
    elementary_matrix,
    eletter,
    eval_word_fp,
    eval_word_z,
    letter_matrix_z,
)
from cayleynav.errors import InvalidGeneratorError, UnsupportedDimensionError
from cayleynav.fibonacci import fib, zeckendorf, zeckendorf_length_bound
from cayleynav.formats import parse_word_text


def e13_power(m):
    # independent route: repeated squaring of the generator matrix, in MatZ products
    result, square = MatZ.identity(3), letter_matrix_z(eletter(1, 3, 1 if m > 0 else -1), 3)
    k = abs(m)
    while k:
        if k & 1:
            result = result * square
        square = square * square
        k >>= 1
    return result


def target(n, i, j, m):
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i - 1][j - 1] = m
    return MatZ.from_rows(rows)


def fib_template(k):
    """The template carrying the single Fibonacci index k: e(1,3)^F_k in dimension 3."""
    return Word(3, tuple(_fused_template(3, 2, ((1, (k,), 1),))))


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
    return Word(3, tuple(_fused_template(3, 2, ((1, zeckendorf(m).indices, 1),))))


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
    # negating every exponent of a fused template inverts it letter for letter,
    # also with several targets of mixed signs
    for j, aux, powers in (
        (5, 4, ((1, 100), (2, -12345))),
        (5, 4, ((1, -987), (2, 10**6))),
        (1, 2, ((3, 50), (4, -10**9), (5, 777))),
        (3, 5, ((4, -31), (1, -2**40), (2, 1000))),
    ):
        fused = [(i, zeckendorf(abs(m)).indices, m) for i, m in powers]
        negated = [(i, ks, -m) for i, ks, m in fused]
        template = _fused_template(j, aux, fused)
        assert _fused_template(j, aux, negated) == [l.inverse() for l in reversed(template)]


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


def compress_modp(capsys, n, i, j, m, p):
    """Exit code and word of `cayley-nav compress n i j m --modp p`."""
    rc = main(["compress", str(n), str(i), str(j), str(m), "--modp", str(p)])
    return rc, parse_word_text(capsys.readouterr().out, n)


def test_compress_power_modp_reduces_exponent_first(capsys):
    # 100 = -1 mod 101, so one inverse letter beats any template
    rc, w = compress_modp(capsys, 3, 1, 2, 100, 101)
    assert rc == 0 and w.letters == (eletter(1, 2, -1),)
    assert compress_modp(capsys, 3, 1, 2, 101 * 7, 101) == (0, Word(3))


def test_compress_power_modp_matches_plain_power(capsys):
    rng = random.Random(15)
    for p in (5, 101, 1009):
        for _ in range(15):
            m = rng.randint(-(10**9), 10**9)
            rc, w = compress_modp(capsys, 3, 1, 3, m, p)
            assert rc == 0
            assert eval_word_fp(w, p) == MatFp.from_rows(target(3, 1, 3, m % p).rows, p)


def test_compress_power_modp_rejects_composite_modulus(capsys):
    assert main(["compress", "3", "1", "2", "5", "--modp", "10"]) == 3
    assert capsys.readouterr().err == "error: modulus 10 is not prime\n"


def test_compress_power_length_bound_sweep():
    for m in list(range(1, 400)) + [10**6, 10**9, 10**15]:
        w = compress_power(3, 1, 3, m)
        assert len(w) <= zeckendorf_length_bound(m)


# ---------------------------------------------------------------- batches


def batch_target(n, j, powers):
    """The product of e(i, j)^m over (i, m) in powers: one column of entries."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for i, m in powers:
        rows[i - 1][j - 1] = m
    return MatZ.from_rows(rows)


def own_template_length(m):
    """Letters of the one-target template for e(i, j)^m, or 0 for m = 0."""
    if m == 0:
        return 0
    ks = zeckendorf(abs(m)).indices
    return 4 + 8 * (ks[-1] // 2) + 2 * len(ks)


def random_batch(rng, n):
    j = rng.randrange(1, n + 1)
    targets = rng.sample([i for i in range(1, n + 1) if i != j], rng.randrange(1, n))
    powers = []
    for i in targets:
        kind = rng.randrange(4)
        mag = (0, rng.randint(1, 40), rng.randint(0, 10**9), rng.randint(0, 2**61 - 2))[kind]
        powers.append((i, rng.choice((1, -1)) * mag))
    return j, powers


def test_batch_evaluates_to_the_product_of_its_powers():
    rng = random.Random("batch")
    for n in range(4, 9):
        for _ in range(40):
            j, powers = random_batch(rng, n)
            pool = rng.sample(range(1, n + 1), n)
            letters, moved = _batch_letters(j, powers, pool)
            assert moved == []
            assert eval_word_z(Word(n, tuple(letters))) == batch_target(n, j, powers)
            # letters touch only the targets, the source and aux
            targets = {i for i, _ in powers}
            aux = next((a for a in pool if a != j and a not in targets), j)
            assert {x for l in letters for x in (l.i, l.j)} <= targets | {j, aux}
            # plain targets are spelled plainly, and each template carrying
            # the Zeckendorf indices ks of its targets costs
            # 4 + 8 max(ks[-1] // 2) + 2 sum(len(ks)); it is one template
            # unless no row of the pool is free, and then two halves
            fused = [
                (i, zeckendorf(abs(m)).indices) for i, m in powers if abs(m) > own_template_length(m)
            ]
            cost = sum(abs(m) for _, m in powers if abs(m) <= own_template_length(m))
            busy = {i for i, _ in fused} | {j}
            if any(a not in busy for a in pool):
                halves = [fused]
            else:
                halves = [fused[: len(fused) // 2], fused[len(fused) // 2 :]]
            for half in filter(None, halves):
                top = max(ks[-1] // 2 for _, ks in half)
                cost += 4 + 8 * top + 2 * sum(len(ks) for _, ks in half)
            assert len(letters) == cost
            assert len(letters) <= sum(len(compress_power(n, i, j, m)) for i, m in powers)


def test_batch_without_a_free_row_splits_in_two():
    rng = random.Random("batch:split")
    for n in range(4, 9):
        for _ in range(10):
            j = rng.randrange(1, n + 1)
            targets = [i for i in range(1, n + 1) if i != j]
            powers = [(i, rng.choice((1, -1)) * rng.randint(10**6, 2**61 - 2)) for i in targets]
            letters, _ = _batch_letters(j, powers, range(1, n + 1))
            assert eval_word_z(Word(n, tuple(letters))) == batch_target(n, j, powers)
            half = len(targets) // 2
            first, second = targets[:half], targets[half:]
            # each half uses the first target of the other half as aux
            assert letters[0] == eletter(second[0], j, -1)
            assert {x for l in letters for x in (l.i, l.j)} <= set(targets) | {j}


def common_target(n, k, powers):
    """The product of e(k, l)^m over (l, m) in powers: the identity with row k raised."""
    rows = [[int(r == c) for c in range(1, n + 1)] for r in range(1, n + 1)]
    for l, m in powers:
        rows[k - 1][l - 1] += m
    return MatZ.from_rows(rows)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_gather_spells_the_common_target_product(n):
    rng = random.Random(f"gather:{n}")
    for trial in range(40):
        k = rng.randrange(1, n + 1)
        sources = rng.sample([l for l in range(1, n + 1) if l != k], rng.randrange(1, n))
        bound = 14 if trial % 4 == 0 else 2 ** rng.choice((8, 30, 70))
        powers = [(l, rng.choice((1, -1)) * rng.randrange(1, bound + 1)) for l in sources]
        letters = _gather_letters(k, powers, range(1, n + 1))
        assert eval_word_z(Word(n, tuple(letters))) == common_target(n, k, powers)
        singles = sum(len(compress_power(n, k, l, m)) for l, m in powers)
        assert len(letters) <= singles
        if all(abs(m) <= 14 for _, m in powers):
            assert len(letters) == singles


def test_gather_without_a_free_aux_splits_in_two():
    # N = 3, one target and two template sources: every index is busy, so
    # the batch splits into two templates and costs what two powers cost
    rng = random.Random("gather:split")
    for _ in range(30):
        k, l1, l2 = rng.sample(range(1, 4), 3)
        powers = [(l, rng.choice((1, -1)) * rng.randrange(15, 2**70)) for l in (l1, l2)]
        letters = _gather_letters(k, powers, range(1, 4))
        assert eval_word_z(Word(3, tuple(letters))) == common_target(3, k, powers)
        assert len(letters) == sum(len(compress_power(3, k, l, m)) for l, m in powers)


def reference_spelling(n, i, j, m, aux):
    """Plain or one template, whichever is shorter, spelled from the formula.

    t^-1 (t s)^-n v t^-1 (t s)^-n u t^2, and for a negative exponent its
    letter-by-letter inverse.
    """
    if m == 0:
        return []
    plain = [eletter(i, j, 1 if m > 0 else -1)] * abs(m)
    ks = zeckendorf(abs(m)).indices
    top, mid, t, s = eletter(i, j), eletter(i, aux), eletter(aux, j), eletter(j, aux)

    def inv(letter):
        return eletter(letter.i, letter.j, -letter.e)

    def walk(even, odd):
        out, level = [], ks[-1] // 2
        for k in reversed(ks):
            out += [t, s] * (level - k // 2) + [odd if k % 2 else even]
            level = k // 2
        return out + [t, s] * level

    ts_inv = [inv(s), inv(t)] * (ks[-1] // 2)
    word = [inv(t), *ts_inv, *walk(inv(top), inv(mid)), inv(t), *ts_inv, *walk(top, mid), t, t]
    if m < 0:
        word = [inv(letter) for letter in reversed(word)]
    return plain if len(plain) <= len(word) else word


def test_one_target_batch_is_the_single_power_spelling():
    n = 4
    for i, j, aux in itertools.permutations(range(1, n + 1), 3):
        for m in range(-2000, 2001):
            letters, _ = _batch_letters(j, [(i, m)], (aux,))
            assert tuple(letters) == compress_power(n, i, j, m, aux).letters
            if (i, j, aux) == (1, 2, 3) or m % 37 == 0:
                assert letters == reference_spelling(n, i, j, m, aux)


def half_walk_junk(m):
    """sign(m) * sum F_(k-1) over the Zeckendorf indices k of |m|, and its closed form.

    The closed form floor((|m| + 1) / tau) is computed with an integer
    square root, independently of the Fibonacci table.
    """
    x = sum(fib(k - 1) for k in zeckendorf(abs(m)).indices)
    a = abs(m) + 1
    assert x == (math.isqrt(5 * a * a) - a) // 2
    return x if m > 0 else -x


def test_half_walk_evaluates_to_the_powers_and_their_junk():
    rng = random.Random("batch:half")
    for n in range(4, 8):
        for _ in range(60):
            c, d = rng.sample(range(1, n + 1), 2)
            free = [i for i in range(1, n + 1) if i not in (c, d)]
            targets = rng.sample(free, rng.randint(1, min(4, len(free))))
            powers = []
            for i in targets:
                mag = (rng.randint(1, 40), rng.randint(1, 10**9), rng.randint(1, 2**61))[rng.randrange(3)]
                powers.append((i, rng.choice((1, -1)) * mag))
            given = list(powers)
            letters, moved = _batch_letters(c, powers, range(1, n + 1), d)
            assert powers == given
            # the half walk takes every target longer than its own walk
            half = {}
            for i, m in powers:
                ks = zeckendorf(abs(m)).indices
                if abs(m) > 4 * (ks[-1] // 2) + len(ks):
                    half[i] = ks
            assert moved == [(i, half_walk_junk(m)) for i, m in powers if i in half]
            rows = [[int(r == col) for col in range(n)] for r in range(n)]
            for i, m in powers:
                rows[i - 1][c - 1] = m
            for i, x in moved:
                rows[i - 1][d - 1] = x
            assert eval_word_z(Word(n, tuple(letters))) == MatZ.from_rows(rows)
            assert {x for l in letters for x in (l.i, l.j)} <= set(targets) | {c, d}
            # 4 n_max + sum r_i for the walk, plus the plain targets
            cost = sum(abs(m) for i, m in powers if i not in half)
            if half:
                cost += 4 * max(ks[-1] // 2 for ks in half.values()) + sum(map(len, half.values()))
            assert len(letters) == cost
            assert len(letters) <= len(_batch_letters(c, powers, (d,))[0])


def test_half_walk_known_lengths():
    # (m, half walk letters, full template letters, junk)
    for m, walk, full, x in (
        (100, 23, 50, 62),
        (12345, 45, 94, 7630),
        (10**6 + 3, 66, 136, 618036),
        (2**40 + 17, 132, 268, 679535557002),
    ):
        for sign in (1, -1):
            letters, moved = _batch_letters(2, [(1, sign * m)], (4,), 4)
            assert len(letters) == walk and moved == [(1, sign * x)]
            letters_full, moved_full = _batch_letters(2, [(1, sign * m)], (4,))
            assert len(letters_full) == full and moved_full == []
            # the half walk keeps the positive layout: the carried letters
            # take the sign of m, the (t, s) steps do not change
            t, s, top = eletter(2, 4), eletter(4, 2), zeckendorf(m).indices[-1] // 2
            assert [l for l in letters if l.i != 1] == [s.inverse(), t.inverse()] * top + [t, s] * top
            assert {l.e for l in letters if l.i == 1} == {sign}
