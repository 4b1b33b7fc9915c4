import random

import pytest

from cayleynav.abwords import _piece, eij_ab_word, rewrite_word_ab
from cayleynav.core import (
    AB,
    Word,
    abletter,
    eletter,
    elementary_matrix,
    eval_word_z,
)
from cayleynav.errors import DomainError, InvalidGeneratorError


def random_eword(rng, n, length):
    letters = []
    for _ in range(length):
        i = rng.randrange(1, n + 1)
        j = rng.choice([x for x in range(1, n + 1) if x != i])
        letters.append(eletter(i, j, rng.choice([1, -1])))
    return Word(n, tuple(letters))


def test_e1k_word_length_is_exact():
    for n in (3, 4, 7, 12):
        for k in range(2, n + 1):
            w = eij_ab_word(1, k, n)
            assert eval_word_z(w) == elementary_matrix(n, 1, k)
            if k >= 3:
                assert len(w) == 8 * k - 16
            else:
                assert w.letters == (abletter("A"),)


def test_eij_word_all_pairs():
    for n in range(2, 13):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                w = eij_ab_word(i, j, n)
                assert eval_word_z(w) == elementary_matrix(n, i, j)
                assert len(w) <= 10 * n


def test_eij_wrapping_sign_case():
    # moving from row 3 to column 1 wraps around; dimension 4 is even, so the
    # conjugated corner word shows up inverted
    w = eij_ab_word(3, 1, 4)
    assert eval_word_z(w) == elementary_matrix(4, 3, 1)
    plain = eij_ab_word(1, 3, 4)
    assert eval_word_z(plain) == elementary_matrix(4, 1, 3)


def test_eij_conjugation_prefix():
    w = eij_ab_word(2, 3, 5)
    assert w.letters[0] == abletter("B", -1)
    assert w.letters[-1] == abletter("B")
    assert eval_word_z(w) == elementary_matrix(5, 2, 3)


def test_pieces_are_reduced_and_invert_by_codes():
    # codes A, B, B^-1, A^-1 = 0, 1, 2, 3: the inverse of code c is 3 - c
    for n in range(2, 17):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                piece = _piece(i, j, 1, n)
                assert _piece(i, j, -1, n) == tuple(3 - c for c in reversed(piece))
                assert all(a + b != 3 for a, b in zip(piece, piece[1:])), (i, j, n)
                assert len(piece) <= 10 * n


def test_word_builders_validate_arguments():
    with pytest.raises(DomainError):
        eij_ab_word(1, 2, 1)
    with pytest.raises(InvalidGeneratorError):
        eij_ab_word(1, 1, 4)
    with pytest.raises(InvalidGeneratorError):
        eij_ab_word(0, 2, 4)
    with pytest.raises(InvalidGeneratorError):
        eij_ab_word(1, 5, 4)


def test_rewrite_preserves_evaluation():
    rng = random.Random(13)
    for n in (3, 4, 5):
        for _ in range(15):
            w = random_eword(rng, n, rng.randrange(1, 9))
            ab = rewrite_word_ab(w)
            assert ab.alphabet in (None, AB)
            assert eval_word_z(ab) == eval_word_z(w)
            assert ab.free_reduce() == ab


def test_rewrite_cancels_inverse_pairs():
    rng = random.Random(4)
    for n in (3, 4):
        w = random_eword(rng, n, 6)
        assert rewrite_word_ab(w * w.inverse()) == Word(n)
    assert rewrite_word_ab(Word(3)) == Word(3)


def test_rewrite_equals_free_reduced_concatenation():
    # splicing with cancellation at every junction is the same as
    # concatenating the pieces and freely reducing the whole word
    rng = random.Random(29)
    for n in (2, 5, 8, 16):
        for _ in range(8):
            w = random_eword(rng, n, rng.randrange(1, 30))
            v = random_eword(rng, n, rng.randrange(0, 6))
            for x in (w, w * w.inverse() * v, v * w * w.inverse()):
                pieces = [eij_ab_word(l.i, l.j, n) for l in x.letters]
                pieces = [u if l.e > 0 else u.inverse() for u, l in zip(pieces, x.letters)]
                joined = Word(n, tuple(a for u in pieces for a in u.letters))
                assert rewrite_word_ab(x) == joined.free_reduce()


def test_rewrite_rejects_ab_input():
    with pytest.raises(DomainError):
        rewrite_word_ab(Word(3, (abletter("A"),)))


def test_rewrite_single_letters_match_tables():
    for n in (3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                w = rewrite_word_ab(Word(n, (eletter(i, j),)))
                assert w == eij_ab_word(i, j, n)
                winv = rewrite_word_ab(Word(n, (eletter(i, j, -1),)))
                assert winv == eij_ab_word(i, j, n).inverse()
