"""Rewriting elementary words over the two generators A and B.

A = e(1, 2) and the shift B generate everything: conjugating by B moves
both indices of a transvection up by one (mod n, with a sign when an index
wraps and n is even), so a word for any e(i, j) can be assembled from a
word for some e(1, k) wrapped in powers of B.  The e(1, k) words come from
telescoping products whose evaluations have an all-ones column, and stay
short: every e(i, j) costs fewer than 10n letters.
"""

from functools import lru_cache

from .core import ELEMENTARY, Word, _word, abletter
from .errors import DomainError, InvalidGeneratorError


def _check_k(k: int, n: int) -> None:
    if n < 2:
        raise DomainError(f"dimension must be at least 2, got {n}")
    if not (2 <= k <= n):
        raise DomainError(f"block size must lie in 2..{n}, got {k}")


@lru_cache(maxsize=None)
def band_word(k: int, n: int) -> Word:
    """A (B^-1 A)^(k-2) B^(k-2), the product e(1,2) e(2,3) ... e(k-1,k).

    Length 3k - 5.  Evaluates to the unitriangular matrix whose leading
    k x k block has ones everywhere on and above the diagonal.
    """
    _check_k(k, n)
    a = abletter("A")
    b = abletter("B")
    binv = abletter("B", -1)
    letters = [a]
    for _ in range(k - 2):
        letters.extend((binv, a))
    letters.extend([b] * (k - 2))
    return Word(n, tuple(letters))


@lru_cache(maxsize=None)
def column_ones_word(k: int, n: int) -> Word:
    """Word whose evaluation puts ones in rows 1..k-1 of column k.

    Freely reduced quotient of two band words; the B runs at the junction
    collapse, leaving exactly 4k - 7 letters.  For k = 2 this is just A.
    """
    _check_k(k, n)
    if k == 2:
        return Word(n, (abletter("A"),))
    return (band_word(k, n) * band_word(k - 1, n).inverse()).free_reduce()


@lru_cache(maxsize=None)
def e1k_ab_word(k: int, n: int) -> Word:
    """Word over A, B equal to e(1, k), exactly 8k - 16 letters for k >= 3.

    Shifting the smaller all-ones column word with B and cancelling it
    against the larger one leaves precisely the corner transvection.
    """
    _check_k(k, n)
    if k == 2:
        return Word(n, (abletter("A"),))
    shift_down = Word(n, (abletter("B", -1),))
    shift_up = Word(n, (abletter("B"),))
    return (
        column_ones_word(k, n) * shift_down * column_ones_word(k - 1, n).inverse() * shift_up
    ).free_reduce()


@lru_cache(maxsize=None)
def eij_ab_word(i: int, j: int, n: int) -> Word:
    """Word over A, B equal to e(i, j), at most 10n letters.

    Conjugation by B^(i-1) carries e(1, 1+d) onto e(i, j) for
    d = (j - i) mod n.  When the column index wraps past n and n is even
    the conjugate picks up exponent -1, so the base word is inverted first.
    """
    if n < 2:
        raise DomainError(f"dimension must be at least 2, got {n}")
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise InvalidGeneratorError(f"e({i},{j}) invalid in dimension {n}")
    d = (j - i) % n
    base = e1k_ab_word(1 + d, n)
    if j < i and n % 2 == 0:
        base = base.inverse()
    s = i - 1
    if s == 0:
        return base
    return _word(n, (abletter("B", -1),) * s + base.letters + (abletter("B"),) * s)


# Letter codes for the rewriting: the inverse of code c is 3 - c.
_AB_LETTERS = (abletter("A"), abletter("B"), abletter("B", -1), abletter("A", -1))


@lru_cache(maxsize=None)
def _piece(i: int, j: int, e: int, n: int) -> tuple[int, ...]:
    """Letter codes of the freely reduced A, B word for e(i, j)^e."""
    w = eij_ab_word(i, j, n)
    if e < 0:
        w = w.inverse()
    return tuple(_AB_LETTERS.index(l) for l in w.free_reduce().letters)


def rewrite_word_ab(w: Word) -> Word:
    """Substitute an A, B word for every letter of an elementary word.

    The result is freely reduced.  Each substituted piece is freely reduced
    already, so cancellation only happens where a piece meets the output
    so far: a stack of letter codes absorbs the piece's head and keeps the
    rest.  Codes become letters once, at the end.
    """
    if w.letters and w.alphabet != ELEMENTARY:
        raise DomainError("rewriting expects a word over elementary letters")
    n = w.n
    out: list[int] = []
    for l in w.letters:
        piece = _piece(l.i, l.j, l.e, n)
        k = 0
        while out and k < len(piece) and out[-1] == 3 - piece[k]:
            out.pop()
            k += 1
        out.extend(piece[k:])
    return _word(n, tuple(map(_AB_LETTERS.__getitem__, out)))
