"""Rewriting elementary words over the two generators A and B.

A = e(1, 2) and the shift B generate everything: conjugating by B moves
both indices of a transvection up by one (mod n, with a sign when an index
wraps and n is even), so a word for any e(i, j) is a word for some e(1, k)
wrapped in powers of B.  The e(1, k) words have a closed form, built from
words whose evaluations have an all-ones column, and stay short: every
e(i, j) costs fewer than 10n letters.

Words are spelled as letter codes A, B, B^-1, A^-1 = 0, 1, 2, 3, so the
inverse of code c is 3 - c, and become letters once, at the end.
"""

from functools import lru_cache

from .core import ELEMENTARY, Word, _word, abletter
from .errors import DomainError, InvalidGeneratorError

_AB_LETTERS = (abletter("A"), abletter("B"), abletter("B", -1), abletter("A", -1))
_A, _B, _BI, _AI = range(4)


def _inverse(codes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(3 - c for c in reversed(codes))


def _ab_word(n: int, codes: tuple[int, ...]) -> Word:
    return _word(n, tuple(map(_AB_LETTERS.__getitem__, codes)))


def _ones_column(k: int) -> tuple[int, ...]:
    """Codes of A (B^-1 A)^(k-2) B (A^-1 B)^(k-3) A^-1, or A for k = 2.

    Its evaluation puts ones in rows 1..k-1 of column k; 4k - 7 letters
    for k >= 3, freely reduced.
    """
    if k == 2:
        return (_A,)
    return (_A,) + (_BI, _A) * (k - 2) + (_B,) + (_AI, _B) * (k - 3) + (_AI,)


def _corner(k: int) -> tuple[int, ...]:
    """Codes of e(1, k): 8k - 16 letters for k >= 3, and A for k = 2.

    The ones column of k, then B^-1, the inverse of the ones column of
    k - 1, and B: shifting the smaller column with B cancels it against the
    larger one except in the corner.  Freely reduced as written.
    """
    if k == 2:
        return (_A,)
    return _ones_column(k) + (_BI,) + _inverse(_ones_column(k - 1)) + (_B,)


def eij_ab_word(i: int, j: int, n: int) -> Word:
    """Word over A, B equal to e(i, j), at most 10n letters."""
    if n < 2:
        raise DomainError(f"dimension must be at least 2, got {n}")
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise InvalidGeneratorError(f"e({i},{j}) invalid in dimension {n}")
    return _ab_word(n, _piece(i, j, 1, n))


@lru_cache(maxsize=None)
def _piece(i: int, j: int, e: int, n: int) -> tuple[int, ...]:
    """Letter codes of the freely reduced A, B word for e(i, j)^e.

    Conjugation by B^(i-1) carries e(1, 1+d) onto e(i, j) for
    d = (j - i) mod n.  When the column index wraps past n and n is even
    the conjugate picks up exponent -1, so the corner word is inverted
    then, unless e = -1 inverts it back.  The corner word starts with A or
    B^-1 and ends with B or A^-1, so the B runs never cancel against it.
    """
    corner = _corner(1 + (j - i) % n)
    if (j < i and n % 2 == 0) != (e < 0):
        corner = _inverse(corner)
    return (_BI,) * (i - 1) + corner + (_B,) * (i - 1)


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
    return _ab_word(n, tuple(out))
