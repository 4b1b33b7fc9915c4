"""Rewriting elementary words over the two generators A and B.

A = e(1, 2) and the shift B generate everything: conjugating by B moves
both indices of a transvection up by one (mod n, with a sign when an index
wraps and n is even), so a word for any e(i, j) is a word for some e(1, k)
wrapped in powers of B.  The e(1, k) words have a closed form, built from
words whose evaluations have an all-ones column, and stay short: every
e(i, j) costs fewer than 10n letters.

Words are spelled as letter codes A, B, B^-1, A^-1 = 0, 1, 2, 3, so the
inverse of code c is 3 - c.  Rewriting caches each piece once, in
_spliced, as the four shared letter objects and splices those into the
output, so no output letter is ever converted from a code.
"""

import operator
from functools import lru_cache

from .core import ELEMENTARY, Word, _word, abletter
from .errors import DomainError, InvalidGeneratorError

_AB_LETTERS = (abletter("A"), abletter("B"), abletter("B", -1), abletter("A", -1))
_A, _B, _BI, _AI = range(4)


def _inverse(codes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(3 - c for c in reversed(codes))


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
    n = operator.index(n)
    if n < 2:
        raise DomainError(f"dimension must be at least 2, got {n}")
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise InvalidGeneratorError(f"e({i},{j}) invalid in dimension {n}")
    return _word(n, _spliced(i, j, 1, n)[0])


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


@lru_cache(maxsize=None)
def _spliced(i: int, j: int, e: int, n: int) -> tuple[tuple, tuple]:
    """The piece for e(i, j)^e as letters, and the letter each one cancels.

    The one piece cache.  Both tuples hold only the four _AB_LETTERS
    objects, so cancellation is an identity test: the letter of code c
    cancels an output letter that is _AB_LETTERS[3 - c].
    """
    codes = _piece(i, j, e, n)
    return tuple(_AB_LETTERS[c] for c in codes), tuple(_AB_LETTERS[3 - c] for c in codes)


def rewrite_word_ab(w: Word) -> Word:
    """Substitute an A, B word for every letter of an elementary word.

    The result is freely reduced.  Each substituted piece is freely reduced
    already, so cancellation only happens where a piece meets the output
    so far: a stack of letters absorbs the piece's head, tested by
    identity against the inverse letters, and the rest is spliced in.
    """
    if w.letters and w.alphabet != ELEMENTARY:
        raise DomainError("rewriting expects a word over elementary letters")
    n = w.n
    out: list = []
    pop, extend = out.pop, out.extend
    for l in w.letters:
        letters, cancels = _spliced(l.i, l.j, l.e, n)
        k = 0
        while out and k < len(cancels) and out[-1] is cancels[k]:
            pop()
            k += 1
        extend(letters[k:])
    return _word(n, tuple(out))
