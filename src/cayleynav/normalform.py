"""Constructive words for integer unimodular matrices in dimension >= 3.

The matrix is driven to the identity by premultiplications on a
rowreduce.RowReducer over Z.  Its reduce runs the whole reduction: an
integral LLL reduction of the rows when some entry below the diagonal is
nonzero, column-by-column gcd clearing below the diagonal, compressed
clearing of the upper triangle, which leaves the +-1 pivots in place, then
the diagonal endgame, which turns the -1 pivots into +1 two at a time.  The
engine appends the inverse of every premultiplier as it is applied, so the
letters come out in the order of the final word, which evaluates to the
original matrix.  This module checks membership and reports what the
engine recorded: the largest entry met after every row operation
(peak_norm) and the per-column sup norms; neither affects correctness.
"""

from collections import namedtuple

from .core import MatZ, Word, determinant
from .errors import NotInGroupError, UnsupportedDimensionError
from .rowreduce import RowReducer


class NormalFormResult(namedtuple("NormalFormResult", "word phase_lengths column_norms peak_norm")):
    """Word for a unimodular matrix plus per-phase diagnostics.

    phase_lengths counts letters as (column, sign, upper), as
    RowReducer.reduce returns them: column clearing, which counts the LLL
    letters too because reduce runs LLL first, the diagonal endgame that
    clears the -1 pivots, and upper clearing.  column_norms lists the sup
    norm of the input and after each cleared column, RowReducer.norms.
    peak_norm is the largest |entry| of the working matrix, the input
    included, after every row operation of every phase; each target row of
    a compressed batch counts as one operation, and so does each of the
    three row operations of a signed swap.
    """

    __slots__ = ()

    word: Word
    phase_lengths: tuple[int, int, int]
    column_norms: tuple[int, ...]
    peak_norm: int


def normal_form_result(m: MatZ) -> NormalFormResult:
    """Express m as a word over the elementary generators, with diagnostics."""
    n = m.n
    if n < 3:
        raise UnsupportedDimensionError(f"normal form needs dimension >= 3, got {n}")
    det = determinant(m)
    if det != 1:
        raise NotInGroupError(f"determinant is {det}, not 1")
    red = RowReducer([list(r) for r in m.rows])
    word, phases = red.reduce()
    return NormalFormResult(word, phases, tuple(red.norms), red.peak)


def normal_form(m: MatZ) -> Word:
    """Word over e(i, j) letters whose evaluation equals m exactly."""
    return normal_form_result(m).word
