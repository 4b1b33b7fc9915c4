"""Constructive words for integer unimodular matrices in dimension >= 3.

normal_form_result is one call to rowreduce.RowReducer.reduce over Z,
which checks membership, runs the phases and returns the word with its
record; the rowreduce docstring describes both.
"""

from .core import MatZ, Word
from .rowreduce import NormalFormResult, RowReducer  # NormalFormResult is re-exported


def normal_form_result(m: MatZ) -> NormalFormResult:
    """Express m as a word over the elementary generators, with diagnostics."""
    return RowReducer([list(r) for r in m.rows]).reduce()


def normal_form(m: MatZ) -> Word:
    """Word over e(i, j) letters whose evaluation equals m exactly."""
    return normal_form_result(m).word
