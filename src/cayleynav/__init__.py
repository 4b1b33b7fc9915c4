"""Constructive short words over the elementary generators of SL_n.

The package navigates Cayley graphs of SL_n(Z) and SL_n(F_p) for n >= 3:
powers of a transvection compress to words of logarithmic length, integer
tuples reduce by gcd engines built from those words, and whole matrices
factor into words via a three phase normal form.  Everything can be
rewritten over the two generators A = e(1,2) and the cyclic shift B, and
exhaustive search oracles supply exact distances on small groups.

The package namespace holds the pipeline: letters, words and matrices,
the word builders, their evaluators, A/B rewriting, the diameter oracle
and the error classes.  Everything else is imported from its submodule.
"""

from .abwords import eij_ab_word, rewrite_word_ab
from .bfs import bfs_diameter
from .compression import compress_power
from .core import AB, ELEMENTARY, MatFp, MatZ, Word, eletter, eval_word_fp, eval_word_z
from .errors import (
    BudgetExceededError,
    CayleyNavError,
    DomainError,
    InternalStateError,
    InvalidGeneratorError,
    NotInGroupError,
    ParseError,
    UnsupportedDimensionError,
)
from .modp import word_for_modp
from .normalform import normal_form, normal_form_result

__version__ = "0.1.0"

__all__ = [
    "AB",
    "BudgetExceededError",
    "CayleyNavError",
    "DomainError",
    "ELEMENTARY",
    "InternalStateError",
    "InvalidGeneratorError",
    "MatFp",
    "MatZ",
    "NotInGroupError",
    "ParseError",
    "UnsupportedDimensionError",
    "Word",
    "bfs_diameter",
    "compress_power",
    "eij_ab_word",
    "eletter",
    "eval_word_fp",
    "eval_word_z",
    "normal_form",
    "normal_form_result",
    "rewrite_word_ab",
    "word_for_modp",
]
