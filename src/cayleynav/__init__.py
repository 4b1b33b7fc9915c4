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

The namespace is lazy (PEP 562).  `import cayleynav` loads only the
errors submodule.  Every public name, and every submodule name
(`cayleynav.bfs`, ...), is looked up in its submodule on each access,
which imports that submodule the first time.  A resolved name is not kept
in the package, so the package always shows what the submodule holds at
the time, a function patched there included.
"""

import sys

from . import errors  # eager: every submodule and the CLI use it

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(
        ("AB", "ELEMENTARY", "MatFp", "MatZ", "Word", "eletter", "eval_word_fp", "eval_word_z"),
        "core",
    ),
    **dict.fromkeys(("normal_form", "normal_form_result"), "normalform"),
    **dict.fromkeys(("eij_ab_word", "rewrite_word_ab"), "abwords"),
    "compress_power": "compression",
    "word_for_modp": "modp",
    "bfs_diameter": "bfs",
    **dict.fromkeys(
        (
            "BudgetExceededError",
            "CayleyNavError",
            "DomainError",
            "InternalStateError",
            "InvalidGeneratorError",
            "NotInGroupError",
            "ParseError",
            "UnsupportedDimensionError",
        ),
        "errors",
    ),
}

_SUBMODULES = frozenset(
    ("abwords", "bfs", "cli", "compression", "core", "euclid", "fibonacci", "formats", "modp",
     "normalform", "rowreduce")
)

__all__ = sorted(_HOME)


def _submodule(name: str):
    full = f"{__name__}.{name}"
    __import__(full)
    return sys.modules[full]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_submodule(home), name)


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
