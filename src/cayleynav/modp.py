"""Short words for matrices over prime fields.

word_for_modp is one call to rowreduce.RowReducer.reduce over Z/p, the
engine and phase sequence of the integer pipeline; the rowreduce docstring
describes both.  Entries are residues in [0, p), so every exponent stays
below p and every target costs O(log p) letters.

Total length is bounded by DEFAULT_C * n^2 * ln p; DEFAULT_C was pinned by
measuring the exhaustive and sampled reports in the test grid.
"""

import math
from collections import namedtuple

from . import core
from .core import MatFp, Word, inverse_mod, sl_group_order
from .errors import DEFAULT_BUDGET, DomainError, UnsupportedDimensionError
from .rowreduce import RowReducer

DEFAULT_C = 12.0


def word_for_modp(m: MatFp) -> Word:
    """Word over e(i, j) letters whose evaluation mod p equals m."""
    return RowReducer([list(r) for r in m.rows], m.p).reduce().word


def length_bound_modp(n: int, p: int) -> float:
    """Letter budget DEFAULT_C * n^2 * ln p for one mod-p reduction."""
    return DEFAULT_C * (n * n * math.log(p))


def random_sl_fp(n: int, p: int, rng: "random.Random") -> MatFp:
    """Uniform element of SL_n(F_p): random invertible, first row rescaled."""
    if n < 2:
        raise DomainError(f"need dimension >= 2, got {n}")
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        m = MatFp(n, p, tuple(tuple(r) for r in rows))
        d = core.determinant_fp(m)
        if d:
            break
    dinv = inverse_mod(d, p)
    rows[0] = [x * dinv % p for x in rows[0]]
    return MatFp(n, p, tuple(tuple(r) for r in rows))


class FpReport(namedtuple(
    "FpReport",
    "n p order mode count max_length mean_length normalized_max bound c_const seed",
)):
    """Word-length statistics for SL_n(F_p), exhaustive or sampled.

    normalized_max is max_length / (n^2 ln p); comparing it against c_const
    checks the length bound, and comparing it across a grid of (n, p)
    checks that the normalization is the right one.
    """

    __slots__ = ()

    n: int
    p: int
    order: int
    mode: str
    count: int
    max_length: int
    mean_length: float
    normalized_max: float
    bound: float
    c_const: float
    seed: int | None


def diameter_upper_bound_report(
    n: int,
    p: int,
    exhaustive: bool = False,
    samples: int = 200,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> FpReport:
    """Measure word lengths over SL_n(F_p).

    Exhaustive mode walks the whole group (subject to the state budget) and
    its max_length is a true diameter upper bound for the elementary Cayley
    graph.  Sampled mode draws uniform elements with the given seed.
    """
    if n < 3:  # refused before any search or sample is spent
        raise UnsupportedDimensionError(f"mod-p reduction needs dimension >= 3, got {n}")
    order = sl_group_order(n, p)
    lengths = []
    if exhaustive:
        from .bfs import bfs_distance_map  # only exhaustive mode searches

        for key in bfs_distance_map(n, p, budget=budget):
            mat = MatFp(n, p, tuple(key[r * n : (r + 1) * n] for r in range(n)))
            lengths.append(len(word_for_modp(mat)))
        mode, used_seed = "exhaustive", None
    else:
        if samples < 1:
            raise DomainError(f"need at least one sample, got {samples}")
        import random  # only sampling needs it; keeps it out of the package import

        rng = random.Random(seed)
        for _ in range(samples):
            lengths.append(len(word_for_modp(random_sl_fp(n, p, rng))))
        mode, used_seed = "sampled", seed
    norm = n * n * math.log(p)
    return FpReport(
        n=n,
        p=p,
        order=order,
        mode=mode,
        count=len(lengths),
        max_length=max(lengths),
        mean_length=sum(lengths) / len(lengths),
        normalized_max=max(lengths) / norm,
        bound=length_bound_modp(n, p),
        c_const=DEFAULT_C,
        seed=used_seed,
    )
