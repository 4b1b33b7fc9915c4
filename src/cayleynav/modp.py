"""Short words for matrices over prime fields.

The integer pipeline carries over through the shared engine: word_for_modp
calls rowreduce.RowReducer.reduce over Z/p, the same sequence of steps:
entries are lifted to residues in [0, p), the lifted columns are
gcd-reduced by N-ary rounds of compressed batches, above-diagonal entries
are cleared one column per batch with exponents taken mod p, so every
target costs O(log p) letters, and the diagonal endgame sweeps the
leftover diagonal to the identity.  Every column but the last is cleared
with half walks, about half of a template each: the junk they leave lands
on column N, whose entries are arbitrary residues until it is cleared
last, so over Z/p it costs nothing.
The pivots are arbitrary nonzero residues rather than +-1, so each gadget
diag(a^-1, a) costs O(log p) letters rather than six, and a pivot of 1 is
skipped.  As in the integer pipeline, the inverse of every premultiplier
is appended as it is applied, so the letters come out in the order of the
final word.

Total length is bounded by DEFAULT_C * n^2 * ln p; DEFAULT_C was pinned by
measuring the exhaustive and sampled reports in the test grid.
"""

import math
from collections import namedtuple

from . import core
from .core import MatFp, Word, inverse_mod, sl_group_order
from .errors import DEFAULT_BUDGET, DomainError, NotInGroupError, UnsupportedDimensionError
from .rowreduce import RowReducer

DEFAULT_C = 12.0


def word_for_modp(m: MatFp) -> Word:
    """Word over e(i, j) letters whose evaluation mod p equals m."""
    n, p = m.n, m.p
    if n < 3:
        raise UnsupportedDimensionError(f"mod-p reduction needs dimension >= 3, got {n}")
    # read from core at each call: this module may be loaded after a tool
    # has wrapped core's functions, and the wrapper should see the call
    if core.determinant_fp(m) != 1:
        raise NotInGroupError("determinant is not 1 mod p")
    red = RowReducer([list(r) for r in m.rows], p)
    return red.reduce()[0]


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
