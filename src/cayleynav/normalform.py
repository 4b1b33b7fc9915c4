"""Constructive words for integer unimodular matrices in dimension >= 3.

The matrix is driven to the identity by premultiplications on a
rowreduce.RowReducer over Z, whose reduce runs three phases: column-by-column
gcd clearing below the diagonal, compressed clearing of the upper triangle,
which leaves the +-1 pivots in place, then the diagonal endgame, which
turns the -1 pivots into +1 two at a time.  The engine appends the inverse
of every premultiplier as it is applied, so the letters come out in the
order of the final word, which evaluates to the original matrix.

Phase one starts with an integral LLL reduction of the rows (Lenstra,
Lenstra and Lovasz, Math. Ann. 261 (1982); Cohen, A Course in
Computational Algebraic Number Theory, Alg. 2.6.7, delta = 3/4) whenever
some entry below the diagonal is nonzero.  The rows span Z^N, so the
reduced rows are short (in practice a signed permutation) and the phases
that follow see small entries, while the entries met during the reduction
stay near the input norm.  Without it, clearing column c can square the
magnitudes accumulated so far.  The reduction runs on a virtual order of
the rows: a swap exchanges two positions of a permutation (Cohen's
unsigned SWAPI), so it moves no row and emits no letter, and each size
reduction is one compressed power chunk between the rows at two
positions.  The reduced rows stay where they are, and column clearing
moves each carrier onto the diagonal with at most N - 1 signed swaps.  The result reports the
largest entry met after every row operation (peak_norm) and the
per-column sup norms; neither affects correctness.
"""

from collections import namedtuple

from .core import MatZ, Word, determinant
from .errors import NotInGroupError, UnsupportedDimensionError
from .rowreduce import RowReducer


def _lll_reduce(red: RowReducer) -> list[int]:
    """Integral LLL reduction of the rows with delta = 3/4 (Cohen, Alg. 2.6.7).

    The rows are reduced in the virtual order perm: position k holds row
    perm[k], and a swap exchanges two entries of perm, which moves no row
    and emits no letter (Cohen's unsigned SWAPI).  d[i] is the Gram
    determinant of the first i positions and lam[k][j] is d[j + 1] times
    the Gram-Schmidt coefficient mu[k][j], all exact integers.  Every
    letter comes from a size reduction.  Returns perm: rows perm[0], ...,
    perm[n - 1] (0-based) are the reduced basis in order.
    """
    n, rows = red.n, red.rows
    perm = list(range(n))
    d = [1, sum(x * x for x in rows[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def size_reduce(k: int, l: int) -> None:
        u, dl = lam[k][l], d[l + 1]
        if 2 * abs(u) <= dl:
            return
        q = (2 * u + dl) // (2 * dl)
        red.add(perm[k] + 1, perm[l] + 1, -q)
        lam[k][l] = u - q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            bk = rows[perm[k]]
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(bk, rows[perm[j]]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lk * lk:
            perm[k - 1], perm[k] = perm[k], perm[k - 1]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k + 1]
            d[k] = b
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return perm


class NormalFormResult(namedtuple("NormalFormResult", "word phase_lengths column_norms peak_norm")):
    """Word for a unimodular matrix plus per-phase diagnostics.

    phase_lengths counts letters as (column, sign, upper), as
    RowReducer.reduce returns them: column clearing with the LLL
    pre-reduction, the diagonal endgame that clears the -1 pivots, and
    upper clearing.  column_norms lists the sup norm before phase one and
    after each cleared column, RowReducer.norms.  peak_norm is the
    largest |entry| of the working matrix, the input included, after every
    row operation of every phase; each target row of a compressed batch
    counts as one operation, and so does each of the three row operations
    of a signed swap.
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
    if any(red.rows[r][c] for r in range(1, n) for c in range(r)):
        _lll_reduce(red)
    word, phases = red.reduce()
    return NormalFormResult(word, phases, tuple(red.norms), red.peak)


def normal_form(m: MatZ) -> Word:
    """Word over e(i, j) letters whose evaluation equals m exactly."""
    return normal_form_result(m).word
