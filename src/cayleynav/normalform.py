"""Constructive words for integer unimodular matrices in dimension >= 3.

The matrix is driven to the identity by premultiplications in three phases:
column-by-column gcd clearing below the diagonal, pairwise sign repair of
negative pivots, then compressed clearing of the upper triangle.  Recording
every premultiplication letter in temporal order and inverting each one in
place yields a word whose evaluation is the original matrix.

Phase one starts with an integral LLL reduction of the rows (Lenstra,
Lenstra and Lovasz, Math. Ann. 261 (1982); Cohen, A Course in
Computational Algebraic Number Theory, Alg. 2.6.7, delta = 3/4) whenever
some entry below the diagonal is nonzero.  The rows span Z^N, so the
reduced rows are short (in practice a signed permutation) and the phases
that follow see small entries, while the entries met during the reduction
stay near the input norm.  Without it, clearing column c can square the
magnitudes accumulated so far.  Each size reduction is one compressed
power chunk and each swap the three-letter signed swap used for carrier
rows.  The result reports the largest entry met after every row operation
(peak_norm) and the per-column sup norms; neither affects correctness.
"""

from dataclasses import dataclass

from .compression import compress_power
from .core import MatZ, Word, determinant, eletter
from .errors import (
    InternalStateError,
    NotInGroupError,
    UnsupportedDimensionError,
)
from .euclid import accelerated_reduce


def _check_cleared_prefix(rows, col: int) -> None:
    n = len(rows)
    for d in range(col - 1):
        if rows[d][d] not in (1, -1):
            raise InternalStateError(f"pivot at column {d + 1} is {rows[d][d]}, not a unit")
        if any(rows[r][d] != 0 for r in range(d + 1, n)):
            raise InternalStateError(f"column {d + 1} is not cleared below the diagonal")


def _signed_swap(rows, col: int, carrier: int) -> tuple:
    """Move row carrier to row col and the negated row col to row carrier.

    Mutates rows in place and returns the three letters in temporal order.
    """
    c0, r0 = col - 1, carrier - 1
    rows[c0], rows[r0] = rows[r0], [-x for x in rows[c0]]
    a = eletter(col, carrier)
    return (a, eletter(carrier, col, -1), a)


def _subtract_multiple(rows, i: int, j: int, q: int, temporal: list) -> int:
    """Row i -= q * row j as one compressed chunk appended to temporal.

    Returns the sup norm of the new row i.
    """
    chunk = compress_power(len(rows), i, j, -q)
    temporal.extend(reversed(chunk.letters))
    rows[i - 1] = new = [x - q * y for x, y in zip(rows[i - 1], rows[j - 1])]
    return max(map(abs, new))


def _lll_reduce(rows) -> tuple[list, int]:
    """Integral LLL reduction of the rows with delta = 3/4 (Cohen, Alg. 2.6.7).

    d[i] is the Gram determinant of the first i rows and lam[k][j] is
    d[j + 1] times the Gram-Schmidt coefficient mu[k][j], all exact integers.
    A swap moves row k up and negates the old row k - 1, so the signs of the
    coefficients that involve the new row k flip.  Mutates rows in place and
    returns the letters in temporal order with the largest entry of any row
    produced by a size reduction.
    """
    n = len(rows)
    d = [1, sum(x * x for x in rows[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]
    temporal: list = []
    peak = 0

    def size_reduce(k: int, l: int) -> None:
        nonlocal peak
        u, dl = lam[k][l], d[l + 1]
        if 2 * abs(u) <= dl:
            return
        q = (2 * u + dl) // (2 * dl)
        peak = max(peak, _subtract_multiple(rows, k + 1, l + 1, q, temporal))
        lam[k][l] = u - q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            bk = rows[k]
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(bk, rows[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lk * lk:
            temporal.extend(_signed_swap(rows, k, k + 1))
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = -lam[k - 1][j], lam[k][j]
            lam[k][k - 1] = -lk
            b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                u = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (b * t + lk * u) // d[k + 1]
                lam[i][k] = -u
            d[k] = b
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return temporal, peak


def _clear_column(rows, col: int) -> tuple[list, int]:
    """Zero column col below the diagonal, leaving a unit pivot at (col, col).

    Mutates rows in place and returns the applied letters in temporal order
    with the largest entry of any row produced by a quotient step.
    """
    n = len(rows)
    _check_cleared_prefix(rows, col)
    entries = tuple(rows[r][col - 1] for r in range(n))
    if all(v == 0 for v in entries[col - 1:]):
        raise InternalStateError(f"column {col} is zero at and below the diagonal")
    res = accelerated_reduce(entries, n - col + 1)
    peak = 0
    for st in res.quotient_steps:
        t, s = st.target - 1, st.source - 1
        rows[t] = new = [x + st.multiple * y for x, y in zip(rows[t], rows[s])]
        peak = max(peak, max(map(abs, new)))
    temporal = list(reversed(res.word.letters))
    carrier = next(r for r in range(col, n + 1) if res.final[r - 1] != 0)
    if carrier != col:
        temporal.extend(_signed_swap(rows, col, carrier))
    if rows[col - 1][col - 1] not in (1, -1):
        raise InternalStateError(
            f"gcd of column {col} is {rows[col - 1][col - 1]}, matrix is not unimodular"
        )
    return temporal, peak


def _fix_signs(rows) -> list:
    """Turn -1 pivots into +1 in pairs.  Returns temporal letters."""
    n = len(rows)
    for r in range(n):
        if any(rows[r][c] != 0 for c in range(r)):
            raise InternalStateError("matrix is not upper triangular")
        if rows[r][r] not in (1, -1):
            raise InternalStateError(f"pivot at column {r + 1} is {rows[r][r]}, not a unit")
    neg = [r + 1 for r in range(n) if rows[r][r] == -1]
    if len(neg) % 2:
        raise InternalStateError("odd number of negative pivots, determinant is -1")
    temporal: list = []
    for i, j in zip(neg[0::2], neg[1::2]):
        a = eletter(i, j)
        b = eletter(j, i, -1)
        temporal.extend((a, b, a, a, b, a))
        rows[i - 1] = [-x for x in rows[i - 1]]
        rows[j - 1] = [-x for x in rows[j - 1]]
    return temporal


def _clear_upper(rows) -> tuple[list, int]:
    """Zero the strict upper triangle of a unitriangular matrix.

    Returns the letters in temporal order with the largest entry of any row
    produced on the way.
    """
    n = len(rows)
    for r in range(n):
        if rows[r][r] != 1 or any(rows[r][c] != 0 for c in range(r)):
            raise InternalStateError("matrix is not upper unitriangular")
    temporal: list = []
    peak = 0
    for j in range(2, n + 1):
        for i in range(1, j):
            v = rows[i - 1][j - 1]
            if v != 0:
                peak = max(peak, _subtract_multiple(rows, i, j, v, temporal))
    return temporal, peak


def _premultiplier(n: int, temporal) -> Word:
    return Word(n, tuple(reversed(temporal)))


def column_clear_phase(m: MatZ, col: int) -> tuple[MatZ, Word]:
    """One column of phase one.  Returns (new matrix, premultiplier word)."""
    if not (1 <= col <= m.n - 1):
        raise InternalStateError(f"phase one handles columns 1..{m.n - 1}, got {col}")
    rows = [list(r) for r in m.rows]
    temporal, _ = _clear_column(rows, col)
    return MatZ(m.n, tuple(tuple(r) for r in rows)), _premultiplier(m.n, temporal)


def sign_fix_phase(m: MatZ) -> tuple[MatZ, Word]:
    """Phase two on an upper triangular matrix with unit pivots."""
    rows = [list(r) for r in m.rows]
    temporal = _fix_signs(rows)
    return MatZ(m.n, tuple(tuple(r) for r in rows)), _premultiplier(m.n, temporal)


def upper_clear_phase(m: MatZ) -> tuple[MatZ, Word]:
    """Phase three on a unitriangular matrix; the result is the identity."""
    rows = [list(r) for r in m.rows]
    temporal, _ = _clear_upper(rows)
    return MatZ(m.n, tuple(tuple(r) for r in rows)), _premultiplier(m.n, temporal)


@dataclass(frozen=True)
class NormalFormResult:
    """Word for a unimodular matrix plus per-phase diagnostics.

    phase_lengths counts letters contributed by the three phases, the LLL
    pre-reduction included in phase one.  column_norms lists the sup norm
    before phase one and after each cleared column.  peak_norm is the
    largest |entry| of the working matrix, the input included, after every
    row operation of every phase; a compressed chunk counts as one operation.
    """

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
    rows = [list(r) for r in m.rows]
    norms = [max(abs(x) for row in rows for x in row)]
    peak = norms[0]
    t1: list = []
    if any(rows[r][c] for r in range(1, n) for c in range(r)):
        t1, lll_peak = _lll_reduce(rows)
        peak = max(peak, lll_peak)
    for col in range(1, n):
        letters, col_peak = _clear_column(rows, col)
        t1.extend(letters)
        peak = max(peak, col_peak)
        norms.append(max(abs(x) for row in rows for x in row))
    t2 = _fix_signs(rows)
    t3, upper_peak = _clear_upper(rows)
    if any(rows[r][c] != (1 if r == c else 0) for r in range(n) for c in range(n)):
        raise InternalStateError("reduction did not reach the identity")
    word = Word(n, tuple(l.inverse() for l in t1 + t2 + t3))
    return NormalFormResult(
        word, (len(t1), len(t2), len(t3)), tuple(norms), max(peak, upper_peak)
    )


def normal_form(m: MatZ) -> Word:
    """Word over e(i, j) letters whose evaluation equals m exactly."""
    return normal_form_result(m).word
