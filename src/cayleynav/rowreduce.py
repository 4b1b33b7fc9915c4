"""One row-reduction engine for SL_N(Z) and SL_N(F_p).

RowReducer(rows, p).reduce() is the one door into the engine for both
rings: the constructor refuses N < 3 with UnsupportedDimensionError and,
over Z/p, takes the entries mod p; reduce refuses rows that are not N x N
with DomainError and a determinant other than 1 (over Z/p, other than 1
mod p) with NotInGroupError before any phase runs, and it returns the
word with its record, a NormalFormResult.  normalform.normal_form_result
and modp.word_for_modp are that one call.

A RowReducer holds a working matrix, over Z when p is None and over Z/p
otherwise, and premultiplies it by elementary words.  Each operation
appends the inverse of its premultiplier to the output word at once, so
the output read left to right evaluates to the input matrix as soon as
the working matrix reaches the identity; no letter is inverted later.

The unit of work is a batch: row_i += q_i * row_j for several targets i
and one common source j.  Its premultipliers commute, so it emits the
letters of the product of e(i, j)^-q_i as one fused template
(compression._batch_letters), without building a Word per batch.  A
single row operation is a batch of one, and a signed swap is three row
operations.  The engine builds no letter: compression spells each batch,
and LLL's common-target runs by _gather_letters.  The letters are valid
by construction, so reduce wraps the output with core._word, and
check_identity vouches for what they evaluate to.

Column clearing folds the column into a carrier row by N-ary Euclidean
rounds (fold, which euclid.accelerated_reduce also runs, on a one-column
matrix): the smallest nonzero entry divides every other one, all in one
batch, until a single nonzero entry g is left.  Its pivot lands as
exactly 1: a carrier off the diagonal by two row operations, one on the
diagonal with g != 1 by the gadget diag(g^-1, g), which hands g to a row
below.  A fold's batches take their aux index from the active rows
first, then from every other row.  Upper clearing zeroes the strict
upper triangle one column per batch.  Over Z it goes right to left, so
each source row is already a unit row and no entry grows.  Over Z/p it
goes left to right: a column c < N takes the half walk of each template,
which leaves junk multiples of row N on the targets, on column N only;
column N, cleared last with the full template, clears them with the
rest.  Both rings run the same sequence, RowReducer.reduce: clear_column
for columns 1..N-1, clear_upper, check_identity; the last pivot is 1
because the determinant is.  Over Z/p the column entries are residues in
[0, p), so the division runs on integers and the exponents stay below p,
and the landing moves and upper clearing take their exponents in the
least-absolute window (-p/2, p/2].

Over Z, reduce first runs lll, an integral LLL reduction of the rows
(Lenstra, Lenstra and Lovasz, Math. Ann. 261 (1982); Cohen, A Course in
Computational Algebraic Number Theory, Alg. 2.6.7, delta = 3/4), whenever
some entry below the diagonal is nonzero.  The rows span Z^N, so the
reduced rows are short (in practice a signed permutation): the phases that
follow see small entries, and the entries met stay near the input norm.
Without it, clearing column c can square the magnitudes so far.  lll runs
on a virtual order of the rows: a swap exchanges two positions of a
permutation (Cohen's unsigned SWAPI), moves no row and emits no letter,
and each run of size reductions on one row is one common-target batch.
The reduced rows stay where they are, and column clearing lands each
carrier on the diagonal.
"""

from collections import namedtuple

from . import core
from .compression import _batch_letters, _gather_letters
from .core import Word, _word, inverse_mod, least_abs_residue
from .errors import DomainError, InternalStateError, NotInGroupError, UnsupportedDimensionError


class NormalFormResult(namedtuple("NormalFormResult", "word phase_lengths column_norms peak_norm")):
    """The word RowReducer.reduce emits, with its record.

    phase_lengths counts letters as (column, sign, upper): column clearing,
    which counts the LLL letters too because reduce runs LLL first, the
    diag(g^-1, g) gadgets column clearing runs in place, and upper
    clearing.  column_norms and peak_norm are RowReducer.norms and
    RowReducer.peak: the sup norm of the input and after each cleared
    column, and the largest |entry| met, the input included, after any row
    operation.  Over Z/p neither is tracked: both hold only the input's
    largest residue.
    """

    __slots__ = ()

    word: Word
    phase_lengths: tuple[int, int, int]
    column_norms: tuple[int, ...]
    peak_norm: int


class RowReducer:
    """Working rows, their output word and, over Z, the entry sizes met.

    peak starts at the sup norm of the input and takes the new row of every
    row operation into account; a compressed batch is one operation per
    target row, and a signed swap is three.  norms lists the sup norm at the
    start and after each column, and sign_letters counts the letters of the
    gadgets clear_column runs.
    """

    __slots__ = ("n", "p", "rows", "out", "sign_letters", "peak", "norms", "all_rows")

    def __init__(self, rows: list[list[int]], p: int | None = None):
        self.n = len(rows)
        if self.n < 3:
            raise UnsupportedDimensionError(f"row reduction needs dimension >= 3, got {self.n}")
        self.p = p
        self.rows = rows if p is None else [[x % p for x in row] for row in rows]
        self.out: list = []
        self.sign_letters = 0
        self.peak = max(abs(x) for row in self.rows for x in row)
        self.norms = [self.peak]
        self.all_rows = range(1, self.n + 1)

    def reduce(self) -> NormalFormResult:
        """Check the shape and det 1, then lll, clear_column for columns 1..N-1, clear_upper.

        The rows must be N x N, or DomainError is raised, and have
        determinant 1, over Z/p 1 mod p, or NotInGroupError is raised, both
        before any phase; N >= 3 was checked at construction.  lll runs over
        Z when some entry below the diagonal is nonzero, and check_identity
        closes the run.  Returns the word with its record.
        """
        n, rows = self.n, self.rows
        if any(len(row) != n for row in rows):
            raise DomainError(f"need {n} x {n} rows, got row lengths {[len(row) for row in rows]}")
        # the reducer holds n, rows and p, which is all the determinants
        # read; they are looked up in core at each call, so a tool that
        # has wrapped them there sees the call
        det = core.determinant(self) if self.p is None else core.determinant_fp(self)
        if det != 1:
            ring = "" if self.p is None else f" mod {self.p}"
            raise NotInGroupError(f"determinant is {det}{ring}, not 1")
        if self.p is None and any(rows[r][c] for r in range(1, n) for c in range(r)):
            self.lll()
        for col in range(1, n):
            self.clear_column(col)
        n1 = len(self.out)
        self.clear_upper()
        self.check_identity()
        phases = (n1 - self.sign_letters, self.sign_letters, len(self.out) - n1)
        return NormalFormResult(_word(n, tuple(self.out)), phases, tuple(self.norms), self.peak)

    def batch(self, j: int, mults, pool, junk: int | None = None) -> None:
        """row_i += q * row_j for every (i, q) in mults, as one batch.

        The targets i are distinct and differ from j; the fused template
        takes its aux index from pool, and a target with |q| <= 14 is
        spelled plainly.  With a junk column d outside j and the targets
        (over Z/p only), the fused targets take the half walk: each of them
        also gets row_i -= x * row_d, with the x _batch_letters returns.
        """
        rows, p, src = self.rows, self.p, self.rows[j - 1]
        for i, q in mults:
            if p is None:
                rows[i - 1] = new = [x + q * y for x, y in zip(rows[i - 1], src)]
                self.peak = max(self.peak, max(map(abs, new)))
            else:
                rows[i - 1] = [(x + q * y) % p for x, y in zip(rows[i - 1], src)]
        letters, moved = _batch_letters(j, [(i, -q) for i, q in mults], pool, junk)
        self.out += letters
        for i, x in moved:
            rows[i - 1] = [(y - x * z) % p for y, z in zip(rows[i - 1], rows[junk - 1])]

    def add(self, i: int, j: int, q: int) -> None:
        """row_i += q * row_j, emitting the letters of compress_power(n, i, j, -q)."""
        self.batch(j, ((i, q),), self.all_rows)

    def swap(self, i: int, j: int) -> None:
        """Row i takes row j and row j the negated row i, by three row operations.

        row_i += row_j, row_j -= row_i, row_i += row_j: the premultiplier is
        e(i,j) e(j,i)^-1 e(i,j), and its inverse e(i,j)^-1 e(j,i) e(i,j)^-1
        is emitted.
        """
        self.add(i, j, 1)
        self.add(j, i, -1)
        self.add(i, j, 1)

    def lll(self) -> list[int]:
        """Integral LLL reduction of the rows over Z, delta = 3/4 (Cohen, Alg. 2.6.7).

        Position k of the virtual order perm holds row perm[k], and a swap
        exchanges two entries of perm (Cohen's unsigned SWAPI).  d[i] is the
        Gram determinant of the first i positions and lam[k][j] is d[j + 1]
        times the Gram-Schmidt coefficient mu[k][j], all exact integers.
        A size reduction adds to its row at once, as the Gram step reads the
        rows; pend sums the exponents per source of the run on row run, which
        one _gather_letters call spells when the row changes or lll returns.
        Returns perm: rows perm[0], ..., perm[n - 1] (0-based) are the
        reduced basis in order.  Linearly dependent rows raise
        NotInGroupError: a new Gram determinant d[k + 1] is then 0.
        """
        n, rows = self.n, self.rows
        perm = list(range(n))
        d = [1, sum(x * x for x in rows[0])] + [0] * (n - 1)
        if not d[1]:
            raise NotInGroupError("row 1 is zero, determinant is 0")
        lam = [[0] * n for _ in range(n)]
        run, pend = None, {}

        def size_reduce(k: int, l: int) -> None:
            nonlocal run, pend
            u, dl = lam[k][l], d[l + 1]
            if 2 * abs(u) <= dl:
                return
            q = (2 * u + dl) // (2 * dl)
            t, s = perm[k] + 1, perm[l] + 1
            if t != run:
                self.out += _gather_letters(run, pend.items(), self.all_rows)
                run, pend = t, {}
            rows[t - 1] = new = [x - q * y for x, y in zip(rows[t - 1], rows[s - 1])]
            self.peak = max(self.peak, max(map(abs, new)))
            pend[s] = pend.get(s, 0) + q
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
                    elif not u:
                        raise NotInGroupError("rows are linearly dependent, determinant is 0")
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
        self.out += _gather_letters(run, pend.items(), self.all_rows)
        return perm

    def fold(self, col: int, active: range) -> tuple[int, list[tuple[int, int, int]]]:
        """Fold column col of the active rows into one carrier row by N-ary Euclid rounds.

        Each round takes as source the active row with the smallest nonzero
        |entry|, the earliest on ties, and divides every other nonzero entry
        by it with floor division in one batch, row_a -= q * row_source, so
        every remainder is smaller than the source.  The rounds stop when a
        single nonzero entry, the gcd up to sign, is left in the carrier.
        Over Z/p the entries are residues in [0, p), so the remainders are
        the reduced entries.  The batches draw aux from the active rows,
        then from every other row.  Returns the carrier and the moves
        (target, source, multiple), 1-based, in temporal order.
        """
        rows, c = self.rows, col - 1
        pool = (*active, *(r for r in self.all_rows if r not in active))
        moves = []
        while True:
            live = [a for a in active if rows[a - 1][c] != 0]
            source = min(live, key=lambda a: abs(rows[a - 1][c]))
            if len(live) == 1:
                return source, moves
            d = rows[source - 1][c]
            mults = [(a, -(rows[a - 1][c] // d)) for a in live if a != source]
            self.batch(source, mults, pool)
            moves += [(a, source, q) for a, q in mults]

    def clear_column(self, col: int) -> None:
        """Zero column col below the diagonal and land its pivot as 1.

        fold leaves the gcd g, a unit, in a carrier row c.  If c != col, two
        row operations land it on the diagonal as 1: row_col += g^-1 row_c,
        then row_c -= g row_col.  If c = col and g != 1, the gadget
        diag(g^-1, g) moves g to row r, the next row below col whose
        diagonal entry is not 1, or row N if there is none: the signed swap,
        then row_r += g row_col, row_col -= g^-1 row_r, row_r += g row_col.
        Over Z, g = -1 is its own inverse.  sign_letters counts the gadget
        letters.
        """
        n, rows = self.n, self.rows
        for d in range(col - 1):
            if rows[d][d] != 1:
                raise InternalStateError(f"pivot at column {d + 1} is {rows[d][d]}, not 1")
            if any(rows[r][d] != 0 for r in range(d + 1, n)):
                raise InternalStateError(f"column {d + 1} is not cleared below the diagonal")
        if all(rows[r][col - 1] == 0 for r in range(col - 1, n)):
            raise InternalStateError(f"column {col} is zero at and below the diagonal")
        carrier, _ = self.fold(col, range(col, n + 1))
        g = rows[carrier - 1][col - 1]
        if self.p is None and g not in (1, -1):
            raise InternalStateError(f"gcd of column {col} is {g}, matrix is not unimodular")
        if carrier != col:
            self.add(col, carrier, self._lift(self._inverse(g)))
            self.add(carrier, col, self._lift(-g))
        elif g != 1:
            r = next((r for r in range(col + 1, n + 1) if rows[r - 1][r - 1] != 1), n)
            start, q = len(self.out), self._lift(g)
            self.swap(col, r)
            self.add(r, col, q)
            self.add(col, r, self._lift(-self._inverse(g)))
            self.add(r, col, q)
            self.sign_letters += len(self.out) - start
        if self.p is None:
            self.norms.append(max(abs(x) for row in rows for x in row))

    def _lift(self, v: int) -> int:
        return v if self.p is None else least_abs_residue(v, self.p)

    def _inverse(self, u: int) -> int:
        return u if self.p is None else inverse_mod(u, self.p)

    def clear_upper(self) -> None:
        """Zero the strict upper triangle above pivots of 1, one batch per column.

        Column j is one batch with source j, its aux drawn from all rows.
        Every pivot must be 1, so each exponent is the negated entry.  Over
        Z the columns go right to left: row j is then zero right of its
        pivot, so every quotient is an entry and no entry grows.  Over Z/p
        they go left to right, and every column j < N takes the half walks
        with junk column N: row N is zero left of column N, so the junk
        moves no cleared entry, and column N, cleared last with the full
        template, clears the junk with the rest.
        """
        n, rows = self.n, self.rows
        for r in range(n):
            if any(rows[r][:r]) or rows[r][r] != 1:
                raise InternalStateError("matrix is not upper triangular with pivots of 1")
        for j in range(n, 1, -1) if self.p is None else range(2, n + 1):
            mults = [(i, self._lift(-rows[i - 1][j - 1])) for i in range(1, j) if rows[i - 1][j - 1]]
            junk = n if self.p is not None and j < n else None
            self.batch(j, mults, self.all_rows, junk)

    def check_identity(self) -> None:
        n, rows = self.n, self.rows
        if any(rows[r][c] != (1 if r == c else 0) for r in range(n) for c in range(n)):
            raise InternalStateError("reduction did not reach the identity")
