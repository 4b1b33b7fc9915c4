"""One row-reduction engine for SL_N(Z) and SL_N(F_p).

RowReducer(rows, p).reduce() is the one door into the engine for both
rings: the constructor refuses N < 3 with UnsupportedDimensionError,
reduce refuses a determinant other than 1 (over Z/p, other than 1 mod p)
with NotInGroupError before any phase runs, and it returns the word with
its record, a NormalFormResult.  normalform.normal_form_result and
modp.word_for_modp are that one call.

A RowReducer holds a working matrix, over Z when p is None and over Z/p
otherwise, and premultiplies it by elementary words.  Each operation
appends the inverse of its premultiplier to the output word at once, so
the output read left to right evaluates to the input matrix as soon as
the working matrix reaches the identity; no letter is inverted later.

The unit of work is a batch: row_i += q_i * row_j for several targets i
and one common source j.  Its premultipliers commute, so it emits the
letters of the product of e(i, j)^-q_i as one fused template
(compression._batch_letters), without building a Word per batch.  A
single row operation is a batch of one, spelled plainly at once when
|q| <= 14, and a signed swap is three row operations.  gather spells the
transpose, one common target and several sources, by the same speller;
the engine spells letters nowhere else.  The letters are valid by
construction, so reduce wraps the output with core._word, and
check_identity vouches for what they evaluate to.

Column clearing folds the column into a carrier row by N-ary Euclidean
rounds (fold, which euclid.accelerated_reduce also runs, on a one-column
matrix): the smallest nonzero entry divides every other one, all in one
batch, until a single nonzero entry is left, and a signed swap moves the
carrier onto the diagonal.  A fold's batches take their aux index from
the active rows first, then from every other row.  Upper clearing zeroes
the strict upper triangle one column per batch, dividing out each unit
pivot.  Over Z it goes right to left, so each source row is already a
unit row and no entry grows.  Over Z/p it goes left to right: a column
c < N takes the half walk of each template, which leaves junk multiples
of row N on the targets, on column N only; column N, cleared last with
the full template, clears them with the rest.  The diagonal endgame
sweeps the remaining diagonal of units to the identity with the gadget
diag(a^-1, a), which over Z has a = -1.  Both rings run the same
sequence, RowReducer.reduce: clear_column for each column, clear_upper,
clear_diagonal, check_identity.  Over Z/p the column entries are residues
in [0, p), so the division runs on integers and the exponents stay below
p, and upper clearing and the endgame take their exponents in the
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
and each run of size reductions on one row is one gather.  The reduced
rows stay where they are, and column clearing moves each carrier onto
the diagonal with at most N - 1 signed swaps.
"""

from collections import namedtuple

from . import core
from .compression import _PLAIN_MAX, _batch_letters, _plain_letters
from .core import ELEMENTARY, Word, _letter, _word, inverse_mod, least_abs_residue
from .errors import InternalStateError, NotInGroupError, UnsupportedDimensionError


class NormalFormResult(namedtuple("NormalFormResult", "word phase_lengths column_norms peak_norm")):
    """The word RowReducer.reduce emits, with its record.

    phase_lengths counts letters as (column, sign, upper): column clearing,
    which counts the LLL letters too because reduce runs LLL first, the
    diagonal endgame, which runs last but is counted second, and upper
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
    start and after each column.
    """

    __slots__ = ("n", "p", "rows", "out", "peak", "norms", "all_rows")

    def __init__(self, rows: list[list[int]], p: int | None = None):
        self.n = len(rows)
        if self.n < 3:
            raise UnsupportedDimensionError(f"row reduction needs dimension >= 3, got {self.n}")
        self.p = p
        self.rows = rows
        self.out: list = []
        self.peak = max(abs(x) for row in rows for x in row)
        self.norms = [self.peak]
        self.all_rows = range(1, self.n + 1)

    def reduce(self) -> NormalFormResult:
        """Check det 1, then lll, clear_column for columns 1..N-1, clear_upper, clear_diagonal.

        The rows must have determinant 1, over Z/p 1 mod p, or NotInGroupError
        is raised before any phase; N >= 3 was checked at construction.  lll
        runs over Z when some entry below the diagonal is nonzero, and
        check_identity closes the run.  Returns the word with its record.
        """
        # the reducer holds n, rows and p, which is all the determinants
        # read; they are looked up in core at each call, so a tool that
        # has wrapped them there sees the call
        det = core.determinant(self) if self.p is None else core.determinant_fp(self)
        if det != 1:
            ring = "" if self.p is None else f" mod {self.p}"
            raise NotInGroupError(f"determinant is {det}{ring}, not 1")
        if self.p is None and any(self.rows[r][c] for r in range(1, self.n) for c in range(r)):
            self.lll()
        for col in range(1, self.n):
            self.clear_column(col)
        n1 = len(self.out)
        self.clear_upper()
        n2 = len(self.out)
        self.clear_diagonal()
        self.check_identity()
        phases = (n1, len(self.out) - n2, n2 - n1)
        return NormalFormResult(_word(self.n, tuple(self.out)), phases, tuple(self.norms), self.peak)

    def _is_unit(self, v: int) -> bool:
        return v in (1, -1) if self.p is None else v != 0

    def batch(self, j: int, mults, pool, junk: int | None = None) -> None:
        """row_i += q * row_j for every (i, q) in mults, as one batch.

        The targets i are distinct and differ from j; the fused template
        takes its aux index from pool.  A single target with |q| <=
        _PLAIN_MAX is spelled plainly at once, without the batch speller.
        With a junk column d outside j and the targets (over Z/p only),
        the fused targets take the half walk: each of them also gets
        row_i -= x * row_d, with the x compression._batch_letters returns.
        """
        rows, p, src = self.rows, self.p, self.rows[j - 1]
        for i, q in mults:
            if p is None:
                rows[i - 1] = new = [x + q * y for x, y in zip(rows[i - 1], src)]
                self.peak = max(self.peak, max(map(abs, new)))
            else:
                rows[i - 1] = [(x + q * y) % p for x, y in zip(rows[i - 1], src)]
        if len(mults) == 1 and -_PLAIN_MAX <= q <= _PLAIN_MAX:  # (i, q) is the one target
            self.out += _plain_letters(i, j, -q)
            return
        letters, moved = _batch_letters(j, [(i, -q) for i, q in mults], pool, junk)
        self.out += letters
        for i, x in moved:
            rows[i - 1] = [(y - x * z) % p for y, z in zip(rows[i - 1], rows[junk - 1])]

    def gather(self, i: int, mults) -> None:
        """Emit the letters undoing row_i += q * row_l for every (l, q) in mults, as one batch.

        The rows already hold the sums, and the sources l differ.  The e(i, l)^q
        commute (E_il E_il' = 0), and their product is the transpose of the
        batch on source i: the speller's letters reversed, e(a, b) as e(b, a).
        """
        fused = []
        for l, q in mults:
            if -_PLAIN_MAX <= q <= _PLAIN_MAX:
                self.out += _plain_letters(i, l, -q)
            else:
                fused.append((l, -q))
        if fused:
            letters, _ = _batch_letters(i, fused, self.all_rows)
            self.out += [_letter(ELEMENTARY, x.e, x.j, x.i, "") for x in reversed(letters)]

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
        rows; pend sums the multiples per source of the run on row run, which
        one gather spells when the row changes or lll returns.
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
                self.gather(run, pend.items())
                run, pend = t, {}
            rows[t - 1] = new = [x - q * y for x, y in zip(rows[t - 1], rows[s - 1])]
            self.peak = max(self.peak, max(map(abs, new)))
            pend[s] = pend.get(s, 0) - q
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
        self.gather(run, pend.items())
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
        """Zero column col below the diagonal, leaving a unit pivot at (col, col)."""
        n, rows = self.n, self.rows
        for d in range(col - 1):
            if not self._is_unit(rows[d][d]):
                raise InternalStateError(f"pivot at column {d + 1} is {rows[d][d]}, not a unit")
            if any(rows[r][d] != 0 for r in range(d + 1, n)):
                raise InternalStateError(f"column {d + 1} is not cleared below the diagonal")
        if all(rows[r][col - 1] == 0 for r in range(col - 1, n)):
            raise InternalStateError(f"column {col} is zero at and below the diagonal")
        carrier, _ = self.fold(col, range(col, n + 1))
        if carrier != col:
            self.swap(col, carrier)
        pivot = rows[col - 1][col - 1]
        if not self._is_unit(pivot):
            raise InternalStateError(f"gcd of column {col} is {pivot}, matrix is not unimodular")
        if self.p is None:
            self.norms.append(max(abs(x) for row in rows for x in row))

    def _lift(self, v: int) -> int:
        return v if self.p is None else least_abs_residue(v, self.p)

    def _inverse(self, u: int) -> int:
        return u if self.p is None else inverse_mod(u, self.p)

    def clear_upper(self) -> None:
        """Zero the strict upper triangle, one batch per column.

        Column j is one batch with source j, its aux drawn from all rows.
        Every pivot must be a unit; it is divided out of the exponent and
        stays on the diagonal for clear_diagonal.  Over Z the columns go
        right to left: row j is then zero right of its pivot, so every
        quotient is an entry and no entry grows.  Over Z/p they go left to
        right, and every column j < N takes the half walks with junk
        column N: row N is zero left of column N, so the junk moves no
        cleared entry, and column N, cleared last with the full template,
        clears the junk with the rest.
        """
        n, rows = self.n, self.rows
        for r in range(n):
            if any(rows[r][:r]) or not self._is_unit(rows[r][r]):
                raise InternalStateError("matrix is not upper triangular with unit pivots")
        for j in range(n, 1, -1) if self.p is None else range(2, n + 1):
            inv = self._inverse(rows[j - 1][j - 1])
            column = [(i, rows[i - 1][j - 1]) for i in range(1, j)]
            mults = [(i, self._lift(-v * inv)) for i, v in column if v]
            if mults:
                junk = n if self.p is not None and j < n else None
                self.batch(j, mults, self.all_rows, junk)

    def clear_diagonal(self) -> None:
        """Sweep a diagonal of units to the identity, two pivots at a time.

        A pivot a != 1 at i is paired with the next pivot != 1 at j, and rows
        (i, j) are premultiplied by diag(a^-1, a): the signed swap, then
        row_j += a row_i, row_i -= a^-1 row_j, row_j += a row_i.  Pivot i
        becomes 1 and pivot j absorbs a.  Over Z, a = -1 is its own inverse.
        """
        n, rows = self.n, self.rows
        for r in range(n):
            if any(rows[r][c] for c in range(n) if c != r) or not self._is_unit(rows[r][r]):
                raise InternalStateError("matrix is not diagonal with unit pivots")
        for i in range(1, n + 1):
            a = rows[i - 1][i - 1]
            if a == 1:
                continue
            j = next((j for j in range(i + 1, n + 1) if rows[j - 1][j - 1] != 1), None)
            if j is None:
                raise InternalStateError(f"pivot {a} at {i} has no partner, determinant is not 1")
            q = self._lift(a)
            self.swap(i, j)
            self.add(j, i, q)
            self.add(i, j, self._lift(-self._inverse(a)))
            self.add(j, i, q)

    def check_identity(self) -> None:
        n, rows = self.n, self.rows
        if any(rows[r][c] != (1 if r == c else 0) for r in range(n) for c in range(n)):
            raise InternalStateError("reduction did not reach the identity")
