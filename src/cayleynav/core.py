"""Exact word and matrix algebra for SL_N over Z and over prime fields.

Generators are the elementary transvections e(i, j): the identity matrix
with one extra unit in off-diagonal position (i, j), indices 1-based.  The
two-letter alphabet consists of A = e(1, 2) and B, the cyclic basis shift
whose corner entry (-1)^(N-1) keeps the determinant equal to 1.

Words multiply left to right, eval(w) = M(l_1) * ... * M(l_k).  Acting on a
column vector the rightmost letter acts first, and e(p, q)^s sends entry
a_p to a_p + s * a_q.

eval_word_z and eval_word_fp run on packed rows: each row is one int,
sum of x_c * 2^(w*c) with signed slots x_c, so e(i, j)^s is the single
addition row_i += s * row_j and B^s a rotation of the row list.  The
letters go in blocks of K; a block that starts from entries below 2^b
uses slots of width w = b + K + 1, which no entry can outgrow (the
argument is in _eval_rows), and between blocks the rows are unpacked and
reduced mod p.

GenLetter, Word, MatZ and MatFp are immutable slotted classes whose
constructors check their fields; the one base _Frozen derives equality
(same class only), hashing, repr and pickling from each __slots__.  They
are deliberately not tuples, so Word + Word and len(MatZ) stay errors
rather than a concatenation and a 2.  MatZ and MatFp share the base _Mat,
which writes identity, the product and key once; a product across the
two classes raises TypeError.  Letters are interned by the one
cache _letter, which eletter, abletter and GenLetter.inverse go through;
eletter and abletter put the exponent and indices through operator.index
before the lookup, so a 1.0 never keys a letter that a later 1 would find.

A Word is validated once, where its letters come from outside: the Word
constructor checks that every letter fits the dimension and that one
alphabet is used, which covers parsing, user code and tests.  Words the
library builds from letters valid by construction (engine outputs,
compressed chunks, A/B rewrites, and the inverse, product or free
reduction of checked words) go through _word, which skips the constructor
and its per-letter pass; a product still compares the two alphabets.
"""

import operator
from functools import lru_cache

from .errors import DomainError, InternalStateError, InvalidGeneratorError

ELEMENTARY = "elementary"
AB = "ab"


class _Frozen:
    """Base of the value types: one place turns __slots__ into value behaviour.

    Each subclass names its fields in __slots__, in constructor order, and
    keeps only its constructor check and its own methods.  _fields is the
    field tuple; equality (same class only), the hash, the repr and
    pickling all follow it, and _init sets the fields once, in slot order,
    past __setattr__.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # rebuilt through the constructor, which checks the fields again
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class GenLetter(_Frozen):
    """A single generator symbol with exponent +1 or -1."""

    __slots__ = ("alphabet", "e", "i", "j", "sym")

    def __init__(self, alphabet: str, e: int, i: int = 0, j: int = 0, sym: str = ""):
        e, i, j = operator.index(e), operator.index(i), operator.index(j)
        if e not in (1, -1):
            raise InvalidGeneratorError(f"letter exponent must be +1 or -1, got {e}")
        if alphabet == ELEMENTARY:
            if i < 1 or j < 1:
                raise InvalidGeneratorError(f"indices must be 1-based, got ({i},{j})")
            if i == j:
                raise InvalidGeneratorError(f"e({i},{j}) needs i != j")
        elif alphabet == AB:
            if sym not in ("A", "B"):
                raise InvalidGeneratorError(f"AB symbol must be A or B, got {sym!r}")
        else:
            raise InvalidGeneratorError(f"unknown alphabet {alphabet!r}")
        self._init(alphabet, e, i, j, sym)

    def inverse(self) -> "GenLetter":
        return _letter(self.alphabet, -self.e, self.i, self.j, self.sym)

    def token(self) -> str:
        base = f"e({self.i},{self.j})" if self.alphabet == ELEMENTARY else self.sym
        return base + "^-1" if self.e < 0 else base


@lru_cache(maxsize=None)
def _letter(alphabet: str, e: int, i: int, j: int, sym: str) -> GenLetter:
    """The one letter cache: always called with every field, in slot order."""
    return GenLetter(alphabet, e, i, j, sym)


def eletter(i: int, j: int, e: int = 1) -> GenLetter:
    """Interned elementary letter e(i, j)^e."""
    return _letter(ELEMENTARY, operator.index(e), operator.index(i), operator.index(j), "")


def abletter(sym: str, e: int = 1) -> GenLetter:
    """Interned AB letter A^e or B^e."""
    return _letter(AB, operator.index(e), 0, 0, sym)


class Word(_Frozen):
    """An immutable word over one generator alphabet in dimension n."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[GenLetter, ...] = ()):
        n = operator.index(n)
        if n < 2:
            raise DomainError(f"word dimension must be at least 2, got {n}")
        if letters:
            first = letters[0].alphabet
            # only elementary letters have indices to check against the dimension
            bound = n if first == ELEMENTARY else float("inf")
            for l in letters:
                if l.alphabet != first:
                    raise DomainError("word mixes elementary and AB letters")
                if l.i > bound or l.j > bound:
                    raise InvalidGeneratorError(f"letter {l.token()} exceeds dimension {bound}")
        self._init(n, letters)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def alphabet(self) -> str | None:
        """Alphabet of the word, or None when empty."""
        return self.letters[0].alphabet if self.letters else None

    def __mul__(self, other: "Word") -> "Word":
        if self.n != other.n:
            raise DomainError(f"cannot concatenate words of dimension {self.n} and {other.n}")
        if self.letters and other.letters and self.letters[0].alphabet != other.letters[0].alphabet:
            raise DomainError("word mixes elementary and AB letters")
        return _word(self.n, self.letters + other.letters)

    def inverse(self) -> "Word":
        return _word(self.n, tuple(l.inverse() for l in reversed(self.letters)))

    def free_reduce(self) -> "Word":
        out: list[GenLetter] = []
        for l in self.letters:
            if out and out[-1] is not l and out[-1] == l.inverse():
                out.pop()
            else:
                out.append(l)
        return _word(self.n, tuple(out))

    def tokens(self) -> str:
        return " ".join(l.token() for l in self.letters)

    def __str__(self) -> str:
        return self.tokens()

    def __repr__(self) -> str:
        if len(self.letters) > 8:
            head = " ".join(l.token() for l in self.letters[:8])
            return f"Word(n={self.n}, len={len(self.letters)}, '{head} ...')"
        return f"Word(n={self.n}, '{self.tokens()}')"


def _word(n: int, letters: tuple[GenLetter, ...]) -> Word:
    """A Word built without the constructor's check, for letters valid by construction.

    Only for letters of one alphabet that fit dimension n >= 2 because the
    library made them so: engine output, compressed chunks, and inverses,
    products and free reductions of words that were already checked.
    """
    w = object.__new__(Word)
    w._init(n, letters)
    return w


class _Mat(_Frozen):
    """Base of MatZ and MatFp: identity, product and key, written once.

    The fields between n and rows name the ring, none over Z and p over
    F_p.  A product across the two classes is NotImplemented, so Python
    raises TypeError; different dimensions or moduli raise DomainError.
    """

    __slots__ = ()

    @classmethod
    def identity(cls, n: int, *ring):
        return cls(n, *ring, tuple(tuple(int(r == c) for c in range(n)) for r in range(n)))

    def __mul__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        ring = self._fields()[1:-1]
        if self.n != other.n or ring != other._fields()[1:-1]:
            raise DomainError("dimension or modulus mismatch in matrix product")
        cols = list(zip(*other.rows))
        rows = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows)
        if ring:  # over F_p, back to residues
            rows = tuple(tuple(x % ring[0] for x in row) for row in rows)
        return self.__class__(self.n, *ring, rows)

    def key(self) -> tuple[int, ...]:
        """Flat row-major entry tuple, usable as a dict key."""
        return tuple(x for row in self.rows for x in row)


class MatZ(_Mat):
    """Immutable integer matrix, stored as a tuple of row tuples."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]):
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"matrix rows do not form an {n}x{n} square")
        for row in rows:
            for x in row:
                operator.index(x)  # a non-integer entry raises TypeError
        self._init(n, rows)

    @classmethod
    def from_rows(cls, rows) -> "MatZ":
        rows = tuple(tuple(map(operator.index, r)) for r in rows)
        return cls(len(rows), rows)


class MatFp(_Mat):
    """Immutable matrix over the prime field F_p, entries stored in [0, p)."""

    __slots__ = ("n", "p", "rows")

    def __init__(self, n: int, p: int, rows: tuple[tuple[int, ...], ...]):
        p = operator.index(p)
        if not is_prime(p):
            raise DomainError(f"modulus {p} is not prime")
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"matrix rows do not form an {n}x{n} square")
        # one pass: a non-integer entry raises TypeError, a non-residue DomainError
        if any(not 0 <= operator.index(x) < p for row in rows for x in row):
            raise DomainError(f"entries must be residues in [0, {p})")
        self._init(n, p, rows)

    @classmethod
    def from_rows(cls, rows, p: int) -> "MatFp":
        p = operator.index(p)
        if p < 2:
            raise DomainError(f"modulus {p} is not prime")
        rows = tuple(tuple(operator.index(x) % p for x in r) for r in rows)
        return cls(len(rows), p, rows)


def elementary_matrix(n: int, i: int, j: int, e: int = 1) -> MatZ:
    """The transvection e(i, j)^e in dimension n."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise InvalidGeneratorError(f"e({i},{j}) invalid in dimension {n}")
    if e not in (1, -1):
        raise InvalidGeneratorError("exponent must be +1 or -1")
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i - 1][j - 1] = e
    return MatZ(n, tuple(tuple(r) for r in rows))


def ab_matrix(n: int, sym: str, e: int = 1) -> MatZ:
    """The generator A (= e(1, 2)) or the shift B, or their inverses."""
    if n < 2:
        raise DomainError(f"A and B need dimension >= 2, got {n}")
    if sym == "A":
        return elementary_matrix(n, 1, 2, e)
    if sym != "B":
        raise InvalidGeneratorError(f"AB symbol must be A or B, got {sym!r}")
    if e not in (1, -1):
        raise InvalidGeneratorError("exponent must be +1 or -1")
    rows = [[0] * n for _ in range(n)]
    for r in range(n - 1):
        rows[r][r + 1] = 1
    rows[n - 1][0] = (-1) ** (n - 1)
    # B is a signed permutation matrix, so its inverse is its transpose
    return MatZ(n, tuple(map(tuple, rows if e == 1 else zip(*rows))))


def letter_matrix_z(letter: GenLetter, n: int) -> MatZ:
    """Integer matrix of a single letter in dimension n."""
    if letter.alphabet == ELEMENTARY:
        return elementary_matrix(n, letter.i, letter.j, letter.e)
    return ab_matrix(n, letter.sym, letter.e)


# Letters applied between two re-packings in _eval_rows.  Each re-packing
# costs O(N^2) slot extractions, and each letter one add on N slots of
# b + _BLOCK + 1 bits.  On the benchmark's fp and zint certificate words
# 256 and 384 were equally fast, 64 and 1024 took 1.7x and 1.2x as long.
_BLOCK = 256


def _pack(row: list[int], width: int) -> int:
    """The row as sum of row[c] * 2^(width * c); slots may be negative."""
    v = 0
    for x in reversed(row):
        v = (v << width) + x
    return v


def _unpack(v: int, n: int, width: int) -> list[int]:
    """The n signed slots of _pack, each in [-2^(width-1), 2^(width-1))."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    row = []
    for _ in range(n):
        x = ((v + half) & mask) - half
        row.append(x)
        v = (v - x) >> width
    if v:
        raise InternalStateError(f"packed row overflows {n} slots of {width} bits")
    return row


def _eval_rows(w: Word, p: int | None) -> tuple[tuple[int, ...], ...]:
    """Rows of eval(w), reduced mod p unless p is None, on packed rows.

    Exactness: with every |entry| < 2^b when a block is packed, a letter
    sends row_i to row_i +- row_j (or moves a row, maybe negated), so it at
    most doubles the largest |entry|, and after the block's k <= _BLOCK
    letters every |entry| < 2^(b+k).  Slots of width b + k + 1 therefore
    hold every entry without carrying into the next slot.  Between blocks
    the rows are unpacked, reduced mod p, and b is taken again from the
    entries.  The bound is what keeps the slots apart; as a last guard, a
    remainder left after the top slot (its overflow) raises
    InternalStateError.
    """
    n = w.n
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    letters = w.letters
    elementary = w.alphabet == ELEMENTARY
    negate = n % 2 == 0  # B moves a row with the sign (-1)^(N-1)
    end = len(letters)
    while end:
        start = max(0, end - _BLOCK)
        width = max(abs(x) for row in rows for x in row).bit_length() + end - start + 1
        pk = [0]  # pk[r] is row r, 1-based like the letters
        pk.extend(_pack(row, width) for row in rows)
        if elementary:
            for l in reversed(letters[start:end]):
                if l.e > 0:
                    pk[l.i] += pk[l.j]
                else:
                    pk[l.i] -= pk[l.j]
        else:
            for l in reversed(letters[start:end]):
                if l.sym == "A":
                    if l.e > 0:
                        pk[1] += pk[2]
                    else:
                        pk[1] -= pk[2]
                elif l.e > 0:  # B sends row 1 to the bottom
                    v = pk.pop(1)
                    pk.append(-v if negate else v)
                else:  # B^-1 sends row N to the top
                    v = pk.pop()
                    pk.insert(1, -v if negate else v)
        rows = [_unpack(v, n, width) for v in pk[1:]]
        if p is not None:
            rows = [[x % p for x in row] for row in rows]
        end = start
    return tuple(map(tuple, rows))


def eval_word_z(w: Word) -> MatZ:
    """Exact integer product of the word's letters, left to right."""
    return MatZ(w.n, _eval_rows(w, None))


def eval_word_fp(w: Word, p: int) -> MatFp:
    """Product of the word's letters reduced mod the prime p.

    MatFp decides whether p is prime; only p < 2, which is never prime and
    on which reducing mod p would divide by zero, is refused before the
    evaluation.
    """
    if p < 2:
        raise DomainError(f"modulus {p} is not prime")
    return MatFp(w.n, p, _eval_rows(w, p))


def sup_norm(m: MatZ) -> int:
    """Largest absolute value of an entry."""
    return max(abs(x) for row in m.rows for x in row)


def determinant(m: MatZ | MatFp) -> int:
    """Exact determinant of the entries by fraction-free (Bareiss) elimination."""
    n = m.n
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinant_fp(m: MatFp) -> int:
    """Determinant of a mod-p matrix as a residue in [0, p), by Bareiss on the residues."""
    return determinant(m) % m.p


def inverse_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p, as a residue in [0, p)."""
    try:
        return pow(a, -1, p)
    except ValueError:
        raise DomainError(f"{a} is not invertible mod {p}") from None


def least_abs_residue(m: int, p: int) -> int:
    """Representative of m mod p in the window (-p/2, p/2]."""
    r = m % p
    if r > p // 2:
        r -= p
    return r


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Smallest strong pseudoprime to all of _MR_WITNESSES (psi_13; Sorenson and
# Webster, Math. Comp. 86 (2017)).  Below it the test is exact.
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases.

    Exact for n < 3 317 044 064 679 887 385 961 981; larger n raise
    DomainError rather than risk a strong pseudoprime.  Verdicts are
    memoized, since every MatFp checks its modulus; a refusal is not, so
    it is raised on every call.
    """
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise DomainError(f"primality of {n} is not decided exactly at or above {_MR_LIMIT}")
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sl_group_order(n: int, p: int) -> int:
    """|SL_n(F_p)| = p^(n(n-1)/2) * prod_{k=2..n} (p^k - 1)."""
    if n < 2:
        raise DomainError(f"group order needs dimension >= 2, got {n}")
    if not is_prime(p):
        raise DomainError(f"modulus {p} is not prime")
    order = p ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        order *= p**k - 1
    return order
