"""Exhaustive breadth-first oracles over small groups.

These searches provide ground truth for the constructive algorithms: exact
distance maps and diameters for SL_n over tiny prime fields, and one
search over integer states under row moves, which spans word balls of
SL_N(Z) and gives the fewest moves that reduce a tuple to its gcd.  All
of them are exponential in nature, so every entry point checks its state
budget.  The SL_n(F_p) search keeps no Python object per state: visited
states are bytes of a table indexed by the packed state, and each
distance level is an array of packed states.  Each alphabet has one
per-level kernel that expands a whole distance level in a single loop,
with its tables in locals, so no call and no neighbour list is made per
state.
"""

from array import array
from collections import namedtuple
from itertools import product
from operator import add, index, itemgetter, sub

from .core import AB, ELEMENTARY, abletter, eletter, sl_group_order
from .errors import DEFAULT_BUDGET, BudgetExceededError, DomainError, InternalStateError


def generator_letters(n: int, alphabet: str = ELEMENTARY) -> list:
    """Symmetrized generating set: every letter together with its inverse."""
    if alphabet == ELEMENTARY:
        return [
            eletter(i, j, e)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
            for e in (1, -1)
        ]
    if alphabet == AB:
        return [abletter("A", 1), abletter("A", -1), abletter("B", 1), abletter("B", -1)]
    raise DomainError(f"unknown alphabet {alphabet!r}")


class _EntrywiseRowSums:
    """Row moves row_i -> row_i + s * row_j, summed entry by entry in a p x p table.

    Indexed like a row-move table, by row_i + row_j * p**n, and gives the
    change of the row code, for dimensions where a row-move table would
    exceed the group order (n = 2).
    """

    def __init__(self, rows: list, p: int, s: int):
        self.rows, self.p, self.size = rows, p, len(rows)
        self.sums = [(x + s * y) % p for x in range(p) for y in range(p)]

    def __getitem__(self, k: int) -> int:
        rj, ri = divmod(k, self.size)
        p, sums, out = self.p, self.sums, 0
        for x, y in zip(self.rows[ri], self.rows[rj]):
            out = out * p + sums[x * p + y]
        return out - ri


def _packing(n: int, p: int, alphabet: str, order: int):
    """Packed states of SL_n(F_p) and a per-level kernel for the generators.

    A state is the int sum(row_k * P**k) with P = p**n, where row_k is the
    base-p code of row k, its first entry most significant.  e(i, j)^s
    changes row i by a table entry indexed by row_i + row_j * P: the
    change of the code when row_i becomes row_i + s * row_j.  The state
    moves to c + change * P**i, and for A^s (i, j = 0, 1) the index is
    just c % P**2.  B^s rotates the rows: c // P + neg[row_0] * P**(n-1),
    and its mirror, where neg negates a row when n is even (the corner
    sign of B).  No table is larger than the group order: where a row-move
    table (p**(2n) entries) would be, that is for n = 2, the changes come
    entry by entry from a p x p table.

    Returns (encode, decode, expand): flat entry tuples to packed states
    and back, and expand(level, seen), which runs one distance level in a
    single loop over its states.  It marks in seen every state first
    reached from the level, and returns them in an array('q'), in level
    order and, per state, in the order of generator_letters(n, alphabet).
    """
    P = p**n
    P2 = P * P
    top = P ** (n - 1)
    weights = [P**k for k in range(n)]
    places = [w * p ** (n - 1 - col) for w in weights for col in range(n)]
    rows = list(product(range(p), repeat=n))  # rows[code] = entries of that row code

    def encode(key: tuple) -> int:
        return sum(x * q for x, q in zip(key, places))

    def decode(c: int) -> tuple:
        return tuple(x for w in weights for x in rows[c // w % P])

    # shared[v] is v for -P < v < P: one int object per change, so a table
    # holds pointers to at most 2P - 1 objects instead of one object per entry
    shared = [*range(P), *range(1 - P, 0)]

    def row_moves(s: int) -> list:
        # The sum is taken entry by entry, so for a fixed row_j the changes
        # over all row_i (in code order) are sums of one place-valued change
        # per column: a product over the columns.
        columns = [
            [[((x + s * y) % p - x) * p ** (n - 1 - col) for x in range(p)] for y in range(p)]
            for col in range(n)
        ]
        return [
            shared[v]
            for b in rows
            for v in map(sum, product(*(columns[col][y] for col, y in enumerate(b))))
        ]

    # add[row_i + row_j * P] and sub[...] are the code changes of row_i +- row_j
    if p ** (2 * n) <= order:
        add, sub = row_moves(1), row_moves(-1)
    else:
        add, sub = _EntrywiseRowSums(rows, p, 1), _EntrywiseRowSums(rows, p, -1)

    if alphabet == AB:
        sign = (-1) ** (n - 1)
        neg = [encode(tuple(sign * x % p for x in row)) for row in rows]
        neg_top = [r * top for r in neg]

        def expand(level, seen) -> array:
            nxt = array("q")
            app = nxt.append
            for c in level:
                k = c % P2
                c2 = c + add[k]
                if not seen[c2]:
                    seen[c2] = 1
                    app(c2)
                c2 = c + sub[k]
                if not seen[c2]:
                    seen[c2] = 1
                    app(c2)
                c2 = c // P + neg_top[c % P]
                if not seen[c2]:
                    seen[c2] = 1
                    app(c2)
                c2 = c % top * P + neg[c // top]
                if not seen[c2]:
                    seen[c2] = 1
                    app(c2)
            return nxt

        return encode, decode, expand

    # e(i, j)^1 and e(i, j)^-1 for each ordered pair, in generator_letters order
    pairs = [(l.i - 1, l.j - 1, weights[l.i - 1]) for l in generator_letters(n, alphabet)[::2]]

    def expand(level, seen) -> array:
        nxt = array("q")
        app = nxt.append
        for c in level:
            r = [c // w % P for w in weights]
            for i, j, w in pairs:
                k = r[i] + r[j] * P
                c2 = c + add[k] * w
                if not seen[c2]:
                    seen[c2] = 1
                    app(c2)
                c2 = c + sub[k] * w
                if not seen[c2]:
                    seen[c2] = 1
                    app(c2)
        return nxt

    return encode, decode, expand


def _search(n: int, p: int, alphabet: str, budget: int):
    """Breadth-first levels from the identity over packed states.

    Visited states are marked in a bytearray of p**(n*n) bytes, indexed by
    the packed code, and each level is an array('q') of codes, so the
    search holds no Python object per state.  The byte table is charged to
    the budget at 8 bytes per state of budget.

    Returns (levels, decode): levels[d] holds the packed states at distance
    d in discovery order, and decode turns one back into its flat entry
    tuple.
    """
    order = sl_group_order(n, p)
    if order > budget:
        raise BudgetExceededError(
            f"SL_{n}(F_{p}) has {order} elements, over the budget of {budget}"
        )
    size = p ** (n * n)
    if size > 8 * budget:
        raise BudgetExceededError(
            f"SL_{n}(F_{p}) needs a visited table of {size} bytes, "
            f"over 8 times the budget of {budget}"
        )
    encode, decode, expand = _packing(n, p, alphabet, order)
    start = encode(tuple(1 if r == c else 0 for r in range(n) for c in range(n)))
    seen = bytearray(size)
    seen[start] = 1
    levels = [array("q", (start,))]
    reached = 1
    while True:
        nxt = expand(levels[-1], seen)
        if not nxt:
            break
        reached += len(nxt)
        levels.append(nxt)
    if reached != order:
        raise InternalStateError(
            f"reached {reached} elements, expected {order}: generators do not generate"
        )
    return levels, decode


def bfs_distance_map(n: int, p: int, alphabet: str = ELEMENTARY, budget: int = DEFAULT_BUDGET) -> dict:
    """Exact distance from the identity for every element of SL_n(F_p).

    Keys are flat row-major entry tuples, in discovery order.  The search
    runs on packed integer states, one kernel call per distance level and
    a table lookup and an add per generator move, so the cost is linear in
    the number of group elements times generators; states are decoded into
    tuples only at the end.
    """
    levels, decode = _search(n, p, alphabet, budget)
    return {decode(c): d for d, level in enumerate(levels) for c in level}


class DiameterReport(namedtuple("DiameterReport", "n p alphabet order diameter histogram")):
    """Eccentricity of the identity in a finite Cayley graph."""

    __slots__ = ()

    n: int
    p: int
    alphabet: str
    order: int
    diameter: int
    histogram: dict[int, int]


def bfs_diameter(n: int, p: int, alphabet: str = ELEMENTARY, budget: int = DEFAULT_BUDGET) -> DiameterReport:
    """Exact diameter of SL_n(F_p) and the count of elements per distance."""
    levels, _ = _search(n, p, alphabet, budget)
    hist = {d: len(level) for d, level in enumerate(levels)}
    return DiameterReport(n, p, alphabet, sum(hist.values()), len(levels) - 1, hist)


def row_move_distances(sources, rows: int, radius=None, box=None, budget: int = DEFAULT_BUDGET) -> dict:
    """Distances from the sources to integer states under row moves, in discovery order.

    A state is a flat tuple of `rows` equal rows, and the moves are
    row_i += +-row_j, in generator_letters(rows) order.  The graph is
    infinite: radius stops the search after that many levels, and box
    drops every state with an entry over box in absolute value.  From the
    identity it spans a word ball of SL_N(Z); from the tuples with one
    nonzero entry (width 1) it gives the fewest moves to a gcd.  The
    budget caps the states as they are added.
    """
    if radius is None and box is None:
        raise DomainError("an unbounded search needs a radius or a box")
    for name, bound in (("radius", radius), ("box", box)):
        if bound is not None and bound < 0:
            raise DomainError(f"{name} must be non-negative, got {bound}")
    dist = {tuple(map(index, s)): 0 for s in sources}
    size = len(next(iter(dist), ()))
    if rows < 1 or not size or size % rows or any(len(s) != size for s in dist):
        raise DomainError(f"sources are not tuples of {rows} equal rows")
    width = size // rows
    # a move is s op get(s + (0,)): get picks row_j under row_i and the pad 0 elsewhere
    moves = []
    for l in generator_letters(rows):
        picks = [size] * size
        picks[(l.i - 1) * width : l.i * width] = range((l.j - 1) * width, l.j * width)
        moves.append((itemgetter(*picks), add if l.e == 1 else sub))
    frontier = list(dist)
    d = 0
    while frontier and d != radius:
        d += 1
        nxt = []
        for s in frontier:
            padded = s + (0,)
            for get, op in moves:
                t = tuple(map(op, s, get(padded)))
                if t not in dist and (box is None or max(map(abs, t)) <= box):
                    if len(dist) >= budget:
                        raise BudgetExceededError(f"search exceeded the budget of {budget} states")
                    dist[t] = d
                    nxt.append(t)
        frontier = nxt
    return dist
