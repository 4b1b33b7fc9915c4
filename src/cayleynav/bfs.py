"""Exhaustive breadth-first oracles over small groups.

These searches provide ground truth for the constructive algorithms: exact
distance maps and diameters for SL_n over tiny prime fields, the word
ball around the identity in SL_2(Z), and optimal pair-reduction counts.
All of them are exponential in nature, so every entry point checks its
state budget before touching memory.  The SL_n(F_p) search keeps no
Python object per state: visited states are bytes of a table indexed by
the packed state, and each distance level is an array of packed states.
Each alphabet has one per-level kernel that expands a whole distance
level in a single loop, with its tables in locals, so no call and no
neighbour list is made per state.
"""

import operator
from array import array
from collections import namedtuple
from itertools import product

from .core import AB, ELEMENTARY, abletter, eletter, sl_group_order
from .errors import DEFAULT_BUDGET, BudgetExceededError, DomainError, InternalStateError
from .fibonacci import fib

SL2_RADIUS_LIMIT = 14


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


def bfs_ball_sl2z(radius: int) -> dict:
    """Distances for the SL_2(Z) ball over e(1,2), e(2,1) and inverses.

    Returns flat 4-tuple keys mapped to exact distances up to the given
    radius.  The group is infinite, so the radius is capped at
    SL2_RADIUS_LIMIT, which keeps the ball far below DEFAULT_BUDGET states
    (radius 13 has 73 708); every state is also checked against the
    Fibonacci norm bound sup <= F_(d+1).
    """
    if radius < 0:
        raise DomainError(f"radius must be non-negative, got {radius}")
    if radius > SL2_RADIUS_LIMIT:
        raise DomainError(
            f"radius {radius} exceeds the exhaustive limit of {SL2_RADIUS_LIMIT}"
        )
    start = (1, 0, 0, 1)
    dist = {start: 0}
    frontier = [start]
    for d in range(1, radius + 1):
        bound = fib(d + 1)
        nxt = []
        for a, b, c, e in frontier:
            # rows (a, b) and (c, e): e(1,2)^+-1 adds +-row 2 to row 1 and
            # e(2,1)^+-1 +-row 1 to row 2, in the order of generator_letters(2)
            for k2 in ((a + c, b + e, c, e), (a - c, b - e, c, e),
                       (a, b, c + a, e + b), (a, b, c - a, e - b)):
                if k2 not in dist:
                    if max(abs(x) for x in k2) > bound:
                        raise InternalStateError(
                            f"element {k2} at distance {d} breaks the F_{d + 1} norm bound"
                        )
                    dist[k2] = d
                    nxt.append(k2)
        if len(dist) > DEFAULT_BUDGET:
            raise BudgetExceededError(f"ball exceeded the budget of {DEFAULT_BUDGET} states")
        frontier = nxt
    return dist


def min_pair_reduction_steps(a: int, b: int, max_steps: int = 64) -> int:
    """Fewest single-multiple moves sending (a, b) to a pair with a zero.

    Moves are a := a +- b and b := b +- a.  Exact by breadth-first search;
    states beyond four times the starting magnitude are pruned, which no
    shortest path at these sizes ever needs.
    """
    a, b = operator.index(a), operator.index(b)
    if a == 0 or b == 0:
        return 0
    cap = 4 * max(abs(a), abs(b)) + 4
    seen = {(a, b)}
    frontier = [(a, b)]
    for d in range(1, max_steps + 1):
        nxt = []
        for x, y in frontier:
            for u, v in ((x + y, y), (x - y, y), (x, y + x), (x, y - x)):
                if u == 0 or v == 0:
                    return d
                if abs(u) <= cap and abs(v) <= cap and (u, v) not in seen:
                    seen.add((u, v))
                    nxt.append((u, v))
        frontier = nxt
    raise BudgetExceededError(f"no reduction found within {max_steps} moves")
