"""Fibonacci numbers, Zeckendorf decompositions, and the length budget
they induce on compressed power words.

Indexing: F_0 = 0, F_1 = F_2 = 1.  Zeckendorf decompositions use indices
k >= 2 with gaps of at least 2, which makes them unique.
"""

import math
import operator
from bisect import bisect_right
from collections import namedtuple

from .errors import DomainError

SQRT5 = math.sqrt(5.0)
TAU = (1.0 + SQRT5) / 2.0


def fib(n: int) -> int:
    """The n-th Fibonacci number, exact, read from the shared table.

    The table then holds F_0 .. F_n, about 0.35 n^2 bits: meant for the
    small indices of the search oracles and of Zeckendorf decompositions.
    """
    if n < 0:
        raise DomainError(f"Fibonacci index must be non-negative, got {n}")
    return _fib_table(0, n)[n]


class ZeckendorfDecomposition(namedtuple("ZeckendorfDecomposition", "m indices")):
    """m written as a sum of non-consecutive Fibonacci numbers F_k, k >= 2."""

    __slots__ = ()

    m: int
    indices: tuple[int, ...]

    def summands(self) -> tuple[int, ...]:
        return tuple(fib(k) for k in self.indices)


# F_0, F_1, ... as one immutable tuple shared by every fib and zeckendorf
# call.  It grows only by rebinding to a longer tuple, so a caller that has
# read it holds a table whose every entry stays correct.
_FIBS: tuple[int, ...] = (0, 1, 1, 2)


def _fib_table(m: int, n: int = 0) -> tuple[int, ...]:
    """The shared table, extended until its last entry exceeds m and it holds F_n."""
    global _FIBS
    fibs = _FIBS
    if fibs[-1] <= m or len(fibs) <= n:
        more = list(fibs)
        while more[-1] <= m or len(more) <= n:
            more.append(more[-1] + more[-2])
        _FIBS = fibs = tuple(more)
    return fibs


def zeckendorf(m: int) -> ZeckendorfDecomposition:
    """Greedy decomposition of m >= 1; indices returned in increasing order."""
    m = operator.index(m)
    if m < 1:
        raise DomainError(f"Zeckendorf decomposition needs m >= 1, got {m}")
    fibs = _fib_table(m)
    # one search for the top index, then a walk down the table; k >= 2
    # throughout because F_2 = 1 <= rest
    k = bisect_right(fibs, m) - 1
    indices = []
    rest = m
    while rest:
        while fibs[k] > rest:
            k -= 1
        indices.append(k)
        rest -= fibs[k]
        # rest < F_{k-1} now, so the next index is at most k - 2
        k -= 2
    indices.reverse()
    return ZeckendorfDecomposition(m, tuple(indices))


def zeckendorf_length_bound(m: int) -> float:
    """Upper bound 4 + 6 * log_tau(1 + m * sqrt(5)) on compressed word length."""
    if m < 1:
        raise DomainError(f"length bound needs m >= 1, got {m}")
    # log(1 + m sqrt 5) = log m + log(sqrt 5 + 1/m); math.log takes any int
    return 4.0 + 6.0 * (math.log(m) + math.log(SQRT5 + 1 / m)) / math.log(TAU)
