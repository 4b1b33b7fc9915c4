"""Fibonacci numbers, Zeckendorf decompositions, and the length budget
they induce on compressed power words.

Indexing: F_0 = 0, F_1 = F_2 = 1.  Zeckendorf decompositions use indices
k >= 2 with gaps of at least 2, which makes them unique.
"""

import math
from dataclasses import dataclass

from .errors import DomainError

SQRT5 = math.sqrt(5.0)
TAU = (1.0 + SQRT5) / 2.0


def fib(n: int) -> int:
    """The n-th Fibonacci number, exact."""
    if n < 0:
        raise DomainError(f"Fibonacci index must be non-negative, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@dataclass(frozen=True)
class ZeckendorfDecomposition:
    """m written as a sum of non-consecutive Fibonacci numbers F_k, k >= 2."""

    m: int
    indices: tuple[int, ...]

    def summands(self) -> tuple[int, ...]:
        return tuple(fib(k) for k in self.indices)


def zeckendorf(m: int) -> ZeckendorfDecomposition:
    """Greedy decomposition of m >= 1; indices returned in increasing order."""
    if m < 1:
        raise DomainError(f"Zeckendorf decomposition needs m >= 1, got {m}")
    fibs = [(2, 1), (3, 2)]  # (index, value) ascending from F_2
    while fibs[-1][1] <= m:
        k, v = fibs[-1]
        fibs.append((k + 1, v + fibs[-2][1]))
    indices = []
    rest = m
    for k, v in reversed(fibs):
        if v <= rest:
            indices.append(k)
            rest -= v
            if rest == 0:
                break
    # greedy never leaves a remainder: rest < F_{k-1} after taking F_k
    return ZeckendorfDecomposition(m, tuple(reversed(indices)))


def zeckendorf_length_bound(m: int) -> float:
    """Upper bound 4 + 6 * log_tau(1 + m * sqrt(5)) on compressed word length."""
    if m < 1:
        raise DomainError(f"length bound needs m >= 1, got {m}")
    # log(1 + m sqrt 5) = log m + log(sqrt 5 + 1/m); math.log takes any int
    return 4.0 + 6.0 * (math.log(m) + math.log(SQRT5 + 1 / m)) / math.log(TAU)
