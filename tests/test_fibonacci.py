import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayleynav import fibonacci
from cayleynav.errors import DomainError
from cayleynav.fibonacci import TAU, fib, zeckendorf, zeckendorf_length_bound


def test_fib_small_values():
    assert [fib(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert fib(20) == 6765
    assert fib(50) == 12586269025
    assert fib(100) == 354224848179261915075


def test_fib_recurrence():
    for n in range(2, 300):
        assert fib(n) == fib(n - 1) + fib(n - 2)


def test_fib_rejects_negative():
    with pytest.raises(DomainError):
        fib(-1)


def test_fib_dominates_golden_ratio_power():
    # F_n >= (tau^n - 1)/sqrt(5), checked in exact integer arithmetic:
    # the claim is equivalent to sqrt(5)*F_n >= F_n + 2*F_{n-1} - 2
    a, b = 1, 0  # F_{-1}, F_0
    for n in range(0, 400):
        base = b + 2 * a - 2
        assert base < 0 or 5 * b * b >= base * base, n
        a, b = b, a + b


def test_zeckendorf_known_cases():
    assert zeckendorf(1).indices == (2,)
    assert zeckendorf(2).indices == (3,)
    assert zeckendorf(3).indices == (4,)
    assert zeckendorf(4).indices == (2, 4)
    assert zeckendorf(34).indices == (9,)
    assert zeckendorf(100).indices == (4, 6, 11)
    assert zeckendorf(100).summands() == (3, 8, 89)
    assert zeckendorf(100).m == 100


def test_summands_of_a_4000_digit_number_come_from_the_shared_table():
    # each summand is a lookup in the shared table; a fresh O(k) recurrence
    # per summand took over ten seconds at this size
    m = 10**4000 - 1
    t0 = time.perf_counter()
    z = zeckendorf(m)
    assert sum(z.summands()) == m
    assert time.perf_counter() - t0 < 5
    assert z.summands()[-1] is fibonacci._FIBS[z.indices[-1]]


def test_zeckendorf_rejects_nonpositive():
    with pytest.raises(DomainError):
        zeckendorf(-1)
    with pytest.raises(DomainError):
        zeckendorf(0)


@given(st.integers(1, 10**15))
def test_zeckendorf_reconstruction_and_gaps(m):
    z = zeckendorf(m)
    assert sum(fib(k) for k in z.indices) == m
    assert z.indices[0] >= 2
    assert all(b - a >= 2 for a, b in zip(z.indices, z.indices[1:]))
    assert z.indices == tuple(sorted(z.indices))


def test_zeckendorf_is_the_unique_sparse_representation():
    # every subset of {2..20} with gaps >= 2 gives a distinct sum, the sums
    # cover [0, F_21), and the greedy decomposition returns that subset
    subsets = [()]
    for k in range(2, 21):
        subsets += [s + (k,) for s in subsets if not s or k - s[-1] >= 2]
    sums = {}
    for s in subsets:
        total = sum(fib(k) for k in s)
        assert total not in sums
        sums[total] = s
    assert sorted(sums) == list(range(fib(21)))
    for total, s in sums.items():
        if total:
            assert zeckendorf(total).indices == s


def brute_zeckendorf(m):
    """Greedy over a Fibonacci list F_0..F_k, F_k > m, built for this call."""
    fibs = [0, 1]
    while fibs[-1] <= m:
        fibs.append(fibs[-1] + fibs[-2])
    indices, rest = [], m
    for k in range(len(fibs) - 1, 1, -1):
        if fibs[k] <= rest:
            indices.append(k)
            rest -= fibs[k]
    assert rest == 0
    return tuple(reversed(indices)), fibs


def check_zeckendorf(m):
    ks = zeckendorf(m).indices
    expected, fibs = brute_zeckendorf(m)
    assert ks == expected
    assert ks[0] >= 2 and all(b - a >= 2 for a, b in zip(ks, ks[1:]))
    assert sum(fibs[k] for k in ks) == m


def test_zeckendorf_matches_brute_greedy_as_the_shared_table_grows():
    rng = random.Random("zeckendorf:table")
    # ascending small m grow the table a few terms at a time
    for m in range(1, 5001):
        check_zeckendorf(m)
    # a huge m grows it at once; every smaller m then reuses the longer table
    big = [rng.randrange(1, 10**400) for _ in range(20)] + [rng.randrange(1, 2**61) for _ in range(200)]
    check_zeckendorf(10**400)
    table = fibonacci._FIBS
    assert table[-1] > 10**400
    for m in sorted(big, reverse=True) + list(range(5000, 0, -1)):
        check_zeckendorf(m)
    assert fibonacci._FIBS is table


def test_zeckendorf_length_bound_value():
    assert zeckendorf_length_bound(1) == pytest.approx(18.64252054247534)
    assert zeckendorf_length_bound(10**6) == pytest.approx(
        4.0 + 6.0 * math.log(1 + 10**6 * math.sqrt(5.0), TAU)
    )


def test_zeckendorf_length_bound_monotone():
    last = 0.0
    for m in (1, 2, 3, 10, 100, 10**4, 10**9, 10**18):
        cur = zeckendorf_length_bound(m)
        assert cur > last
        last = cur


def test_zeckendorf_length_bound_domain():
    with pytest.raises(DomainError):
        zeckendorf_length_bound(0)
    with pytest.raises(DomainError):
        zeckendorf_length_bound(-5)
