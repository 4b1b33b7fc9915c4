import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleynav.core import Word, abletter, eletter
from cayleynav import euclid
from cayleynav.errors import BudgetExceededError, DomainError, UnsupportedDimensionError
from cayleynav.euclid import (
    DEFAULT_K,
    AcceleratedResult,
    EuclidTrace,
    QuotientStep,
    accelerated_reduce,
    replay_word_on_tuple,
    step_bound,
    subtractive_gcd,
)


def cf_sum(a, b):
    # total of the continued-fraction quotients of (max, min)
    a, b = abs(a), abs(b)
    if a < b:
        a, b = b, a
    s = 0
    while b:
        s += a // b
        a, b = b, a % b
    return s


def test_subtractive_worked_example():
    tr = subtractive_gcd((-32, 8, -12))
    assert tr.step_count == 6
    assert tr.final == (0, 0, -4)
    assert tr.tuples() == [
        (-32, 8, -12),
        (-20, 8, -12),
        (-8, 8, -12),
        (-8, 8, -4),
        (0, 8, -4),
        (0, 4, -4),
        (0, 0, -4),
    ]
    # runs of equal unit moves are recorded once each
    assert tr.steps == (
        QuotientStep(1, 3, -2),
        QuotientStep(3, 1, -1),
        QuotientStep(1, 2, 1),
        QuotientStep(2, 3, 2),
    )
    w = tr.word()
    assert w.tokens() == "e(2,3) e(2,3) e(1,2) e(3,1)^-1 e(1,3)^-1 e(1,3)^-1"
    assert replay_word_on_tuple(w, (-32, 8, -12)) == (0, 0, -4)


def test_subtractive_one_and_n_takes_n_steps():
    for n in range(1, 51):
        tr = subtractive_gcd((1, n))
        assert tr.step_count == n
        assert sorted(abs(x) for x in tr.final) == [0, 1]


def unit_step_reference(entries):
    """The docstring rule one unit move at a time: tuples and premultiplier tokens."""
    vals = list(entries)
    out, letters = [tuple(vals)], []
    while sum(1 for v in vals if v) > 1:
        order = sorted(range(len(vals)), key=lambda r: (-abs(vals[r]), r))
        p, q = order[0], order[1]
        s = -1 if vals[p] * vals[q] > 0 else 1
        vals[p] += s * vals[q]
        out.append(tuple(vals))
        letters.append(eletter(p + 1, q + 1, s))
    return out, Word(len(vals), tuple(reversed(letters))).tokens()


def tuples_with_ties():
    # entries drawn from a few magnitudes and signs, so ties are common
    base = st.lists(st.integers(0, 40), min_size=1, max_size=3)
    return base.flatmap(
        lambda mags: st.lists(
            st.tuples(st.sampled_from(mags), st.sampled_from((1, -1))),
            min_size=2,
            max_size=5,
        )
    ).map(lambda pairs: tuple(m * s for m, s in pairs)).filter(any)


@settings(max_examples=300, deadline=None)
@given(tuples_with_ties())
def test_subtractive_runs_match_unit_step_reference(entries):
    tr = subtractive_gcd(entries)
    tuples, tokens = unit_step_reference(entries)
    assert tr.tuples() == tuples
    assert tr.step_count == len(tuples) - 1
    assert tr.final == tuples[-1]
    assert tr.word().tokens() == tokens
    assert all(step.multiple != 0 for step in tr.steps)


def test_subtractive_counts_a_million_steps_in_two_moves():
    tr = subtractive_gcd((1, 10**6))
    assert tr.step_count == 10**6
    assert len(tr.steps) <= 2
    assert tr.final == (0, 1)


def test_subtractive_pair_step_count_matches_quotient_sum():
    rng = random.Random(6)
    for _ in range(300):
        a = rng.randint(-(10**6), 10**6)
        b = rng.randint(-(10**6), 10**6)
        if a == 0 and b == 0:
            continue
        tr = subtractive_gcd((a, b))
        expect = cf_sum(a, b) if a and b else 0
        assert tr.step_count == expect
        nonzero = [x for x in tr.final if x]
        assert len(nonzero) == 1
        assert abs(nonzero[0]) == math.gcd(a, b)


def test_subtractive_longer_tuples_reach_gcd():
    rng = random.Random(16)
    for _ in range(60):
        k = rng.randrange(2, 6)
        entries = [rng.randint(-200, 200) for _ in range(k)]
        if not any(entries):
            entries[0] = 1
        tr = subtractive_gcd(tuple(entries))
        nonzero = [x for x in tr.final if x]
        assert len(nonzero) == 1
        assert abs(nonzero[0]) == math.gcd(*entries)
        assert replay_word_on_tuple(tr.word(), tuple(entries)) == tr.final


def test_subtractive_input_validation():
    with pytest.raises(DomainError):
        subtractive_gcd((5,))
    with pytest.raises(DomainError):
        subtractive_gcd((0, 0, 0))


def test_replay_word_validation():
    w = Word(3, (eletter(1, 2),))
    with pytest.raises(DomainError):
        replay_word_on_tuple(w, (1, 2))
    ab = Word(3, (abletter("A"),))
    with pytest.raises(DomainError):
        replay_word_on_tuple(ab, (1, 2, 3))


def test_replay_word_applies_rightmost_first():
    # rightmost letter hits the tuple first, mirroring premultiplication
    w = Word(2, (eletter(1, 2), eletter(2, 1)))
    assert replay_word_on_tuple(w, (1, 0)) == (2, 1)


def test_accelerated_worked_example():
    res = accelerated_reduce((7, -32, 8, -12), 3)
    assert res.initial == (7, -32, 8, -12)
    assert res.final == (7, 0, 0, 4)
    # round one: 8 divides -32 and -12 in one batch; round two: 4 divides 8
    assert [(q.target, q.source, q.multiple) for q in res.quotient_steps] == [
        (2, 3, 4),
        (4, 3, 2),
        (3, 4, -2),
    ]
    used = {x for l in res.word.letters for x in (l.i, l.j)}
    assert used <= {2, 3, 4}
    assert replay_word_on_tuple(res.word, (7, -32, 8, -12)) == (7, 0, 0, 4)


def test_accelerated_quotient_steps_replay_independently():
    res = accelerated_reduce((7, -32, 8, -12), 3)
    vals = [7, -32, 8, -12]
    for q in res.quotient_steps:
        vals[q.target - 1] += q.multiple * vals[q.source - 1]
    assert tuple(vals) == res.final


def test_accelerated_rounds_divide_by_the_smallest_entry():
    # N-ary rounds: the smallest nonzero |entry|, earliest on ties, divides
    # every other nonzero entry with floor division, one move each
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(3, 8)
        entries = [rng.choice((0, rng.randint(-30, 30), rng.randint(-(10**9), 10**9)))
                   for _ in range(n)]
        if not any(entries):
            continue
        steps = list(accelerated_reduce(entries).quotient_steps)
        vals = list(entries)
        while True:
            live = [a for a in range(1, n + 1) if vals[a - 1]]
            if len(live) == 1:
                break
            source = min(live, key=lambda a: abs(vals[a - 1]))
            d = vals[source - 1]
            expected = [(a, source, -(vals[a - 1] // d)) for a in live if a != source]
            got, steps = steps[: len(expected)], steps[len(expected) :]
            assert [(q.target, q.source, q.multiple) for q in got] == expected
            for target, _, multiple in expected:
                vals[target - 1] += multiple * vals[source - 1]
        assert steps == []


def test_accelerated_k2_uses_outside_helper_row():
    # a huge quotient forces compression through the first untouched entry
    res = accelerated_reduce((5, 9, 1000000, 999999), 2)
    assert res.final == (5, 9, 1, 0)
    used = {x for l in res.word.letters for x in (l.i, l.j)}
    assert 1 in used
    assert 2 not in used
    assert replay_word_on_tuple(res.word, (5, 9, 1000000, 999999)) == res.final


def test_accelerated_full_range_reaches_gcd():
    rng = random.Random(27)
    for _ in range(60):
        n = rng.randrange(3, 7)
        entries = tuple(rng.randint(-(10**6), 10**6) for _ in range(n))
        if not any(entries):
            continue
        res = accelerated_reduce(entries, n)
        nonzero = [x for x in res.final if x]
        assert len(nonzero) == 1
        assert abs(nonzero[0]) == math.gcd(*entries)
        assert replay_word_on_tuple(res.word, entries) == res.final


def test_accelerated_partial_range_keeps_prefix():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randrange(3, 7)
        k = rng.randrange(2, n + 1)
        entries = tuple(rng.randint(-(10**6), 10**6) for _ in range(n))
        if not any(entries[n - k :]):
            continue
        res = accelerated_reduce(entries, k)
        assert res.final[: n - k] == entries[: n - k]
        active = res.final[n - k :]
        assert sum(1 for x in active if x) == 1
        assert replay_word_on_tuple(res.word, entries) == res.final


def test_accelerated_word_length_within_bound():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(3, 8)
        k = rng.randrange(2, n + 1)
        entries = tuple(rng.randint(-(10**9), 10**9) for _ in range(n))
        res = accelerated_reduce(entries, k)
        max_abs = max(abs(x) for x in entries[n - k :])
        assert len(res.word) <= step_bound(k, max_abs)


def test_accelerated_default_k_covers_everything():
    entries = (30, 42, 70)
    assert accelerated_reduce(entries).final == accelerated_reduce(entries, 3).final


def test_accelerated_input_validation():
    # the row engine owns the N >= 3 rule
    with pytest.raises(UnsupportedDimensionError, match=r"^row reduction needs dimension >= 3, got 2$"):
        accelerated_reduce((3, 4), 2)
    with pytest.raises(DomainError):
        accelerated_reduce((1, 2, 3), 1)
    with pytest.raises(DomainError):
        accelerated_reduce((1, 2, 3), 4)
    with pytest.raises(DomainError):
        accelerated_reduce((5, 0, 0), 2)


def test_subtractive_step_budget(monkeypatch):
    assert euclid.SUBTRACTIVE_STEP_BUDGET == 1_000_000
    monkeypatch.setattr(euclid, "SUBTRACTIVE_STEP_BUDGET", 100)
    # (1, m) takes exactly m unit steps: 100 fit the budget, 101 do not;
    # the budget guards only the unit-step expansions, never the count
    tr = subtractive_gcd((1, 100))
    assert tr.step_count == 100
    assert len(tr.tuples()) == 101 and len(tr.word()) == 100
    tr = subtractive_gcd((1, 101))
    assert tr.step_count == 101
    with pytest.raises(BudgetExceededError, match="more than 100 steps"):
        tr.tuples()
    with pytest.raises(BudgetExceededError, match="more than 100 steps"):
        tr.word()
    with pytest.raises(BudgetExceededError):
        subtractive_gcd((3, 1000, 7)).tuples()
    # a count far beyond the budget is still exact
    assert subtractive_gcd((1, 10**9)).step_count == 10**9


def test_step_bound_values_and_guards():
    assert step_bound(2, 1) == pytest.approx(DEFAULT_K)
    assert step_bound(3, 32) == pytest.approx(357.2588722239782)
    with pytest.raises(DomainError):
        step_bound(1, 10)
    with pytest.raises(DomainError):
        step_bound(3, 0)


def test_trace_and_result_are_frozen_records():
    tr = subtractive_gcd((3, 5))
    assert isinstance(tr, EuclidTrace)
    assert tr.initial == (3, 5)
    res = accelerated_reduce((3, 5, 7), 3)
    assert isinstance(res, AcceleratedResult)
    assert isinstance(res.quotient_steps[0], QuotientStep)
