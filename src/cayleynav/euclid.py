"""Gcd engines on integer tuples, driven by row operations.

Two reducers live here.  The subtractive one performs a_p += s * a_q one
unit multiple at a time and exists mainly for its step statistics; its step
count on a pair equals the sum of the continued fraction quotients.  It
records every run of equal unit steps as one QuotientStep, so the count is
exact at any size; only expanding a trace into unit steps is budgeted.
The accelerated one is rowreduce.RowReducer.fold on the one-column matrix
of the entries: the N-ary division rounds that clear a column of a
matrix, each round one compressed batch with the smallest entry as
source, so the letter count is logarithmic in the entry size.  The row
engine owns the N >= 3 rule: RowReducer() refuses fewer entries.
"""

import math
import operator
from collections import namedtuple

from .core import ELEMENTARY, Word, _word, eletter
from .errors import BudgetExceededError, DomainError
from .rowreduce import RowReducer

DEFAULT_K = 40
SUBTRACTIVE_STEP_BUDGET = 1_000_000


class QuotientStep(namedtuple("QuotientStep", "target source multiple")):
    """One move a_target += multiple * a_source, indices 1-based."""

    __slots__ = ()

    target: int
    source: int
    multiple: int


class EuclidTrace(namedtuple("EuclidTrace", "initial steps final")):
    """Full record of a subtractive reduction, one step per run of unit moves."""

    __slots__ = ()

    initial: tuple[int, ...]
    steps: tuple[QuotientStep, ...]
    final: tuple[int, ...]

    @property
    def step_count(self) -> int:
        return sum(abs(st.multiple) for st in self.steps)

    def _check_expandable(self) -> None:
        """Refuse a unit-step expansion longer than SUBTRACTIVE_STEP_BUDGET."""
        if self.step_count > SUBTRACTIVE_STEP_BUDGET:
            raise BudgetExceededError(
                f"subtractive gcd needs more than {SUBTRACTIVE_STEP_BUDGET} steps "
                "(euclid.SUBTRACTIVE_STEP_BUDGET)"
            )

    def iter_tuples(self):
        """Every intermediate tuple, one per unit move, from initial to final inclusive.

        The budget is checked on the call; the tuples then come one at a time.
        """
        self._check_expandable()

        def expand(vals):
            yield self.initial
            for st in self.steps:
                sign = 1 if st.multiple > 0 else -1
                for _ in range(abs(st.multiple)):
                    vals[st.target - 1] += sign * vals[st.source - 1]
                    yield tuple(vals)

        return expand(list(self.initial))

    def tuples(self) -> list[tuple[int, ...]]:
        """The list of iter_tuples()."""
        return list(self.iter_tuples())

    def word(self) -> Word:
        """Premultiplier word: evaluating it on initial yields final."""
        self._check_expandable()
        letters = []
        for st in reversed(self.steps):
            letters += (eletter(st.target, st.source, 1 if st.multiple > 0 else -1),) * abs(st.multiple)
        return Word(len(self.initial), tuple(letters))


def subtractive_gcd(entries) -> EuclidTrace:
    """Deterministic one-unit-at-a-time reduction of an integer tuple.

    Each move picks p = position of largest absolute value and q = second
    largest (earliest position on ties) and adds -sign(a_p * a_q) times a_q
    to a_p, so the target magnitude strictly drops.  Stops when a single
    nonzero entry remains; that entry is the gcd up to sign.  While p stays
    largest q stays second, so the moves come in runs of |a_p| // |a_q|,
    one fewer when |a_q| divides |a_p| and p > q (the tie then goes to q),
    and each run is one floor division, so the step count is exact at any
    size.  On a pair it is the sum of the continued fraction quotients, as
    large as the entries themselves, so only the unit-step expansions
    EuclidTrace.tuples and EuclidTrace.word refuse a trace of more than
    SUBTRACTIVE_STEP_BUDGET steps with BudgetExceededError.
    """
    vals = [operator.index(x) for x in entries]
    if len(vals) < 2:
        raise DomainError(f"need at least two entries, got {len(vals)}")
    if all(v == 0 for v in vals):
        raise DomainError("all entries are zero, gcd undefined")
    initial = tuple(vals)
    steps: list[QuotientStep] = []
    while sum(1 for v in vals if v != 0) > 1:
        order = sorted(range(len(vals)), key=lambda r: (-abs(vals[r]), r))
        p, q = order[0], order[1]
        big, small = abs(vals[p]), abs(vals[q])
        run = big // small - (big % small == 0 and p > q)
        m = -run if vals[p] * vals[q] > 0 else run
        vals[p] += m * vals[q]
        steps.append(QuotientStep(p + 1, q + 1, m))
    return EuclidTrace(initial, tuple(steps), tuple(vals))


def replay_word_on_tuple(w: Word, entries) -> tuple[int, ...]:
    """Apply an elementary word to a column tuple, rightmost letter first."""
    vals = [operator.index(x) for x in entries]
    if len(vals) != w.n:
        raise DomainError(f"tuple length {len(vals)} does not match dimension {w.n}")
    if w.letters and w.alphabet != ELEMENTARY:
        raise DomainError("column replay is defined for elementary words only")
    for l in reversed(w.letters):
        vals[l.i - 1] += l.e * vals[l.j - 1]
    return tuple(vals)


class AcceleratedResult(namedtuple("AcceleratedResult", "word initial final quotient_steps")):
    """Outcome of an accelerated reduction.

    word evaluates to the premultiplier taking initial to final;
    quotient_steps lists the same moves in temporal order, one entry per
    target of each batch, for O(n) net-effect application.
    """

    __slots__ = ()

    word: Word
    initial: tuple[int, ...]
    final: tuple[int, ...]
    quotient_steps: tuple[QuotientStep, ...]


def accelerated_reduce(entries, k: int | None = None) -> AcceleratedResult:
    """Gcd reduction of the trailing k entries using compressed power words.

    RowReducer.fold folds the active rows of the one-column matrix of the
    entries; its moves are the quotient steps, and its output, which
    evaluates to the inverse premultiplier, is inverted into the word.
    """
    vals = [operator.index(x) for x in entries]
    red = RowReducer([[v] for v in vals])  # refuses N < 3
    n = red.n
    if k is None:
        k = n
    if not (2 <= k <= n):
        raise DomainError(f"active length must lie in 2..{n}, got {k}")
    active = range(n - k + 1, n + 1)
    if all(vals[a - 1] == 0 for a in active):
        raise DomainError("active entries are all zero, gcd undefined")
    _, moves = red.fold(1, active)
    return AcceleratedResult(
        _word(n, tuple(red.out)).inverse(),
        tuple(vals),
        tuple(row[0] for row in red.rows),
        tuple(QuotientStep(*mv) for mv in moves),
    )


def step_bound(k: int, max_abs: int) -> float:
    """Letter budget DEFAULT_K * (k - 1) * (1 + ln max_abs) for an accelerated run."""
    if k < 2:
        raise DomainError(f"active length must be at least 2, got {k}")
    if max_abs < 1:
        raise DomainError(f"largest magnitude must be at least 1, got {max_abs}")
    return DEFAULT_K * (k - 1) * (1.0 + math.log(max_abs))
