"""Gcd engines on integer tuples, driven by row operations.

Two reducers live here.  The subtractive one performs a_p += s * a_q one
unit multiple at a time and exists mainly for its step statistics; its step
count on a pair equals the sum of the continued fraction quotients.  The
accelerated one replaces runs of equal subtractions by a single compressed
power word, so the letter count is logarithmic in the entry size.  Its
division moves (division_steps) and auxiliary-index rule (aux_index) are
the ones rowreduce.RowReducer applies to whole rows when it clears a
column.
"""

import math
from dataclasses import dataclass

from .compression import _power_letters
from .core import ELEMENTARY, Word, _word, eletter
from .errors import BudgetExceededError, DomainError

DEFAULT_K = 40
SUBTRACTIVE_STEP_BUDGET = 1_000_000


@dataclass(frozen=True, slots=True)
class EuclidStep:
    """One subtractive move a_target += sign * a_source, indices 1-based."""

    target: int
    source: int
    sign: int


@dataclass(frozen=True)
class EuclidTrace:
    """Full record of a subtractive reduction."""

    initial: tuple[int, ...]
    steps: tuple[EuclidStep, ...]
    final: tuple[int, ...]

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def tuples(self) -> list[tuple[int, ...]]:
        """Every intermediate tuple, from initial to final inclusive."""
        vals = list(self.initial)
        out = [self.initial]
        for st in self.steps:
            vals[st.target - 1] += st.sign * vals[st.source - 1]
            out.append(tuple(vals))
        return out

    def word(self) -> Word:
        """Premultiplier word: evaluating it on initial yields final."""
        return Word(
            len(self.initial),
            tuple(eletter(st.target, st.source, st.sign) for st in reversed(self.steps)),
        )


def subtractive_gcd(entries) -> EuclidTrace:
    """Deterministic one-unit-at-a-time reduction of an integer tuple.

    Each move picks p = position of largest absolute value and q = second
    largest (earliest position on ties) and adds -sign(a_p * a_q) times a_q
    to a_p, so the target magnitude strictly drops.  Stops when a single
    nonzero entry remains; that entry is the gcd up to sign.  The step
    count on a pair is the sum of its continued fraction quotients, as large
    as the entries themselves, so a reduction that needs more than
    SUBTRACTIVE_STEP_BUDGET steps raises BudgetExceededError.
    """
    vals = [int(x) for x in entries]
    if len(vals) < 2:
        raise DomainError(f"need at least two entries, got {len(vals)}")
    if all(v == 0 for v in vals):
        raise DomainError("all entries are zero, gcd undefined")
    initial = tuple(vals)
    steps: list[EuclidStep] = []
    while sum(1 for v in vals if v != 0) > 1:
        if len(steps) == SUBTRACTIVE_STEP_BUDGET:
            raise BudgetExceededError(
                f"subtractive gcd needs more than {SUBTRACTIVE_STEP_BUDGET} steps "
                "(euclid.SUBTRACTIVE_STEP_BUDGET)"
            )
        order = sorted(range(len(vals)), key=lambda r: (-abs(vals[r]), r))
        p, q = order[0], order[1]
        s = -1 if vals[p] * vals[q] > 0 else 1
        vals[p] += s * vals[q]
        steps.append(EuclidStep(p + 1, q + 1, s))
    return EuclidTrace(initial, tuple(steps), tuple(vals))


def replay_word_on_tuple(w: Word, entries) -> tuple[int, ...]:
    """Apply an elementary word to a column tuple, rightmost letter first."""
    vals = [int(x) for x in entries]
    if len(vals) != w.n:
        raise DomainError(f"tuple length {len(vals)} does not match dimension {w.n}")
    if w.letters and w.alphabet != ELEMENTARY:
        raise DomainError("column replay is defined for elementary words only")
    for l in reversed(w.letters):
        vals[l.i - 1] += l.e * vals[l.j - 1]
    return tuple(vals)


@dataclass(frozen=True)
class QuotientStep:
    """One division move a_target += multiple * a_source, indices 1-based."""

    target: int
    source: int
    multiple: int


@dataclass(frozen=True)
class AcceleratedResult:
    """Outcome of an accelerated reduction.

    word evaluates to the premultiplier taking initial to final;
    quotient_steps lists the same moves in temporal order, one entry per
    compressed chunk, for O(n) net-effect application.
    """

    word: Word
    initial: tuple[int, ...]
    final: tuple[int, ...]
    quotient_steps: tuple[QuotientStep, ...]


def division_steps(vals: list, active) -> list[tuple[int, int, int]]:
    """Fold the active entries of vals into one carrier by Euclidean division.

    The carrier starts at the first nonzero active position; every later
    nonzero active position is folded in, and the running gcd ends up at
    the only nonzero active position.  Mutates vals and returns the moves
    (target, source, multiple), each vals[target] += multiple * vals[source]
    with 1-based indices, in temporal order.
    """
    steps = []
    carrier = next(a for a in active if vals[a - 1] != 0)
    for pos in active:
        if pos == carrier or vals[pos - 1] == 0:
            continue
        a, b = carrier, pos
        while vals[b - 1] != 0:
            q = vals[a - 1] // vals[b - 1]
            if q:
                vals[a - 1] -= q * vals[b - 1]
                steps.append((a, b, -q))
            a, b = b, a
        carrier = a
    return steps


def aux_index(n: int, k: int, x: int, y: int) -> int:
    """Auxiliary index for a chunk e(x, y)^m while reducing the trailing k of n.

    With k >= 3 it is the first active index other than x and y, so the
    chunk only touches the trailing k positions; with k == 2 it is 1, the
    smallest index outside the active range.
    """
    if k >= 3:
        return next(a for a in range(n - k + 1, n + 1) if a != x and a != y)
    return 1


def accelerated_reduce(entries, k: int | None = None) -> AcceleratedResult:
    """Gcd reduction of the trailing k entries using compressed power words.

    The moves are those of division_steps, each quotient realized as one
    compress_power chunk whose auxiliary index comes from aux_index.
    """
    vals = [int(x) for x in entries]
    n = len(vals)
    if n < 3:
        raise DomainError(f"accelerated reduction needs dimension >= 3, got {n}")
    if k is None:
        k = n
    if not (2 <= k <= n):
        raise DomainError(f"active length must lie in 2..{n}, got {k}")
    active = range(n - k + 1, n + 1)
    if all(vals[a - 1] == 0 for a in active):
        raise DomainError("active entries are all zero, gcd undefined")
    initial = tuple(vals)
    qsteps = tuple(QuotientStep(*st) for st in division_steps(vals, active))
    letters: list = []
    for st in reversed(qsteps):
        letters += _power_letters(n, st.target, st.source, st.multiple, aux_index(n, k, st.target, st.source))
    return AcceleratedResult(_word(n, tuple(letters)), initial, tuple(vals), qsteps)


def step_bound(k: int, max_abs: int) -> float:
    """Letter budget DEFAULT_K * (k - 1) * (1 + ln max_abs) for an accelerated run."""
    if k < 2:
        raise DomainError(f"active length must be at least 2, got {k}")
    if max_abs < 1:
        raise DomainError(f"largest magnitude must be at least 1, got {max_abs}")
    return DEFAULT_K * (k - 1) * (1.0 + math.log(max_abs))
