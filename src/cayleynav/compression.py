"""Logarithmic-length words for powers of elementary generators.

A power e(i, j)^m in dimension N >= 3 is spelled with O(log |m|) letters by
working inside the copy of SL_3 spanned by the indices {i, aux, j}.  The
template interleaves conjugation blocks (e(aux,j) e(j,aux))^k, which scale
the growth Fibonacci-style, with single letters selected by the Zeckendorf
decomposition of |m|.  In SL_2 no such compression exists, which is why
every operation here insists on N >= 3.

A chunk on the triple (i, aux, j) uses at most eight letters: top = e(i, j),
mid = e(i, aux), t = e(aux, j), s = e(j, aux) and their inverses, made once
per triple and cached.  The walks u and v lay the carried letters out
level by level, one (t, s) block per level step; the template carrying
the single index k spells e(i, j)^F_k in 6 + 8 (k // 2) letters.  There
is one layout: for a negative exponent t and s trade places with their
inverses and the finished list is reversed, which is the inverse
template letter for letter, so no letter is inverted one at a time.

The unit of work is a batch, the product of e(i, j)^m_i over several
targets i with one common source j.  Its factors commute, and the blocks
touch only rows aux and j, so one template carries every target's
letters: at each level of the shared walk each target places its own
carried letter, e(i, j) or e(i, aux), raised to the sign of its own
exponent; the first fused exponent's sign picks the layout.  With n_i half
the top Zeckendorf index of m_i and r_i its number of summands, the fused
template costs 4 + 8 max n_i + 2 sum r_i letters, against
sum (4 + 8 n_i + 2 r_i) for one template per target.  A target whose
plain spelling is no longer than its own template stays plain, so
|m| <= 14 never looks at a decomposition (every template has at least 14
letters), and compress_power spells a batch of one target.  aux is
the first index of a given pool outside the source and the fused targets;
when the pool has none, the fused targets are split in two halves and
each half takes a member of the other as aux.  A common-target batch, the
product of e(i, l)^m_l over sources l, is the transpose of the batch on
source i: _gather_letters reverses its letters and transposes each one.

The half walk is the second half (t s)^-n u of the template on its own.
The first half only cancels what it leaves on the column paired with aux,
so on the template with source d and aux c the half walk is the product
of e(i, c)^m_i e(i, d)^x_i, where x_i = sign(m_i) * sum F_(k-1) over the
Zeckendorf indices k of |m_i|: the exact power on column c and junk on
column d, in 4 max n_i + sum r_i letters.  It keeps the positive layout
whatever the signs, since each carried letter has its own sign.  A caller
that does not mind the junk, because column d is cleared later anyway,
asks _batch_letters for it, which returns each (i, x_i) with the
letters; a target no longer than its own half walk, which covers every
|m| <= 14, stays plain.
"""

import operator
from functools import lru_cache

from .core import ELEMENTARY, Word, _letter, _word, eletter
from .errors import InvalidGeneratorError, UnsupportedDimensionError
from .fibonacci import _fib_table, zeckendorf

# Every template has 4 + 8 * (k_max // 2) + 2 r >= 14 letters (k_max >= 2,
# r >= 1), and every half walk of an |m| up to 14 has at least |m|, so a
# power with |m| up to this is spelled plainly without looking.
_PLAIN_MAX = 14


@lru_cache(maxsize=None)
def _triple_letters(i: int, aux: int, j: int) -> tuple:
    """The eight letters a chunk on (i, aux, j) can use.

    (top, mid, t, s, top^-1, mid^-1, t^-1, s^-1) with top = e(i, j),
    mid = e(i, aux), t = e(aux, j) and s = e(j, aux).
    """
    return tuple(
        eletter(a, b, e) for e in (1, -1) for a, b in ((i, j), (i, aux), (aux, j), (j, aux))
    )


def _fused_template(j: int, aux: int, fused, walk_only: bool = False) -> list:
    """One template carrying every (i, ks, m) in fused, with source j.

    With t = e(aux, j), s = e(j, aux) and n the largest ks[-1] // 2 the
    template is t^-1 (t s)^-n v t^-1 (t s)^-n u t^2.  The walks u and v go
    down from level n to level 0 with one (t, s) block per step; level l
    carries, for every target with 2l or 2l + 1 in its ks, top or mid
    raised to the sign of its m in u and the inverse letter in v.  When the
    first m is negative, t and s trade places with their inverses and the
    finished list is reversed, so negating every exponent gives the inverse
    template letter for letter.  With walk_only, only the half walk
    (t s)^-n u is returned, in the positive layout whatever the signs.
    """
    carried: dict[int, list] = {}
    for i, ks, m in fused:
        top, mid, t, s, top_i, mid_i, t_i, s_i = _triple_letters(i, aux, j)
        pairs = ((top, top_i), (mid, mid_i)) if m > 0 else ((top_i, top), (mid_i, mid))
        for k in ks:
            carried.setdefault(k >> 1, []).append(pairs[k & 1])
    inverse = not walk_only and fused[0][2] < 0
    if inverse:
        t, s, t_i, s_i = t_i, s_i, t, s
    top_level = max(carried)
    # the walk as (u letter, v letter) pairs; a (t, s) step is the same in both
    walk, step = [], ((t, t), (s, s))
    for level in range(top_level, -1, -1):
        walk += carried.get(level, ())
        if level:
            walk += step
    u = [a for a, _ in walk]
    ts_inv = (s_i, t_i) * top_level
    if walk_only:
        return [*ts_inv, *u]
    out = [t_i, *ts_inv, *[b for _, b in walk], t_i, *ts_inv, *u, t, t]
    if inverse:
        out.reverse()
    return out


@lru_cache(maxsize=None)
def _plain_letters(i: int, j: int, m: int) -> tuple:
    """The letters of e(i, j)^m spelled plainly, cached.

    Only an m no longer than its template is spelled plainly, |m| <= 41,
    so the cache holds at most 83 entries per index pair.
    """
    return (eletter(i, j, 1 if m > 0 else -1),) * abs(m)


def _batch_letters(j: int, powers, pool, junk=None) -> tuple[list, list]:
    """Return (letters, moved): the letters of the product of e(i, j)^m over (i, m) in powers.

    The targets i are distinct and differ from j.  Plain targets come
    first, in order, then the fused template, whose aux is the first index
    of pool outside j and the fused targets; without one, the fused
    targets are split into two templates, each using the first target of
    the other half.  The indices are valid by construction.

    junk, when given, is a column d outside j and the targets.  The fused
    targets then take one half walk, with source d and aux j, which also
    raises each of them by e(i, d)^x; moved lists each (i, x), and is
    empty otherwise.  Each target's decomposition is computed once, and x
    is read from the Fibonacci table that computed it.
    """
    letters, fused = [], []
    for i, m in powers:
        mag = abs(m)
        if mag > _PLAIN_MAX:
            ks = zeckendorf(mag).indices
            walk = 4 * (ks[-1] >> 1) + len(ks)  # the full template has 4 + 2 * walk
            if mag > (walk if junk else 4 + 2 * walk):
                fused.append((i, ks, m))
                continue
        letters += _plain_letters(i, j, m)
    if not fused:
        return letters, []
    if junk:
        letters += _fused_template(junk, j, fused, walk_only=True)
        fibs = _fib_table(0)  # holds every F_k of fused, and so every F_(k-1)
        moved = []
        for i, ks, m in fused:
            x = sum(fibs[k - 1] for k in ks)
            moved.append((i, x if m > 0 else -x))
        return letters, moved
    busy = {i for i, _, _ in fused}
    aux = next((a for a in pool if a != j and a not in busy), None)
    if aux is not None:
        letters += _fused_template(j, aux, fused)
    else:
        half = len(fused) // 2
        first, second = fused[:half], fused[half:]
        letters += _fused_template(j, second[0][0], first)
        letters += _fused_template(j, first[0][0], second)
    return letters, []


def _gather_letters(i: int, powers, pool) -> list:
    """Letters of the product of e(i, l)^m over (l, m) in powers, the sources distinct.

    Plain sources, |m| <= _PLAIN_MAX, come first; the rest is the batch on source i, transposed.
    """
    letters, fused = [], []
    for l, m in powers:
        if -_PLAIN_MAX <= m <= _PLAIN_MAX:
            letters += _plain_letters(i, l, m)
        else:
            fused.append((l, m))
    if fused:
        batch, _ = _batch_letters(i, fused, pool)
        letters += [_letter(ELEMENTARY, x.e, x.j, x.i, "") for x in reversed(batch)]
    return letters


def compress_power(n: int, i: int, j: int, m: int, aux: int | None = None) -> Word:
    """Word of length at most 4 + 6 log_tau(1 + |m| sqrt 5) equal to e(i, j)^m.

    All letters use only the indices {i, j, aux}; aux defaults to the
    smallest index different from i and j.  When |m| does not exceed the
    template length the plain spelling e(i, j)^(+-1) repeated |m| times is
    shorter and is returned instead.
    """
    n, i, j, m = map(operator.index, (n, i, j, m))
    if n < 3:
        raise UnsupportedDimensionError(
            f"power compression needs dimension >= 3, got {n}"
        )
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise InvalidGeneratorError(f"e({i},{j}) invalid in dimension {n}")
    if aux is not None and (aux == i or aux == j or not (1 <= aux <= n)):
        raise InvalidGeneratorError(
            f"auxiliary index {aux} must lie in 1..{n} outside {{{i},{j}}}"
        )
    pool = range(1, n + 1) if aux is None else (operator.index(aux),)
    return _word(n, tuple(_batch_letters(j, ((i, m),), pool)[0]))

