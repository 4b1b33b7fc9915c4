"""Logarithmic-length words for powers of elementary generators.

A power e(i, j)^m in dimension N >= 3 is spelled with O(log |m|) letters by
working inside the copy of SL_3 spanned by the indices {i, aux, j}.  The
template interleaves conjugation blocks (e(aux,j) e(j,aux))^k, which scale
the growth Fibonacci-style, with single letters selected by the Zeckendorf
decomposition of |m|.  In SL_2 no such compression exists, which is why
every operation here insists on N >= 3.

A chunk on the triple (i, aux, j) uses at most eight letters: top = e(i, j),
mid = e(i, aux), t = e(aux, j), s = e(j, aux) and their inverses, made once
per triple and cached.  The walk u lays the carried letters out level by
level, jumping each gap between Zeckendorf indices with one repeated
(t, s) block; the template carrying the single index k spells
e(i, j)^F_k in 6 + 8 (k // 2) letters.  A negative exponent gets the
inverse template laid out directly, t^-2 u^-1 (t s)^n t v^-1 (t s)^n t,
so no letter is inverted one at a time.  Every template has at least 14
letters, so |m| <= 14 is spelled plainly without a decomposition, and
above that only the shorter of the two spellings is built.
"""

from functools import lru_cache

from .core import Word, _word, eletter, is_prime, least_abs_residue
from .errors import (
    DomainError,
    InvalidGeneratorError,
    UnsupportedDimensionError,
)
from .fibonacci import zeckendorf

# Every template has 4 + 8 * (k_max // 2) + 2 r >= 14 letters (k_max >= 2,
# r >= 1), so a power with |m| up to this is spelled plainly without looking.
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


def _walk(ks, even, odd, block) -> list:
    """u of the template for the ascending indices ks, carrying even and odd.

    From level ks[-1] // 2 down to level 0, level l carries `even` if 2l is
    in ks and `odd` if 2l + 1 is (never both: the indices are not
    consecutive), and two neighbouring levels are joined by `block`.
    """
    out = []
    level = ks[-1] // 2
    for k in reversed(ks):
        out.extend(block * (level - k // 2))
        out.append(odd if k & 1 else even)
        level = k // 2
    out.extend(block * level)
    return out


def _template(ks, i: int, aux: int, j: int, inverse: bool = False) -> list:
    """Template letters for the ascending Fibonacci indices ks, or their inverse.

    With t = e(aux, j), s = e(j, aux) and n = ks[-1] // 2 the template is
    t^-1 (t s)^-n v t^-1 (t s)^-n u t^2, where u is _walk carrying top and
    mid and v is u with the carried letters inverted.  The inverse is laid
    out directly as t^-2 u^-1 (t s)^n t v^-1 (t s)^n t, where u^-1 is the
    walk carrying top^-1 and mid^-1 joined by (t^-1, s^-1), reversed, and
    v^-1 the same with top and mid.
    """
    top, mid, t, s, top_i, mid_i, t_i, s_i = _triple_letters(i, aux, j)
    half = ks[-1] // 2
    if inverse:
        ts = (t, s) * half
        u_inv = _walk(ks, top_i, mid_i, (t_i, s_i))
        u_inv.reverse()
        v_inv = _walk(ks, top, mid, (t_i, s_i))
        v_inv.reverse()
        return [t_i, t_i, *u_inv, *ts, t, *v_inv, *ts, t]
    ts_inv = (s_i, t_i) * half
    v = _walk(ks, top_i, mid_i, (t, s))
    u = _walk(ks, top, mid, (t, s))
    return [t_i, *ts_inv, *v, t_i, *ts_inv, *u, t, t]


def _power_letters(n: int, i: int, j: int, m: int, aux: int | None = None) -> list | tuple:
    """Letters of compress_power(n, i, j, m, aux), without its argument checks.

    For callers whose indices are valid by construction, such as the row
    reduction engine.  The plain spelling is chosen before anything is
    built: always for |m| <= _PLAIN_MAX, and above it whenever |m| does not
    exceed the template length computed from the Zeckendorf indices.
    """
    if aux is None:
        if n < 3:
            raise UnsupportedDimensionError(
                f"power compression needs dimension >= 3, got {n}"
            )
        aux = next(a for a in range(1, n + 1) if a != i and a != j)
    mag = abs(m)
    if mag > _PLAIN_MAX:
        ks = zeckendorf(mag).indices
        if mag > 4 + 8 * (ks[-1] // 2) + 2 * len(ks):
            return _template(ks, i, aux, j, inverse=m < 0)
    return (eletter(i, j, 1 if m > 0 else -1),) * mag


def compress_power(n: int, i: int, j: int, m: int, aux: int | None = None) -> Word:
    """Word of length at most 4 + 6 log_tau(1 + |m| sqrt 5) equal to e(i, j)^m.

    All letters use only the indices {i, j, aux}; aux defaults to the
    smallest index different from i and j.  When |m| does not exceed the
    template length the plain spelling e(i, j)^(+-1) repeated |m| times is
    shorter and is returned instead.
    """
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
    return _word(n, tuple(_power_letters(n, i, j, m, aux)))


def compress_power_modp(n: int, i: int, j: int, m: int, p: int, aux: int | None = None) -> Word:
    """Compressed word congruent to e(i, j)^m mod p.

    The exponent is first replaced by its least-absolute-value residue in
    (-p/2, p/2], so the word length scales with log p rather than log m.
    """
    if not is_prime(p):
        raise DomainError(f"modulus {p} is not prime")
    return compress_power(n, i, j, least_abs_residue(m, p), aux)
