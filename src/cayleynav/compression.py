"""Logarithmic-length words for powers of elementary generators.

A power e(i, j)^m in dimension N >= 3 is spelled with O(log |m|) letters by
working inside the copy of SL_3 spanned by the indices {i, aux, j}.  The
template interleaves conjugation blocks (e(aux,j) e(j,aux))^k, which scale
the growth Fibonacci-style, with single letters selected by the Zeckendorf
decomposition of |m|.  In SL_2 no such compression exists, which is why
every operation here insists on N >= 3.
"""

from .core import Word, eletter, is_prime, least_abs_residue
from .errors import (
    DomainError,
    InvalidGeneratorError,
    UnsupportedDimensionError,
)
from .fibonacci import zeckendorf


def _template_letters(ks, i, aux, j):
    """Letters of the template carrying the ascending Fibonacci indices ks.

    Layout: t^-1 (t s)^-n  v  t^-1 (t s)^-n  u  t^2 where t = e(aux, j),
    s = e(j, aux), n = ks[-1] // 2, u carries one letter per index and
    v is u with the carried letters inverted.
    """
    kset = set(ks)
    half = ks[-1] // 2
    top = eletter(i, j)        # carried at even indices 2t
    mid = eletter(i, aux)      # carried at odd indices 2t + 1
    t_pos = eletter(aux, j)
    s_pos = eletter(j, aux)
    u: list = []
    v: list = []
    for t in range(half, -1, -1):
        if 2 * t in kset:
            u.append(top)
            v.append(top.inverse())
        if 2 * t + 1 in kset:
            u.append(mid)
            v.append(mid.inverse())
        if t > 0:
            u.extend((t_pos, s_pos))
            v.extend((t_pos, s_pos))
    neg_block = [s_pos.inverse(), t_pos.inverse()] * half
    out = [t_pos.inverse()]
    out.extend(neg_block)
    out.extend(v)
    out.append(t_pos.inverse())
    out.extend(neg_block)
    out.extend(u)
    out.extend((t_pos, t_pos))
    return out


def fib_power_word(n_blocks: int, parity: str) -> Word:
    """Word in dimension 3 for e(1,3)^F_{2n} ("even") or e(1,3)^F_{2n+1} ("odd").

    This is the template carrying the single index 2n or 2n + 1; its length
    is 6 + 8 * n_blocks.
    """
    if n_blocks < 0:
        raise DomainError(f"block count must be non-negative, got {n_blocks}")
    if parity not in ("even", "odd"):
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    k = 2 * n_blocks + (parity == "odd")
    return Word(3, tuple(_template_letters((k,), 1, 2, 3)))


def zeckendorf_power_word(m: int) -> Word:
    """The full template word for e(1,3)^m in dimension 3, m >= 1.

    No short-circuit is applied; length is 4 + 8n + 2r where n is half the
    top Zeckendorf index of m (rounded down) and r the number of summands.
    """
    if m < 1:
        raise DomainError(f"template needs m >= 1, got {m}")
    return Word(3, tuple(_template_letters(zeckendorf(m).indices, 1, 2, 3)))


def _power_letters(n: int, i: int, j: int, m: int, aux: int | None = None) -> list | tuple:
    """Letters of compress_power(n, i, j, m, aux), without its argument checks.

    For callers whose indices are valid by construction, such as the row
    reduction engine, which validates its whole output word once.
    """
    if aux is None:
        if n < 3:
            raise UnsupportedDimensionError(
                f"power compression needs dimension >= 3, got {n}"
            )
        aux = next(a for a in range(1, n + 1) if a != i and a != j)
    if m == 0:
        return ()
    mag = abs(m)
    template = _template_letters(zeckendorf(mag).indices, i, aux, j)
    if mag <= len(template):
        return (eletter(i, j, 1 if m > 0 else -1),) * mag
    if m < 0:
        return [l.inverse() for l in reversed(template)]
    return template


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
    return Word(n, tuple(_power_letters(n, i, j, m, aux)))


def compress_power_modp(n: int, i: int, j: int, m: int, p: int, aux: int | None = None) -> Word:
    """Compressed word congruent to e(i, j)^m mod p.

    The exponent is first replaced by its least-absolute-value residue in
    (-p/2, p/2], so the word length scales with log p rather than log m.
    """
    if not is_prime(p):
        raise DomainError(f"modulus {p} is not prime")
    return compress_power(n, i, j, least_abs_residue(m, p), aux)
