import copy
import random

import pytest

from cayleynav.core import Word, eletter, eval_word_fp, eval_word_z
from cayleynav.modp import random_sl_fp
from cayleynav.normalform import _lll_reduce
from cayleynav.rowreduce import RowReducer


def by_hand(red, sup):
    """The phase sequence spelled out step by step, with the sup norms kept aside.

    sup is the sup norm of the input, before any pre-reduction.
    """
    norms = [sup]
    for col in range(1, red.n):
        red.clear_column(col)
        if red.p is None:
            norms.append(max(abs(x) for row in red.rows for x in row))
    n1 = len(red.out)
    red.clear_upper()
    n2 = len(red.out)
    red.clear_diagonal()
    red.check_identity()
    return (n1, len(red.out) - n2, n2 - n1), norms


@pytest.mark.parametrize("p", [None, 2, 7, 2**31 - 1])
def test_reduce_runs_the_phase_sequence(p):
    rng = random.Random(23 if p is None else p)
    for n in (3, 4, 5, 6):
        for _ in range(4):
            if p is None:
                pairs = (rng.sample(range(1, n + 1), 2) for _ in range(20 * n))
                m = eval_word_z(Word(n, tuple(eletter(i, j, rng.choice((1, -1))) for i, j in pairs)))
                red = RowReducer([list(r) for r in m.rows])
                _lll_reduce(red)
            else:
                m = random_sl_fp(n, p, rng)
                red = RowReducer([list(r) for r in m.rows], p)
            hand = copy.deepcopy(red)
            phases, norms = by_hand(hand, max(abs(x) for row in m.rows for x in row))
            word, got = red.reduce()
            assert word.letters == tuple(red.out)
            assert red.out == hand.out
            assert got == phases
            assert sum(got) == len(word)
            assert red.norms == norms == hand.norms
            assert red.peak == hand.peak
            if p is None:
                assert len(norms) == n and eval_word_z(word) == m
            else:
                assert red.norms == [red.peak]
                assert eval_word_fp(word, p) == m
