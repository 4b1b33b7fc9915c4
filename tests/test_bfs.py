import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from cayleynav.bfs import (
    DEFAULT_BUDGET,
    DiameterReport,
    bfs_diameter,
    bfs_distance_map,
    generator_letters,
    row_move_distances,
    sl_group_order,
)
from cayleynav.cli import SL2_RADIUS_LIMIT, main
from cayleynav.core import AB, ELEMENTARY, MatFp, MatZ, abletter, eletter, letter_matrix_z
from cayleynav.errors import BudgetExceededError, DomainError
from cayleynav.euclid import accelerated_reduce, subtractive_gcd
from cayleynav.fibonacci import fib
from cayleynav.normalform import normal_form


def gl_order(n, p):
    out = 1
    for k in range(n):
        out *= p**n - p**k
    return out


def test_sl_group_order_known_values():
    assert sl_group_order(2, 2) == 6
    assert sl_group_order(2, 3) == 24
    assert sl_group_order(2, 5) == 120
    assert sl_group_order(3, 2) == 168
    assert sl_group_order(3, 3) == 5616
    assert sl_group_order(4, 2) == 20160


def test_sl_group_order_matches_gl_quotient():
    for n in (2, 3, 4, 5):
        for p in (2, 3, 7, 101):
            assert sl_group_order(n, p) == gl_order(n, p) // (p - 1)


def test_sl_group_order_validation():
    with pytest.raises(DomainError):
        sl_group_order(1, 5)
    with pytest.raises(DomainError):
        sl_group_order(3, 6)


def test_generator_letters():
    els = generator_letters(3, ELEMENTARY)
    assert len(els) == 12  # 6 ordered pairs, two exponents each
    assert eletter(3, 1, -1) in els
    abs_ = generator_letters(3, AB)
    assert set(abs_) == {
        abletter("A"),
        abletter("A", -1),
        abletter("B"),
        abletter("B", -1),
    }
    with pytest.raises(DomainError):
        generator_letters(3, "other")


def test_bfs_distance_map_basics():
    dist = bfs_distance_map(2, 3)
    assert len(dist) == 24
    assert dist[(1, 0, 0, 1)] == 0
    assert dist[(1, 1, 0, 1)] == 1
    assert dist[(1, 2, 0, 1)] == 1  # -1 = 2 mod 3
    assert max(dist.values()) == 4


def test_bfs_diameter_sl2_f2():
    rep = bfs_diameter(2, 2)
    assert isinstance(rep, DiameterReport)
    assert rep.order == 6
    assert rep.diameter == 3
    assert sum(rep.histogram.values()) == 6


def test_bfs_diameter_sl3_f2_histogram():
    rep = bfs_diameter(3, 2)
    assert rep.diameter == 6
    assert rep.histogram == {0: 1, 1: 6, 2: 24, 3: 51, 4: 60, 5: 24, 6: 2}
    assert sum(rep.histogram.values()) == 168


def test_bfs_diameter_sl3_f3():
    rep = bfs_diameter(3, 3)
    assert rep.order == 5616
    assert rep.diameter == 7


def test_bfs_diameter_ab_alphabet():
    rep = bfs_diameter(3, 2, alphabet=AB)
    assert rep.alphabet == AB
    assert rep.diameter == 12
    assert sum(rep.histogram.values()) == 168


def test_bfs_budget_refusal():
    with pytest.raises(BudgetExceededError):
        bfs_distance_map(3, 101)
    with pytest.raises(BudgetExceededError):
        bfs_diameter(2, 3, budget=10)
    assert DEFAULT_BUDGET == 10_000_000


def test_bfs_visited_table_is_charged_to_the_budget():
    # the visited table has p**(n*n) bytes, allowed up to 8 bytes per state
    # of budget: SL_2(F_101) has 1 030 200 elements but a 101**4-byte table
    assert sl_group_order(2, 101) <= DEFAULT_BUDGET < 101**4
    with pytest.raises(BudgetExceededError, match="visited table"):
        bfs_diameter(2, 101)
    # SL_2(F_11) has 1320 elements and a table of 11**4 = 14641 bytes
    with pytest.raises(BudgetExceededError, match="visited table"):
        bfs_diameter(2, 11, budget=1830)
    assert bfs_diameter(2, 11, budget=1831).order == 1320


def test_bfs_memory_per_state():
    # a byte per packed code and 8 per state in the levels, no object per state
    for n, p, alphabet in ((4, 2, AB), (3, 3, ELEMENTARY)):
        bfs_diameter(n, p, alphabet)
        tracemalloc.start()
        try:
            rep = bfs_diameter(n, p, alphabet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / rep.order <= 24, (n, p, alphabet, peak / rep.order)


def naive_distance_map(n, p, alphabet):
    """Reference BFS on MatFp matrices: each state times each letter's matrix."""
    gens = [MatFp.from_rows(letter_matrix_z(l, n).rows, p) for l in generator_letters(n, alphabet)]
    start = MatFp.identity(n, p)
    dist = {start.key(): 0}
    frontier = [start]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                m2 = g * m
                if m2.key() not in dist:
                    dist[m2.key()] = dist[m.key()] + 1
                    nxt.append(m2)
        frontier = nxt
    return dist


@pytest.mark.parametrize("n,p", [(3, 2), (2, 5)])
@pytest.mark.parametrize("alphabet", [ELEMENTARY, AB])
def test_bfs_kernels_match_a_naive_matrix_search(n, p, alphabet):
    # the packed per-level kernels against plain matrix products, one
    # generator_letters letter at a time, each acting on the left: the same
    # distance for every element, and the same discovery order
    fast = bfs_distance_map(n, p, alphabet)
    assert list(fast.items()) == list(naive_distance_map(n, p, alphabet).items())


def sl2_ball(radius, budget=DEFAULT_BUDGET):
    return row_move_distances(((1, 0, 0, 1),), 2, radius=radius, budget=budget)


def reduction_optimum(n, box):
    """Fewest row moves from each tuple of [-box, box]^n to one with a single nonzero entry."""
    units = [tuple(int(k == pos) for k in range(n)) for pos in range(n)]
    sources = [tuple(v * x for x in unit) for unit in units for v in range(-box, box + 1) if v]
    return row_move_distances(sources, n, box=box)


def test_sl2_ball_layers():
    ball = sl2_ball(0)
    assert ball == {(1, 0, 0, 1): 0}
    ball = sl2_ball(1)
    assert len(ball) == 5
    assert ball[(1, 1, 0, 1)] == 1
    assert ball[(1, 0, -1, 1)] == 1
    ball = sl2_ball(5)
    assert len(ball) == 263


def test_sl2_ball_norm_growth_is_sharp():
    # the extreme elements of each layer reach the Fibonacci bound exactly
    ball = sl2_ball(8)
    peak = {}
    for key, d in ball.items():
        peak[d] = max(peak.get(d, 0), max(abs(x) for x in key))
    for d in range(9):
        assert peak[d] == fib(d + 1)


def test_sl2_ball_radius_limits(capsys):
    with pytest.raises(DomainError):
        sl2_ball(-1)
    # the command refuses past its limit before any search
    assert main(["sl2-lowerbound", str(SL2_RADIUS_LIMIT + 1)]) == 3
    assert capsys.readouterr().err == "error: radius 15 exceeds the exhaustive limit of 14\n"


def test_min_pair_reduction_steps_linear_family():
    opt = reduction_optimum(2, 16)
    for n in range(1, 13):
        assert opt[(1, n)] == n
    assert opt[(0, 5)] == 0
    assert opt[(7, 0)] == 0


def test_min_pair_reduction_never_beats_by_much():
    # optimal play is allowed to beat the deterministic rule, never to lose
    opt = reduction_optimum(2, 16)
    for a in range(1, 15):
        for b in range(1, 15):
            assert opt[(a, b)] <= subtractive_gcd((a, b)).step_count


def test_min_pair_reduction_budget():
    with pytest.raises(BudgetExceededError):
        row_move_distances([(1, 0), (0, 1)], 2, box=100, budget=5)


def test_row_move_distances_refusals():
    # the budget holds as states are added, so no level overshoots it
    assert len(sl2_ball(5, budget=263)) == 263
    with pytest.raises(BudgetExceededError):
        sl2_ball(5, budget=262)
    with pytest.raises(BudgetExceededError):
        sl2_ball(8, budget=100)
    with pytest.raises(DomainError):
        row_move_distances([(1, 0)], 2)
    with pytest.raises(DomainError):
        row_move_distances([(1, 0)], 2, box=-1)
    with pytest.raises(DomainError):
        row_move_distances([(1, 0, 0)], 2, box=4)
    with pytest.raises(DomainError):
        row_move_distances([], 2, box=4)


def test_euclid_optimum_on_triples():
    # the exact optimum is the same in both boxes, so no shortest path leaves the smaller one
    opt, wide = reduction_optimum(3, 12), reduction_optimum(3, 16)
    cube = list(product(range(-8, 9), repeat=3))
    assert all(opt[k] == wide[k] for k in cube if any(k))
    triples = [k for k in cube if sum(1 for x in k if x) >= 2]
    assert len(triples) == 4864
    ratios = {}
    for k in triples:
        length = len(accelerated_reduce(k).word)
        assert length >= opt[k]
        ratios[k] = Fraction(length, opt[k])
    assert round(float(sum(ratios.values()) / len(ratios)), 4) == 1.3613
    assert max(ratios.values()) == ratios[(-6, -1, -8)] == Fraction(14, 6)
    assert opt[(-6, -1, -8)] == 6
    # the paper's C * N * log n: the optimum over ln of the largest entry
    worst = max(opt[k] / math.log(max(map(abs, k))) for k in triples if max(map(abs, k)) >= 2)
    assert round(worst, 3) == 4.328


def test_sl3_ball_and_normal_form_lengths():
    ball = row_move_distances([(1, 0, 0, 0, 1, 0, 0, 0, 1)], 3, radius=5)
    assert [list(ball.values()).count(d) for d in range(6)] == [1, 12, 108, 762, 4572, 24708]
    near = [(k, d) for k, d in ball.items() if d <= 4]
    assert len(near) == 5455
    worst = 0.0
    for key, d in near:
        length = len(normal_form(MatZ.from_rows([key[0:3], key[3:6], key[6:9]])))
        assert length >= d
        if d:
            worst = max(worst, length / d)
    assert worst <= 6.0
