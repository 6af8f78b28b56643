import itertools
import math
import random

import pytest

from alphatree import (
    DepthProfileError,
    LevelTreeError,
    ParseError,
    alpha_int_fast,
    depths_to_tree,
    parse_weights,
    tree_cost,
)
from alphatree.core import minimax_cost_by_dp
from alphatree.leveltree import ceil_log2
from helpers import CachedIntOracle, minimax_by_enumeration


def test_oracle_matches_shape_enumeration():
    # the DP and brute-force shape enumeration are written independently
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 6)
        ws = [rng.randint(-4, 4) for _ in range(n)]
        assert minimax_cost_by_dp(ws) == minimax_by_enumeration(ws)


def test_known_costs():
    assert minimax_cost_by_dp([5]) == 5
    assert minimax_cost_by_dp([0, 0]) == 1
    assert minimax_cost_by_dp([0, 1, 0]) == 3
    assert minimax_cost_by_dp([3, 3, 3, 3]) == 5
    assert minimax_cost_by_dp([1, 1, 2, 2, 2]) == 4
    assert minimax_cost_by_dp([4, 5, 2, 2, 2, 1, 2, 3, 6, 4]) == 8


def test_fast_equals_oracle_exhaustive_tiny():
    for n in range(1, 5):
        for ws in itertools.product(range(3), repeat=n):
            cost, depths = alpha_int_fast(ws)
            assert cost == minimax_cost_by_dp(ws), ws
            assert tree_cost(depths, ws) == cost


def test_fast_equals_oracle_random():
    rng = random.Random(23)
    oracle = CachedIntOracle()
    for _ in range(500):
        n = rng.randint(1, 12)
        ws = [rng.randint(-4, 4) for _ in range(n)]
        cost, depths = alpha_int_fast(ws)
        assert cost == oracle(ws), ws
        assert tree_cost(depths, ws) == cost, ws


def test_uniform_weights():
    # n equal weights v cost v + ceil(log2 n)
    for n in (1, 2, 3, 7, 8, 9, 100):
        cost, _ = alpha_int_fast([4] * n)
        assert cost == 4 + ceil_log2(n)
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_shift_invariance():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 10)
        ws = [rng.randint(-3, 3) for _ in range(n)]
        shift = rng.randint(-6, 6)
        base, _ = alpha_int_fast(ws)
        moved, _ = alpha_int_fast([w + shift for w in ws])
        assert moved == base + shift


def test_monotone_in_weights():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(2, 10)
        ws = [rng.randint(-3, 5) for _ in range(n)]
        base, _ = alpha_int_fast(ws)
        i = rng.randrange(n)
        lowered = list(ws)
        lowered[i] -= 1
        low, _ = alpha_int_fast(lowered)
        assert base - 1 <= low <= base


def test_cost_bounds():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 40)
        ws = [rng.randint(-10, 10) for _ in range(n)]
        cost, _ = alpha_int_fast(ws)
        assert max(ws) <= cost <= max(ws) + ceil_log2(n)


def test_negative_weights():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 10)
        ws = [rng.randint(-9, -1) for _ in range(n)]
        cost, _ = alpha_int_fast(ws)
        assert cost == minimax_cost_by_dp(ws)


def test_dp_rejects_large_and_empty():
    with pytest.raises(ValueError):
        minimax_cost_by_dp(list(range(17)))
    assert minimax_cost_by_dp(list(range(20)), max_n=32) >= 19
    with pytest.raises(ValueError):
        minimax_cost_by_dp([])


def test_integer_paths_reject_non_finite():
    # the integer solver checks finiteness first, so int() never raises
    # OverflowError or a bare ValueError on inf or NaN; a finite
    # non-integer is a plain ValueError
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(LevelTreeError, match="must be finite"):
            alpha_int_fast([2, bad])
    with pytest.raises(ValueError, match="non-integer 1.5"):
        alpha_int_fast([2, 1.5])


# ----------------------------------------------------------------------
# parsing


def test_parse_weights_formats():
    assert parse_weights("1\n2\n3\n") == [1.0, 2.0, 3.0]
    assert parse_weights("1, 2,3\n\n  \n4 5\n") == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert parse_weights("-1.5\n# full-line comment\n2 # trailing\n") == [-1.5, 2.0]
    assert parse_weights("") == []


def test_parse_weights_errors():
    with pytest.raises(ParseError) as ei:
        parse_weights("1\n2\nhuh\n")
    assert ei.value.line == 3
    with pytest.raises(ParseError) as ei:
        parse_weights("1, nan\n")
    assert ei.value.line == 1
    with pytest.raises(ParseError):
        parse_weights("inf\n")


# ----------------------------------------------------------------------
# depth profiles


def test_depths_to_tree_examples():
    # leaves first, then internal nodes bottom-up and left to right
    assert depths_to_tree([1, 2, 2]) == [4, 3, 3, 4, -1]
    assert depths_to_tree([2, 2, 1]) == [3, 3, 4, 4, -1]
    assert depths_to_tree([2, 2, 2, 2]) == [4, 4, 5, 5, 6, 6, -1]
    assert depths_to_tree([0]) == [-1]


def test_depths_to_tree_random_roundtrip():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 12)
        ws = [rng.randint(-4, 4) for _ in range(n)]
        _, depths = alpha_int_fast(ws)
        pa = depths_to_tree(depths)
        assert len(pa) == 2 * n - 1
        assert pa[-1] == -1 and -1 not in pa[:-1]
        # every internal node has exactly two children, created after them
        assert sorted(pa[:-1]) == sorted(list(range(n, 2 * n - 1)) * 2)
        assert all(p > c for c, p in enumerate(pa[:-1]))
        # leaf depths recoverable from the parent array
        for i, d in enumerate(depths):
            hops, node = 0, i
            while pa[node] != -1:
                node = pa[node]
                hops += 1
            assert hops == d


def test_depth_profile_errors():
    with pytest.raises(DepthProfileError) as ei:
        depths_to_tree([2, 1])
    assert ei.value.index == 1 and "shallower" in ei.value.reason
    with pytest.raises(DepthProfileError) as ei:
        depths_to_tree([0, 0])
    assert ei.value.index == 1 and "complete" in ei.value.reason
    with pytest.raises(DepthProfileError) as ei:
        depths_to_tree([2, 2, 2])
    assert ei.value.index == 3
    with pytest.raises(DepthProfileError):
        depths_to_tree([])
    with pytest.raises(DepthProfileError):
        depths_to_tree([1, -1])
    with pytest.raises(DepthProfileError):
        depths_to_tree([1])
    # a non-finite depth or a non-number is rejected at its index, by
    # tree_cost too
    for bad, at in (([math.inf], 0), ([math.nan], 0), ([1, math.inf], 1), ([1, None], 1)):
        for check in (depths_to_tree, lambda d: tree_cost(d, [0] * len(d))):
            with pytest.raises(DepthProfileError) as ei:
                check(bad)
            assert ei.value.index == at and "nonnegative integer" in ei.value.reason


def test_tree_cost_validates():
    assert tree_cost([1, 1], [3, 0]) == 4
    assert tree_cost([0], [7]) == 7
    with pytest.raises(ValueError):
        tree_cost([1, 1], [3])
    with pytest.raises(DepthProfileError):
        tree_cost([1, 2], [0, 0])
