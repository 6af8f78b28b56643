import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from alphatree import (
    InexactCostError,
    WeightSeq,
    alpha_real,
    alpha_real_new,
    alpha_real_sorted,
)
from alphatree.core import minimax_cost_by_dp
from alphatree.realweight import alpha_real_oracle, select_kth
from alphatree.cli import generate_weights
from helpers import random_real_weights, unsqueezed_sorted


def test_select_kth_examples():
    assert select_kth([3, 1, 2], 1) == 1
    assert select_kth([3, 1, 2], 2) == 2
    assert select_kth([3, 1, 2], 3) == 3
    assert select_kth([5, 5, 5], 2) == 5
    assert select_kth([0.25], 1) == 0.25


def test_select_kth_random_vs_sorted():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 200)
        vals = [rng.randint(0, 30) for _ in range(n)]  # heavy duplication
        k = rng.randint(1, n)
        assert select_kth(vals, k) == sorted(vals)[k - 1]


def test_select_kth_rejects():
    with pytest.raises(ValueError):
        select_kth([], 1)
    with pytest.raises(ValueError):
        select_kth([1, 2], 0)
    with pytest.raises(ValueError):
        select_kth([1, 2], 3)


def test_weightseq_fields():
    seq = WeightSeq([1.2, 0.3, 2.0, -0.75])
    assert seq.n == 4
    assert seq.ceils == [2, 1, 2, 0]
    assert seq.fracs[1] == 0.3
    assert seq.fracs[2] == 0.0
    assert seq.fracs[3] == 0.25
    with pytest.raises(ValueError):
        WeightSeq([])
    with pytest.raises(ValueError):
        WeightSeq([math.inf])


def test_adjusted_matches_direct_ceiling():
    # away from the fractional parts the closed form must agree with
    # literally subtracting and rounding up
    rng = random.Random(14)
    for _ in range(200):
        seq = WeightSeq(random_real_weights(rng, rng.randint(1, 10)))
        b = rng.random()
        if any(abs(b - f) < 1e-9 for f in seq.fracs):
            continue
        assert seq.adjusted(b) == [math.ceil(w - b) for w in seq.weights]


def test_adjusted_boundary_is_inclusive():
    seq = WeightSeq([1.5])
    assert seq.adjusted(0.5) == [1]
    assert seq.adjusted(0.49) == [2]
    assert seq.adjusted(0.0) == [2]


def test_small_examples_both_strategies():
    for fn in (alpha_real_new, alpha_real_sorted):
        assert abs(fn([0.5]).alpha - 0.5) < 1e-9
        assert abs(fn([1.2, 0.3]).alpha - 2.2) < 1e-9
        res = fn([0.9, 0.1, 0.9])
        assert abs(res.alpha - 2.9) < 1e-9
        assert res.b == 0.9
        ints = fn([3.0, 1.0, 2.0])
        assert ints.b == 0.0 and ints.alpha == 4.0


def test_alpha_rounds_once_from_the_weight():
    # w - floor(w) rounds for weights just below 0: frac(-0.3) is 0.7 to
    # the nearest float, and frac(-1e-20) rounds to 1.0, so target + b
    # would give -0.30000000000000004 and 0.0
    for fn in (alpha_real, alpha_real_new, alpha_real_sorted):
        assert fn([-0.3]).alpha == -0.3
        assert fn([-1e-20]).alpha == -1e-20


def test_real_oracle_examples():
    assert alpha_real_oracle([0.5]) == 0.5
    assert abs(alpha_real_oracle([0.9, 0.1, 0.9]) - 2.9) < 1e-12
    assert alpha_real_oracle([3.0, 1.0, 2.0]) == 4.0


def test_zero_offset_with_mixed_integrals():
    # an integral weight makes 0 a legal offset, and here the best one
    for fn in (alpha_real_new, alpha_real_sorted):
        res = fn([0.5, 10.0])
        assert res.b == 0.0
        assert res.alpha == 11.0


def test_strategies_agree_and_match_oracle():
    rng = random.Random(15)
    for _ in range(800):
        n = rng.randint(1, 12)
        ws = random_real_weights(rng, n)
        seq = WeightSeq(ws)
        a = alpha_real_new(seq)
        b = alpha_real_sorted(seq)
        assert abs(a.alpha - b.alpha) <= 1e-9, ws
        assert a.b == b.b, ws
        if n <= 9:
            assert abs(a.alpha - alpha_real_oracle(seq)) <= 1e-9, ws


def test_offset_comes_from_the_fracs():
    rng = random.Random(16)
    for _ in range(100):
        seq = WeightSeq(random_real_weights(rng, rng.randint(1, 10)))
        res = alpha_real(seq)
        assert res.b == 0.0 or res.b in seq.fracs


def test_cost_monotone_in_offset():
    # the search strategies both rest on this
    from alphatree import LevelTree

    rng = random.Random(17)
    for _ in range(60):
        seq = WeightSeq(random_real_weights(rng, rng.randint(1, 10)))
        costs = [LevelTree(seq.adjusted(b)).cost() for b in sorted(seq.fracs)]
        assert all(x >= y for x, y in zip(costs, costs[1:]))


def test_witness_attains_alpha():
    rng = random.Random(18)
    for _ in range(200):
        seq = WeightSeq(random_real_weights(rng, rng.randint(1, 12)))
        res = alpha_real(seq)
        realized = max(w + d for w, d in zip(seq.weights, res.depths))
        assert abs(realized - res.alpha) <= 1e-9
        assert max(y + d for y, d in zip(seq.adjusted(res.b), res.depths)) == res.int_cost


def test_operation_budgets():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 400)
        d = min(rng.choice([1, 2, 4, 16, n]), n)
        seq = WeightSeq(generate_weights(rng, n, d))
        res = alpha_real_new(seq)
        assert res.instrumentation["sets"] <= 2 * n
        assert res.instrumentation["undos"] <= res.instrumentation["sets"]
        assert res.instrumentation["partition_items"] <= 2 * n


def test_alpha_real_is_the_sorted_search():
    # d = 1 and d = 2 at n up to 2^10: the inputs a shape rule once sent
    # to the live tree
    rng = random.Random(21)
    for _ in range(200):
        n = rng.choice([1, 2, 3, rng.randint(4, 2**10), 2**rng.randint(2, 10)])
        d = min(rng.choice([1, 2]), n)
        seq = WeightSeq(generate_weights(rng, n, d))
        res = alpha_real(seq)
        assert res.strategy == "sorted"
        new = alpha_real_new(seq)
        assert (res.alpha, res.b, res.depths) == (new.alpha, new.b, new.depths), (n, d)
    assert alpha_real_sorted is alpha_real


def test_alpha_real_reports_every_counter():
    res = alpha_real([0.5, 1.25, 0.75, 2.0])
    assert set(res.instrumentation) == {
        "sets", "undos", "finds", "unions", "deunions", "partition_items",
        "probes", "probe_items",
    }


def test_repeated_offsets_are_probed_once():
    # one distinct fraction: no search, only the target and witness passes
    res = alpha_real([3.0] * 1024)
    assert res.instrumentation["probes"] == 2
    assert res.instrumentation["probe_items"] == 2 * 1024
    assert (res.alpha, res.b) == (13.0, 0.0)


def test_repeated_fractions_match_new():
    # all-integral input and a few shared fractions, as add-one
    # smoothing gives equal q values
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 300)
        pool = [rng.choice([0.0, 0.5, 1e-12, 1 - 1e-12, rng.random()])
                for _ in range(rng.randint(1, 4))]
        lo = -rng.choice([1, 2, 8])
        ws = [c - 1 + f if f else float(c)
              for c, f in ((rng.randint(lo, 4), rng.choice(pool)) for _ in range(n))]
        res, new = alpha_real(ws), alpha_real_new(ws)
        assert (res.alpha, res.b, res.depths) == (new.alpha, new.b, new.depths), ws
        # each search probe halves the range and drops at least one of
        # the distinct offsets below the largest
        offsets = len(set(WeightSeq(ws).fracs))
        probes = res.instrumentation["probes"] - 2
        assert probes <= min(offsets - 1, (n - 1).bit_length())


def test_inexact_cost_is_rejected():
    # the exact costs are 2^53 + 1 and 2^52 + 1.5; a float sum would give
    # 2^53 and 2^52 + 2
    for ws in ([2**53, 0.5], [2**52 - 0.5] + [2**52 - 1.5] * 3):
        for fn in (alpha_real, alpha_real_new, alpha_real_sorted):
            with pytest.raises(InexactCostError, match="no exact float answer"):
                fn(ws)
    assert issubclass(InexactCostError, ValueError)
    # exact large costs pass, and below 2^52 the sum is the nearest float
    assert alpha_real([2.0**60]).alpha == 2.0**60
    assert alpha_real([2.0**52, 2.0**52]).alpha == 2.0**52 + 1
    res = alpha_real([7.923899270158659, 7.1])
    assert res.alpha == 8.0 + res.b == 8.923899270158659


# fractional parts: zero, near-integer from either side, repeated, any
fractions = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-12, 1 - 1e-12, 1 - 1e-15, 0.5, 0.25]),
    st.floats(0.0, 1.0, exclude_max=True),
)
weights = st.builds(
    lambda c, f: c - 1 + f if f else float(c), st.integers(-6, 6), fractions
)
weight_lists = st.one_of(
    st.lists(weights, min_size=1, max_size=40),
    st.lists(weights, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)
    ),
    st.lists(st.integers(-6, 6).map(float), min_size=1, max_size=20),
)


@settings(max_examples=500, deadline=None)
@given(weight_lists)
def test_squeezed_search_matches_unsqueezed(ws):
    b, target, depths, probes = unsqueezed_sorted(ws)
    res = alpha_real_sorted(ws)
    assert (res.b, res.int_cost, res.depths) == (b, target, depths)
    assert res.alpha == target + b
    assert res.instrumentation["probes"] == probes
    other = alpha_real_new(ws)
    assert (other.alpha, other.b, other.depths) == (res.alpha, b, depths)
    if len(ws) <= 12:
        assert abs(res.alpha - alpha_real_oracle(ws)) <= 1e-9


def test_squeezed_search_matches_unsqueezed_long():
    # long enough for the search to squeeze, with few distinct fractional
    # parts so that ties sit at both ends of the range it squeezes
    rng = random.Random(22)
    for _ in range(150):
        n = rng.randint(64, 600)
        pool = [rng.choice([0.0, 1e-12, 1 - 1e-12, 1 - 1e-15, rng.random()])
                for _ in range(rng.randint(1, 12))]
        lo = -rng.choice([1, 2, 8, 64])
        ws = [c - 1 + f if f else float(c)
              for c, f in ((rng.randint(lo, 4), rng.choice(pool)) for _ in range(n))]
        b, target, depths, probes = unsqueezed_sorted(ws)
        res = alpha_real_sorted(ws)
        assert (res.b, res.int_cost, res.depths) == (b, target, depths), ws
        assert res.instrumentation["probes"] == probes


def test_sorted_probe_item_budget():
    # 14 full passes (target, 12 probes, witness) would walk 14n items;
    # with the squeeze they walk about 7n
    n = 2**12
    for seed in range(3):
        ws = generate_weights(random.Random(seed), n, 64)
        res = alpha_real_sorted(ws)
        assert res.instrumentation["probe_items"] <= 8 * n
        assert res.instrumentation["probes"] == unsqueezed_sorted(ws)[3]


@pytest.mark.parametrize("d", [1, 2, 8, 64])
@pytest.mark.parametrize("n", [2**8, 2**10, 2**12])
def test_counter_budgets(n, d):
    # partition_items <= 2n is the halving bound of the median search;
    # sets stay near n and probe_items near 7n on these instances
    ws = generate_weights(random.Random(n + d), n, d)
    new = alpha_real_new(ws).instrumentation
    assert new["sets"] <= n
    assert new["partition_items"] <= 2 * n
    assert alpha_real_sorted(ws).instrumentation["probe_items"] <= 8 * n


# wide weights: the ones above, magnitudes in every binade from 2^-60 up
# to just under 2^52, and tiny negatives, whose fractional parts round
wide_weights = st.one_of(
    weights,
    st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              st.integers(-59, 52)),
    st.builds(lambda m, e: -math.ldexp(m, e), st.floats(0.5, 1.0), st.integers(-60, -1)),
)
wide_weight_lists = st.one_of(
    st.lists(wide_weights, min_size=1, max_size=12),
    st.lists(wide_weights, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)
    ),
    st.lists(wide_weights, min_size=13, max_size=40),
)


@settings(max_examples=500, deadline=None)
@given(wide_weight_lists)
@example([-1024.1518456037575, -0.003957823579500495, -114620969.72231531])
@example([2**52 - 0.5] + [2**52 - 1.5] * 3)
def test_wide_weights_match_new_and_the_rational_dp(ws):
    # both strategies give the same answer or both reject it; for small
    # n that answer is the exact DP value rounded once (a float DP would
    # round at every +1)
    try:
        res = alpha_real(ws)
    except InexactCostError:
        with pytest.raises(InexactCostError):
            alpha_real_new(ws)
        res = None
    else:
        new = alpha_real_new(ws)
        assert (res.alpha, res.b, res.depths) == (new.alpha, new.b, new.depths)
    if len(ws) <= 12:
        exact = minimax_cost_by_dp([Fraction(w) for w in ws])
        if res is None:
            assert abs(exact) >= 2**52 and Fraction(float(exact)) != exact
        else:
            assert res.alpha == float(exact)
