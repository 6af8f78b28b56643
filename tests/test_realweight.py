import hashlib
import json
import math
import random
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from alphatree import (
    InexactCostError,
    LevelTreeError,
    RealCostResult,
    WeightSeq,
    alpha_real,
    alpha_real_new,
    tree_cost,
)
from alphatree.core import minimax_cost_by_dp
import alphatree.realweight
from alphatree.leveltree import _bottom_entry, _fold_pass, ceil_log2, static_cost, static_witness
from alphatree.realweight import (
    _BUDGET,
    _SAMPLE_STRIDE,
    _SQUEEZE_RUN,
    _WINDOW,
    _squeeze,
    alpha_real_oracle,
    alpha_real_sorted,
    select_kth,
)
from alphatree.cli import generate_weights
from helpers import (
    bisected_sorted,
    bottom_entry,
    certify,
    corpus_inputs,
    kept_fracs,
    near_uniform_inputs,
    per_run_squeeze,
    random_real_weights,
    reference_fold,
    unsqueezed_sorted,
)


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
    assert seq.floors == [1, 0, 2, -1]
    assert WeightSeq([-1e-20]).floors == [-1]
    # the weights a float holds exactly are kept, as floats
    assert WeightSeq([2**53, Fraction(1, 4), 3]).weights == [2.0**53, 0.25, 3.0]
    # the rest are rejected, naming the weight, never rounded
    with pytest.raises(LevelTreeError, match="at least one"):
        WeightSeq([])
    # float() parses a str or bytes, yet no such weight equals a float
    for bad in (math.inf, -math.inf, math.nan, 2**53 + 1, 10**400, Fraction(1, 3),
                "1.0", b"1", bytearray(b"1")):
        with pytest.raises(LevelTreeError, match=re.escape(repr(bad))):
            WeightSeq([0.5, bad])
    for solve in (alpha_real, alpha_real_new):
        with pytest.raises(LevelTreeError):
            solve([2**53 + 1])


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
    # the nearest float, and frac(-1e-20) rounds to 1.0, so target plus
    # that float would give -0.30000000000000004 and 0.0
    for fn in (alpha_real, alpha_real_new, alpha_real_sorted):
        assert fn([-0.3]).alpha == -0.3
        assert fn([-1e-20]).alpha == -1e-20


@pytest.mark.parametrize("ws, alpha", [
    # the two fractional parts round to one float, but are not equal:
    # the optimum is depths [1, 2, 2] at 2 - 1.4 * 2^-53, and 2.0 for
    # the mirrored weights with -0.5 last
    ([-6.661338147750939e-17, -1.554312234475219e-16, -2], 1.9999999999999998),
    ([-1.554312234475219e-16, -6.661338147750939e-17, -0.5], 2.0),
    ([-1e-20], -1e-20),
])
def test_tied_fractions_are_told_apart(ws, alpha):
    seq = WeightSeq(ws)
    assert alpha_real_oracle(ws) == alpha
    for fn in (alpha_real, alpha_real_new):
        res = fn(seq)
        assert res.alpha == alpha
        assert 0 <= res.b < 1 and res.b in seq.fracs
        assert static_cost(seq.adjusted(res.b)) == res.int_cost
        assert max(y + d for y, d in zip(seq.adjusted(res.b), res.depths)) == res.int_cost


def test_certify_rejects_a_later_offset():
    # the next frac above the answer is feasible too, and its witness
    # and cost pass every check of certify but the lower bound
    rng = random.Random(24)
    for _ in range(100):
        ws = random_real_weights(rng, rng.randint(2, 12))
        seq = WeightSeq(ws)
        res = alpha_real(seq)
        certify(ws, res)
        above = [f for f in seq.fracs if f > res.b]
        if above:
            b = min(above)
            cost, depths = static_witness(seq.adjusted(b))
            late = RealCostResult(tree_cost(depths, ws), b, cost, depths, "sorted", {})
            with pytest.raises(AssertionError, match="a smaller offset is feasible"):
                certify(ws, late)


def test_real_oracle_examples():
    assert alpha_real_oracle([0.5]) == 0.5
    assert alpha_real_oracle([0.9, 0.1, 0.9]) == 2.9
    assert alpha_real_oracle([3.0, 1.0, 2.0]) == 4.0


def test_zero_offset_with_mixed_integrals():
    # an integral weight makes 0 a legal offset, and here the best one
    for fn in (alpha_real_new, alpha_real_sorted):
        res = fn([0.5, 10.0])
        assert res.b == 0.0
        assert res.alpha == 11.0
    # alpha_real_new reaches 0.0 as a median of its search, with no case
    # of its own: for all-integral weights in one round that sets no bit,
    # and otherwise after feasible probes whose sets are all undone
    for ws in (
        [0.5, 10.0],
        [3.0, 0.1, 0.2, 0.3, 0.4],
        [2.0, 0.25, 0.5, 0.75, 0.125, 1.0],
        [4.0, 1.0, 2.0, 2.0],
        [-3.0, -3.0, 5.0],
        [0.0],
        # the frac of -0.0 is -0.0, which either search may pick
        [-0.0, 1.0],
        [0.0, -0.0, 0.5],
    ):
        res, new = alpha_real_sorted(ws), alpha_real_new(ws)
        assert (new.alpha, new.b, new.depths) == (res.alpha, res.b, res.depths), ws
        assert repr(new.b) == "0.0", ws
        acc = new.instrumentation
        if all(w == int(w) for w in ws):
            assert (acc["partition_items"], acc["sets"]) == (len(ws), 0), ws
        else:
            assert acc["sets"] == acc["undos"], ws
    assert alpha_real_new([3.0, 0.1, 0.2, 0.3, 0.4]).instrumentation["sets"] == 2


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
            assert a.alpha == alpha_real_oracle(seq), ws


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
        # the sorted search reads the floors only; the live tree starts
        # at the ceilings, computed on first use
        assert "ceils" not in vars(seq)
        new = alpha_real_new(seq)
        assert "ceils" in vars(seq)
        assert (res.alpha, res.b, res.depths) == (new.alpha, new.b, new.depths), (n, d)
    assert alpha_real_sorted is alpha_real


def test_alpha_real_reports_every_counter():
    res = alpha_real([0.5, 1.25, 0.75, 2.0])
    assert set(res.instrumentation) == {
        "sets", "undos", "finds", "unions", "deunions", "partition_items",
        "probes", "probe_items", "squeeze_items", "sort_items", "kept_items",
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
    # the exact costs are 2^53 + 1, 2^52 + 1.5 and 2^53 + 1 at offset 0
    # (integral weights); a float sum would give 2^53, 2^52 + 2 and 2^53
    for ws in ([2**53, 0.5], [2**52 - 0.5] + [2**52 - 1.5] * 3, [2.0**53, 2.0**53]):
        for fn in (alpha_real, alpha_real_new, alpha_real_sorted):
            with pytest.raises(InexactCostError, match="no exact float answer"):
                fn(ws)
    assert issubclass(InexactCostError, ValueError)
    # exact large costs pass, and below 2^52 the sum is the nearest float
    assert alpha_real([2.0**60]).alpha == 2.0**60
    for fn in (alpha_real, alpha_real_new):
        res = fn([2.0**52, 2.0**52])
        assert (res.alpha, res.b) == (2.0**52 + 1, 0.0)
    res = alpha_real([7.923899270158659, 7.1])
    assert res.alpha == 8.0 + res.b == 8.923899270158659
    # at offset 0.0 the cost is the integer itself, whatever the order
    # and size of the integral weights (an integer k = target - floor(w)
    # above 2^53 would round before the sum)
    for ws in ([-2.0**60, 0.0], [-2.0**53 - 2, 0.0], [0.0, -2.0**60]):
        for fn in (alpha_real, alpha_real_new):
            res = fn(ws)
            assert res.alpha == res.int_cost + res.b == 1.0


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
    b, target, depths, _ = unsqueezed_sorted(ws)
    res = alpha_real_sorted(ws)
    assert (res.b, res.int_cost, res.depths) == (b, target, depths)
    assert res.alpha == target + b
    # the same bisection over the kept fracs finds the same answer and
    # makes the same probes
    *kept, probes = unsqueezed_sorted(ws, kept_fracs(ws))
    assert kept == [b, target, depths]
    assert res.instrumentation["probes"] == probes
    other = alpha_real_new(ws)
    assert (other.alpha, other.b, other.depths) == (res.alpha, b, depths)
    if len(ws) <= 12:
        assert res.alpha == alpha_real_oracle(ws)
    certify(ws, res)
    certify(ws, other)


@settings(max_examples=300, deadline=None)
@given(weight_lists)
@example([-1e-20, 0.5])
@example([2.0])
def test_target_pass_walks_the_floors(ws):
    # no frac is above 1.0, nor above the largest, so at either offset
    # no floor is raised: the target, the fold pass over the floors, is
    # the pass at 1.0 and at the largest frac
    seq = WeightSeq(ws)
    assert seq.floors == [math.floor(w) for w in ws]
    got = _fold_pass(seq.floors, seq.fracs)[:2]
    assert got == _bottom_entry(seq.floors, seq.fracs, [1] * seq.n, 1.0)
    assert got == bottom_entry(seq.floors) == bottom_entry(seq.adjusted(max(seq.fracs)))


def _check_fold(ws):
    # the fold pass against code it shares nothing with: its target is
    # a LevelTree's bottom entry over the floors, its items the raw ones
    # with each run of reference_fold replaced by (y, 0.0, 1), down to
    # the type of each frac, and at 1.0 and at every distinct frac the
    # folded items end in the raw levels' bottom entry.  No position at
    # the largest floor is folded.  Returns the runs
    seq = WeightSeq(ws)
    t, a, items, kept = _fold_pass(seq.floors, seq.fracs)
    assert (t, a) == bottom_entry(seq.floors)
    runs = reference_fold(seq.floors)
    want_l, want_f, want_kept, j = [], [], [], 0
    for start, end, y in runs + [(seq.n, seq.n, None)]:
        want_l += seq.floors[j:start] + [y] * (y is not None)
        want_f += seq.fracs[j:start] + [0.0] * (y is not None)
        want_kept += seq.fracs[j:start]
        j = end
    assert repr(items) == repr((want_l, want_f, [1] * len(want_l)))
    assert repr(kept) == repr(want_kept)
    top = max(seq.floors)
    assert all(seq.floors[i] < top for start, end, _ in runs for i in range(start, end))
    for b in sorted(set(seq.fracs)) + [1.0]:
        assert _bottom_entry(*items, b) == bottom_entry(seq.adjusted(b)), b
    return runs


@settings(max_examples=400, deadline=None)
@given(weight_lists)
# integral walls around a run that folds, and around one position,
# which does not
@example([9.0, 0.5, 0.25, 9.0])
@example([9.0, 0.5, 9.0])
# a fold nested in a fold, and a run that costs one too many to fold
@example([9.0, 0.5, 0.25, 5.0, 0.75, 9.0])
@example([2.0, 0.5, 0.25, 0.75, 2.0])
def test_fold_pass_is_exact_at_every_offset(ws):
    _check_fold(ws)


def test_fold_pass_is_exact_on_long_wide_inputs():
    # long inputs whose ceilings lie 3 to 20 apart, with integral
    # weights and tied fracs: runs fold inside runs, and the search's
    # answer must come out as without the fold
    rng = random.Random("fold:wide")
    folded = 0
    for _ in range(12):
        n = rng.randint(300, 1500)
        gap = rng.choice([3, 5, 8, 20])
        pool = [rng.choice([0.0, 0.5, 1e-12, 1 - 1e-12, rng.random()]) for _ in range(3)]
        ceils = [gap * rng.randint(0, rng.choice([2, 6, 20])) for _ in range(n)]
        fracs = [rng.choice(pool) if rng.random() < 0.3 else rng.random() for _ in range(n)]
        ws = [c - 1 + f if f else float(c) for c, f in zip(ceils, fracs)]
        folded += sum(end - start for start, end, _ in _check_fold(ws))
        res = alpha_real(ws)
        assert res.b in kept_fracs(ws)
        _same_answer(res, ws)
        certify(ws, res)
    assert folded > 0


@pytest.mark.parametrize("ws", [
    # integral walls around folded runs
    [9.0, 0.5, 9.0],
    [9.0, 0.5, 0.25, 9.0, 1.75, 1.5, 9.0],
    [-3.0, -9.5, -9.25, -3.0, -8.125, -8.5, -8.75, -3.0],
    # everything folds but the integral walls, so the answer is 0.0,
    # and one frac kept among walls
    [9.0, 0.3, 0.7, 9.0, 0.1, 0.9, 0.5, 9.0],
    [9.0, 0.3, 0.7, 9.0, 8.5, 9.0, 0.1, 0.9, 9.0],
    # n = 1, all-integral input and near-integer fracs
    [5.5], [-0.0], [3.0, 3.0, 1.0, 3.0], [7.0] * 5,
    [9.0, 1 - 1e-12, 1e-12, 9.0, 1 - 1e-15, 9 - 1e-12],
    [-1e-20, 5.0, -1e-20, -1e-20, 5.0],
    # huge magnitudes, around folded runs and as the walls
    [2.0**40, 0.5, 0.25, 2.0**40, 3.5, 2.0**40],
    [2.0**51, 3.5, 3.25, 2.0**51 + 0.5, 7.5, 7.75, 2.0**51],
    [-2.0**60, 0.5, 0.25, 0.0],
])
def test_fold_keeps_the_answer_among_kept_fracs(ws):
    # the lemma of realweight's module docstring: the answer is a kept
    # position's frac, so the search over the kept fracs alone finds
    # the optimal offset, certified by static_witness; the two
    # strategies agree, and the fold is exact
    _check_fold(ws)
    res = alpha_real(ws)
    assert res.b in kept_fracs(ws)
    certify(ws, res)
    new = alpha_real_new(ws)
    assert (res.alpha, res.b, type(res.b), res.depths) == (new.alpha, new.b, type(new.b), new.depths)
    if len(ws) <= 12:
        assert res.alpha == alpha_real_oracle(ws)


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
        assert res.instrumentation["probes"] <= _search_probe_bound(ws), ws


def _search_probe_bound(ws):
    # The target and the witness, plus the search's probes, bounded in
    # realweight's module docstring: at most one per distinct offset but
    # the largest, each probing an offset strictly inside the bracket,
    # and at most 2H + 2, where H = L(m + 1) + L(n), with L = ceil_log2,
    # bounds the halvings in the sample of m values (none below n =
    # 4096) and in the sorted fracs; the offsets and n are the kept
    # positions'
    fracs = kept_fracs(ws)
    n = len(fracs)
    offsets = len(set(fracs))
    m = -(-n // _SAMPLE_STRIDE) if n >= 4096 else 0
    return 2 + min(offsets - 1, 2 * (ceil_log2(m + 1) + ceil_log2(n)) + 2)


def _probe_item_bound(n, nlevels):
    # The target and the witness walk n items each.  Before bisection
    # probe j at most u_j positions are undecided, with u_1 <= n and
    # u_{j+1} <= ceil(u_j / 2), and probe j walks at most n items: fewer
    # than _SQUEEZE_RUN * u_j when the search did not squeeze after the
    # last probe, and after a squeeze at most u_j undecided items plus,
    # for each of the u_j + 1 runs between them, twice the run's
    # distinct levels
    total, u = 2 * n, n
    while u >= 2:
        total += min(n, max(_SQUEEZE_RUN * u, u + 2 * nlevels * (u + 1)))
        u = (u + 1) // 2
    return total


def _window_items_within_bound(ws):
    # the item bound of realweight's module docstring, round by round:
    # the windows walk at most 4N items more than h probes over the N
    # items each window started from, summed over the windows, where N,
    # the items the fold pass leaves, is at most twice the kept
    # positions; returns the result and the rounds
    res, rounds = _replay(ws)
    seq = WeightSeq(ws)
    _, _, (levels, _, _), kept = _fold_pass(seq.floors, seq.fracs)
    assert len(levels) <= 2 * len(kept)
    windows = [r for r in rounds if r["edges"]]
    walked = sum(r["walked"] for r in windows)
    assert walked <= sum(r["h"] * r["N"] for r in windows) + 4 * len(levels), rounds
    assert all(r["budget"] >= 1 for r in windows)
    return res, rounds


def test_sorted_probe_item_budget():
    # 14 full passes (target, 12 probes, witness) would walk 14n items;
    # with the squeeze they walked about 7n, with one interpolated window
    # 3.7n to 4.4n, with a window in every round 3.0n to 3.3n, and with
    # the first read from a sample of every 8th frac 2.7n to 3.3n
    n = 2**12
    for seed in range(3):
        ws = generate_weights(random.Random(seed), n, 64)
        res = alpha_real_sorted(ws)
        assert res.instrumentation["probe_items"] <= 8 * n
        assert (res.b, res.int_cost, res.depths) == unsqueezed_sorted(ws)[:3]
        assert res.instrumentation["probes"] <= _search_probe_bound(ws)


@pytest.mark.parametrize("d", [1, 2, 8, 64])
@pytest.mark.parametrize("n", [2**8, 2**10, 2**12])
def test_counter_budgets(n, d):
    # partition_items <= 2n is the halving bound of the median search;
    # sets stay near n, finds below 3n (at most 2.95n here, as set
    # resolves each pointer once) and probe_items at most 3.7n on these
    # instances but 6.9n at n = 2^8, d = 64 (near 7n before the
    # interpolated windows)
    ws = generate_weights(random.Random(n + d), n, d)
    new = alpha_real_new(ws).instrumentation
    assert new["sets"] <= n
    assert new["finds"] <= 3 * n
    assert new["partition_items"] <= 2 * n
    assert alpha_real_sorted(ws).instrumentation["probe_items"] <= 8 * n


# squeeze inputs as the search makes them: a frac in [0, 1), a Fraction
# included, and a count above 1 only on an item of frac 0.0 (squeezed)
squeeze_fracs = st.sampled_from([0.0, 1e-12, 0.25, Fraction(1, 3), 0.5, 0.75, 1 - 1e-12])
squeeze_items = st.lists(
    st.tuples(st.integers(-4, 4), squeeze_fracs, st.integers(1, 6)), max_size=40
).map(lambda items: [(y, f, k if f == 0.0 else 1) for y, f, k in items])


@settings(max_examples=600, deadline=None)
@given(squeeze_items, squeeze_fracs, squeeze_fracs)
# every item decided: weighted, at or below flo, raised above fhi
@example([(2, 0.0, 3), (1, 0.0, 5), (2, 0.25, 1), (3, 0.75, 1), (2, 0.0, 2)], 0.5, 0.5)
# ties at flo, decided, and at fhi, undecided
@example([(1, 0.25, 1), (2, 0.5, 1), (0, 0.25, 1), (3, 0.5, 1)], 0.25, 0.5)
# an undecided item first and last, Fractions at both
@example([(1, Fraction(1, 3), 1), (3, 0.0, 4), (2, 0.25, 1), (2, 0.75, 1),
          (0, 0.0, 2), (1, Fraction(1, 3), 1)], 0.25, 0.5)
# a tie at a Fraction flo, decided, first and last
@example([(1, Fraction(1, 3), 1), (3, 0.0, 4), (2, 0.25, 1), (2, 0.75, 1),
          (0, 0.0, 2), (1, Fraction(1, 3), 1)], Fraction(1, 3), 0.5)
# flo = 0.0: a frac 0.0 stays decided, every positive frac up to fhi not
@example([(1, 0.0, 2), (2, 0.25, 1), (0, 0.0, 3), (1, 0.75, 1)], 0.0, 0.25)
# integral weights at flo = 0.0: every item decided, none raised
@example([(2, 0.0, 1), (1, 0.0, 1), (3, 0.0, 1), (1, 0.0, 1), (2, 0.0, 1)], 0.0, 0.0)
# Fraction bounds, with a tie at each
@example([(1, 0.25, 1), (2, Fraction(1, 3), 1), (0, 0.5, 1), (3, Fraction(2, 3), 1),
          (1, 0.75, 1)], Fraction(1, 3), Fraction(2, 3))
def test_one_pass_squeeze_matches_per_run(items, f1, f2):
    flo, fhi = min(f1, f2), max(f1, f2)
    args = [list(col) for col in zip(*items)] if items else [[], [], []]
    acc = {"squeeze_items": 0}
    got = _squeeze(*args, flo, fhi, acc)
    # identical lists, down to the type of each frac
    assert repr(got) == repr(per_run_squeeze(*args, flo, fhi))
    assert acc["squeeze_items"] == len(items)


@pytest.mark.parametrize("d", [1, 2, 8, 64, "n"])
def test_work_within_derived_bounds(d):
    # Counter bounds that follow from the algorithms, for any instance:
    # - sorted (realweight's module docstring): it sorts each fractional
    #   part at most once, the sample of every 8th one included; it makes
    #   at most _search_probe_bound probes; and its windows walk at most
    #   4n items more than h probes over the N items each window started
    #   from, h being the halvings of the bracket it gained, checked
    #   window by window on the replayed search.  Its probes also walk
    #   within _probe_item_bound, and it makes at most 4 + L(n) probes
    #   past the target and the witness, the bounds of the earlier
    #   rules: derived for the bisection alone, with the windows they
    #   are only checked;
    # - new: it sorts nothing and runs no fold pass: its static passes
    #   are the target's and the witness's.  Each round keeps at most
    #   half its items, so R = floor(log2 n) + 1 rounds partition at most
    #   2n - 1 items.  A round sets the items below its median, at most
    #   half, and those at it, at most the largest multiplicity of one
    #   frac.
    #   A set makes at most 16 finds in its surgery plus one per node
    #   its load update climbs through, and a path holds at most one
    #   node per level a node can take, ceil(w_i) or ceil(w_i) - 1; each
    #   cost() makes two.
    # The climb bound is loose where the levels are many (d = n).
    for n in (2**10, 2**11, 2**12, 2**13, 2**14):
        rng = random.Random("bounds:%d:%s" % (n, d))
        seq = WeightSeq(generate_weights(rng, n, n if d == "n" else d))
        nlevels = len(set(seq.ceils) | {c - 1 for c in seq.ceils})
        rounds = n.bit_length()
        ties = max(Counter(seq.fracs).values())
        got = alpha_real_sorted(seq).instrumentation
        assert got["probes"] <= _search_probe_bound(seq.weights), (n, got)
        assert got["probe_items"] <= _probe_item_bound(n, nlevels), (n, got)
        assert got["probes"] <= 2 + 4 + ceil_log2(n), (n, got)
        assert got["sort_items"] <= n, (n, got)
        _window_items_within_bound(seq.weights)
        got = alpha_real_new(seq).instrumentation
        assert got["sort_items"] == got["kept_items"] == 0, (n, got)
        assert (got["probes"], got["probe_items"]) == (2, 2 * n), (n, got)
        assert got["partition_items"] <= 2 * n - 1, (n, got)
        assert got["sets"] <= got["partition_items"] // 2 + ties * rounds, (n, got)
        assert got["finds"] <= (16 + nlevels) * got["sets"] + 2 * (rounds + 1), (n, got)


# wide weights: the ones above, magnitudes in every binade from 2^-60 up
# to just under 2^52, and tiny negatives, whose fractional parts round
wide_weights = st.one_of(
    weights,
    st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              st.integers(-59, 52)),
    st.builds(lambda m, e: -math.ldexp(m, e), st.floats(0.5, 1.0), st.integers(-60, -1)),
)
# two weights in (-2^-52, 0), one on each side of -2^-53: their
# fractional parts differ below 2^-53, so as floats they round to one
# value, or to neighbours
tied_weights = st.tuples(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
).map(lambda t: [-math.ldexp(1 + t[0], -53), -math.ldexp(1 - t[1], -53)])
wide_weight_lists = st.one_of(
    st.lists(wide_weights, min_size=1, max_size=12),
    st.tuples(tied_weights, st.lists(weights, min_size=1, max_size=3)).flatmap(
        lambda t: st.permutations(t[0] + t[1])
    ),
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
        assert 0 <= res.b < 1
        certify(ws, res)
        certify(ws, new)
    if len(ws) <= 12:
        exact = minimax_cost_by_dp([Fraction(w) for w in ws])
        if res is None:
            assert abs(exact) >= 2**52 and Fraction(float(exact)) != exact
        else:
            assert res.alpha == float(exact)


@settings(max_examples=600, deadline=None)
@given(squeeze_items.filter(len), squeeze_fracs, squeeze_fracs)
# ties at flo and at fhi, weighted items, a Fraction below the window
@example([(1, Fraction(1, 3), 1), (2, 0.5, 1), (0, 0.0, 4), (3, 0.5, 1),
          (1, 0.75, 1), (2, 0.75, 1), (0, Fraction(1, 3), 1)], 0.5, 0.75)
# every frac below the window, and none
@example([(2, 0.25, 1), (1, 0.0, 3), (3, 1e-12, 1)], 0.5, 0.75)
@example([(2, 0.75, 1), (1, 0.0, 3), (3, 0.5, 1)], 0.25, 0.5)
# a tie at flo, decided, between undecided items
@example([(2, 0.5, 1), (1, 0.25, 1), (3, 0.25, 1), (0, 0.5, 1), (2, 0.25, 1)], 0.25, 0.5)
# integral weights at flo = 0.0
@example([(2, 0.0, 1), (1, 0.0, 1), (3, 0.0, 1), (1, 0.0, 1), (2, 0.0, 1)], 0.0, 0.0)
# Fraction bounds, with a tie at each
@example([(1, 0.25, 1), (2, Fraction(1, 3), 1), (0, 0.5, 1), (3, Fraction(2, 3), 1),
          (1, 0.75, 1)], Fraction(1, 3), Fraction(2, 3))
# the fold's shapes: a single item, levels all rising (each item pops
# the bottom entry, so every squeezed item but the last is emitted) and
# all falling (every item stays on the stack), and weighted items
@example([(2, 0.25, 1)], 0.5, 0.5)
@example([(-3, 0.0, 1), (-1, 0.75, 1), (1, 0.0, 2), (3, 0.25, 1)], 0.5, 0.5)
@example([(4, 0.25, 1), (2, 0.0, 3), (0, 0.75, 1), (-2, 0.0, 1)], 0.25, 0.5)
@example([(1, 0.0, 5), (3, 0.0, 2), (3, 0.0, 6), (0, 0.0, 4), (2, 0.5, 1), (4, 0.0, 3)],
         0.25, 0.75)
def test_squeezed_pass_is_exact_in_the_window(items, f1, f2):
    # the windowed search probes the items squeezed for [flo, fhi] at
    # both edges, flo = order[j - 1] and fhi, and the bisection inside
    # the range: each pass must end in the raw pass's bottom entry (t, a),
    # here a LevelTree over the items at b expanded to unit leaves
    flo, fhi = min(f1, f2), max(f1, f2)
    levels, fracs, counts = [list(col) for col in zip(*items)]
    sq = _squeeze(levels, fracs, counts, flo, fhi, {"squeeze_items": 0})
    for b in [f for f in fracs if flo <= f <= fhi] + [flo, fhi]:
        got = _bottom_entry(*sq, b)
        ref = bottom_entry([y + 1 if f > b else y for y, f in zip(levels, fracs)], counts)
        assert got == _bottom_entry(levels, fracs, counts, b) == ref, b
    with pytest.raises(LevelTreeError):
        _bottom_entry([], [], [], flo)


def skewed_weights(rng, n, late):
    # distinct fracs i / (n + 1); about half the weights on the late
    # (fracs above 1/2) or early side get ceiling 8, the rest ceilings in
    # [5, 7].  Lowering a ceiling-8 weight moves Q the most, so Q falls
    # late (or early) in the sorted order, away from the straight line
    # the search interpolates, and its first window misses low (or high).
    # The ceilings lie close, so the fold pass keeps over 90% of the
    # positions (with ceilings in [-4, 0] it kept 30%, and the first
    # window held the answer on all of 8 late inputs of 512 weights)
    ws = []
    for i in range(1, n + 1):
        f = i / (n + 1)
        c = 8 if (f > 0.5) == late and rng.random() < 0.5 else rng.randint(5, 7)
        ws.append(c - 1 + f)
    rng.shuffle(ws)
    return ws


def _no_window(ws):
    # the inputs on which the sorted search tries no window: a target
    # load below _SQUEEZE_RUN, or at most 2 distinct offsets
    seq = WeightSeq(ws)
    order = sorted(seq.fracs)
    a = bottom_entry(seq.adjusted(order[-1]))[1]
    return a < _SQUEEZE_RUN or len(set(order)) <= 2


def _search_input(seed, n, kind):
    rng = random.Random(seed)
    if kind in ("late", "early"):
        return skewed_weights(rng, n, kind == "late")
    if kind == "two offsets":
        fs = [rng.randrange(1, 2**20) / 2**20 for _ in range(2)]
        return [rng.randint(-4, 8) - 1 + rng.choice(fs) for _ in range(n)]
    d = n if kind == "n" else 2 if kind == "zero" else min(kind, n)
    ws = generate_weights(rng, n, d)
    if kind == "zero":
        ws[rng.randrange(n)] = float(rng.randint(-4, 4))
    return ws


def _replay(ws):
    # alpha_real's result on ws and its rounds, read off the sorts,
    # squeezes and probes it makes.  The first sort gives the list,
    # topped by the largest kept frac: every 8th kept frac from 4096 of
    # them, else all.  From a sample, the hand-over sorts the bracket's
    # kept fracs that the sample did not hold, none twice, and a last
    # sort merges them with the sample's own into the next list.  A
    # squeeze of the whole bracket prepares a round, a squeeze inside it
    # is a window's, followed by the probes of its edges that are not
    # the bracket's ends, and any other probe is a bisection's.  The
    # replay asserts what the module docstring states of every round:
    # each probe is a list value strictly inside the bracket and walks
    # the current items, a window's edges are list values in the bracket
    # or its ends, and a miss restores the items.  A round is a dict of
    # its "list" ("sample" or "sorted"), the bracket's "span" of values
    # in it, the "steps" by which Q falls across it, the windows'
    # "budget" before it (as the docstring counts it) and, for a window,
    # its "edges", the "width" of list values it holds, whether an edge
    # is an end of the bracket ("cut"), whether it squeezed items an
    # earlier squeeze made ("nested"), where the answer lay ("side":
    # "holds", or "low" or "high" of it), the items "N" it started from,
    # the items it "walked" and the halvings "h" it gained ("edges" is
    # None for a bisection round)
    seq = WeightSeq(ws)
    mod, log = alphatree.realweight, []
    real_target, real_squeeze, real_probe = mod._target, mod._squeeze, mod._probe
    folded = []

    def target(seq, acc):
        out = real_target(seq, acc)
        folded.append(out[2][0])
        log.append(("target",) + out)
        return out

    def squeeze(levels, fracs, counts, flo, fhi, acc):
        out = real_squeeze(levels, fracs, counts, flo, fhi, acc)
        log.append(("squeeze", (flo, fhi), len(levels), len(out[0]), levels is not folded[0]))
        return out

    def probe(levels, fracs, counts, b, acc):
        tb, ab = real_probe(levels, fracs, counts, b, acc)
        log.append(("probe", b, len(levels), tb, ab))
        return tb, ab

    def sort(values):
        # the list itself is logged: the search tops its sample up
        out = sorted(values)
        log.append(("sort", out))
        return out

    mod._target, mod._squeeze, mod._probe, mod.sorted = target, squeeze, probe, sort
    try:
        res = alpha_real(seq)
    finally:
        mod._target, mod._squeeze, mod._probe = real_target, real_squeeze, real_probe
        del mod.sorted
    assert res.instrumentation["squeeze_items"] == sum(e[2] for e in log if e[0] == "squeeze")
    # the first list's top is appended, not sorted, and the merge sorts
    # nothing afresh
    sorts = [len(e[1]) for e in log if e[0] == "sort"]
    assert res.instrumentation["sort_items"] == sum(sorts[:2]) - 1 and len(sorts) in (1, 3), sorts
    events = iter(log)
    # the fold pass comes first: the target over the n floors, the
    # folded items the search starts from, and the kept fracs, whose
    # sample the first list is from 4096 of them
    _, t, a, (levels, _, _), kept = next(events)
    assert (t, a) == bottom_entry(seq.floors)
    assert res.instrumentation["kept_items"] == len(kept)
    cap = 1 << ceil_log2(a)
    flo, fhi, q1, q2, items, kind = -1.0, 1.0, 2 * a, a, len(levels), None
    budget, rounds = (_BUDGET if a >= _SQUEEZE_RUN else 0), []

    def bracket():
        # the first list value in the bracket, and its top's first copy
        return bisect_right(values, flo), bisect_left(values, min(fhi, values[-1]))

    def decide(event, b=None):
        # a probe's event: at b if given, on the current items; moves an
        # end of the bracket to its offset, and returns whether it lay
        # below the answer
        nonlocal flo, fhi, q1, q2
        _, got, walked, tb, ab = event
        q = ab << (tb - t)
        assert event[0] == "probe" and walked == items and got == (got if b is None else b)
        lo, hi = bracket()
        assert got in values and flo < got < values[hi], (got, flo, fhi)
        if q > cap:
            flo, q1 = got, q
        else:
            fhi, q2 = got, q
        return q > cap

    for event in events:
        if event[0] == "sort":
            if kind is None:
                stride = _SAMPLE_STRIDE if len(kept) >= 4096 else 1
                assert event[1] == sorted(kept[::stride]) + [max(kept)]
                values, kind = event[1], "sample" if stride > 1 else "sorted"
                continue
            # the hand-over: with the sample's own values in the bracket,
            # the fracs it sorts are exactly the bracket's kept ones
            assert kind == "sample"
            own = [f for f in kept[::_SAMPLE_STRIDE] if flo < f <= fhi]
            rest, (_, merged) = event[1], next(events)
            assert sorted(rest + own) == sorted(f for f in kept if flo < f <= fhi), (flo, fhi)
            assert merged == sorted(values[bracket()[0]:bisect_right(values, fhi)] + rest)
            values, kind = merged, "sorted"
            continue
        lo, hi = bracket()
        span = hi - lo + 1
        if event[0] == "squeeze":
            _, (e0, e1), walked, squeezed, nested = event
            assert walked == items, event
            if e1 == fhi and e0 in (flo, values[lo]):
                items = squeezed
                continue
        rnd = {"list": kind, "span": span, "steps": q1 - q2, "budget": budget, "edges": None}
        rounds.append(rnd)
        if event[0] == "probe":
            decide(event)
            continue
        assert flo <= e0 < e1 <= fhi and {e0, e1} <= set(values) | {flo, fhi}, (e0, e1)
        width = (hi if e1 == fhi else bisect_left(values, e1)) - (
            lo - 1 if e0 == flo else bisect_right(values, e0) - 1)
        cut = e0 == flo or e1 == fhi
        outer, items, hit = items, squeezed, True
        if e1 != fhi:
            walked += squeezed
            hit = not decide(next(events), e1)
        if hit and e0 != flo:
            walked += squeezed
            hit = decide(next(events), e0)
        if not hit:
            items = outer
        h = (span - 1).bit_length() - (bracket()[1] - bracket()[0]).bit_length()
        side = "high" if res.b <= e0 else "low" if res.b > e1 else "holds"
        assert hit == (side == "holds")
        rnd.update(edges=(e0, e1), width=width, cut=cut, nested=nested,
                   side=side, N=outer, walked=walked, h=h)
        budget = min(_BUDGET, budget + h - walked / outer)
    lo, hi = bracket()
    assert lo == hi and res.b == values[lo]
    return res, rounds


def _windows(ws):
    # the result, each window's (nested, side) and the number of windows
    res, rounds = _replay(ws)
    sides = [(r["nested"], r["side"]) for r in rounds if r["edges"]]
    return res, sides, len(sides)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(16, 800),
       st.sampled_from([1, 2, 8, 64, "n", "late", "early", "zero", "two offsets"]))
def test_windowed_search_matches_bisection(seed, n, kind):
    # the same answer as the bisection with no window, down to the type
    # of b; where no window is tried, the same probes and items too
    ws = _search_input(seed, n, kind)
    res, ref = alpha_real(ws), bisected_sorted(ws)
    got = (res.alpha, res.b, type(res.b), res.int_cost, res.depths)
    assert got == (ref.alpha, ref.b, type(ref.b), ref.int_cost, ref.depths)
    assert res.instrumentation["probes"] <= _search_probe_bound(ws)
    if _no_window(ws):
        assert res.instrumentation == ref.instrumentation


@pytest.mark.parametrize("kind, missed", [("late", "low"), ("early", "high")])
def test_missed_windows_keep_the_answer(kind, missed):
    # Q falling late puts the first window below the answer, falling
    # early puts it above; a secant step from the missed edge places
    # the next window while the budget covers one, and bisection the
    # next probe otherwise
    for seed in range(4):
        ws = skewed_weights(random.Random(seed), 512, kind == "late")
        res, sides, _ = _windows(ws)
        assert sides[0] == (False, missed), sides
        ref = bisected_sorted(ws)
        assert (res.b, res.int_cost, res.depths) == (ref.b, ref.int_cost, ref.depths)
        assert res.instrumentation["probes"] <= _search_probe_bound(ws)


@pytest.mark.parametrize("missed", ["low", "high"])
def test_missed_nested_windows_keep_the_answer(missed):
    # a window inside one that held the answer interpolates between that
    # window's two edge probes, and can miss on either side; the items
    # from before its squeeze and a secant step place the next one
    # (at d = 2: at d = 64 the fold pass keeps about a tenth of the
    # positions, and no nested window missed on these seeds)
    misses = 0
    for seed in range(10):
        ws = _search_input(seed, 2048, 2)
        res, sides, _ = _windows(ws)
        misses += sides.count((True, missed))
        ref = bisected_sorted(ws)
        got = (res.alpha, res.b, type(res.b), res.int_cost, res.depths)
        assert got == (ref.alpha, ref.b, type(ref.b), ref.int_cost, ref.depths)
        assert res.instrumentation["probes"] <= _search_probe_bound(ws)
    assert misses, missed


@pytest.mark.parametrize("kind", ["n", "two offsets"])
def test_window_skip_cases(kind):
    # each rule that keeps the windows out, on an input where it alone
    # does: d = n, whose target load is below _SQUEEZE_RUN (4 at n =
    # 2^14), leaves them no budget, and two offsets leave the bracket
    # one value below its top, the largest frac.  With two offsets the
    # search probes as the bisection does, the lower offset alone, and
    # sorts the sample and the fracs of the answer's offset that it did
    # not hold (below 4096 kept fracs, as the 2620 of 2^12 weights here,
    # every kept frac at once); at d = n it bisects the sample first and
    # sorts only the fracs between two of its values and the sample
    for n in (2**12, 2**14):
        ws = _search_input(n, n, kind)
        assert _no_window(ws)
        seq = WeightSeq(ws)
        a = bottom_entry(seq.adjusted(max(seq.fracs)))[1]
        assert (a < _SQUEEZE_RUN) == (kind == "n"), a
        res, rounds = _replay(ws)
        assert not [r for r in rounds if r["edges"]], rounds
        got, ref = dict(res.instrumentation), dict(bisected_sorted(ws).instrumentation)
        if kind == "two offsets":
            below = max((f for f in set(seq.fracs) if f < res.b), default=-1.0)
            kept = kept_fracs(ws)
            sorts = (len(kept) if len(kept) < 4096 else
                     len(kept[::_SAMPLE_STRIDE]) + _unheld(ws, below, res.b))
            assert got.pop("sort_items") == sorts <= len(kept) < n
            ref.pop("sort_items")
            assert got == ref
        else:
            assert got["sort_items"] < n / 4, got
            assert got["probes"] <= _search_probe_bound(ws)
        _same_answer(res, ws)


def test_integral_weight_keeps_the_windows():
    # one integral weight gives offset 0 a copy, but below every frac
    # each floor is still raised, so Q = 2a anchors the first window
    # as before and the search tries windows on these inputs (4096
    # weights walked 9445 items, against 27825 for the bisection)
    for n in (2**12, 2**14):
        ws = _search_input(n, n, "zero")
        assert min(WeightSeq(ws).fracs) == 0.0 and not _no_window(ws)
        res, _, tried = _windows(ws)
        assert tried, n
        ref = bisected_sorted(ws)
        assert (res.b, res.int_cost, res.depths) == (ref.b, ref.int_cost, ref.depths)
        assert res.instrumentation["probe_items"] < ref.instrumentation["probe_items"], n


@pytest.mark.parametrize("d", [2, 64])
def test_rounding_one_weight_costs_no_probe_work(d):
    # weights as the benchmark's real-* workloads draw them (ceilings 0,
    # 3, ..., 3(d - 1), distinct fractions k / 2^40): rounding the first
    # weight to an integer makes 0 an offset and changes one floor, and
    # the search keeps its windows (windows switched off by a zero frac
    # walked 1.9x to 2.7x).  The zero moves the sample by one value, so
    # a window can land a little apart: 0.997x to 1.001x the items here
    for seed in range(2):
        rng = random.Random("rounded:%d:%d" % (seed, d))
        n = 2**14
        ceils = [3 * rng.randrange(d) for _ in range(n)]
        ws = [c - 1 + k / 2**40 for c, k in zip(ceils, rng.sample(range(1, 2**40), n))]
        items = alpha_real(ws).instrumentation["probe_items"]
        ws[0] = float(round(ws[0]))
        res = alpha_real(ws)
        assert res.instrumentation["probe_items"] <= 1.1 * items, (seed, d)
        assert res.instrumentation["probes"] <= _search_probe_bound(ws)


@pytest.mark.parametrize("d", [1, 2, 8, 64])
def test_window_walks_fewer_items_than_bisection(d):
    # a window that never held the answer would walk more items than
    # the bisection alone, not fewer
    for n in (2**12, 2**13, 2**14):
        ws = generate_weights(random.Random("window:%d:%d" % (n, d)), n, d)
        got = alpha_real(ws).instrumentation["probe_items"]
        assert got < bisected_sorted(ws).instrumentation["probe_items"], (n, d)


@pytest.mark.parametrize("kind,worst", [
    ("integral", 1.15), ("few offsets", 1.55), ("near-uniform", 1.25)])
def test_missed_windows_cost_is_bounded(kind, worst):
    # inputs where interpolating by index places windows badly.  About
    # 30% integral weights (Q falls sharply at offset 0, off the line
    # from 2a) and 3 to 12 offsets with many copies each (one offset can
    # hold half the indices): missed windows there can walk more probe
    # items than the bisection alone; this pins by how much (1.09x and
    # 1.51x at most over these 100 inputs each) and that the windows
    # still save work over all of them (0.75x and 0.77x).  The
    # near-uniform code weights of build_code (8 inputs each at 2^12 and
    # 2^14 symbols): Q is convex in the rank there, so the first windows
    # miss high, by about a third of the fracs, while the answer sits on
    # a plateau of Q near the cap.  The budget lets two of them miss,
    # and probe plus squeeze plus sort items come to 1.03x-1.20x the
    # bisection's, short of the aim of no more than the bisection's
    if kind == "near-uniform":
        inputs = [ws for _, ws in near_uniform_inputs()]
    else:
        inputs = []
        for i in range(100):
            rng = random.Random("%s:%d" % (kind, i))
            n = rng.randint(64, 3000)
            if kind == "integral":
                inputs.append(random_real_weights(rng, n))
            else:
                pool = [rng.choice([0.0, 0.5, rng.random()]) for _ in range(rng.randint(3, 12))]
                pairs = ((rng.randint(-8, 4), rng.choice(pool)) for _ in range(n))
                inputs.append([c - 1 + f if f else float(c) for c, f in pairs])
    keys = (["probe_items", "squeeze_items", "sort_items"] if kind == "near-uniform"
            else ["probe_items"])
    got = ref = 0
    for i, ws in enumerate(inputs):
        if kind == "near-uniform":
            _window_items_within_bound(ws)
        g = sum(alpha_real(ws).instrumentation[key] for key in keys)
        r = sum(bisected_sorted(ws).instrumentation[key] for key in keys)
        assert g <= worst * r, (i, g, r)
        got, ref = got + g, ref + r
    if kind != "near-uniform":
        assert got <= 0.85 * ref, (got, ref)


def _same_answer(res, ws):
    # alpha, b and its type, int_cost and depths, against the bisection
    # with no window and against the live tree's search
    got = (res.alpha, res.b, type(res.b), res.int_cost, res.depths)
    for ref in (bisected_sorted(ws), alpha_real_new(ws)):
        assert got == (ref.alpha, ref.b, type(ref.b), ref.int_cost, ref.depths), ref.strategy


def _sample_window(ws):
    # the sorted sample of every 8th kept fractional part, topped by the
    # largest, and the indices of the first window's two edges in it: w
    # values on from r - w/2, where r = s(2a - cap) / a - 1 is the index
    # interpolated between Q = 2a at the sentinel below every frac
    # (index -1) and Q = a at the top, the largest frac's first copy
    # (index s - 1), cut at either, the lower edge then stepped down
    # past its copies.  Across those s values Q falls a steps, so w is
    # 1/24 of them but at least four steps, and at most 1/4 of them
    fracs = kept_fracs(ws)
    a = bottom_entry(WeightSeq(ws).floors)[1]
    cap = 1 << ceil_log2(a)
    sample = sorted(fracs[::_SAMPLE_STRIDE]) + [max(fracs)]
    s = bisect_left(sample, sample[-1]) + 1
    w = min(max(s // _WINDOW, -(-4 * s // a)), s // 4)
    i = max(s * (2 * a - cap) // a - 1 - w // 2, -1)
    k = min(i + w, s - 1)
    return sample, bisect_left(sample, sample[i + 1], 0, i + 1) - 1 if i >= 0 else i, k


def _edge(sample, x):
    # the offset at index x of _sample_window's sample, or the bracket's
    # end at or past an end of it: the sentinel -1.0 or 1.0
    return -1.0 if x < 0 else 1.0 if x >= bisect_left(sample, sample[-1]) else sample[x]


def _unheld(ws, flo, fhi):
    # how many kept fracs in (flo, fhi] the sample of every 8th one did
    # not hold: the search sorts those and merges the sample's in
    fracs = kept_fracs(ws)
    inside = sum(1 for f in fracs if flo < f <= fhi)
    return inside - sum(1 for f in fracs[::_SAMPLE_STRIDE] if flo < f <= fhi)


def _squeezes(monkeypatch, ws):
    # the result, and for each squeeze of the search its (flo, fhi) and
    # the offsets probed after it, up to the next squeeze (a probe
    # before the first squeeze is left out)
    log = []
    real_squeeze, real_probe = alphatree.realweight._squeeze, alphatree.realweight._probe

    def squeeze(levels, fracs, counts, flo, fhi, acc):
        log.append(((flo, fhi), []))
        return real_squeeze(levels, fracs, counts, flo, fhi, acc)

    def probe(levels, fracs, counts, b, acc):
        if log:
            log[-1][1].append(b)
        return real_probe(levels, fracs, counts, b, acc)

    monkeypatch.setattr(alphatree.realweight, "_squeeze", squeeze)
    monkeypatch.setattr(alphatree.realweight, "_probe", probe)
    res = alpha_real(ws)
    monkeypatch.undo()
    return res, log


def stride_skewed_weights(rng, n, smallest):
    # ceilings 0 and 1 and distinct fractions k / 2^40, as the
    # benchmark's real-lowd draws them but with adjacent ceilings, so
    # that the fold pass keeps every position (a run of two or more
    # floors below y costs y or more); every 8th position holds the
    # ceil(n / 8) smallest fractions (or the largest), so the sorted
    # sample is those alone and every window read from it lies below
    # the answer (or above it)
    m = -(-n // _SAMPLE_STRIDE)
    fracs = sorted(rng.sample(range(1, 2**40), n))
    strided, rest = (fracs[:m], fracs[m:]) if smallest else (fracs[-m:], fracs[:-m])
    rng.shuffle(strided)
    rng.shuffle(rest)
    picks = iter(strided), iter(rest)
    return [rng.randrange(2) - 1 + next(picks[i % _SAMPLE_STRIDE > 0]) / 2**40
            for i in range(n)]


def test_sampled_window_hit_sorts_only_its_fracs(monkeypatch):
    # the first window's edges are sample values; when it holds the
    # answer, the search sorts the sample and then only the fracs in
    # (flo, fhi] that the sample did not hold, and merges the two.  At
    # 8192 weights: at 4096 the fold pass keeps fewer than 4096
    # positions on most seeds, and the search takes no sample
    for seed in (0, 1, 12):
        ws = generate_weights(random.Random(seed), 8192, 2)
        sample, i, k = _sample_window(ws)
        res, log = _squeezes(monkeypatch, ws)
        (flo, fhi), probed = log[0]
        assert (flo, fhi) == (_edge(sample, i), _edge(sample, k))
        assert probed == [fhi, flo]
        assert flo < res.b <= fhi, seed
        assert res.instrumentation["sort_items"] == len(sample) - 1 + _unheld(ws, flo, fhi)
        _, sides, tried = _windows(ws)
        assert sides[0] == (False, "holds") and tried, sides
        _same_answer(res, ws)


@pytest.mark.parametrize("d, seed, missed", [(8, 13, "low"), (64, 2, "high")])
def test_sampled_miss_takes_a_second_sampled_try(monkeypatch, d, seed, missed):
    # a missed first window leaves the bracket beyond its missed edge,
    # and where the miss gained a halving the budget still covers a
    # window, so the next one is read from the sample too, interpolated
    # between that edge's Q and the bracket's other end: its edges are
    # sample values or that edge, which is not probed again, and when
    # it holds the answer the search sorts only its fracs that the
    # sample did not hold.  The fold pass keeps 0.60n of the positions
    # of the d = 8 input and 0.13n of the d = 64 one, so they hold 8192
    # and 2^15 weights, for a sample of 4096 kept ones or more
    ws = generate_weights(random.Random(seed), 8192 if d == 8 else 2**15, d)
    sample, i, k = _sample_window(ws)
    res, log = _squeezes(monkeypatch, ws)
    (flo, fhi), probed = log[0]
    assert (flo, fhi) == (_edge(sample, i), _edge(sample, k))
    # an infeasible fhi decides the window without probing flo
    assert probed == ([fhi] if missed == "low" else [fhi, flo])
    assert (res.b > fhi) == (missed == "low") and (res.b <= flo) == (missed == "high")
    (flo2, fhi2), probed2 = log[1]
    if missed == "low":
        assert fhi <= flo2 and fhi not in probed2
    else:
        assert fhi2 <= flo and flo not in probed2
    assert {flo2, fhi2} <= set(sample) | {flo, fhi, -1.0, 1.0}
    assert flo2 < res.b <= fhi2
    assert res.instrumentation["sort_items"] == len(sample) - 1 + _unheld(ws, flo2, fhi2)
    _same_answer(res, ws)


def test_sampled_hit_nests_a_sampled_window(monkeypatch):
    # a sampled window that holds the answer still spans 8 sample values
    # or more where Q falls by few steps across it (d = 64 here), so the
    # next window is read from the sample too, inside the first; the sort
    # then takes only the inner window's fracs that the sample did not
    # hold.  The ceilings fall by position, so no floor lifts a run and
    # the fold pass keeps every position: of generate_weights' shuffled
    # ones at d = 64 it keeps about 7%, too few for a sample
    ws = sorted(generate_weights(random.Random(0), 2**14, 64), key=math.ceil, reverse=True)
    sample = sorted(kept_fracs(ws)[::_SAMPLE_STRIDE])
    res, log = _squeezes(monkeypatch, ws)
    (flo, fhi), _ = log[0]
    (flo2, fhi2), _ = log[1]
    assert {flo, fhi, flo2, fhi2} <= set(sample) | {-1.0, 1.0}
    assert flo <= flo2 < res.b <= fhi2 <= fhi
    assert res.instrumentation["sort_items"] == len(sample) + _unheld(ws, flo2, fhi2)
    ref = bisected_sorted(ws)
    got = (res.alpha, res.b, type(res.b), res.int_cost, res.depths)
    assert got == (ref.alpha, ref.b, type(ref.b), ref.int_cost, ref.depths)


@pytest.mark.parametrize("smallest, missed", [(True, "low"), (False, "high")])
def test_sampled_window_miss_sorts_the_side_beyond_it(monkeypatch, smallest, missed):
    # a sample of the smallest (largest) fracs puts every window read
    # from it below (above) the answer, and every bisection probe of the
    # sample too, at n = 4096 and at 2^14.  So the search sorts the
    # fracs beyond the last sample value it probed that the sample did
    # not hold, here every frac outside the sample: n in all, none twice
    for n in (4096, 2**14):
        for seed in range(2):
            ws = stride_skewed_weights(random.Random(seed), n, smallest)
            sample = sorted(kept_fracs(ws)[::_SAMPLE_STRIDE])
            res, log = _squeezes(monkeypatch, ws)
            (flo, fhi), probed = log[0]
            # an infeasible fhi decides the window without probing flo
            assert probed[:2] == ([fhi] if missed == "low" else [fhi, flo])
            res, rounds = _replay(ws)
            sampled = [r["edges"] for r in rounds if r["list"] == "sample" and r["edges"]]
            assert sampled, rounds
            for flo, fhi in sampled:
                assert {flo, fhi} <= set(sample) | {-1.0, 1.0}
                assert (res.b > fhi) == (missed == "low") and (res.b <= flo) == (missed == "high")
            assert res.instrumentation["sort_items"] == n
            _same_answer(res, ws)


@pytest.mark.parametrize("smallest", [True])
def test_sorted_fracs_take_windows_after_two_sampled_misses(smallest):
    # missed sampled windows that each narrow the bracket by a halving
    # or more keep the budget at a pass or more, so after the sample the
    # sorted fracs place windows by exact rank, and one holds the
    # answer: here after three sampled misses, for 0.35x-0.40x the probe
    # items of the bisection alone.  (On a sample of the largest fracs
    # the first sampled window misses without gaining a halving, which
    # spends the budget, and the search bisects: 1.44x.)
    for seed in range(2):
        ws = stride_skewed_weights(random.Random(seed), 2**14, smallest)
        res, rounds = _replay(ws)
        sampled = [r["side"] for r in rounds if r["list"] == "sample" and r["edges"]]
        assert len(sampled) >= 2 and set(sampled) == {"low"}, rounds
        assert any(r["side"] == "holds" for r in rounds if r["list"] == "sorted" and r["edges"])
        ref = bisected_sorted(ws)
        assert res.instrumentation["probe_items"] < 0.5 * ref.instrumentation["probe_items"]
        _same_answer(res, ws)


@pytest.mark.parametrize("end", ["top", "bottom"])
def test_sampled_window_takes_a_sentinel_edge(monkeypatch, end):
    # a window reaching past an end of the sample is cut at the
    # bracket's end there, whose Q is known (2a below every frac, a at
    # the largest), and its squeeze takes the sentinel -1.0 or 1.0 for
    # that edge, so the search probes only its other edge: one probe
    # fewer than a window of two sample values.  d = 1 gives a target
    # load of n: a power of two centres the window on the top rank, n =
    # 2^12 + 1 on rank 1.  Both windows hold the answer, and the sort
    # takes the sample and the fracs inside the window it did not hold
    n = 4096 if end == "top" else 4097
    for seed in range(2, 5):
        ws = generate_weights(random.Random(seed), n, 1)
        sample, i, k = _sample_window(ws)
        top = bisect_left(sample, sample[-1])
        assert (k == top, i == -1) == (end == "top", end == "bottom")
        res, log = _squeezes(monkeypatch, ws)
        (flo, fhi), probed = log[0]
        if end == "top":
            assert flo == sample[i] and fhi == 1.0 and probed == [flo]
        else:
            assert flo == -1.0 and fhi == sample[k] and probed == [fhi]
        assert flo < res.b <= fhi
        assert res.instrumentation["sort_items"] == len(sample) - 1 + _unheld(ws, flo, fhi)
        _same_answer(res, ws)


@pytest.mark.parametrize("case", ["tied at an end", "n < 4096"])
def test_sampled_window_falls_back_to_the_full_sort(case):
    # the inputs on which the search sorts every kept frac once (the
    # sample, then the rest, merged): below 4096 kept fracs there is no
    # sample (4095 weights of two ceilings keep 2559 here), and n
    # equal integral weights, whose fracs are all 0.0, leave the sample
    # no value below its top, the largest frac, so the sort alone finds
    # the answer, with no squeeze and no probe but the target's and the
    # witness's
    n, ws = {
        "tied at an end": (4096, [5.0] * 4096),
        "n < 4096": (4095, generate_weights(random.Random(1), 4095, 2)),
    }[case]
    kept = kept_fracs(ws)
    sample = sorted(kept[::_SAMPLE_STRIDE])
    assert (len(kept) >= 4096 and sample[0] == sample[-1]) == (case == "tied at an end")
    res = alpha_real(ws)
    assert res.instrumentation["sort_items"] == len(kept)
    if case == "tied at an end":
        assert res.instrumentation["probes"] == 2 and res.instrumentation["squeeze_items"] == 0
    _same_answer(res, ws)


@pytest.mark.parametrize("label, n", [("fraction10", 6000), ("integral70", 8192)])
def test_hand_over_sorts_every_copy_of_the_top_once(monkeypatch, label, n):
    # pooled offsets whose fold keeps 4096 to 6000 positions: the sample
    # brackets the answer below a value with hundreds of copies (the
    # Fraction frac of -1e-20 weights, 201 kept, and 0.0, 3439), so the
    # sample holds some of them, matched by value.  The hand-over sorts
    # the bracket's kept fracs less the sample's own, and the merge
    # holds every kept frac of the bracket, each copy of its top once,
    # with the sample's appended top where the bracket reaches it
    ws = next(w for lab, w in corpus_inputs() if (lab, len(w)) == (label, n))
    kept = kept_fracs(ws)
    assert 4096 <= len(kept) <= 6000
    lists = []

    def sort(values):
        lists.append(list(values))
        return sorted(values)

    monkeypatch.setattr(alphatree.realweight, "sorted", sort, raising=False)
    res = alpha_real(ws)
    monkeypatch.undo()
    sample, rest, merged = lists
    top = max(merged)
    flo = max((f for f in kept if f < min(merged)), default=-1.0)
    inside = [f for f in kept if flo < f <= top]
    assert sample == kept[::_SAMPLE_STRIDE] and inside.count(top) >= 200
    own = [f for f in sample if flo < f <= top]
    assert own.count(top) >= 10 and sorted(rest + own) == sorted(inside)
    assert sorted(merged) == sorted(inside + [top] * (top == max(kept)))
    assert res.instrumentation["sort_items"] == len(sample) + len(rest) <= len(kept)
    _replay(ws)
    _same_answer(res, ws)


def test_tied_sampled_window_probes_the_value_once():
    # a sampled window inside a block of equal fracs widens down past
    # the block, so one probe at the tied value decides all its copies,
    # and the search need not sort every frac.  20000 weights at
    # ceilings -1 to 1, 30% of them integral, put the first window in
    # their block of 0.0 fracs, whose lower edge is then the bracket's
    # bottom end: the search probes 0.0 alone and sorts 7688 fracs.
    # (The corpus's integral30 input at n = 20000, ceilings -8 to 8,
    # showed this until the fold pass, which keeps 56% of its positions
    # and moves its first window out of the block)
    ws = random_real_weights(random.Random("tied:0"), 20000, -1, 1, 0.3)
    sample, i, k = _sample_window(ws)
    res, rounds = _replay(ws)
    assert rounds[0]["edges"] == (_edge(sample, i), _edge(sample, k))
    assert i < 0 and sample[0] == sample[k] == 0.0, (i, k)
    assert rounds[0]["side"] == "holds"
    assert res.instrumentation["sort_items"] < len(ws) / 2, res.instrumentation
    assert res.instrumentation["probes"] == 3
    _same_answer(res, ws)


@pytest.mark.parametrize("d, seed, edge, touches", [
    (4, 71, "top", True), (4, 1985, "top", False),
    (5, 142, "bottom", True), (5, 1418, "bottom", False),
])
def test_sample_end_rule_at_its_boundary(monkeypatch, d, seed, edge, touches):
    # both sides of the end rule's boundary take a sampled window: an
    # edge past the sample's last (first) value is the sentinel there,
    # one on that value is the value.  Each window holds the answer.
    # At 8192 weights, of which the fold pass keeps 4096 or more
    ws = generate_weights(random.Random(seed), 8192, d)
    sample, i, k = _sample_window(ws)
    top = bisect_left(sample, sample[-1])
    assert (top - k if edge == "top" else i + 1) == (0 if touches else 1)
    res, log = _squeezes(monkeypatch, ws)
    (flo, fhi), _ = log[0]
    assert (flo, fhi) == (_edge(sample, i), _edge(sample, k))
    assert (fhi == 1.0 if edge == "top" else flo == -1.0) == touches
    assert flo < res.b <= fhi
    assert res.instrumentation["sort_items"] == len(sample) - 1 + _unheld(ws, flo, fhi)
    _same_answer(res, ws)


@pytest.mark.parametrize("d", [2, 8])
def test_sampled_window_sorts_few_fracs(d):
    # at n = 2^14 the sample places the first window on every input, and
    # the sort takes the sample, n/8, and the fracs of one window that it
    # did not hold, or after missed windows those of the bracket left
    # when a window spans fewer than 8 sample values: 0.13n to 0.17n here
    n = 2**14
    got = sorted(alpha_real(generate_weights(random.Random(s), n, d)).instrumentation["sort_items"]
                 for s in range(12))
    assert got[-1] < n / 2 and got[6] < n / 4, got


def test_sampled_first_window_misses_rarely():
    # weights as the benchmark's real-lowd draws them (ceilings 0 and 3,
    # distinct fractions k / 2^40), at n = 2^14.  The rank of a sample
    # value near the middle scatters by about sqrt(stride * n) / 2, 256
    # ranks for a sample of every 16th frac, three quarters of half the
    # first window (1/24 of the sample, n / 24 ranks): that window misses
    # the answer on 21 of these 96 inputs, and one from every 8th, as
    # now, on 9
    n, misses = 2**14, 0
    for seed in range(96):
        rng = random.Random("first window:%d" % seed)
        ceils = [3 * rng.randrange(2) for _ in range(n)]
        ws = [c - 1 + k / 2**40 for c, k in zip(ceils, rng.sample(range(1, 2**40), n))]
        _, sides, _ = _windows(ws)
        misses += sides[0] != (False, "holds")
    assert misses <= 30, misses


@pytest.mark.parametrize("kind", ["real-highd", "d = 1024"])
def test_every_window_obeys_the_width_rule(kind):
    # every window holds the values the rule gives for the bracket it
    # was cut from (1/24 of them, at least four Q steps' worth, at most
    # 1/4), or fewer where it is cut at an end of the bracket, in the
    # sample while a window spans a stride of its values, then in the
    # sorted fracs, and is tried only while the budget covers it; the
    # windows walk within the docstring's item bound.  On perfbench's
    # real-highd shape (target load about 530) the 1/24 width sets the
    # first window; at d = 1024 (load about 40) the four Q steps do.
    # The fold pass keeps fewer than 4096 positions on both, so the
    # first list is the kept fracs, sorted.  The fracs are distinct, so
    # no edge steps down past copies
    n = 2**14
    if kind == "real-highd":
        rng = random.Random("width:highd")
        ceils = [3 * rng.randrange(64) for _ in range(n)]
        ws = [c - 1 + k / 2**40 for c, k in zip(ceils, rng.sample(range(1, 2**40), n))]
    else:
        ws = generate_weights(random.Random("width:1024"), n, 1024)
    seq = WeightSeq(ws)
    assert len(set(seq.fracs)) == n
    a = bottom_entry(seq.floors)[1]
    kept = kept_fracs(ws)
    res, rounds = _window_items_within_bound(ws)
    windows = [r for r in rounds if r["edges"]]
    for r in windows:
        w = min(max(r["span"] // _WINDOW, -(-4 * r["span"] // r["steps"])), r["span"] // 4)
        assert r["width"] == w or r["cut"] and r["width"] < w, r
    first = windows[0]
    assert first is rounds[0] and first["list"] == "sorted" and first["steps"] == a
    assert first["span"] == len(kept) < 4096
    quarter, steps = first["span"] // _WINDOW, -(-4 * first["span"] // a)
    assert first["width"] == (quarter if kind == "real-highd" else steps) > min(quarter, steps)
    _same_answer(res, ws)


CORPUS_ANSWERS_SHA256 = "fdc433f9fe93461507c130542a5ab7aa113e91997a13162e15575c350ad13432"
CORPUS_COUNTERS_SHA256 = "459dcdc3bcba343e4b1c3c1add3be78e6fa8ee1d1c661880ee195204f22b1bae"


def test_answer_corpus_is_pinned():
    # alpha_real on every corpus input (tests/helpers.py) hashes its
    # answers (alpha, b, type(b), int_cost, depths) to one recorded
    # digest and its counters to another: a change to the search's work
    # moves only the second, re-recorded with the rows that moved
    # (python tests/helpers.py prints them), while a change to the first
    # is a wrong answer.  Every answer is certified optimal, the live
    # tree's search must agree up to n = 4097, and the rational DP
    # wherever it can run.  No frac is sorted twice, so at most n are
    # sorted
    answers, counters = hashlib.sha256(), hashlib.sha256()
    for label, ws in corpus_inputs():
        res = alpha_real(ws)
        certify(ws, res)
        assert res.instrumentation["sort_items"] <= len(ws), label
        got = (res.alpha, res.b, type(res.b).__name__, res.int_cost, res.depths)
        answers.update(repr(got).encode())
        counters.update(json.dumps(res.instrumentation, sort_keys=True).encode())
        if len(ws) <= 4097:
            new = alpha_real_new(ws)
            assert (new.alpha, new.b, type(new.b).__name__, new.int_cost, new.depths) == got
        if len(ws) <= 12:
            assert res.alpha == float(minimax_cost_by_dp([Fraction(w) for w in ws])), label
    assert answers.hexdigest() == CORPUS_ANSWERS_SHA256
    assert counters.hexdigest() == CORPUS_COUNTERS_SHA256
