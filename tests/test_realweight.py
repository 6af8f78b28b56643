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
import alphatree.realweight
from alphatree.leveltree import (
    _bottom_entry,
    _fold_pass,
    _squeeze_pass,
    ceil_log2,
    static_cost,
    static_witness,
)
from alphatree.realweight import (
    _BUDGET,
    _SAMPLE_STRIDE,
    _SQUEEZE_RUN,
    _WINDOW,
    alpha_real_oracle,
    alpha_real_sorted,
    select_kth,
)
from alphatree.cli import generate_weights
from helpers import (
    bisected_sorted,
    bottom_entry,
    certify,
    check_answer,
    corpus_inputs,
    kept_fracs,
    near_uniform_inputs,
    per_run_squeeze,
    perfbench_real_inputs,
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
    for ws, alpha, b in (([0.5], 0.5, 0.5), ([1.2, 0.3], 2.2, 1.2 - 1),
                         ([0.9, 0.1, 0.9], 2.9, 0.9), ([3.0, 1.0, 2.0], 4.0, 0.0)):
        res = check_answer(ws)
        assert (res.alpha, res.b) == (alpha, b), ws


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
    assert check_answer(ws).alpha == alpha


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
            late = RealCostResult(tree_cost(depths, ws), b, cost, depths, "sorted", [])
            with pytest.raises(AssertionError, match="a smaller offset is feasible"):
                certify(ws, late)


def test_real_oracle_examples():
    assert alpha_real_oracle([0.5]) == 0.5
    assert alpha_real_oracle([0.9, 0.1, 0.9]) == 2.9
    assert alpha_real_oracle([3.0, 1.0, 2.0]) == 4.0


def test_zero_offset_with_mixed_integrals():
    # an integral weight makes 0 a legal offset, and here the best one
    res = check_answer([0.5, 10.0])
    assert (res.alpha, res.b) == (11.0, 0.0)
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
        check_answer(ws)
        new = alpha_real_new(ws)
        assert repr(new.b) == "0.0", ws
        acc = new.instrumentation
        if all(w == int(w) for w in ws):
            assert (acc["partition_items"], acc["sets"]) == (len(ws), 0), ws
        else:
            assert acc["sets"] == acc["undos"], ws
    assert alpha_real_new([3.0, 0.1, 0.2, 0.3, 0.4]).instrumentation["sets"] == 2


def test_cost_monotone_in_offset():
    # the search strategies both rest on this
    from alphatree import LevelTree

    rng = random.Random(17)
    for _ in range(60):
        seq = WeightSeq(random_real_weights(rng, rng.randint(1, 10)))
        costs = [LevelTree(seq.adjusted(b)).cost() for b in sorted(seq.fracs)]
        assert all(x >= y for x, y in zip(costs, costs[1:]))


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
        res = check_answer(ws)
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
    res = check_answer(ws)
    assert (res.b, res.int_cost, res.depths) == (b, target, depths)
    assert res.alpha == target + b
    # the same bisection over the kept fracs finds the same answer and
    # makes the same probes
    *kept, probes = unsqueezed_sorted(ws, kept_fracs(ws))
    assert kept == [b, target, depths]
    assert res.instrumentation["probes"] == probes


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
    # the optimal offset, checked by check_answer, and the fold is exact
    _check_fold(ws)
    assert check_answer(ws).b in kept_fracs(ws)


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
        res, _ = _replay(ws)
        assert (res.b, res.int_cost, res.depths) == (b, target, depths), ws


def _search_probe_bound(fracs):
    # The target and the witness, plus the search's probes, bounded in
    # realweight's module docstring: at most one per distinct offset but
    # the largest, each probing an offset strictly inside the bracket,
    # and at most 2H + 2, where H = L(m + 1) + L(n), with L = ceil_log2,
    # bounds the halvings in the sample of m values (none below n =
    # 4096) and in the sorted fracs; fracs are the kept positions'
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


def test_sorted_probe_item_budget():
    # 14 full passes (target, 12 probes, witness) would walk 14n items;
    # with the squeeze they walked about 7n, with one interpolated window
    # 3.7n to 4.4n, with a window in every round 3.0n to 3.3n, and with
    # the first read from a sample of every 8th frac 2.7n to 3.3n
    n = 2**12
    for seed in range(3):
        ws = generate_weights(random.Random(seed), n, 64)
        res, _ = _replay(ws)
        assert res.instrumentation["probe_items"] <= 8 * n
        assert (res.b, res.int_cost, res.depths) == unsqueezed_sorted(ws)[:3]


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
    got = _squeeze_pass(*args, flo, fhi)
    # identical lists, down to the type of each frac
    assert repr(got) == repr(per_run_squeeze(*args, flo, fhi))


@pytest.mark.parametrize("d", [1, 2, 8, 64, "n"])
def test_work_within_derived_bounds(d):
    # Counter bounds that follow from the algorithms, for any instance:
    # - sorted (realweight's module docstring): it sorts each fractional
    #   part at most once, the sample of every 8th one included, and
    #   the replay checks the docstring's probe bound and window item
    #   bound.  Its probes also walk within _probe_item_bound, and it makes at most 4 + L(n) probes
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
        got = _replay(seq.weights)[0].instrumentation
        assert got["probe_items"] <= _probe_item_bound(n, nlevels), (n, got)
        assert got["probes"] <= 2 + 4 + ceil_log2(n), (n, got)
        assert got["sort_items"] <= n, (n, got)
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
    check_answer(ws)


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
    sq = _squeeze_pass(levels, fracs, counts, flo, fhi)
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
    # alpha_real's result on ws and its rounds, from a model of its loop
    # run in lockstep with its trace.  From its own list, bracket, Q
    # values, budget and item count, the model predicts each step the
    # loop must take and asserts that the trace took it, naming the
    # rule where it did not.  The rules (realweight's module docstring):
    # - the fold pass's target over the n floors, then the kept fracs;
    #   the first list is every stride-th kept frac, sorted, topped by
    #   the largest, the stride 8 from 4096 kept fracs, else 1;
    # - the hand-over, exactly when the list is the sample and the
    #   bracket holds one value or the window width w is under a
    #   stride: it sorts the bracket's kept fracs that the sample did
    #   not hold, none twice, and merges them with the sample's own;
    # - the round squeeze, exactly when 16 * stride * span <= items:
    #   from flo on the sample, from the bracket's first value on the
    #   sorted fracs, up to fhi;
    # - a window, exactly when the budget holds a pass, the bracket 48
    #   values or more and two offsets below its top, and a hit would
    #   gain two halvings: its squeeze at the rule's edges (the
    #   interpolated rank r, the width w, the lower edge stepped down
    #   past copies, each edge cut at a bracket end it reaches), then
    #   the probe of its upper edge and, if that was feasible, of its
    #   lower edge, an edge at a bracket end unprobed; a miss restores
    #   the items;
    # - otherwise a bisection probe at the bracket's middle value.
    # Every probe and squeeze walks the current items, and the witness's
    # pass at the answer ends the trace.  Then the docstring's bounds
    # hold: the fold leaves N <= 2n items, the windows walk at most 4N
    # items more than h passes over the items each window started from
    # (h the halvings it gained), and the probes are within
    # _search_probe_bound.  A round is a dict of its "list" ("sample" or
    # "sorted"), the bracket's "lo" and "hi" in it, the "steps" by which
    # Q falls across it, the offsets "probed" and, for a window, the
    # rule's indices "i" and "k", its "edges", whether it squeezed
    # items an earlier squeeze made ("nested") and where the answer lay
    # ("side": "holds", or "low" or "high" of it); "edges" is None for a
    # bisection round.  The hand-over is {"list": "hand-over", "edges":
    # None} with the "bracket" (flo, fhi): it sorted the kept fracs in
    # (flo, fhi] that the sample did not hold
    seq = WeightSeq(ws)
    res = alpha_real(seq)
    trace, pos = res.trace, 0
    _, _, (levels, _, _), kept = _fold_pass(seq.floors, seq.fracs)
    t, a = bottom_entry(seq.floors)

    def expect(rule, *want):
        # the next event, whose leading fields must be want
        nonlocal pos
        event = trace[pos]
        assert event[:len(want)] == want, "%s: the trace has %r, the rule %r" % (rule, event, want)
        pos += 1
        return event

    def probe(x, rule):
        # as the loop's probe: moves lo past the copies of values[x] or
        # hi to the first, and returns whether it was feasible
        nonlocal lo, hi, q1, q2, flo, fhi
        tb, ab = expect(rule, "probe", items, values[x])[3]
        rnd["probed"].append(values[x])
        q = ab << (tb - t)
        if q > cap:
            lo, q1, flo = bisect_right(values, values[x], x, hi), q, values[x]
            return False
        hi, q2, fhi = bisect_left(values, values[x], lo, x), q, values[x]
        return True

    expect("target", "probe", seq.n, 1.0, (t, a))
    expect("fold", "kept", len(kept))
    stride = _SAMPLE_STRIDE if len(kept) >= 4096 else 1
    values = sorted(kept[::stride]) + [max(kept)]
    expect("first list", "sort", len(values) - 1, values)
    sort_items, cap = len(values) - 1, 1 << ceil_log2(a)
    lo, hi, q1, q2, flo, fhi = 0, bisect_left(values, values[-1]), 2 * a, a, -1.0, 1.0
    # squeezed: whether the current items are a squeeze's
    items, squeezed = len(levels), False
    budget = _BUDGET if a >= _SQUEEZE_RUN else 0
    rounds, excess = [], 0
    while lo < hi or stride > 1:
        span = hi - lo + 1
        w = min(max(span // _WINDOW, -(-4 * span // (q1 - q2))), span // 4)
        if stride > 1 and (lo == hi or w < stride):
            _, count, rest = expect("hand-over", "sort")
            own = [f for f in kept[::stride] if flo < f <= fhi]
            inside = sorted(f for f in kept if flo < f <= fhi)
            assert count == len(rest) and sorted(rest + own) == inside, ("hand-over", flo, fhi)
            values = sorted(values[lo:bisect_right(values, fhi, lo)] + rest)
            expect("hand-over", "sort", 0, values)
            rounds.append({"list": "hand-over", "bracket": (flo, fhi), "edges": None})
            sort_items += count
            lo, hi, stride = 0, bisect_left(values, values[-1]), 1
            continue
        assert trace[pos][0] != "sort", "hand-over: the trace sorts at span %d, w %d" % (span, w)
        rnd = {"list": "sample" if stride > 1 else "sorted", "lo": lo, "hi": hi,
               "steps": q1 - q2, "probed": [], "edges": None}
        rounds.append(rnd)
        edges = None
        if budget >= 1 and span >= 2 * _WINDOW and values[lo] < values[hi - 1]:
            r = lo - 1 + span * (q1 - cap) // (q1 - q2)
            i = max(r - w // 2, lo - 1)
            k = min(i + w, hi)
            if i >= lo:
                i = bisect_left(values, values[i + 1], lo, i + 1) - 1
            if (k - i - 1).bit_length() + 2 <= (span - 1).bit_length():
                edges = (values[i] if i >= lo else flo, values[k] if k < hi else fhi)
        whole = ("squeeze", items, flo if stride > 1 else values[lo], fhi)
        if _SQUEEZE_RUN * stride * span <= items:
            items, squeezed = expect("round squeeze", *whole)[4], True
        else:
            # a window may squeeze between the same two offsets
            assert trace[pos][:4] != whole or whole[2:] == edges, \
                "round squeeze: the trace squeezes at span %d, items %d" % (span, items)
        if edges is None:
            assert trace[pos][0] != "squeeze", "window: the trace tries one at span %d" % span
            probe((lo + hi) // 2, "bisection")
            continue
        rnd.update(i=i, k=k, edges=edges, nested=squeezed)
        outer, items, squeezed = items, expect("window", "squeeze", items, *edges)[4], True
        hit = (k == hi or probe(k, "window")) and (i < lo or not probe(i, "window"))
        walked = outer + items * len(rnd["probed"])
        if not hit:
            items, squeezed = outer, rnd["nested"]
        h = (span - 1).bit_length() - (hi - lo).bit_length()
        # in the loop's order of operations, so that the float rounds alike
        budget = min(_BUDGET, budget + (span - 1).bit_length() - (hi - lo).bit_length()
                     - walked / outer)
        excess += walked - h * outer
        rnd["side"] = "high" if res.b <= edges[0] else "low" if res.b > edges[1] else "holds"
        assert hit == (rnd["side"] == "holds"), rnd
    assert lo == hi and res.b == values[lo] and pos == len(trace) - 1, (lo, hi, pos)
    assert trace[pos] == ("probe", seq.n, res.b, res.int_cost)
    assert (res.instrumentation["kept_items"], res.instrumentation["sort_items"]) == (
        len(kept), sort_items)
    assert len(levels) <= 2 * len(kept) and excess <= 4 * len(levels), (excess, rounds)
    assert res.instrumentation["probes"] <= _search_probe_bound(kept), rounds
    return res, rounds


def _first_replays(count, inputs, case):
    # the first count (ws, result, rounds) of inputs whose replay shows
    # case, a predicate on the rounds: a scenario test's inputs, taken
    # from a fixed range by the case it names
    found = []
    for ws in inputs:
        res, rounds = _replay(ws)
        if case(rounds):
            found.append((ws, res, rounds))
            if len(found) == count:
                return found
    raise AssertionError("only %d inputs show the case, of %d wanted" % (len(found), count))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(16, 800),
       st.sampled_from([1, 2, 8, 64, "n", "late", "early", "zero", "two offsets"]))
def test_windowed_search_matches_bisection(seed, n, kind):
    # the same answer as the bisection with no window, down to the type
    # of b; where the replay shows no window, the same probes and items
    # too
    ws = _search_input(seed, n, kind)
    (res, rounds), ref = _replay(ws), bisected_sorted(ws)
    got = (res.alpha, res.b, type(res.b), res.int_cost, res.depths)
    assert got == (ref.alpha, ref.b, type(ref.b), ref.int_cost, ref.depths)
    if not any(r["edges"] for r in rounds):
        assert res.instrumentation == ref.instrumentation


@pytest.mark.parametrize("kind, missed", [("late", "low"), ("early", "high")])
def test_missed_windows_keep_the_answer(kind, missed):
    # Q falling late puts the first window below the answer, falling
    # early puts it above; a secant step from the missed edge places
    # the next window while the budget covers one, and bisection the
    # next probe otherwise
    for seed in range(4):
        ws = skewed_weights(random.Random(seed), 512, kind == "late")
        res, rounds = _replay(ws)
        first = next(r for r in rounds if r["edges"])
        assert (first["nested"], first["side"]) == (False, missed), rounds
        ref = bisected_sorted(ws)
        assert (res.b, res.int_cost, res.depths) == (ref.b, ref.int_cost, ref.depths)


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
        res, rounds = _replay(ws)
        misses += sum(1 for r in rounds if r["edges"] and (r["nested"], r["side"]) == (True, missed))
        ref = bisected_sorted(ws)
        got = (res.alpha, res.b, type(res.b), res.int_cost, res.depths)
        assert got == (ref.alpha, ref.b, type(ref.b), ref.int_cost, ref.depths)
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
        seq = WeightSeq(ws)
        a = bottom_entry(seq.adjusted(max(seq.fracs)))[1]
        offsets = len(set(seq.fracs))
        assert (a < _SQUEEZE_RUN, offsets <= 2) == (kind == "n", kind == "two offsets"), a
        res, rounds = _replay(ws)
        assert not [r for r in rounds if r["edges"]], rounds
        got, ref = dict(res.instrumentation), dict(bisected_sorted(ws).instrumentation)
        if kind == "two offsets":
            below = max((f for f in set(seq.fracs) if f < res.b), default=-1.0)
            kept = kept_fracs(ws)
            # the answer is the larger offset, so the hand-over's bracket,
            # from the lower one up, holds the answer's copies alone
            handed = [r["bracket"] for r in rounds if r["list"] == "hand-over"]
            assert res.b == max(kept) and handed == ([] if len(kept) < 4096 else [(below, 1.0)])
            assert got.pop("sort_items") <= len(kept) < n
            ref.pop("sort_items")
            assert got == ref
        else:
            assert got["sort_items"] < n / 4, got
        _same_answer(res, ws)


def test_integral_weight_keeps_the_windows():
    # one integral weight gives offset 0 a copy, but below every frac
    # each floor is still raised, so Q = 2a anchors the first window
    # as before and the search tries windows on these inputs (4096
    # weights walked 9445 items, against 27825 for the bisection)
    for n in (2**12, 2**14):
        ws = _search_input(n, n, "zero")
        assert min(WeightSeq(ws).fracs) == 0.0
        res, rounds = _replay(ws)
        assert any(r["edges"] for r in rounds), n
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
        res, _ = _replay(ws)
        assert res.instrumentation["probe_items"] <= 1.1 * items, (seed, d)


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
        res = _replay(ws)[0] if kind == "near-uniform" else alpha_real(ws)
        g = sum(res.instrumentation[key] for key in keys)
        r = sum(bisected_sorted(ws).instrumentation[key] for key in keys)
        assert g <= worst * r, (i, g, r)
        got, ref = got + g, ref + r
    if kind != "near-uniform":
        assert got <= 0.85 * ref, (got, ref)


def _same_answer(res, ws):
    # alpha_real's answer res on ws: alpha, b and its type, int_cost and
    # depths, against the bisection with no window, then check_answer
    ref = bisected_sorted(ws)
    got = (res.alpha, res.b, type(res.b), res.int_cost, res.depths)
    assert got == (ref.alpha, ref.b, type(ref.b), ref.int_cost, ref.depths)
    check_answer(ws)


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


def test_sampled_window_hit_sorts_only_its_fracs():
    # the first window's edges are sample values; when it holds the
    # answer, the search sorts the sample and then only the fracs in
    # (flo, fhi] that the sample did not hold, and merges the two.  At
    # 8192 weights: at 4096 the fold pass keeps fewer than 4096
    # positions on most seeds, and the search takes no sample.  The
    # inputs are the first three of seeds 0-23 whose first window is a
    # sampled hit
    def case(rounds):
        first = next(r for r in rounds if r["edges"])
        return (first["list"], first["side"]) == ("sample", "holds")

    inputs = (generate_weights(random.Random(seed), 8192, 2) for seed in range(24))
    for ws, res, rounds in _first_replays(3, inputs, case):
        first = next(r for r in rounds if r["edges"])
        flo, fhi = first["edges"]
        assert first["probed"] == [fhi, flo] and not first["nested"], first
        assert [r["bracket"] for r in rounds if r["list"] == "hand-over"] == [(flo, fhi)]
        _same_answer(res, ws)


@pytest.mark.parametrize("d, missed", [(8, "low"), (64, "high")])
def test_sampled_miss_takes_a_second_sampled_try(d, missed):
    # a missed first window leaves the bracket beyond its missed edge,
    # and where the miss gained a halving the budget still covers a
    # window, so the next one is read from the sample too, interpolated
    # between that edge's Q and the bracket's other end: its edges are
    # sample values or that edge, which is not probed again, and when
    # it holds the answer the search sorts only its fracs that the
    # sample did not hold.  The fold pass keeps 0.60n of the positions
    # at d = 8 and 0.13n at d = 64, so the inputs hold 8192 and 2^15
    # weights, for a sample of 4096 kept ones or more: the first of
    # seeds 0-63 whose first two windows are sampled, the first missed
    # on that side
    def case(rounds):
        windows = [r for r in rounds if r["edges"]]
        return (len(windows) >= 2 and windows[0]["list"] == windows[1]["list"] == "sample"
                and windows[0]["side"] == missed)

    n = 8192 if d == 8 else 2**15
    inputs = (generate_weights(random.Random(seed), n, d) for seed in range(64))
    [(ws, res, rounds)] = _first_replays(1, inputs, case)
    first, second = [r for r in rounds if r["edges"]][:2]
    (flo, fhi), (flo2, fhi2) = first["edges"], second["edges"]
    # an infeasible fhi decides the window without probing flo
    assert first["probed"] == ([fhi] if missed == "low" else [fhi, flo])
    if missed == "low":
        assert fhi <= flo2 and fhi not in second["probed"]
    else:
        assert fhi2 <= flo and flo not in second["probed"]
    sample = kept_fracs(ws)[::_SAMPLE_STRIDE]
    assert {flo2, fhi2} <= set(sample) | {flo, fhi, -1.0, 1.0}
    assert second["side"] == "holds"
    assert [r["bracket"] for r in rounds if r["list"] == "hand-over"] == [(flo2, fhi2)]
    _same_answer(res, ws)


def test_sampled_hit_nests_a_sampled_window():
    # a sampled window that holds the answer still spans 8 sample values
    # or more where Q falls by few steps across it (d = 64 here), so the
    # next window is read from the sample too, inside the first; the sort
    # then takes only the inner window's fracs that the sample did not
    # hold.  The ceilings fall by position, so no floor lifts a run and
    # the fold pass keeps every position: of generate_weights' shuffled
    # ones at d = 64 it keeps about 7%, too few for a sample
    ws = sorted(generate_weights(random.Random(0), 2**14, 64), key=math.ceil, reverse=True)
    sample = kept_fracs(ws)[::_SAMPLE_STRIDE]
    res, rounds = _replay(ws)
    first, second = [r for r in rounds if r["edges"]][:2]
    assert first["list"] == second["list"] == "sample", rounds
    (flo, fhi), (flo2, fhi2) = first["edges"], second["edges"]
    assert {flo, fhi, flo2, fhi2} <= set(sample) | {-1.0, 1.0}
    assert flo <= flo2 < res.b <= fhi2 <= fhi
    assert [r["bracket"] for r in rounds if r["list"] == "hand-over"] == [(flo2, fhi2)]
    ref = bisected_sorted(ws)
    got = (res.alpha, res.b, type(res.b), res.int_cost, res.depths)
    assert got == (ref.alpha, ref.b, type(ref.b), ref.int_cost, ref.depths)


@pytest.mark.parametrize("smallest, missed", [(True, "low"), (False, "high")])
def test_sampled_window_miss_sorts_the_side_beyond_it(smallest, missed):
    # a sample of the smallest (largest) fracs puts every window read
    # from it below (above) the answer, and every bisection probe of the
    # sample too, at n = 4096 and at 2^14.  So the search sorts the
    # fracs beyond the last sample value it probed that the sample did
    # not hold, here every frac outside the sample: n in all, none twice
    for n in (4096, 2**14):
        for seed in range(2):
            ws = stride_skewed_weights(random.Random(seed), n, smallest)
            sample = kept_fracs(ws)[::_SAMPLE_STRIDE]
            res, rounds = _replay(ws)
            sampled = [r for r in rounds if r["list"] == "sample" and r["edges"]]
            assert sampled, rounds
            flo, fhi = sampled[0]["edges"]
            # an infeasible fhi decides the window without probing flo
            assert sampled[0]["probed"] == ([fhi] if missed == "low" else [fhi, flo])
            for r in sampled:
                assert set(r["edges"]) <= set(sample) | {-1.0, 1.0}
                assert r["side"] == missed, r
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
def test_sampled_window_takes_a_sentinel_edge(end):
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
        res, rounds = _replay(ws)
        first = rounds[0]
        flo, fhi = first["edges"]
        assert (fhi == 1.0, flo == -1.0) == (end == "top", end == "bottom")
        assert first["list"] == "sample" and first["probed"] == [flo if end == "top" else fhi]
        assert first["side"] == "holds"
        assert [r["bracket"] for r in rounds if r["list"] == "hand-over"] == [(flo, fhi)]
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
def test_hand_over_sorts_every_copy_of_the_top_once(label, n):
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
    res, _ = _replay(ws)
    # the trace's three sorted lists: the first topped by the largest
    # kept frac, which it did not sort
    first, rest, merged = [e[2] for e in res.trace if e[0] == "sort"]
    sample = first[:-1]
    # the merge is sorted: its ends are the bracket's lowest kept frac
    # and its top
    bottom, top = merged[0], merged[-1]
    flo = max((f for f in kept if f < bottom), default=-1.0)
    inside = [f for f in kept if flo < f <= top]
    assert first == sorted(kept[::_SAMPLE_STRIDE]) + [max(kept)] and inside.count(top) >= 200
    own = [f for f in sample if flo < f <= top]
    assert own.count(top) >= 10 and sorted(rest + own) == sorted(inside)
    assert sorted(merged) == sorted(inside + [top] * (top == max(kept)))
    assert res.instrumentation["sort_items"] == len(sample) + len(rest) <= len(kept)
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
    res, rounds = _replay(ws)
    first = rounds[0]
    assert first["list"] == "sample" and first["edges"] == (-1.0, 0.0), first
    assert first["side"] == "holds"
    assert res.instrumentation["sort_items"] < len(ws) / 2, res.instrumentation
    assert res.instrumentation["probes"] == 3
    _same_answer(res, ws)


@pytest.mark.parametrize("d, seed, edge, touches", [
    (4, 71, "top", True), (4, 1985, "top", False),
    (5, 142, "bottom", True), (5, 1418, "bottom", False),
])
def test_sample_end_rule_at_its_boundary(d, seed, edge, touches):
    # both sides of the end rule's boundary take a sampled window: an
    # edge past the sample's last (first) value is the sentinel there,
    # one on that value is the value.  Each window holds the answer.
    # At 8192 weights, of which the fold pass keeps 4096 or more.  The
    # boundary is rare, so the inputs are fixed; the rule's indices i
    # and k place each window at it
    ws = generate_weights(random.Random(seed), 8192, d)
    res, rounds = _replay(ws)
    first = rounds[0]
    assert first["list"] == "sample" and first["edges"], first
    gap = first["hi"] - first["k"] if edge == "top" else first["i"] - first["lo"] + 1
    assert gap == (0 if touches else 1), first
    flo, fhi = first["edges"]
    assert (fhi == 1.0 if edge == "top" else flo == -1.0) == touches
    assert first["side"] == "holds"
    assert [r["bracket"] for r in rounds if r["list"] == "hand-over"] == [(flo, fhi)]
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
        _, rounds = _replay(ws)
        first = next(r for r in rounds if r["edges"])
        misses += (first["nested"], first["side"]) != (False, "holds")
    assert misses <= 30, misses


@pytest.mark.parametrize("kind", ["real-highd", "d = 1024"])
def test_every_window_obeys_the_width_rule(kind):
    # every window holds the values the rule gives for the bracket it
    # was cut from (1/24 of them, at least four Q steps' worth, at most
    # 1/4), or fewer where it is cut at an end of the bracket, which the
    # replay checks window by window.  On perfbench's real-highd shape
    # (target load about 530) the 1/24 width sets the first window; at
    # d = 1024 (load about 40) the four Q steps do.  The fold pass keeps
    # fewer than 4096 positions on both, so the first list is the kept
    # fracs, sorted.  The fracs are distinct, so no edge steps down past
    # copies
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
    res, rounds = _replay(ws)
    first = rounds[0]
    assert first["edges"] and first["list"] == "sorted" and first["steps"] == a
    span = first["hi"] - first["lo"] + 1
    assert span == len(kept) < 4096
    part, steps = span // _WINDOW, -(-4 * span // a)
    assert first["k"] - first["i"] == (part if kind == "real-highd" else steps) > min(part, steps)
    _same_answer(res, ws)


def test_trace_lists_the_calls_made(monkeypatch):
    # the one test that spies on alpha_real: its fold pass, squeezes,
    # probes and sorts, each rebound in realweight's namespace, must be
    # what its trace lists, in order, with the items each walked (the
    # values each sort took, less the first list's appended top and all
    # of the merge's) and what each returned; the kept count follows the
    # fold pass and the witness's pass at the answer ends the trace.
    # The counters, summed from the calls here, are the trace's sums
    mod, calls = alphatree.realweight, []

    def spy(kind, fn):
        def call(*args):
            out = fn(*args)
            calls.append((kind, args, out))
            return out
        return call

    for name, kind in [("_fold_pass", "fold"), ("_squeeze_pass", "squeeze"),
                       ("_bottom_entry", "probe")]:
        monkeypatch.setattr(mod, name, spy(kind, getattr(mod, name)))
    monkeypatch.setattr(mod, "sorted", spy("sort", sorted), raising=False)
    inputs = [ws for _, ws in corpus_inputs() if len(ws) <= 4097]
    inputs += [ws for ops in perfbench_real_inputs().values() for ws in ops[:4]]
    for ws in inputs:
        calls.clear()
        res = alpha_real(ws)
        want, got, sorts = [], dict.fromkeys(res.instrumentation, 0), 0
        for kind, args, out in calls:
            if kind == "fold":
                t, a, _, kept = out
                want += [("probe", len(ws), 1.0, (t, a)), ("kept", len(kept))]
                got["kept_items"] = len(kept)
            elif kind == "squeeze":
                want.append(("squeeze", len(args[0]), args[3], args[4], len(out[0])))
                got["squeeze_items"] += len(args[0])
            elif kind == "probe":
                want.append(("probe", len(args[0]), args[3], out))
                got["probes"] += 1
                got["probe_items"] += len(args[0])
            else:
                # the merge, the third sort, sorts nothing afresh
                sorts += 1
                values = 0 if sorts == 3 else len(args[0])
                want.append(("sort", values, out))
                got["sort_items"] += values
        want.append(("probe", len(ws), res.b, res.int_cost))
        got["probes"] += 2
        got["probe_items"] += 2 * len(ws)
        assert res.trace == want
        assert res.instrumentation == got and sorts in (1, 3)


def test_partition_trace_of_the_live_tree_search():
    # alpha_real_new's trace: the target's pass over the floors, one
    # partition event per round and the witness's pass.  Each round
    # partitions the items left at the median of their fracs and sets
    # those with a frac in (0, median]; its feasible flag is the static
    # cost's verdict there, and it keeps the items below the median if
    # so, above it if not, which the next round partitions.  The rounds'
    # items sum to partition_items and their sets to the tree's
    for label, ws in corpus_inputs():
        if len(ws) > 4097:
            continue
        seq = WeightSeq(ws)
        res = alpha_real_new(seq)
        first, *rounds, last = res.trace
        assert first == ("probe", seq.n, 1.0, res.int_cost)
        assert last == ("probe", seq.n, res.b, res.int_cost)
        fracs, items = seq.fracs, list(range(seq.n))
        for kind, count, m, sets, feasible in rounds:
            assert kind == "partition" and count == len(items), label
            assert m == sorted(fracs[i] for i in items)[(count - 1) // 2]
            assert sets == sum(1 for i in items if 0.0 < fracs[i] <= m)
            assert feasible == (static_cost(seq.adjusted(m)) == res.int_cost), label
            items = [i for i in items if (fracs[i] < m if feasible else fracs[i] > m)]
        assert not items and res.b == [e[2] for e in rounds if e[4]][-1]
        assert res.instrumentation["partition_items"] == sum(e[1] for e in rounds)
        assert res.instrumentation["sets"] == sum(e[3] for e in rounds)
        assert res.instrumentation["probes"] == 2


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
        if len(ws) <= 4097:
            res = check_answer(ws)
        else:
            res = alpha_real(ws)
            certify(ws, res)
        assert res.instrumentation["sort_items"] <= len(ws), label
        got = (res.alpha, res.b, type(res.b).__name__, res.int_cost, res.depths)
        answers.update(repr(got).encode())
        counters.update(json.dumps(res.instrumentation, sort_keys=True).encode())
    assert answers.hexdigest() == CORPUS_ANSWERS_SHA256
    assert counters.hexdigest() == CORPUS_COUNTERS_SHA256
