import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from alphatree import (
    InexactCostError,
    LevelTreeError,
    WeightSeq,
    alpha_real,
    alpha_real_new,
)
from alphatree.core import minimax_cost_by_dp
import alphatree.realweight
from alphatree.leveltree import _adjust, _static_pass, ceil_log2, static_cost
from alphatree.realweight import (
    _SQUEEZE_RUN,
    _squeeze,
    alpha_real_oracle,
    alpha_real_sorted,
    select_kth,
)
from alphatree.cli import generate_weights
from helpers import bisected_sorted, per_run_squeeze, random_real_weights, unsqueezed_sorted


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
        "probes", "probe_items", "squeeze_items",
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
    b, target, depths, probes = unsqueezed_sorted(ws)
    res = alpha_real_sorted(ws)
    assert (res.b, res.int_cost, res.depths) == (b, target, depths)
    assert res.alpha == target + b
    assert res.instrumentation["probes"] == probes
    other = alpha_real_new(ws)
    assert (other.alpha, other.b, other.depths) == (res.alpha, b, depths)
    if len(ws) <= 12:
        assert res.alpha == alpha_real_oracle(ws)


@settings(max_examples=300, deadline=None)
@given(weight_lists)
@example([-1e-20, 0.5])
@example([2.0])
def test_target_pass_walks_the_floors(ws):
    # no frac is above the largest, so at that offset no floor is
    # raised and the target pass needs no adjusted list
    seq = WeightSeq(ws)
    assert seq.floors == [math.floor(w) for w in ws]
    assert _static_pass(seq.floors, None) == _static_pass(seq.adjusted(max(seq.fracs)), None)


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
    # The target and the witness, plus the search's probes.  Each probe
    # is at an offset strictly inside the range and decides all its
    # copies, so there are at most (distinct offsets) - 1.  Each window
    # probes its two edges at most.  A window that holds the answer
    # leaves at most m // 16 of the m positions in range, which spares
    # at least 4 bisection probes, and at most one missed window comes
    # before it (two in a row end the windows), so a round that hits
    # costs no more than the 4 probes it spares.  After the last hit at
    # most two missed windows come (4 probes); each bisection probe,
    # before, between or after them, keeps at most ceil(m / 2) of the m
    # positions left, and the first range has m <= n.  This is not
    # within the reference's probes plus 4: after two missed windows the
    # range can still need ceil_log2(n) bisection probes where the
    # reference needed floor(log2(n)), or fewer when its first probes hit
    # long runs of equal offsets.
    offsets = len(set(WeightSeq(ws).fracs))
    return 2 + min(offsets - 1, 4 + ceil_log2(len(ws)))


def test_sorted_probe_item_budget():
    # 14 full passes (target, 12 probes, witness) would walk 14n items;
    # with the squeeze they walked about 7n, with one interpolated window
    # 3.7n to 4.4n, and with a window in every round 3.0n to 3.3n
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


@pytest.mark.parametrize("d", [1, 2, 8, 64, "n"])
def test_work_within_derived_bounds(d):
    # Counter bounds that follow from the algorithms, for any instance:
    # - sorted: the probe bound of _search_probe_bound, and the item
    #   bound above.  Its first five terms are n each; a window's edge
    #   probes walk at most n items each, and a window holding the answer
    #   leaves at most 1/16 of its round's positions, so its two probes
    #   stand in for four terms, and a window inside it walks only the
    #   items squeezed for it.  So a search whose first or second window
    #   holds the answer fits it.  After missed windows the bisection may
    #   take every term, and their edge probes come on top, so there it
    #   is only checked;
    # - new: each round keeps at most half its items, so R = floor(log2
    #   n) + 1 rounds partition at most 2n - 1 items.  A round sets the
    #   items below its median, at most half, and those at it, at most
    #   the largest multiplicity of one frac.  A set makes at most 16
    #   finds in its surgery plus one per node its load update climbs
    #   through, and a path holds at most one node per level a node can
    #   take, ceil(w_i) or ceil(w_i) - 1; each cost() makes two.
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
        got = alpha_real_new(seq).instrumentation
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
def test_squeezed_pass_is_exact_in_the_window(items, f1, f2):
    # the windowed search probes the items squeezed for [flo, fhi] at
    # both edges, flo = order[j - 1] and fhi, and the bisection inside
    # the range: each pass must end in the raw pass's bottom entry (t, a)
    flo, fhi = min(f1, f2), max(f1, f2)
    levels, fracs, counts = [list(col) for col in zip(*items)]
    sq = _squeeze(levels, fracs, counts, flo, fhi, {"squeeze_items": 0})
    for b in [f for f in fracs if flo <= f <= fhi] + [flo, fhi]:
        got = _static_pass(_adjust(sq[0], sq[1], b), sq[2])
        assert got == _static_pass(_adjust(levels, fracs, b), counts), b


def skewed_weights(rng, n, late):
    # distinct fracs i / (n + 1); about half the weights on the late
    # (fracs above 1/2) or early side get ceiling 8, the rest ceilings in
    # [-4, 0].  Lowering a ceiling-8 weight moves Q the most, so Q falls
    # late (or early) in the sorted order, away from the straight line
    # the search interpolates, and its first window misses low (or high)
    ws = []
    for i in range(1, n + 1):
        f = i / (n + 1)
        c = 8 if (f > 0.5) == late and rng.random() < 0.5 else rng.randint(-4, 0)
        ws.append(c - 1 + f)
    rng.shuffle(ws)
    return ws


def _no_window(ws):
    # the inputs on which the sorted search tries no window: a target
    # load below _SQUEEZE_RUN, or at most 2 distinct offsets
    seq = WeightSeq(ws)
    order = sorted(seq.fracs)
    a = _static_pass(seq.adjusted(order[-1]), None)[1]
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


def _windows(ws):
    # the result; for each squeeze, whether it squeezed items that an
    # earlier squeeze made (nested) and whether its range lies below the
    # answer ("low"), above it ("high") or holds it: the bisection's
    # squeezes always hold it, so the others are missed windows; and how
    # many windows the search tried: a window's squeeze is followed by a
    # probe at its top offset, order[k], while a bisection squeeze's top,
    # order[hi], is never probed again.  The items the squeezes walked
    # must be the result's squeeze_items
    seq = WeightSeq(ws)
    log = []
    walked = []
    real_squeeze, real_probe = alphatree.realweight._squeeze, alphatree.realweight._probe

    def squeeze(levels, fracs, counts, flo, fhi, acc):
        log.append((levels is not seq.floors, flo, fhi))
        walked.append(len(levels))
        return real_squeeze(levels, fracs, counts, flo, fhi, acc)

    def probe(levels, fracs, counts, b, acc):
        log.append(b)
        return real_probe(levels, fracs, counts, b, acc)

    alphatree.realweight._squeeze, alphatree.realweight._probe = squeeze, probe
    try:
        res = alpha_real(seq)
    finally:
        alphatree.realweight._squeeze, alphatree.realweight._probe = real_squeeze, real_probe
    assert res.instrumentation["squeeze_items"] == sum(walked)
    sides = [(nested, "high" if res.b < flo else "low" if res.b > fhi else "holds")
             for nested, flo, fhi in (e for e in log if type(e) is tuple)]
    tried = sum(1 for e, nxt in zip(log, log[1:]) if type(e) is tuple and nxt == e[2])
    return res, sides, tried


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
    # the next one
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
    misses = 0
    for seed in range(10):
        ws = _search_input(seed, 2048, 8)
        res, sides, _ = _windows(ws)
        misses += sides.count((True, missed))
        ref = bisected_sorted(ws)
        got = (res.alpha, res.b, type(res.b), res.int_cost, res.depths)
        assert got == (ref.alpha, ref.b, type(ref.b), ref.int_cost, ref.depths)
        assert res.instrumentation["probes"] <= _search_probe_bound(ws)
    assert misses, missed


@pytest.mark.parametrize("kind", ["n", "two offsets"])
def test_window_skip_cases(kind):
    # each skip rule on an input where it alone keeps the window out:
    # the two offsets at a target load of at least _SQUEEZE_RUN, d = n
    # with a load below it (4 at n = 2^14)
    for n in (2**12, 2**14):
        ws = _search_input(n, n, kind)
        assert _no_window(ws)
        seq = WeightSeq(ws)
        a = _static_pass(seq.adjusted(max(seq.fracs)), None)[1]
        assert (a < _SQUEEZE_RUN) == (kind == "n"), a
        res, sides, tried = _windows(ws)
        assert res.instrumentation == bisected_sorted(ws).instrumentation
        assert {side for _, side in sides} <= {"holds"} and not tried, sides


def test_integral_weight_keeps_the_windows():
    # one integral weight gives offset 0 a copy, but below every frac
    # each floor is still raised, so Q = 2a anchors the first window
    # as before and the search tries windows on these inputs (4096
    # weights walked 10475 items, against 27825 for the bisection)
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
    # the search walks as many items as before (0.999x to 1.001x here;
    # windows switched off by a zero frac walked 1.9x to 2.7x)
    for seed in range(2):
        rng = random.Random("rounded:%d:%d" % (seed, d))
        n = 2**14
        ceils = [3 * rng.randrange(d) for _ in range(n)]
        ws = [c - 1 + k / 2**40 for c, k in zip(ceils, rng.sample(range(1, 2**40), n))]
        items = alpha_real(ws).instrumentation["probe_items"]
        ws[0] = float(round(ws[0]))
        res = alpha_real(ws)
        assert res.instrumentation["probe_items"] <= 1.01 * items, (seed, d)
        assert res.instrumentation["probes"] <= _search_probe_bound(ws)


@pytest.mark.parametrize("d", [1, 2, 8, 64])
def test_window_walks_fewer_items_than_bisection(d):
    # a window that never held the answer would walk more items than
    # the bisection alone, not fewer
    for n in (2**12, 2**13, 2**14):
        ws = generate_weights(random.Random("window:%d:%d" % (n, d)), n, d)
        got = alpha_real(ws).instrumentation["probe_items"]
        assert got < bisected_sorted(ws).instrumentation["probe_items"], (n, d)


@pytest.mark.parametrize("kind,worst", [("integral", 1.15), ("few offsets", 1.55)])
def test_missed_windows_cost_is_bounded(kind, worst):
    # two inputs where interpolating by index places windows badly: about
    # 30% integral weights (Q falls sharply at offset 0, off the line
    # from 2a) and 3 to 12 offsets with many copies each (one offset can
    # hold half the indices).  Missed windows there can walk more items
    # than the bisection alone; this pins by how much (1.10x and 1.51x
    # at most over these 100 inputs each) and that the windows still
    # save work over all of them (0.77x and 0.79x)
    got = ref = 0
    for i in range(100):
        rng = random.Random("%s:%d" % (kind, i))
        n = rng.randint(64, 3000)
        if kind == "integral":
            ws = random_real_weights(rng, n)
        else:
            pool = [rng.choice([0.0, 0.5, rng.random()]) for _ in range(rng.randint(3, 12))]
            ws = [c - 1 + f if f else float(c)
                  for c, f in ((rng.randint(-8, 4), rng.choice(pool)) for _ in range(n))]
        g = alpha_real(ws).instrumentation["probe_items"]
        r = bisected_sorted(ws).instrumentation["probe_items"]
        assert g <= worst * r, (i, g, r)
        got, ref = got + g, ref + r
    assert got <= 0.85 * ref, (got, ref)
