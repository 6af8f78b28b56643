"""Alphabetic minimax cost for real weights.

The cost of a real sequence equals (integer cost of ceil(w_i - b)) + b
for the right offset b, and the only offsets worth trying are the
fractional parts of the weights.  ceil(w_i - b) is floor(w_i), raised
by one iff frac(w_i) > b, so the integer cost is nonincreasing in b and
the answer is the smallest fractional part whose adjusted integer cost
equals the cost at the largest one.

Two search strategies share that skeleton:

* alpha_real, the sorted search, narrows a bracket (flo, fhi] of
  fractional parts (the kept positions', below) around the answer in
  one loop, probing a repeated fractional part once.  A probe at b is
  leveltree's counting pass, the squeeze for [b, b], read by a fold.
  Each round squeezes every run of items whose level is decided into
  at most 4d items, for the whole bracket once it spans at most
  1/16 of the items, then bisects, with one probe over its N items, or
  tries a window: the values around the rank interpolation search
  (Perl, Itai and Avni 1978) predicts from the passes at the bracket's
  ends, 1/24 of the bracket but at least four of the whole steps by
  which the passes' load Q falls across it, and at most 1/4.  A window
  is cut at the bracket's ends, which are never probed, their Q being
  known, and its lower edge steps below the copies of its first value.
  It squeezes the N items for its edges and probes them; a hit brackets
  the answer by the two, and the next round works on the window's
  items, while a miss restores the N items.  Every window's edges, and
  every bisection probe, come from one sorted list of the n kept
  fractional parts: from n = 4096, every 8th of them, sorted (Floyd and
  Rivest 1975) and topped by the largest, while a window spans 8 of its
  values or more; then the bracket's, those the sample did not hold
  sorted (in C) and merged with its own.  So no fractional part is
  sorted twice, and only one bracket's are: at most n in all.

  One rule chooses between bisection and a window.  Let L(s) =
  ceil(log2 s), the bisection probes that narrow s values to one.  The
  budget B counts, in passes over the current items, what bisection
  would have walked on the same brackets less what the windows walked.
  It starts at 2 (at 0 below a target load of 16, where Q takes too few
  values to place a window), and a window is tried while B >= 1, where
  the bracket holds 48 values or more (1/24 of it is two) and two
  offsets below its top, and a hit would narrow it by at least two
  halvings.  A window that walks c passes and narrows the bracket from
  s values to s' leaves B + h - c, at most 2, with h = L(s) - L(s'); a
  bisection probe leaves B as it is.

  The work this bounds.  A window walks c <= 3 passes (its squeeze
  walks the N items and each of its two probes at most N), so B >= -2
  throughout.  The items N_j at window j's start never grow from one
  window to the next (a hit and a squeeze only shrink the items, a
  miss restores them), and window j walks c_j N_j <= (h_j + B_j -
  B_j+1) N_j items.  Summed by parts, with B_j >= 1 at every window,
  B_1 <= 2 and the last B >= -2, the windows walk at most 4N items
  more than the sum of h_j N_j, which is what bisection would walk for
  the same halvings over the items each window started from; N, the
  items the fold leaves, is at most 2n, as the position after a folded
  run is kept.  A miss that gains no halving costs c > 1 and leaves B <
  1, so it is the last window.  So a bisection probe and a window that
  holds the answer (two probes for h >= 2) spend at most one probe per
  halving, any other window at most two per halving, and the last one
  at most two more: past the target and the witness the search makes
  at most 2H + 2 probes, where H = L(m + 1) + L(n) bounds the halvings
  in a sample of m values and in the n sorted kept fracs; and at most one per
  distinct kept offset but the largest, since each probes an offset
  strictly inside the bracket, whose top starts at the largest.  A
  squeeze folds every run of items whose level no later probe can
  change into at most 4d items, so the passes walk O(N log d) items in
  all rather than N per probe, besides the target's and the witness's
  passes over all the positions.
* alpha_real_new, the paper's algorithm, never sorts.  It keeps one
  level tree alive, walks a median-of-medians partition of the
  fractional parts, and moves between probe offsets by set/undo on the
  tree, touching O(n) positions in total (alpha_real_new bounds its
  counters), though one position may be set in several rounds.

Both take the target, the cost at the largest fractional part, from a
pass over the floors, the pass at 1.0, above every fractional part:
alpha_real_new from static_cost, alpha_real from leveltree's fold pass.
That pass also folds every run of two or more positions that the floor
y of the next position lifts, when the run costs at most y - 1 at the
floors, into one item fixed at y: raising levels adds at most one to
the run's cost and both its neighbours sit at y or above, so the run
costs the same at every offset (leveltree's static-pass comment).  The
other positions are kept.

Lemma: the answer is the fractional part of a kept position.  The
folded runs cost the same at every offset, so the cost changes only
where a kept position's level does, at a kept fractional part.  Let f
be the answer and suppose it is no kept one.  If a kept fractional part
lies below f, take the largest, g: no kept level differs between g and
f (one does iff its fractional part lies in (g, f]), so g is feasible,
against f being the smallest.  Otherwise, below the smallest kept
fractional part every kept position that is not integral is raised.
With no integral position kept, that is every kept position, and the
cost is the all-raised cost, target + 1, so f is not feasible either;
with one kept, 0.0 is itself a kept fractional part, at or below f.
So the sorted search samples, sorts and probes the kept fractional
parts alone, over the folded items.

Both take the witness at the final offset from static_witness, over
the raw levels; only the live tree of alpha_real_new is a LevelTree.
A cost of magnitude 2^52 or more that no float holds exactly raises
InexactCostError.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .leveltree import LevelTree, WeightSeq, as_weight_seq, static_cost, static_witness
from .leveltree import _bottom_entry, _fold_pass, _squeeze_pass, ceil_log2
from .core import minimax_cost_by_dp


class InexactCostError(ValueError):
    """The cost int_cost + b of a real-weight run is 2^52 or more in
    magnitude, where floats are a unit or more apart, and is not a
    float, so no float answer is exact."""


class RealCostResult:
    """Outcome of a real-weight run: alpha = int_cost + b (rounded once,
    from the weight whose fractional part b is), the witness depth
    profile, and the trace of the search's passes with its counters.
    b is exact and in [0, 1): a float, or a Fraction when it is the
    fractional part of a weight in (-1/2, 0) with bits below 2^-53.

    trace holds one event per pass, in order: ("probe", items, b, (t, a)
    or cost), a static pass at offset b, the first the target's at 1.0
    and the last the witness's; ("kept", k), the k positions the fold
    pass kept; ("squeeze", items, flo, fhi, out), the
    items for [flo, fhi]; ("sort", values, list), a sorted list, values
    of it sorted afresh; ("partition", items, median, sets, feasible), a
    round of alpha_real_new.  instrumentation sums each kind's items (as
    probe_items, kept_items, ...), counts the probes and adds the live
    tree's sets, undos, finds, unions and deunions."""

    def __init__(self, alpha, b, int_cost, depths, strategy, trace):
        self.alpha = alpha
        self.b = b
        self.int_cost = int_cost
        self.depths = depths
        self.strategy = strategy
        self.trace = trace
        self.instrumentation = _counters(trace)

    def __repr__(self):
        return "RealCostResult(alpha=%r, b=%r, strategy=%r)" % (
            self.alpha,
            self.b,
            self.strategy,
        )


def select_kth(values, k: int):
    """k-th smallest value (1-based), worst-case linear time by
    median-of-medians."""
    vals = list(values)
    n = len(vals)
    if n == 0:
        raise ValueError("select_kth on an empty sequence")
    if not 1 <= k <= n:
        raise ValueError("k=%d out of range for %d values" % (k, n))
    while True:
        if len(vals) <= 25:
            return sorted(vals)[k - 1]
        meds = [
            sorted(vals[i : i + 5])[(min(5, len(vals) - i) - 1) // 2]
            for i in range(0, len(vals), 5)
        ]
        pivot = select_kth(meds, (len(meds) + 1) // 2)
        lo = [v for v in vals if v < pivot]
        if k <= len(lo):
            vals = lo
            continue
        neq = sum(1 for v in vals if v == pivot)
        if k <= len(lo) + neq:
            return pivot
        k -= len(lo) + neq
        vals = [v for v in vals if v > pivot]


def alpha_real_oracle(w) -> float:
    """Reference value from the interval DP over the exact rationals,
    rounded once to a float (a float DP would round at every +1)."""
    # imported here: fractions costs some 3 ms at package import
    from fractions import Fraction

    seq = as_weight_seq(w)
    return float(minimax_cost_by_dp([Fraction(x) for x in seq.weights]))


def _zero_counters() -> dict:
    return {
        "sets": 0,
        "undos": 0,
        "finds": 0,
        "unions": 0,
        "deunions": 0,
        "partition_items": 0,
        "probes": 0,
        "probe_items": 0,
        "squeeze_items": 0,
        "sort_items": 0,
        "kept_items": 0,
    }


def _counters(trace) -> dict:
    # the trace's sums: each event adds its items to <kind>_items, and
    # each probe one to probes
    acc = _zero_counters()
    for kind, items, *_ in trace:
        acc[kind + "_items"] += items
        acc["probes"] += kind == "probe"
    return acc


# A squeeze walks every item, in 1.2x to 1.3x the time of a probe's
# pass over the folded items (n = 2^14, perfbench's real-lowd and
# real-highd shapes, a squeeze for 1/16 of the kept fracs), but shortens
# only long runs.  So the search squeezes only once the undecided
# positions (about hi - lo + 1) are at most 1/16 of the items, when runs
# average 15 items or more.  Timed on the folded items against 4, 8, 32
# and no squeeze at all (2-core box, best of 3 alternating runs, those
# shapes, n = 4096 at d = 8 and d = n, and near-uniform code weights at
# 2^14), 16 was never beaten by more than the noise of 5%: 4 took 0.95x
# to 1.06x its time, 8 0.97x to 1.08x, 32 0.98x to 1.06x and no squeeze
# 0.96x to 1.53x.  A target load below 16 gets no window: Q then takes
# at most 17 values across all the offsets.
_SQUEEZE_RUN = 16

# The first windows are read from a sorted sample of every 8th frac
# (Floyd and Rivest 1975).  Near the middle a sample value's rank
# scatters by about sqrt(stride * n) / 2 around stride times its index,
# while the first window spans 1/24 of the bracket, so the scatter sets
# how often that window misses.  On 192 inputs shaped as the benchmark's
# real-lowd (n = 2^14, d = 2; test_sampled_first_window_misses_rarely's
# generator, seeds 0-191) a sample of every 16th frac missed 47 first
# windows and one of every 8th 24; the 16th sorted 72 fewer values an
# input, its smaller sample less the wider brackets its misses hand
# over, but walked 3.52n probe, squeeze and sort items against 3.45n.
# real-highd's shape (d = 64) keeps 4.6% to 5.9% of its positions after
# the fold pass (perfbench seed 1, ops 0-15), fewer than 4096, and takes
# no sample
_SAMPLE_STRIDE = 8

# A window takes 1/24 of the bracket's values, but at least four of the
# steps by which Q falls across it and at most 1/4.  On perfbench's
# real-lowd and real-highd shapes (seeds 1, 2, 5 and 7, ops 0-15)
# windows of 1/20, 1/24, 1/28 and 1/32 (each where the bracket holds
# twice the divisor in values) walked 3.88n, 3.80n, 3.81n and 3.81n
# probe, squeeze and sort items per op on real-lowd, and 4.73n, 4.61n,
# 4.59n and 4.70n on real-highd.  The windows' budget holds two passes
# over the items.  With one, a first window that misses sends the rest
# of the search to bisection: 3.88n and 5.20n there, while the
# near-uniform code weights of tests/helpers.py walk at most 1.06x the
# items of bisection instead of 1.20x; three passes gave 3.79n, 4.61n
# and 1.32x
_WINDOW = 24
_BUDGET = 2


def alpha_real(w) -> RealCostResult:
    """Sorted-search strategy: narrow a bracket of offsets around the
    answer with windows read from sorted fractional parts, probing each
    distinct value once.

    Each round squeezes the items for the whole bracket once it spans
    at most 1/16 of them, then bisects or, while the windows' budget
    covers a miss, tries a window around the rank that interpolation
    predicts.  The module docstring gives the rule and its work bound.
    """
    seq = as_weight_seq(w)
    # the fold pass over the floors: the target's bottom entry (t, a) at
    # offset 1.0, above every frac, and the items (levels, fracs,
    # counts): a kept position not squeezed yet is its floor, frac and
    # count 1, a folded run or a squeezed item a fixed level, frac 0.0
    # and its count; fracs and n are the kept positions', and the search
    # reads no other
    t, a, items, fracs = _fold_pass(seq.floors, seq.fracs)
    trace = [("probe", seq.n, 1.0, (t, a)), ("kept", len(fracs))]
    n = len(fracs)
    target = t + ceil_log2(a)
    # Q(b) = a_b * 2^(t_b - t) from the pass at b is an integer (t_b,
    # the largest level, is t or t + 1), and b is feasible iff Q <= cap
    cap = 1 << (target - t)

    # Cost as a function of the offset is nonincreasing and reaches
    # target at the largest frac, so the answer is the first feasible
    # frac, in the bracket (flo, fhi] with q1 = Q(flo) > cap and q2 =
    # Q(fhi) <= cap.  Below every frac, 0.0 among them, each floor is
    # raised, so Q falls from 2a at the sentinel -1.0 to a at the
    # sentinel 1.0, or at the largest frac, and integral weights need no
    # case of their own.  order holds every stride-th frac, sorted, then
    # the largest, and order[lo..hi] spans the bracket: order[lo - 1]
    # stands for flo, which may lie below order, and order[hi] for fhi.
    # A probe decides every copy of its offset: it moves lo past them or
    # hi to the first
    q1, q2, flo, fhi = 2 * a, a, -1.0, 1.0

    def probe(x) -> bool:
        nonlocal lo, hi, q1, q2, flo, fhi
        tb, ab = _bottom_entry(*items, order[x])
        trace.append(("probe", len(items[0]), order[x], (tb, ab)))
        q = ab << (tb - t)
        if q > cap:
            lo, q1, flo = bisect_right(order, order[x], x, hi), q, order[x]
            return False
        hi, q2, fhi = bisect_left(order, order[x], lo, x), q, order[x]
        return True

    def squeeze(e0, e1):
        # the items for [e0, e1]; returns the items it squeezed
        nonlocal items
        outer, items = items, _squeeze_pass(*items, e0, e1)
        trace.append(("squeeze", len(outer[0]), e0, e1, len(items[0])))
        return outer

    stride = _SAMPLE_STRIDE if n >= 4096 else 1
    order = sorted(fracs[::stride])
    # the largest frac tops the list, unsorted: Q there is known, so it
    # is never probed
    order.append(max(fracs))
    trace.append(("sort", len(order) - 1, order))
    lo, hi = 0, bisect_left(order, order[-1])
    # the passes over the current items by which the windows may trail
    # bisection (see the module docstring)
    budget = _BUDGET if a >= _SQUEEZE_RUN else 0
    while lo < hi or stride > 1:
        # Q falls from q1 to q2 in whole steps across the bracket, so it
        # places the answer to within span / (q1 - q2) values
        span = hi - lo + 1
        w = min(max(span // _WINDOW, -(-4 * span // (q1 - q2))), span // 4)
        if stride > 1 and (lo == hi or w < stride):
            # sort the bracket's fracs less the sample's, which come in
            # the same position order: a frac equal to the sample's next
            # is taken as that one, and dropped (folded and squeezed
            # items carry frac 0.0, above the bottom sentinel)
            held = iter([f for f in fracs[::stride] if flo < f <= fhi] + [None])
            h = next(held)
            rest = sorted([f for f in (fracs if flo < 0 else items[1])
                           if flo < f <= fhi and (f != h or (h := next(held)) and False)])
            # sorted() merges two sorted runs in one pass
            order = sorted(order[lo:bisect_right(order, fhi, lo)] + rest)
            trace += ("sort", len(rest), rest), ("sort", 0, order)
            lo, hi, stride = 0, bisect_left(order, order[-1]), 1
            continue
        # the sorted fracs' first value also fixes its copies; the
        # sample's cannot, as fracs it did not hold lie below it
        if _SQUEEZE_RUN * stride * span <= len(items[0]):
            squeeze(flo if stride > 1 else order[lo], fhi)
        # a window while the budget covers its squeeze and the bracket
        # holds 48 values or more (windows in smaller ones saved under
        # 0.4% of perfbench's items, and made searches of 16 to 40
        # weights probe unlike bisection) and two offsets below its top:
        # w values around the rank interpolated between (lo - 1, q1) and
        # (hi, q2), cut at the bracket's ends, its lower edge stepped
        # below the copies of its first value, if a hit would spare a
        # bisection probe (two halvings)
        if budget >= 1 and span >= 2 * _WINDOW and order[lo] < order[hi - 1]:
            r = lo - 1 + span * (q1 - cap) // (q1 - q2)
            i = max(r - w // 2, lo - 1)
            k = min(i + w, hi)
            if i >= lo:
                i = bisect_left(order, order[i + 1], lo, i + 1) - 1
            if (k - i - 1).bit_length() + 2 <= (span - 1).bit_length():
                mark = len(trace)
                outer = squeeze(order[i] if i >= lo else flo, order[k] if k < hi else fhi)
                # an end of the bracket is never probed, its Q being known
                if not ((k == hi or probe(k)) and (i < lo or not probe(i))):
                    items = outer
                walked = sum(e[1] for e in trace[mark:])
                budget = min(_BUDGET, budget + (span - 1).bit_length()
                             - (hi - lo).bit_length() - walked / len(outer[0]))
                continue
        probe((lo + hi) // 2)
    return _finish(seq, order[lo], target, "sorted", trace)


# the benchmark (perfbench/workloads.py) imports the sorted search by
# this name; the package exports it as alpha_real only
alpha_real_sorted = alpha_real


def alpha_real_new(w) -> RealCostResult:
    """Median-search strategy: one live tree, set/undo between probes.

    The paper states O(n d log log n) time, d the number of distinct
    ceilings.  The bounds derived here, and checked by
    test_work_within_derived_bounds, are on its counters, with rounds
    = floor(log2 n) + 1, ties the most weights that share one
    fractional part and nlevels the distinct levels a leaf can take,
    ceil(w_i) or ceil(w_i) - 1: at most 2n - 1 partitioned items, at
    most partition_items / 2 + ties * rounds sets, and at most (16 +
    nlevels) * sets + 2 (rounds + 1) finds.
    Measured with alphatree bench (BENCH_fold.json: seed 7, 3 trials,
    best of 5 repeats per row), its median time per cell is 4.4x to
    14.3x alpha_real's at every n = 2^8, 2^10, ..., 2^16 and d in {1,
    2, 8, 64, ..., n} tried (8.3x at n = 2^8 and 9.8x to 14.3x above it
    at d = 1, 5.3x to 8.5x at d = n), so it serves as the paper's
    algorithm and a cross-check.
    """
    seq = as_weight_seq(w)
    fracs = seq.fracs
    # the target from static_cost, a pass apart from the fold pass that
    # alpha_real takes it from, so that the two strategies' answers also
    # cross-check that pass
    target = static_cost(seq.floors)
    trace = [("probe", seq.n, 1.0, target)]

    tree = LevelTree(seq)  # all bits clear: the state at offset 0
    # The loop needs no start case.  The largest frac is feasible and
    # stays in items until a feasible median is found, so the loop
    # always sets candidate.  0.0, the frac of an integral weight, is a
    # median like any other: probing it sets no bit, and when it is the
    # answer the loop ends there, with every set undone
    items, candidate = list(range(seq.n)), None
    while items:
        m = select_kth([fracs[i] for i in items], (len(items) + 1) // 2)
        # the positions whose ceiling drops at offset m: frac in (0, m]
        lowered = [i for i in items if 0.0 < fracs[i] <= m]
        for i in lowered:
            tree.set(i)
        feasible = tree.cost() == target
        trace.append(("partition", len(items), m, len(lowered), feasible))
        if feasible:
            # m is feasible: remember it, roll the probe back, and keep
            # hunting strictly below
            candidate = m
            for _ in lowered:
                tree.undo()
            items = [i for i in items if fracs[i] < m]
        else:
            # infeasible: the sets stay (every later probe includes
            # them) and the search moves strictly above m
            items = [i for i in items if fracs[i] > m]
    res = _finish(seq, candidate, target, "new", trace)
    res.instrumentation.update(tree.counters())
    return res


def _finish(seq, b, target, strategy, trace) -> RealCostResult:
    # witness depths come from a static pass at the final offset
    cost, depths = static_witness(seq.adjusted(b))
    trace.append(("probe", seq.n, b, cost))
    if cost != target:
        raise AssertionError("offset %r does not reproduce the integer cost" % (b,))
    # The cost is target + frac(w_j) at the first j whose fractional part
    # is b.  w + k, with the integer k = target - floor(w), is that sum
    # exactly before its one rounding, in float arithmetic even where b
    # is a Fraction (weights just below 0, such as -0.3 or -1e-20, whose
    # w - floor(w) would round).  A weight with b > 0 is under 2^52 in
    # magnitude, so k is exact as a float wherever the sum is under
    # 2^52; an integral weight may not be (k = 2^60 + 1 for [-2^60, 0.0]
    # rounds), so b = 0.0 sums from 0.0.
    w = seq.weights[seq.fracs.index(b)] if b > 0.0 else 0.0
    k = target - math.floor(w)
    alpha = w + k
    # Floats from 2^52 up are a unit or more apart, so there the sum can
    # lose the fraction or move the integer part (2^53 for [2**53, 0.5],
    # whose cost is 2^53 + 1).  Below, it is the cost to half a unit in
    # its last place like any float result; insisting on exactness there
    # would reject every input whose cost lands in a higher binade than
    # the weight it comes from and needs that weight's last bits.
    if abs(alpha) >= 2.0**52:
        p, q = alpha.as_integer_ratio()
        num, den = w.as_integer_ratio()
        if p * den != (num + k * den) * q:
            raise InexactCostError(
                "the cost %d + %r rounds to %r: floats from 2^52 up are a unit "
                "or more apart, so this input has no exact float answer"
                % (target, b, alpha)
            )
    # the frac of a weight -0.0 is -0.0: report that offset as 0.0
    return RealCostResult(alpha, b or 0.0, target, depths, strategy, trace)
