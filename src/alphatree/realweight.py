"""Alphabetic minimax cost for real weights.

The cost of a real sequence equals (integer cost of ceil(w_i - b)) + b
for the right offset b, and the only offsets worth trying are the
fractional parts of the weights.  ceil(w_i - b) is floor(w_i), raised
by one iff frac(w_i) > b, so the integer cost is nonincreasing in b and
the answer is the smallest fractional part whose adjusted integer cost
equals the cost at the largest one.

Two search strategies share that skeleton:

* alpha_real, the sorted search, narrows a bracket of fractional parts
  around the answer in one loop, solving each probe with one stack pass
  and probing a repeated fractional part once.  Each round squeezes
  every run of positions whose level is decided into at most 4d items,
  for the whole bracket once it spans at most 1/16 of the items, then
  tries a window at the rank interpolation search (Perl, Itai and Avni
  1978) predicts from the passes on either side of it, or bisects:
  after two missed windows in a row in one list, where the window would
  reach the bracket's low end, or where it would hold fewer than 2
  values.  The passes' load Q falls in whole steps across the bracket,
  so interpolation places the answer only to within one step's share
  of it: a window takes 1/16 of the bracket, but at least four steps'
  worth and at most 1/4.  One rule reads every window's edges from a
  sorted list and its stride: from n = 4096, a sample of every 16th
  fractional part (Floyd and Rivest 1975), while a window spans 16 of
  its values (1/32 of the bracket there, up to 1/8), where an end of
  the bracket (an offset outside [0, 1) below or above them all, at
  first) may be an edge and is never probed; after that, the bracket's
  fractional parts, those the sample did not hold sorted (in C) and
  merged with its own, with two tries of their own.  So no fractional
  part is sorted twice, and only one bracket's are.  Integral weights
  keep the windows.  So the passes walk O(n log d) items in all rather
  than n per probe.
* alpha_real_new, the paper's algorithm, never sorts.  It keeps one
  level tree alive, walks a median-of-medians partition of the
  fractional parts, and moves between probe offsets by set/undo on the
  tree, touching each position O(1) times overall.

Both take the target cost at the largest fractional part, where every
level is floor(w), and the witness at the final offset from a stack
pass too; only the live tree of alpha_real_new is a LevelTree.  A cost
of magnitude 2^52 or more that no float holds exactly raises
InexactCostError.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .leveltree import LevelTree, WeightSeq, _adjust, as_weight_seq
from .leveltree import _TOP, _static_pass, ceil_log2, static_witness
from .core import minimax_cost_by_dp


class InexactCostError(ValueError):
    """The cost int_cost + b of a real-weight run is 2^52 or more in
    magnitude, where floats are a unit or more apart, and is not a
    float, so no float answer is exact."""


class RealCostResult:
    """Outcome of a real-weight run: alpha = int_cost + b (rounded once,
    from the weight whose fractional part b is), plus the
    witness depth profile and the structure-operation counters: the
    live tree's sets, undos, finds, unions and deunions, the items the
    median search partitioned, probes, the number of static passes,
    probe_items, the items they walked, squeeze_items, the items the
    sorted search's squeezes walked, and sort_items, the fractional
    parts it sorted, its sample included (0 for the live tree's
    search, which never sorts).

    b is exact and in [0, 1): a float, or a Fraction when it is the
    fractional part of a weight in (-1/2, 0) with bits below 2^-53 (see
    WeightSeq)."""

    def __init__(self, alpha, b, int_cost, depths, strategy, instrumentation):
        self.alpha = alpha
        self.b = b
        self.int_cost = int_cost
        self.depths = depths
        self.strategy = strategy
        self.instrumentation = instrumentation

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
    }


def _probe(levels, fracs, counts, b, acc) -> tuple[int, int]:
    # (t, a) at offset b, by one static pass over the items
    acc["probes"] += 1
    acc["probe_items"] += len(levels)
    return _static_pass(_adjust(levels, fracs, b), counts)


def _target(seq, acc) -> tuple[int, int]:
    # the pass at the largest fractional part, where no frac is above
    # the offset, so every level is its floor and no list is adjusted
    acc["probes"] += 1
    acc["probe_items"] += seq.n
    return _static_pass(seq.floors, None)


# A squeeze walks every item, about twice the cost of a probe's pass,
# but shortens only long runs.  So the search squeezes only once the
# undecided positions (about hi - lo + 1) are at most 1/16 of the items,
# when runs average 15 items or more.  Timed against 4, 8, 32 and no
# squeeze at all (2-core box, best of 7 alternating runs, n = 512, 4096
# and 2^14, d in {1, 2, 8, 64, n}), 16 was never beaten by more than
# the noise: 8 took 0.87x to 1.34x its time, 4 1.01x to 1.50x, 32 0.92x
# to 1.13x, and no squeeze 1.10x to 1.80x.  An interpolated window
# holds 1/16 of the offsets left for the same reason, 1/32 of the
# sample's, whose edge probes walk every item, unless Q's whole steps
# place the answer less closely than that (see alpha_real's loop).
_SQUEEZE_RUN = 16


def _squeeze(levels, fracs, counts, flo, fhi, acc):
    # the items for every probe offset in [flo, fhi], in one pass: an
    # item with flo < frac <= fhi is still undecided and passes through,
    # every other item has a fixed level (raised iff frac > fhi) and
    # folds into static_cost's run stack, whose bottom entry is emitted
    # when popped (leveltree's squeeze rule); an undecided item, and the
    # end, first emit the entries left, bottom to top.  So each maximal
    # run of fixed items is replaced by its squeeze, whose items carry
    # frac 0.0 so that no probe raises them again
    acc["squeeze_items"] += len(levels)
    out_l, out_f, out_k = out = [], [], []
    # the top entry is (t, a); lv/cs hold the entries under it
    lv: list = []
    cs: list[int] = []
    t, a = _TOP, 0
    for y, f, k in zip(levels, fracs, counts):
        if f > fhi:
            y += 1
        elif f > flo:
            if lv:
                out_l += lv[1:]
                out_l.append(t)
                out_k += cs[1:]
                out_k.append(a)
                out_f += [0.0] * len(lv)
                lv, cs = [], []
                t, a = _TOP, 0
            out_l.append(y)
            out_f.append(f)
            out_k.append(k)
            continue
        if t < y:
            b = lv.pop()
            c = cs.pop()
            while b < y:
                a = c + (-((-a) >> (b - t)))
                t = b
                b = lv.pop()
                c = cs.pop()
            if lv:
                k += -((-a) >> (y - t))
            else:
                # b is the sentinel: the bottom entry is emitted
                out_l.append(t)
                out_f.append(0.0)
                out_k.append(a)
            t, a = b, c
        if t == y:
            a += k
        else:
            lv.append(t)
            cs.append(a)
            t, a = y, k
    if lv:
        out_l += lv[1:]
        out_l.append(t)
        out_k += cs[1:]
        out_k.append(a)
        out_f += [0.0] * len(lv)
    return out


def alpha_real(w) -> RealCostResult:
    """Sorted-search strategy: narrow a bracket of offsets around the
    answer with windows read from sorted fractional parts, probing each
    distinct value once.

    The bracket (flo, fhi] holds the answer.  Each round of one loop
    tries a window at the rank interpolation search (Perl, Itai and
    Avni 1978) predicts from the passes at its two ends, squeezing the
    items for the window and probing its two edges; after two missed
    windows in a row in one list, where the window would reach the
    bracket's low end, or where it would hold fewer than 2 values, it
    bisects instead.  The passes' load Q is an integer, so a window
    takes 1/16 of the bracket but at least four of the steps by which Q
    falls across it, and at most 1/4.  One rule reads every window's
    edges from a sorted list and its stride: every 16th fractional
    part, sorted (Floyd and Rivest 1975), from n = 4096 and while a
    window spans 16 of them (1/32 of the bracket, up to 1/8), where an
    end of the bracket may be an edge and is never probed; then the
    bracket's fractional parts, those the sample did not hold sorted
    and merged with its own, with two tries of their own.  So no
    fractional part is sorted twice, and only one bracket's are.
    Each round first squeezes the items for the whole bracket once it
    spans at most 1/16 of them.  Integral weights (frac 0) keep the
    windows like any other input.  A squeeze folds every run of
    positions whose level no later probe can change (by the squeeze
    rule of leveltree's static passes) into at most 4d items, so the
    probes walk O(n log d) items in all, not n each.
    """
    seq = as_weight_seq(w)
    acc = _zero_counters()
    n, fracs = seq.n, seq.fracs
    # the items (levels, fracs, counts): a position not squeezed yet is
    # its floor, frac and count 1, a squeezed item a fixed level, frac
    # 0.0 and its count
    items = seq.floors, fracs, [1] * n
    t, a = _target(seq, acc)
    target = t + ceil_log2(a)
    # Q(b) = a_b * 2^(t_b - t) from the pass at b is an integer (t_b,
    # the largest level, is t or t + 1), and b is feasible iff Q <= cap
    cap = 1 << (target - t)

    # Cost as a function of the offset is nonincreasing and reaches
    # target at the largest frac, so the answer is the first feasible
    # frac, in the bracket (flo, fhi] with q1 = Q(flo) > cap and q2 =
    # Q(fhi) <= cap.  Below every frac, 0.0 among them, each floor is
    # raised, so Q falls from 2a at the sentinel -1.0 to a at the
    # sentinel 1.0, and integral weights need no case of their own.
    # order holds every stride-th frac, sorted, and order[lo..hi] spans
    # the bracket: order[lo - 1] stands for flo and order[hi] for fhi,
    # either of which may lie past an end of order.  A probe decides
    # every copy of its offset: it moves lo past them or hi to the
    # first
    q1, q2, flo, fhi = 2 * a, a, -1.0, 1.0

    def probe(x) -> bool:
        nonlocal lo, hi, q1, q2, flo, fhi
        tb, ab = _probe(*items, order[x], acc)
        q = ab << (tb - t)
        if q > cap:
            lo, q1, flo = bisect_right(order, order[x], x, hi), q, order[x]
            return False
        hi, q2, fhi = bisect_left(order, order[x], lo, x), q, order[x]
        return True

    # Q in [a, 2a] places the answer to about n/a indices, so a <
    # _SQUEEZE_RUN gets no window.  A sample value's rank is about 16
    # times its index, so the sample places windows while they span 16
    # of its values or more, as the first one does from n = 4096.  Each
    # list gets two tries: two missed windows in a row end the sample's,
    # and the sorted fracs start with two more
    tries = 2 if a >= _SQUEEZE_RUN else 0
    stride = _SQUEEZE_RUN if tries and n >= _SQUEEZE_RUN**3 else 1
    order = sorted(fracs[::stride])
    acc["sort_items"] += len(order)
    lo, hi = 0, len(order) if stride > 1 else bisect_left(order, order[-1])

    # Each round squeezes the items for the whole bracket, [order[lo],
    # order[hi]], once it spans at most 1/16 of the sorted fracs; that
    # one rule also fixes the copies of order[lo].  A window
    # interpolates the answer's index between (lo - 1, q1) and (hi, q2),
    # takes w values around it, and squeezes the items for its two
    # edges, order[i] and order[k], leaving the fracs between them
    # undecided.  A hit (k feasible, i not) brackets the answer by those
    # two edges, and the next round works on the window's items; a miss
    # restores the items from before the window, and two misses in a
    # row end the windows read from that list.  In the sorted fracs a
    # window lies strictly inside the bracket, and its lower edge steps
    # down past the copies of its first offset: one that reaches lo
    # gives way to a bisection probe.  In the sample an edge may be an
    # end of the bracket: the window is cut at a sentinel, with nothing
    # past it, and shifted in from a probed end.  A sampled window whose
    # values tie (all integral weights, say) is not tried, and where the
    # sample places no window the search sorts the bracket's fracs
    while lo < hi or stride > 1:
        if stride == 1 and _SQUEEZE_RUN * (hi - lo + 1) <= len(items[0]):
            items = _squeeze(*items, order[lo], order[hi], acc)
        # Q falls from q1 to q2 in whole steps across the bracket, so it
        # places the answer to within span / (q1 - q2) values: a window
        # takes 1/16 of the bracket (1/32 in the sample) but at least
        # four such steps, and in the sample at least one stride, up to
        # 1/4 of the bracket (1/8 in the sample)
        span, wide = hi - lo + 1, 2 if stride > 1 else 1
        w = max(span // (_SQUEEZE_RUN * wide), -(-4 * span // (q1 - q2)), stride)
        w = min(w, span // (4 * wide))
        if tries and w >= max(2, stride):
            r = lo - 1 + span * (q1 - cap) // (q1 - q2)
            i = r - w // 2 - 1
            if stride == 1:
                i = max(lo, min(i, hi - w - 1))
                k = i + w
                i = bisect_left(order, order[i + 1], lo, i + 1) - 1
            else:
                i = max(i, lo - 1) if lo else i
                i = min(i, hi - w) if hi < len(order) else i
                i, k = max(i, lo - 1), min(i + w, hi)
            if (i >= lo or stride > 1) and order[max(i, lo)] < order[min(k, hi - 1)]:
                outer = items
                items = _squeeze(*outer, order[i] if i >= lo else flo,
                                 order[k] if k < hi else fhi, acc)
                # an end of the bracket is never probed, its Q being known
                if (k == hi or probe(k)) and (i < lo or not probe(i)):
                    tries = 2
                else:
                    items = outer
                    tries -= 1
                continue
        if stride > 1:
            # sort the bracket's fracs less the sample's, which come in
            # the same position order: a frac equal to the sample's next
            # is taken as that one, and dropped (squeezed items carry
            # frac 0.0, above the bottom sentinel)
            held = iter([f for f in fracs[::stride] if flo < f <= fhi] + [None])
            h = next(held)
            rest = sorted([f for f in (fracs if flo < 0 else items[1])
                           if flo < f <= fhi and (f != h or (h := next(held)) and False)])
            acc["sort_items"] += len(rest)
            # sorted() merges two sorted runs in one pass
            order = sorted(order[lo:bisect_right(order, fhi, lo)] + rest)
            # the sorted fracs start with two tries of their own
            lo, hi, stride, tries = 0, bisect_left(order, order[-1]), 1, 2
            continue
        probe((lo + hi) // 2)
    return _finish(seq, order[lo], target, "sorted", acc)


# the benchmark (perfbench/workloads.py) imports the sorted search by
# this name; the package exports it as alpha_real only
alpha_real_sorted = alpha_real


def alpha_real_new(w) -> RealCostResult:
    """Median-search strategy: one live tree, set/undo between probes.

    Runs in O(n log log n + n log d) tree operations, the paper's bound.
    Measured with alphatree bench (BENCH_qsteps.json: seed 7, 3 trials,
    best of 5 repeats per row), it is 2.4x to 14x slower than alpha_real
    at every n = 2^8, 2^10, ..., 2^16 and d in {1, 2, 8, 64, ..., n}
    tried (8.4x at n = 2^8 and 9.6x to 14x above it at d = 1, 2.4x to
    2.7x at d = n), so it serves as the paper's algorithm and a
    cross-check.
    """
    seq = as_weight_seq(w)
    acc = _zero_counters()
    fracs = seq.fracs
    t, a = _target(seq, acc)
    target = t + ceil_log2(a)

    tree = LevelTree(seq)  # all bits clear: the state at offset 0
    # The loop needs no start case.  The largest frac is feasible and
    # stays in items until a feasible median is found, so the loop
    # always sets candidate.  0.0, the frac of an integral weight, is a
    # median like any other: probing it sets no bit, and when it is the
    # answer the loop ends there, with every set undone
    items, candidate = list(range(seq.n)), None
    while items:
        acc["partition_items"] += len(items)
        m = select_kth([fracs[i] for i in items], (len(items) + 1) // 2)
        # the positions whose ceiling drops at offset m: frac in (0, m]
        lowered = [i for i in items if 0.0 < fracs[i] <= m]
        for i in lowered:
            tree.set(i)
        if tree.cost() == target:
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
    acc.update(tree.counters())
    return _finish(seq, candidate, target, "new", acc)


def _finish(seq, b, target, strategy, acc) -> RealCostResult:
    # witness depths come from a static pass at the final offset
    acc["probes"] += 1
    acc["probe_items"] += seq.n
    cost, depths = static_witness(seq.adjusted(b))
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
    return RealCostResult(alpha, b or 0.0, target, depths, strategy, acc)
