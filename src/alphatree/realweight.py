"""Alphabetic minimax cost for real weights.

The cost of a real sequence equals (integer cost of ceil(w_i - b)) + b
for the right offset b, and the only offsets worth trying are the
fractional parts of the weights.  ceil(w_i - b) is floor(w_i), raised
by one iff frac(w_i) > b, so the integer cost is nonincreasing in b and
the answer is the smallest fractional part whose adjusted integer cost
equals the cost at the largest one.

Two search strategies share that skeleton:

* alpha_real, the sorted search, sorts the fractional parts (in C)
  and narrows a bracket of them around the answer in one loop, solving
  each probe with one stack pass and probing a repeated fractional
  part once.  Each round squeezes every run of positions whose level
  is decided into at most 4d items, for the whole bracket once it spans
  at most 1/16 of the items, then tries a window of 1/16 of the
  bracket at the rank interpolation search (Perl, Itai and Avni 1978)
  predicts from the passes on either side of it, or bisects: below 32
  offsets, after two missed windows in a row, or where the window
  would reach the bracket's low end.  Integral weights keep the
  windows.  So the passes walk O(n log d) items in all rather than n
  per probe.
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
    probe_items, the items they walked, and squeeze_items, the items
    the sorted search's squeezes walked.

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
# when runs average 15 items or more, and each interpolated window holds
# 1/16 of the offsets left for the same reason.  Timed against 4, 8, 32
# and no squeeze at all (2-core box, best of 7 alternating runs, n =
# 512, 4096 and 2^14, d in {1, 2, 8, 64, n}), 16 was never beaten by
# more than the noise: 8 took 0.87x to 1.34x its time, 4 1.01x to
# 1.50x, 32 0.92x to 1.13x, and no squeeze 1.10x to 1.80x.
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
    """Sorted-search strategy: sort the fractional parts in C, then
    search them, probing each distinct value once.

    The search narrows a bracket of sorted offsets, order[lo..hi],
    that holds the answer, in one loop.  Each round first squeezes the
    items for the whole bracket once it spans at most 1/16 of them.  It
    then tries a window of 1/16 of the bracket at the rank interpolation
    search (Perl, Itai and Avni 1978) predicts, squeezing the items for
    the window and probing its two edges; below 32 offsets, after two
    missed windows in a row, or where the window would reach lo, it
    bisects instead.  Integral weights (frac 0) keep the windows like
    any other input.  A squeeze folds every run of positions whose
    level no later probe can change (by the squeeze rule of leveltree's
    static passes) into at most 4d items, so the probes walk O(n log d)
    items in all, not n each.
    """
    seq = as_weight_seq(w)
    acc = _zero_counters()
    order = sorted(seq.fracs)
    # the items (levels, fracs, counts): a position not squeezed yet is
    # its floor, frac and count 1, a squeezed item a fixed level, frac
    # 0.0 and its count
    items = seq.floors, seq.fracs, [1] * seq.n
    t, a = _target(seq, acc)
    target = t + ceil_log2(a)
    # Q(b) = a_b * 2^(t_b - t) from the pass at b is an integer (t_b,
    # the largest level, is t or t + 1), and b is feasible iff Q <= cap
    cap = 1 << (target - t)
    # Cost as a function of the offset is nonincreasing and reaches
    # target at the largest frac, so the answer is the first feasible
    # frac.  The bracket order[lo..hi] holds it, with q1 = Q just below
    # order[lo] and q2 = Q at order[hi].  Below every frac, 0.0 among
    # them, each floor is raised, so Q starts at 2a and falls to a, and
    # integral weights need no case of their own.  A probe decides
    # every copy of its offset: it moves lo past them or hi to the
    # first.  Bisecting the sorted list costs nothing next to
    # set(fracs), which takes as long as the sort at n = 2^14
    lo, hi = 0, bisect_left(order, order[-1])
    q1, q2 = 2 * a, a

    def probe(x) -> bool:
        nonlocal lo, hi, q1, q2
        tb, ab = _probe(*items, order[x], acc)
        q = ab << (tb - t)
        if q > cap:
            lo, q1 = bisect_right(order, order[x], x, hi), q
            return False
        hi, q2 = bisect_left(order, order[x], lo, x), q
        return True

    # Each round squeezes the items for the whole bracket, [order[lo],
    # order[hi]], once it spans at most 1/16 of them; that one rule also
    # fixes the copies of order[lo].  A window interpolates the answer's
    # index between (lo - 1, q1) and (hi, q2), places w offsets strictly
    # inside the bracket there, order[j..k], and squeezes the items for
    # its two probes, at order[j - 1] and order[k], leaving the fracs in
    # (order[j - 1], order[k]] undecided.  A hit (k feasible, j - 1 not)
    # brackets the answer by those two probes, and the next round works
    # on the window's items; a miss restores the items from before the
    # window, and two misses in a row end the windows.  Q in [a, 2a]
    # places the answer to about n/a indices, so a < _SQUEEZE_RUN gets
    # no window; a window reaching lo, whose lower probe is decided,
    # gives way to a bisection probe
    tries = 2 if a >= _SQUEEZE_RUN else 0
    while lo < hi:
        if _SQUEEZE_RUN * (hi - lo + 1) <= len(items[0]):
            items = _squeeze(*items, order[lo], order[hi], acc)
        w = (hi - lo + 1) // _SQUEEZE_RUN
        if tries and w >= 2:
            r = lo - 1 + (hi - lo + 1) * (q1 - cap) // (q1 - q2)
            j = max(lo + 1, min(r - w // 2, hi - w))
            k = j + w - 1
            j = bisect_left(order, order[j], lo, j)
            if j > lo:
                outer = items
                items = _squeeze(*outer, order[j - 1], order[k], acc)
                if probe(k) and not probe(j - 1):
                    tries = 2
                else:
                    items = outer
                    tries -= 1
                continue
        probe((lo + hi) // 2)
    return _finish(seq, order[lo], target, "sorted", acc)


# the benchmark (perfbench/workloads.py) imports the sorted search by
# this name; the package exports it as alpha_real only
alpha_real_sorted = alpha_real


def alpha_real_new(w) -> RealCostResult:
    """Median-search strategy: one live tree, set/undo between probes.

    Runs in O(n log log n + n log d) tree operations, the paper's bound.
    Measured with alphatree bench (seed 7, best of 9 runs per cell), it
    is 2.5x to 17x slower than alpha_real at every n = 2^8, 2^10, ...,
    2^16 and d in {1, 2, 8, 64, n} tried (11x to 17x at d = 1, 2.5x to
    3.3x at d = n), so it serves as the paper's algorithm and a
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
