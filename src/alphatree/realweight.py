"""Alphabetic minimax cost for real weights.

The cost of a real sequence equals (integer cost of ceil(w_i - b)) + b
for the right offset b, and the only offsets worth trying are the
fractional parts of the weights.  Lowering b past frac(w_i) bumps
ceil(w_i - b) at position i, so the integer cost is nonincreasing in b
and the answer is the smallest fractional part whose adjusted integer
cost equals the cost at the largest one.

Two search strategies share that skeleton:

* alpha_real, the sorted search (also importable as
  alpha_real_sorted), sorts the fractional parts (in C) and searches
  them, solving each probe with one stack pass and probing a repeated
  fractional part once.  Each round squeezes every run of positions
  whose level is decided into at most 4d items, for a window of 1/16 of
  the offsets left at the rank interpolation search (Perl, Itai and
  Avni 1978) predicts: first from the target pass, then from the two
  edge probes of the window that held the answer.  Below 32 offsets,
  or after two missed windows in a row, it bisects, squeezing again
  once few positions are undecided.  So the passes walk O(n log d)
  items in all rather than n per probe.
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
    median search partitioned, and probes, the number of static passes.

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


def alpha_real_oracle(w, max_n: int = 16) -> float:
    """Reference value from the interval DP over the exact rationals,
    rounded once to a float (a float DP would round at every +1)."""
    # imported here: fractions costs some 3 ms at package import
    from fractions import Fraction

    seq = as_weight_seq(w)
    return float(minimax_cost_by_dp([Fraction(x) for x in seq.weights], max_n=max_n))


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
    }


def _probe(levels, fracs, counts, b, acc) -> tuple[int, int]:
    # (t, a) at offset b, by one static pass over the items
    acc["probes"] += 1
    acc["probe_items"] += len(levels)
    return _static_pass(_adjust(levels, fracs, b), counts)


def _target(seq, acc) -> tuple[int, int]:
    # the pass at the largest fractional part, where every level is
    # floor(w): a weight with a fraction is lowered, an integral one is
    # its own ceiling
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


def _squeeze(levels, fracs, counts, flo, fhi):
    # the items once the search range is [flo, fhi], in one pass: an item
    # with 0 < frac in that range is still undecided and passes through,
    # every other item has a fixed level (lowered iff 0 < frac < flo) and
    # folds into static_cost's run stack, whose bottom entry is emitted
    # when popped (leveltree's squeeze rule); an undecided item, and the
    # end, first emit the entries left, bottom to top.  So each maximal
    # run of fixed items is replaced by its squeeze, whose items carry
    # frac 0.0 so that no probe lowers them again
    out_l, out_f, out_k = out = [], [], []
    # the top entry is (t, a); lv/cs hold the entries under it
    lv: list = []
    cs: list[int] = []
    t, a = _TOP, 0
    for y, f, k in zip(levels, fracs, counts):
        if f < flo:
            if f > 0.0:
                y -= 1
        elif f <= fhi and f > 0.0:
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

    Each round interpolates the answer's rank between two offsets on
    either side of it, squeezes the items for a window of 1/16 of the
    offsets left there, and probes the window's two edges: a window
    holding the answer starts the next, narrower round, a miss takes a
    secant step to one more window.  Below 32 offsets, or after two
    misses in a row, it bisects.  A squeeze folds every run of positions
    whose level no later probe can change (by the squeeze rule of
    leveltree's static passes) into at most 4d items, so the probes
    walk O(n log d) items in all, not n each.
    """
    seq = as_weight_seq(w)
    acc = _zero_counters()
    order = sorted(seq.fracs)
    # the items (levels, fracs, counts): a position not squeezed yet is
    # its ceiling, frac and count 1, a squeezed item a fixed level, frac
    # 0.0 and its count
    items = seq.ceils, seq.fracs, [1] * seq.n
    t, a = _target(seq, acc)
    target = t + ceil_log2(a)
    # Q(b) = a_b * 2^(t_b - t) from the pass at b is an integer (t_b,
    # the largest level, is t or t + 1), and b is feasible iff Q <= cap
    cap = 1 << (target - t)

    def q_at(b) -> int:
        tb, ab = _probe(*items, b, acc)
        return ab << (tb - t)

    lo, hi = 0, bisect_left(order, order[-1])
    # Q falls from 2a at offset 0 (the target pass one level up, if no
    # frac is 0) to a.  Interpolating between (x1, q1) and (x2, q2), an
    # index and its Q either side of the answer, places w offsets
    # strictly inside [lo, hi]; the items squeezed for them probe
    # exactly at the top and just below.  A hit brackets the answer by
    # those two probes for the next window, squeezed from the hit's
    # items; a miss restores the items from before the window and moves
    # a point (a secant step), twice at most between hits.  Q in [a, 2a]
    # places the answer to about n/a indices, so a < _SQUEEZE_RUN gets no
    # window; nor does one reaching lo, whose lower probe is decided
    x1, q1, x2, q2 = -1, 2 * a, seq.n - 1, a
    tries = 2 if order[0] > 0.0 and a >= _SQUEEZE_RUN else 0
    while tries:
        w = (hi - lo + 1) // _SQUEEZE_RUN
        if w < 2:
            break
        r = x1 + (x2 - x1) * (q1 - cap) // (q1 - q2)
        j = max(lo + 1, min(r - w // 2, hi - w))
        k = min(j + w - 1, hi - 1)
        fhi = order[k]
        j = bisect_left(order, order[j], lo, j)
        if j == lo:
            break
        outer = items
        items = _squeeze(*outer, order[j], fhi)
        qt = q_at(fhi)
        if qt > cap:
            lo = bisect_right(order, fhi, k, hi)
            x1, q1 = lo - 1, qt
        else:
            qb = q_at(order[j - 1])
            if qb > cap:
                lo, hi = j, bisect_left(order, fhi, j, k)
                x1, q1, x2, q2 = j - 1, qb, k, qt
                tries = 2
                continue
            hi = bisect_left(order, order[j - 1], lo, j)
            x2, q2 = j - 1, qb
        items = outer
        tries -= 1
    # cost as a function of the offset is nonincreasing and reaches
    # target at the largest frac: binary search the first that does.  A
    # probe decides every copy of its offset, so the range drops the
    # whole run of equal fracs (all-integral input, equal smoothed q);
    # bisecting the sorted list costs nothing next to set(fracs), which
    # takes as long as the sort at n = 2^14
    while lo < hi:
        mid = (lo + hi) // 2
        b = order[mid]
        if q_at(b) <= cap:
            hi = bisect_left(order, b, lo, mid)
        else:
            lo = bisect_right(order, b, mid, hi)
        if lo < hi and _SQUEEZE_RUN * (hi - lo + 1) <= len(items[0]):
            items = _squeeze(*items, order[lo], order[hi])
    return _finish(seq, order[lo], target, "sorted", acc)


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
    bmax = max(fracs)
    t, a = _target(seq, acc)
    target = t + ceil_log2(a)

    tree = LevelTree(seq)  # all bits clear: the state at offset 0
    if tree.cost() == target:
        # already optimal with no ceiling adjusted; some frac must be
        # zero (otherwise bmax would have improved the cost), so 0 is a
        # legal offset
        items, candidate = [], 0.0
    else:
        items, candidate = list(range(seq.n)), bmax
    while items:
        acc["partition_items"] += len(items)
        m = select_kth([fracs[i] for i in items], (len(items) + 1) // 2)
        below = [i for i in items if fracs[i] < m]
        # the positions whose ceiling drops at offset m: frac in (0, m]
        lowered = [i for i in below if fracs[i] > 0.0]
        if m > 0.0:
            lowered += [i for i in items if fracs[i] == m]
        for i in lowered:
            tree.set(i)
        if tree.cost() == target:
            # m is feasible: remember it, roll the probe back, and keep
            # hunting strictly below
            candidate = m
            for _ in lowered:
                tree.undo()
            items = below
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
    # is b (or target, with w = 0.0, when b is 0).  w + k, with the integer
    # k = target - floor(w), is that sum exactly before its one rounding,
    # in float arithmetic even where b is a Fraction (weights just below
    # 0, such as -0.3 or -1e-20, whose w - floor(w) would round).
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
    return RealCostResult(alpha, b, target, depths, strategy, acc)
