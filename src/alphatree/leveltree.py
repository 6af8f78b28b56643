"""Dynamic level tree over a real-weight sequence.

Keeps the levels Y = ceil(w_1) - x_1, ..., ceil(w_n) - x_n in its leaves
(the bit x_i is ceil(w_i) minus leaf i's level; WeightSeq gives the
ceilings) and maintains their alphabetic minimax cost under three
operations: set(i) (flip x_i from 0 to 1, allowed only when w_i is not
an integer), undo() (exact rollback of the last set), and cost() (O(1)
plus one find).

The tree has one leaf per weight and one internal node per level
interval.  Every internal node keeps its children at a single common
level strictly below its own, so the load of a node u with child level c
is

    load(u) = ceil(csum(u) / 2^(level(u) - c))

where csum(u) is the sum of the children's loads, at most n.
Parent pointers of internal nodes are resolved through a union-find with
deunion: merging two adjacent siblings is a single union instead of
re-parenting their children, and undo can reverse it exactly.

A static integer instance needs none of the dynamic machinery:
static_cost and static_witness group the levels exactly as the build
does, in the same left-to-right stack pass with no arena, no union-find
and no journal, and the live tree's witness is static_witness of its
leaf levels.  Four loops run that pass, with the runs popped below the
incoming level lifted inline and no call per pop: the build makes one
new node over each run, static_witness pairs the run's fragments by
index arithmetic, with no work for a run of one fragment, and the
counting passes count rather than list.  The squeeze, _squeeze_pass,
squeezes runs of fixed levels (see the static-pass comment), so that
the sorted search's repeated passes over them stay short, and at a
single offset its output is read by a fold with no stack,
_bottom_entry: that is static_cost, and each probe of the sorted
search.  The fold pass, _fold_pass, runs once over the floors: it
gives the sorted search its target and folds each run that costs the
same at every offset into one item, so that the search walks only the
positions that can change the cost.

The undo journal is one flat list, and undo is set union with
backtracking: it returns to the state its segment opened in.  A set
opens its segment with a header of two ints, the arena size and the
union-find trail length, then pushes only writes, each as the old
value, the index, then the arena array written to.  undo restores
writes while the top entry is a list; the int under them is the trail
length, to which it deunions back, and under that the arena size, past
which it drops the node the set made.  Arena writes and the union-find
are disjoint, so restoring every write before the deunions is exact.
The union-find's trail is flat in the same way.  So a set pushes only
ints and the tree's own lists, none of them a new object that the
cycle collector tracks, and a search with some 10^5 writes journaled at
once triggers no collection; with a tuple per write it ran about 200.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from itertools import accumulate, repeat
from operator import setitem, sub

NIL = -1


def ceil_log2(n: int) -> int:
    """Smallest k with 2^k >= n, for n >= 1."""
    if n < 1:
        raise ValueError("ceil_log2 needs n >= 1, got %r" % (n,))
    return (n - 1).bit_length()


def _ceil_shift(x: int, k: int) -> int:
    # ceil(x / 2^k) for nonnegative x
    return -((-x) >> k)


class LevelTreeError(ValueError):
    """Rejected level-tree operation (state is left unchanged)."""


class UnionFindDeunion:
    """Union-find with union by rank, no path compression, and exact
    LIFO deunion.

    Path compression is deliberately absent: deunion must restore the
    precise pre-union forest, so find may not mutate anything.  Finds
    are therefore O(log n) worst case.
    """

    def __init__(self, n: int = 0):
        # elements 0..n-1 start as singletons
        self.parent: list[int] = list(range(n))
        self.rank: list[int] = [0] * n
        # flat like the level tree's journal: rb, ra, bumped per union
        self.trail: list[int] = []
        self.finds = 0
        self.unions = 0
        self.deunions = 0

    def add(self) -> int:
        """Create a fresh singleton element and return its id."""
        x = len(self.parent)
        self.parent.append(x)
        self.rank.append(0)
        return x

    def pop(self) -> None:
        """Remove the most recently added element.

        Only valid when that element is a singleton root, which holds
        whenever unions issued after its creation have been deunioned
        (the level tree's journal guarantees this order).
        """
        x = len(self.parent) - 1
        # a root with children has rank >= 1 under union by rank
        if self.parent[x] != x or self.rank[x] != 0:
            raise LevelTreeError("union-find pop on a non-singleton element")
        self.parent.pop()
        self.rank.pop()

    def find(self, x: int) -> int:
        self.finds += 1
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        """Merge the classes of a and b; returns the new representative.

        Raises if a and b are already connected: the level tree only
        ever unions distinct adjacent siblings, so an equal-root union
        signals a logic bug upstream.
        """
        ra = self.find(a)
        rb = self.find(b)
        if ra == rb:
            raise LevelTreeError("union of already-connected elements %d, %d" % (a, b))
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        bumped = self.rank[ra] == self.rank[rb]
        if bumped:
            self.rank[ra] += 1
        self.parent[rb] = ra
        self.trail.extend((rb, ra, bumped))
        self.unions += 1
        return ra

    def deunion(self) -> None:
        """Reverse the most recent un-reversed union."""
        trail = self.trail
        if not trail:
            raise LevelTreeError("deunion with no live unions")
        bumped = trail.pop()
        ra = trail.pop()
        rb = trail.pop()
        self.parent[rb] = rb
        if bumped:
            self.rank[ra] -= 1
        self.deunions += 1


# ----------------------------------------------------------------------
# static integer instances
#
# One left-to-right pass over the levels with the level tree's grouping
# rule: each maximal equal-level run becomes one node at min(level below
# it, next level), with load ceil(csum / 2^gap).  The stack keeps one
# entry per run, levels strictly decreasing upward from a bottom
# sentinel at +inf, so a node lifted to the level of the entry below it
# joins that run at once, and a node lifted to the incoming level y goes
# in front of leaf y.  Every pass keeps the top entry in two locals, so
# an item at the top's level costs one add or append, and none calls a
# function per pop.  The counting pass, _squeeze_pass, keeps the
# entries under the top in two lists, popped together (a tuple stack,
# or peeking at the entry under the top, made them no faster); the fold
# pass, whose entries also carry their first position, keeps tuples.
# The passes over lists (the build and static_witness) keep (level, run)
# tuples and peek at the entry under the top, so a run lifted to the
# incoming level pops and pushes nothing.
#
# The counting pass takes weighted items: an item (y, a) acts like
# a leaves at level y, which is what a lifted node of load a landing at
# y is.  Since ceil(ceil(c / 2^p) / 2^q) = ceil(c / 2^(p + q)), a run of
# items R can be replaced by its squeeze, the items of its own pass with
# the bottom entry never lifted: each time that entry is popped it is
# emitted as an item instead (only it can merge with entries from before
# R), and the entries left at the end follow, bottom to top.  Then
# cost(P + squeeze(R) + S) = cost(P + R + S) for any P and S.  Emitted
# bottoms rise and the residual entries fall, so a squeeze has at most
# twice as many items as R has distinct levels.
#
# The sorted search's levels at offset b are ceil(w - b): the floors,
# each raised by one iff its frac is above b (WeightSeq.adjusted).  For
# every offset in [flo, fhi], an item with frac <= flo stays at its
# floor and one with frac > fhi is raised, so only flo < frac <= fhi is
# undecided, and _squeeze_pass squeezes every run of the others.  At
# one offset, flo = fhi = b, no item is undecided, so the squeeze is the
# whole list's: it rises to the pass's bottom entry (t, a), t the
# largest level, and falls from there.  _bottom_entry reads that entry
# with no stack, by a fold that lifts each item into the next from
# either end.  That is a probe of the sorted search and static_cost.
#
# The fold pass, _fold_pass, is the pass over the floors, at 1.0 above
# every frac: the search's target.  It also folds the runs that no offset
# can change.  When an incoming position i at floor y pops the entries
# below y, they hold the run R of positions since the last one at y or
# above (any entry at y or above is never popped by R's levels, all
# below y); R lifts to y with load ceil(a / 2^(y - t)), (t, a) its
# bottom entry with the others lifted into it, and R's own cost is t +
# ceil_log2(a).  If R holds two positions or more and costs at most y -
# 1, the pass replaces R by one item fixed at y, and the replacement is
# exact at every offset.  Raising any of R's levels by one raises its
# cost by at most one, to at most y, and a run of two or more leaves
# costs more than its highest level, so at every offset all of R lies
# below y, and so below both its neighbours: the position before it (or
# the sentinel) and i, at y or y + 1.  So at every offset R is popped
# whole when i comes in and lifts to z, the lower of i's level and the
# entry's below, z >= y, with load 1, since its cost is at most y; the
# item at y lands at z with load 1 too, lifted there or, at z = y,
# merged.  So the stack after i, and everything after, is the same.  No
# position at the largest floor is ever folded: none lies below an
# incoming floor.  A single position is left as it is, as its fold would
# shorten nothing.  The folds nest: a fold whose run holds earlier ones
# replaces them, and the position after the outermost is kept, so the
# items are at most twice the kept positions.

_TOP = math.inf


def static_cost(levels) -> int:
    """Minimax cost of a non-empty sequence of integer levels.

    Equals LevelTree(levels).cost().
    """
    t, a = _bottom_entry(levels, repeat(0.0), repeat(1), 0.0)
    return t + ceil_log2(a)


def _squeeze_pass(levels, fracs, counts, flo, fhi):
    # the items (levels, fracs, counts) for every offset in [flo, fhi]:
    # an item with flo < frac <= fhi is undecided and passes through,
    # every other item has a fixed level (raised iff frac > fhi) and goes
    # on the run stack, whose bottom entry is emitted when popped; an
    # undecided item, and the end, first emit the entries left, bottom
    # to top.  So each maximal run of fixed items is replaced by its
    # squeeze, whose items carry frac 0.0 so that no offset raises them
    # again.  An item at or below flo costs one comparison
    out_l, out_f, out_k = out = [], [], []
    # the top entry is (t, a); lv/cs hold the entries under it
    lv: list = []
    cs: list[int] = []
    t, a = _TOP, 0
    for y, f, k in zip(levels, fracs, counts):
        if f > flo:
            if f <= fhi:
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
            y += 1
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


def _fold_pass(levels, fracs):
    # the target's bottom entry (t, a), the pass over the floors (levels)
    # alone, and the folded items (levels, fracs, counts) with the fracs
    # of the kept positions, in position order: a run that an incoming
    # position at y lifts is folded into the item (y, 0.0, 1) when it
    # holds two positions or more and costs at most y - 1 (see the
    # static-pass comment).  The folds are cut from the lists at the end
    # as (start, end, level), a fold dropping those inside it.  The
    # stack holds (level, load, first position) tuples under the top
    # entry (t, a, s): in three lists, as _squeeze_pass keeps two, the
    # loop took 1.03x to 1.08x as long (n = 2^14, d = 2 and 64)
    cuts: list[tuple[int, int, int]] = []
    st: list[tuple] = []
    t, a, s = _TOP, 0, 0
    for i, y in enumerate(levels):
        if t == y:
            a += 1
        elif t > y:
            st.append((t, a, s))
            t, a, s = y, 1, i
        else:
            b, c, r = st.pop()
            while b < y:
                a = c + (-((-a) >> (b - t)))
                t, s = b, r
                b, c, r = st.pop()
            # (t, a) is the run of positions s..i-1, all below y
            if i - s > 1 and not (a - 1) >> (y - 1 - t):
                while cuts and cuts[-1][0] >= s:
                    cuts.pop()
                cuts.append((s, i, y))
            k = 1 + (-((-a) >> (y - t)))
            if b == y:
                t, a, s = b, c + k, r
            else:
                st.append((b, c, r))
                t, a = y, k
    if not st:
        raise LevelTreeError("need at least one level")
    # the end: each entry lifts into the one under it, down to the
    # sentinel at st[0]
    while len(st) > 1:
        b, c, _ = st.pop()
        a = c + (-((-a) >> (b - t)))
        t = b
    out_l, out_f, kept = [], [], []
    j = 0
    for s, e, y in cuts:
        f = fracs[j:s]
        out_l += levels[j:s]
        out_l.append(y)
        out_f += f
        out_f.append(0.0)
        kept += f
        j = e
    f = fracs[j:]
    out_l += levels[j:]
    out_f += f
    kept += f
    return t, a, (out_l, out_f, [1] * len(out_l)), kept


def _bottom_entry(levels, fracs, counts, b) -> tuple[int, int]:
    # the pass's bottom entry (t, a) at offset b, from the squeeze for
    # [b, b]: its items rise to the peak, (t, a) less what the others
    # add to it, and fall from there, so lifting each item into the next
    # from either end folds them all into the peak
    lv, _, cs = _squeeze_pass(levels, fracs, counts, b, b)
    if not lv:
        raise LevelTreeError("need at least one level")
    p = lv.index(max(lv))
    a = -cs[p]  # both folds end in the peak
    for ys, ks in (lv[:p + 1], cs[:p + 1]), (lv[p:][::-1], cs[p:][::-1]):
        x, c = ys[0], 0
        for y, k in zip(ys, ks):
            c = k + (-((-c) >> (y - x)))
            x = y
        a += c
    return lv[p], a


def static_witness(levels) -> tuple[int, list[int]]:
    """Cost and witness depths of a non-empty integer level sequence.

    Equals LevelTree(levels).cost() and the depths of the tree it
    builds: the runs are fragment starts, and a run's fragments are
    paired once per level step up to its node's level.
    """
    n = len(levels)
    if n == 0:
        raise LevelTreeError("need at least one level")
    # A run r holds the start leaves of m + 1 adjacent fragments, which
    # cover the leaves from r[0] up to the incoming index.  Pairing them
    # from the left, the odd one last kept unpaired, makes pairs that
    # start where their left fragment does, so round s keeps r[::2^s],
    # whose last index is m >> s << s, and deepens r[0] up to that
    # fragment when the count is odd (m >> s even), else up to the
    # incoming index: one +1/-1 each in the difference array diff, whose
    # running sum is the depth of each leaf.  A lift from t to z pairs
    # for k = min(z - t, bit_length(m)) rounds (after bit_length(m) of
    # them one fragment is left), with one += k and one slice for them
    # all.  The top entry is (t, r) and st holds the (level, run)
    # entries under it.
    diff = [0] * n
    st: list[tuple] = []
    t, r = _TOP, []
    for i, y in enumerate(levels):
        if t > y:
            st.append((t, r))
            t, r = y, [i]
            continue
        while t < y:
            # lift the top run to z: it joins the run under it when z is
            # that run's level, and goes in front of item i when z = y
            b, fl = st[-1]
            z = b if b < y else y
            m = len(r) - 1
            if m:
                k = z - t
                if not m >> k:
                    k = m.bit_length()
                diff[r[0]] += k
                diff[i if m & 1 else r[m]] -= 1
                s = 1
                while s < k:  # rounds 1..k-1; range() would cost a call per lift
                    diff[i if m >> s & 1 else r[m >> s << s]] -= 1
                    s += 1
                r = r[:: 1 << k]
            if z == b:
                st.pop()
                fl.extend(r)
                t, r = b, fl
            else:
                t = y
        r.append(i)
    # the end: each run lifts into the one under it, and the bottom one,
    # under the sentinel, until a single fragment is left; a -1 up to
    # the end, past the last leaf, is left out
    while True:
        b, fl = st.pop()
        m = len(r) - 1
        k = m.bit_length()
        if k > b - t:
            k = b - t
        diff[r[0]] += k
        for s in range(k):
            if not m >> s & 1:
                diff[r[m >> s << s]] -= 1
        if not st:
            return t + k, list(accumulate(diff))
        fl.extend(r[:: 1 << k])
        t, r = b, fl


class WeightSeq:
    """Real weight sequence with cached floors, ceilings and fractional
    parts.

    A weight must be a finite float or equal one exactly (an int up to
    2^53, a dyadic Fraction): no answer for a rounded weight is exact.
    Every fractional part is exact: w - floor(w) is a float for every
    weight but one in (-1/2, 0) with bits below 2^-53, where it would
    round (two such parts can round to one float, and -1e-20's to 1.0),
    so there it is a Fraction.  Python compares floats and Fractions
    exactly, so sorting, selecting and comparing offsets need no case.

    The floors come with the check, as the base level of every static
    pass: the level at offset b is floor(w_i), raised by one iff
    frac(w_i) > b (adjusted), so an integral weight needs no case.  The
    ceilings, a fresh LevelTree's levels, and the fractional parts are
    computed on first use.
    """

    def __init__(self, weights):
        weights = list(weights)
        if not weights:
            raise LevelTreeError("need at least one weight")
        try:
            ws = list(map(float, weights))
            self.floors = list(map(math.floor, ws))
        except (OverflowError, ValueError):  # an int past the float range, inf, nan
            ws = None
        if ws != weights:
            # the first weight that no float holds exactly
            bad = next(w for w in weights if not _exact_float(w))
            raise LevelTreeError("weights must be finite and exact as floats, got %r" % (bad,))
        self.weights = ws
        self.n = len(ws)

    @cached_property
    def ceils(self) -> list[int]:
        """ceil(w_i): the leaf levels of a fresh LevelTree, the state at
        offset 0."""
        return list(map(math.ceil, self.weights))

    @cached_property
    def fracs(self) -> list:
        """The fractional parts w - floor(w)."""
        ws = self.weights
        fracs = list(map(sub, ws, self.floors))
        # only a weight in (-1/2, 0) can round: there f is fl(w + 1), and
        # f - 1 is exact (Sterbenz), so f did not round iff f - 1 == w
        for w, f in zip(ws, fracs):
            if -0.5 < w < 0.0 and f - 1.0 != w:
                # imported here: fractions costs some 3 ms at package import
                from fractions import Fraction

                return [Fraction(w) + 1 if -0.5 < w < 0.0 and f - 1.0 != w else f
                        for w, f in zip(ws, fracs)]
        return fracs

    def adjusted(self, b) -> list[int]:
        """ceil(w_i - b) for b in [0, 1): floor(w_i), raised by one
        exactly when frac(w_i) > b."""
        return [y + 1 if f > b else y for y, f in zip(self.floors, self.fracs)]


def _exact_float(w) -> bool:
    # w equals a finite float; a str or bytes that float() parses does not
    try:
        return math.isfinite(w) and float(w) == w
    except (OverflowError, TypeError, ValueError):
        return False


def as_weight_seq(w) -> WeightSeq:
    return w if isinstance(w, WeightSeq) else WeightSeq(w)


class LevelTree:
    """Level tree with set/undo/cost over Y = ceil(w_i) - x_i.

    Takes weights or a WeightSeq and keeps its weights and ceils by
    reference; the only per-leaf state is the level, ceil(w_i) - x_i.
    Nodes live in parallel arrays indexed by an append-only arena id.
    Ids 0..n-1 are the leaves in weight order; internal nodes follow in
    creation order, and the build (a run stack that appends one node
    over each popped run) creates them in pop order.  So a node is
    a leaf iff its id is below n, and the root is the one live node at
    the sentinel level: the build makes exactly one node there, and a
    set that folds the root into a union keeps its level.  A pointer to
    an internal node may be stale after a union; every such read goes
    through _r(), which resolves it with a find.  Leaf ids are never
    unioned and always valid.  The journal holds one segment per open
    set: a header (arena size, union-find trail length), then writes
    only.
    """

    def __init__(self, weights):
        seq = as_weight_seq(weights)
        self.weights = seq.weights
        self.ceils = seq.ceils
        self.n = n = seq.n
        # strictly above every finite level the tree can reach
        self.sentinel = max(self.ceils) + ceil_log2(n) + 2

        # arena (parallel arrays), built with the n leaves in it: ids
        # 0..n-1 at their ceilings, load 1, csum 0 and no links
        self._arena = (
            self.level, self.load, self.csum,
            self.parent, self.lsib, self.rsib, self.fch, self.lch,
        ) = (list(self.ceils), [1] * n, [0] * n, *([NIL] * n for _ in range(5)))

        self.uf = UnionFindDeunion(n)
        self.journal: list = []
        self.segments = 0  # open (not yet undone) set segments
        self.sets = 0
        self.undos = 0

        self.root = self._build()

    # ------------------------------------------------------------------
    # construction

    def _append_node(self, level: int) -> int:
        # named appends: a loop over _arena costs about 1 us more per
        # node, which made the n = 2^14, d = 2 search 3% slower
        u = len(self.level)
        self.level.append(level)
        self.load.append(1)
        self.csum.append(0)
        self.parent.append(NIL)
        self.lsib.append(NIL)
        self.rsib.append(NIL)
        self.fch.append(NIL)
        self.lch.append(NIL)
        self.uf.add()
        return u

    def _build(self) -> int:
        # static_witness's run stack over node ids: a run popped below
        # the incoming level y becomes the children of one new node at z,
        # the level under it or y.  The bottom entry sits at the sentinel
        # level, which comes last (as item n, no leaf) and lifts the
        # bottom run into the root.
        load, csum = self.load, self.csum
        parent, lsib, rsib, fch, lch = self.parent, self.lsib, self.rsib, self.fch, self.lch
        new_node = self._append_node
        st: list[tuple] = []
        t, r = self.sentinel, []
        for i, y in enumerate(self.level + [self.sentinel]):
            if t > y:
                st.append((t, r))
                t, r = y, [i]
                continue
            while t < y:
                b, fl = st[-1]
                z = b if b < y else y
                u = new_node(z)
                prev = NIL
                cs = 0
                for c in r:
                    parent[c] = u
                    lsib[c] = prev
                    if prev != NIL:
                        rsib[prev] = c
                    cs += load[c]
                    prev = c
                fch[u] = r[0]
                lch[u] = prev
                csum[u] = cs
                load[u] = -((-cs) >> (z - t))  # _ceil_shift inline: a call fewer per node
                if z == b:
                    st.pop()
                    fl.append(u)
                    t, r = b, fl
                else:
                    t, r = y, [u]
            r.append(i)
        return r[0]

    # ------------------------------------------------------------------
    # journaled primitives

    def _set(self, arr: list, idx: int, val) -> None:
        old = arr[idx]
        if old != val:
            self.journal.extend((old, idx, arr))
            arr[idx] = val

    def _r(self, x: int) -> int:
        # resolve a possibly-stale node pointer; leaf ids (and NIL) never
        # go stale
        if x < self.n:
            return x
        return self.uf.find(x)

    def _refresh_up(self, u: int, cl: int) -> None:
        # recompute load(u), whose children sit at level cl, and carry the
        # change up; each parent's child level is the level of u itself.
        # The root's load is always 1 (its level is more than log2 n above
        # its children's), so the climb stops there at the latest
        lv, ld, cs = self.level, self.load, self.csum
        while True:
            new = _ceil_shift(cs[u], lv[u] - cl)
            old = ld[u]
            if new == old:
                break
            self._set(ld, u, new)
            cl = lv[u]
            pu = self.uf.find(self.parent[u])
            self._set(cs, pu, cs[pu] - old + new)
            u = pu

    # ------------------------------------------------------------------
    # operations

    def set(self, i: int) -> None:
        """Set x_i to 1, lowering leaf i from ceil(w_i) to ceil(w_i)-1.

        Rejected (state unchanged) when w_i is an integer or x_i is
        already 1.  All modifications are journaled as one undo segment.
        """
        if not 0 <= i < self.n:
            raise IndexError("leaf index %d out of range" % i)
        w, c = self.weights[i], self.ceils[i]
        if w == c:
            raise LevelTreeError("set(%d): weight %r is an integer" % (i, w))
        if self.level[i] != c:
            raise LevelTreeError("set(%d): bit is already 1" % i)
        self.journal.extend((len(self.level), len(self.uf.trail)))
        self.segments += 1
        self.sets += 1
        self._lower_leaf(i)

    def undo(self) -> None:
        """Exactly reverse the modifications of the last set."""
        if self.segments == 0:
            raise LevelTreeError("undo with no set to reverse")
        self.undos += 1
        pop = self.journal.pop
        e = pop()
        while type(e) is list:
            idx = pop()
            e[idx] = pop()
            e = pop()
        uf = self.uf
        while len(uf.trail) > e:
            uf.deunion()
        size = pop()
        # the node the set made, if any; such a set made no union
        while len(self.level) > size:
            for arr in self._arena:
                arr.pop()
            uf.pop()
        self.segments -= 1

    def cost(self) -> int:
        """Alphabetic minimax cost of the current integer sequence Y."""
        r = self._r(self.root)
        fr = self._r(self.fch[r])
        return self.level[fr] + ceil_log2(self.csum[r])

    # ------------------------------------------------------------------
    # the set(i) surgery
    #
    # v's parent p keeps all children at one level y, and v moves to y-1.
    # Then v and its internal neighbours are children, at y-1, of one
    # level-y node r, while leaf neighbours stay at y.  A side of v holds
    # a host (an internal neighbour whose children sit at y-1 already),
    # another internal neighbour, which drops to y-1 under r, or none (a
    # leaf or nothing).  r is the union of two hosts, with p folded in
    # when v had no other sibling; else the one host; else a fresh node.
    # _join links each side to r through its (inward, outward, far)
    # links: rsib, lsib, fch on the left and lsib, rsib, lch on the right.
    # Each internal neighbour's child facing v (lch on the left, fch on
    # the right) is resolved once and gives both its child level and,
    # for a host, the child e that v links to.  Two hosts also read the
    # far children and outer siblings, since r may be either host.  All
    # reads precede the first write, as the left side's far write onto a
    # right host replaces that host's child facing v.  _refresh_up then
    # climbs from p with r's level and resolves no child pointer.

    def _lower_leaf(self, v: int) -> None:
        lv = self.level
        y = lv[v]
        ny = y - 1
        ul = self.lsib[v]
        ur = self.rsib[v]
        if ul == NIL and ur == NIL:
            # only child: the parent's child level simply drops
            self._set(lv, v, ny)
            self._refresh_up(self.uf.find(self.parent[v]), ny)
            return
        ld, cs, n, find = self.load, self.csum, self.n, self.uf.find
        p = find(self.parent[v])

        # el and er: the hosts' children facing v, NIL on other sides; cl_l
        # and cl_r: internal neighbours' child levels (else NIL, unread)
        removed = csum = ld[v]
        el = er = cl_l = cl_r = NIL
        if ul >= n:
            ul = find(ul)
            e = self._r(self.lch[ul])
            cl_l = lv[e]
            removed += ld[ul]
            if cl_l == ny:
                el = e
                csum += cs[ul]
        if ur >= n:
            ur = find(ur)
            e = self._r(self.fch[ur])
            cl_r = lv[e]
            removed += ld[ur]
            if cl_r == ny:
                er = e
                csum += cs[ur]

        st = put = self._set  # put writes r's own fields
        if el != NIL and er != NIL:
            fl = self._r(self.fch[ul])
            lr = self._r(self.lch[ur])
            a = self._r(self.lsib[ul])
            b = self._r(self.rsib[ur])
            if a == NIL and b == NIL:
                # r takes p's place, level and links, under p's parent
                level, parent = lv[p], self.parent[p]
                a = self._r(self.lsib[p])
                b = self._r(self.rsib[p])
                removed = ld[p]
                r = self.uf.union(self.uf.union(ul, ur), p)
                p = find(parent) if level != self.sentinel else NIL
                put(lv, r, level)
                put(self.parent, r, parent)
            else:
                r = self.uf.union(ul, ur)
            put(self.lsib, r, a)
            put(self.rsib, r, b)
            put(self.fch, r, fl)
            put(self.lch, r, lr)
        elif el != NIL or er != NIL:
            r = ul if el != NIL else ur
        else:
            # undo drops this node whole: writes to it need no journal
            r = self._append_node(y)
            self.parent[r] = p
            put = setitem

        st(self.parent, v, r)
        st(lv, v, ny)
        csum += self._join(put, r, v, ul, el, cl_l, p, self.rsib, self.lsib, self.fch)
        csum += self._join(put, r, v, ur, er, cl_r, p, self.lsib, self.rsib, self.lch)
        put(cs, r, csum)
        lo = _ceil_shift(csum, lv[r] - ny)
        put(ld, r, lo)
        if p != NIL:
            st(cs, p, cs[p] - removed + lo)
            self._refresh_up(p, lv[r])

    def _join(self, put, r, v, u, e, cl, p, inward, outward, far) -> int:
        # link one side of v to r, given v's neighbour u there (or NIL),
        # a host's child e facing v (else NIL) and u's child level cl;
        # returns what the side adds to csum(r) besides the hosts' csums
        if e != NIL:
            self._set(inward, e, v)
            self._set(outward, v, e)
            return 0
        st = self._set
        if u < self.n:
            # a leaf neighbour stays outside r, as r's outer sibling
            edge, outer = v, u
            if u != NIL:
                st(outward, v, NIL)
        else:
            edge, outer = u, self._r(outward[u])
        put(outward, r, outer)
        put(far, r, edge)
        if outer == NIL:
            st(far, p, r)
        else:
            st(inward, outer, r)
        if edge == v:
            return 0
        # u drops to v's new level beside v; the links between them stand
        ny = self.level[v]
        st(outward, u, NIL)
        st(self.parent, u, r)
        st(self.level, u, ny)
        lo = _ceil_shift(self.csum[u], ny - cl)
        st(self.load, u, lo)
        return lo

    # ------------------------------------------------------------------
    # inspection

    def _children(self, u: int) -> list[int]:
        out = []
        c = self._r(self.fch[u])
        while c != NIL:
            out.append(c)
            c = self._r(self.rsib[c])
        return out

    def _walk(self):
        # the internal nodes in preorder, each as (node, parent, its
        # resolved children); the root's parent is NIL
        stack = [(self._r(self.root), NIL)]
        while stack:
            u, pu = stack.pop()
            ch = self._children(u)
            yield u, pu, ch
            stack.extend((c, u) for c in reversed(ch) if c >= self.n)

    def serialize(self) -> str:
        """Deterministic JSON snapshot of the live structure.

        Lists every reachable internal node in preorder with its resolved
        links, each followed by its leaf children, plus the bit vector
        (each leaf's ceiling minus its level) and the journal depth.
        Two states behave identically iff their serializations are
        byte-identical, which is how the undo contract is tested.
        """
        n, lv = self.n, self.level
        nodes = []
        for u, pu, ch in self._walk():
            # a leaf's csum stays 0 from the build on
            for x, px, cx in [(u, pu, ch)] + [(c, u, []) for c in ch if c < n]:
                kind = "leaf" if x < n else "root" if lv[x] == self.sentinel else "internal"
                nodes.append(
                    dict(id=x, kind=kind, level=lv[x], load=self.load[x],
                         csum=self.csum[x], children=cx, parent=px)
                )
        payload = {
            "nodes": nodes,
            "bits": "".join(str(c - y) for c, y in zip(self.ceils, lv)),
            "journal_depth": self.segments,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def counters(self) -> dict:
        return {
            "sets": self.sets,
            "undos": self.undos,
            "finds": self.uf.finds,
            "unions": self.uf.unions,
            "deunions": self.uf.deunions,
        }

    # ------------------------------------------------------------------
    # witness extraction

    def depth_profile(self) -> list[int]:
        """Leaf depths of one optimal tree realizing cost(): the static
        witness of the leaf levels, since the live tree differs from a
        fresh build only by single-child chains, along which pairing for
        a rounds and then b rounds is pairing for a + b rounds."""
        return static_witness(self.level[: self.n])[1]
