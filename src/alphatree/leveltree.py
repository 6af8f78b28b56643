"""Dynamic level tree over a real-weight sequence.

Stores weights w_1..w_n plus a bit vector x_1..x_n and maintains the
alphabetic minimax cost of the integer sequence

    Y = ceil(w_1) - x_1, ..., ceil(w_n) - x_n

under three operations: set(i) (flip x_i from 0 to 1, allowed only when
w_i is not an integer), undo() (exact rollback of the last set), and
cost() (O(1) plus one find).

The tree has one leaf per weight and one internal node per level
interval.  Every internal node keeps its children at a single common
level strictly below its own, so the load of a node u with child level c
is

    load(u) = ceil(csum(u) / 2^(level(u) - c))

where csum(u) is the sum of the children's loads, at most n.
Parent pointers of internal nodes are resolved through a union-find with
deunion: merging two adjacent siblings is a single union instead of
re-parenting their children, and undo can reverse it exactly.

audit() checks leaf order by spans: leaf i covers [i, i + 1), each
internal node's children cover consecutive spans, left to right, whose
union is the node's span, and the root covers [0, n).  So every leaf is
reached exactly once, in weight order.

A static integer instance needs none of that machinery: static_cost and
static_witness group the levels exactly as the tree's build does, in one
left-to-right stack pass with no arena, no union-find and no journal.
static_squeeze shortens a run of weighted levels to an equivalent one,
so that repeated passes over mostly fixed levels stay short.

The undo journal is one flat list.  A write is pushed as three entries:
the old value, the index, then the list written to (an arena array or
the bit vector).  The markers between writes are the plain ints _SEG (a
set begins), _CREATE (a node was appended) and _UNION (a union was
made).  undo pops the top entry: a list means a write, whose index and
old value come next, and an int is a marker.  The union-find's trail is
flat in the same way.  So a set pushes only ints and the tree's own
lists, none of them a new object that the cycle collector tracks, and a
search with some 10^5 writes journaled at once triggers no collection;
with a tuple per write it ran about 200.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate, repeat

NIL = -1

# journal markers: plain ints, told apart from a write by its top entry,
# which is always one of the tree's lists
_SEG = 0
_CREATE = 1
_UNION = 2


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
        x = self.parent.pop()
        self.rank.pop()
        if x != len(self.parent):
            raise LevelTreeError("union-find pop on a non-singleton element")

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
# One left-to-right pass over the levels with the grouping rule of
# LevelTree._build: each maximal equal-level run becomes one node at
# min(level below it, next level), with load ceil(csum / 2^gap).  The
# stack keeps one entry per run, levels strictly decreasing upward from
# a bottom sentinel at +inf, so a node lifted to the level of the entry
# below it joins that run at once, and a node lifted to the incoming
# level y goes in front of leaf y.
#
# The cost passes take weighted items: an item (y, a) acts exactly like
# a leaves at level y, which is what a lifted node of load a landing at
# y is.  Since ceil(ceil(c / 2^p) / 2^q) = ceil(c / 2^(p + q)), a run of
# items R can be replaced by its squeeze, the items of its own pass with
# the bottom entry never lifted: each time that entry is popped it is
# emitted as an item instead (only it can merge with entries from before
# R), and the entries left at the end follow, bottom to top.  Then
# cost(P + squeeze(R) + S) = cost(P + R + S) for any P and S.  Emitted
# bottoms rise and the residual entries fall, so a squeeze has at most
# twice as many items as R has distinct levels.

_TOP = math.inf


def _fold(items, lv: list, cs: list, spill) -> None:
    # push the (level, count) items onto the run stack lv/cs; with spill
    # a pair of lists, the entry just above the sentinel is emitted into
    # them when popped rather than lifted into the incoming item
    for y, add in items:
        b = lv[-1]
        while b < y:
            x = lv.pop()
            c = cs.pop()
            b = lv[-1]
            if b < y:
                cs[-1] += -((-c) >> (b - x))
            elif spill is None or b != _TOP:
                add += -((-c) >> (y - x))
            else:
                spill[0].append(x)
                spill[1].append(c)
        if b == y:
            cs[-1] += add
        else:
            lv.append(y)
            cs.append(add)


def static_cost(levels, counts=None) -> int:
    """Minimax cost of a non-empty sequence of integer levels, each
    standing for counts[i] leaves (one each by default).

    Equals LevelTree(levels).cost() for unit counts; the stack entries
    are (level, csum of the run).
    """
    if not levels:
        raise LevelTreeError("need at least one level")
    lv = [_TOP]
    cs = [0]
    _fold(zip(levels, repeat(1) if counts is None else counts), lv, cs, None)
    while len(lv) > 2:
        x = lv.pop()
        c = cs.pop()
        cs[-1] += -((-c) >> (lv[-1] - x))
    return lv[1] + ceil_log2(cs[1])


def static_squeeze(levels, counts, out) -> None:
    """Append the squeeze of a run of weighted items to the lists
    out = (levels, counts): an item list that gives every enclosing
    sequence the same static_cost as the run does."""
    lv = [_TOP]
    cs = [0]
    _fold(zip(levels, counts), lv, cs, out)
    out[0].extend(lv[1:])
    out[1].extend(cs[1:])


def static_witness(levels) -> tuple[int, list[int]]:
    """Cost and witness depths of a non-empty integer level sequence.

    Equals (LevelTree(levels).cost(), LevelTree(levels).depth_profile()):
    the stack entries are (level, fragment starts), and a run's
    fragments are paired once per level step as depth_profile pairs a
    node's.
    """
    n = len(levels)
    if n == 0:
        raise LevelTreeError("need at least one level")
    diff = [0] * (n + 1)
    lv = [_TOP]
    fr: list[list] = [[]]
    for i, y in enumerate(levels):
        b = lv[-1]
        run = [i]
        while b < y:
            x = lv.pop()
            fl = fr.pop()
            b = lv[-1]
            if b < y:
                fr[-1].extend(_pair(fl, b - x, i, diff))
            else:
                run = _pair(fl, y - x, i, diff)
                run.append(i)
        if b == y:
            fr[-1].extend(run)
        else:
            lv.append(y)
            fr.append(run)
    while len(lv) > 2:
        x = lv.pop()
        fl = fr.pop()
        fr[-1].extend(_pair(fl, lv[-1] - x, n, diff))
    rounds = ceil_log2(len(fr[1]))
    _pair(fr[1], rounds, n, diff)
    return lv[1] + rounds, list(accumulate(diff[:n]))


def _pair(fl: list, rounds: int, end: int, diff: list) -> list:
    # fl holds the start leaves of adjacent fragments that together cover
    # leaves fl[0]..end-1.  Pair them from the left, the odd one last kept
    # unpaired, up to rounds times, stopping at a single fragment; a pair
    # starts where its left fragment does.  The pairs of one round cover
    # fl[0] up to the unpaired fragment (or end) without a gap, so the
    # round deepens exactly that range: one +1/-1 in the difference array
    # diff, whose running sum is the depth of each leaf.
    while rounds > 0 and len(fl) > 1:
        diff[fl[0]] += 1
        diff[fl[-1] if len(fl) % 2 else end] -= 1
        fl = fl[0::2]
        rounds -= 1
    return fl


class LevelTree:
    """Level tree with set/undo/cost over Y = ceil(w_i) - x_i.

    Nodes live in parallel arrays indexed by an append-only arena id.
    Ids 0..n-1 are the leaves in weight order; internal nodes follow in
    creation order.  So a node is a leaf iff its id is below n, and the
    root is the one live node at the sentinel level: the build makes
    exactly one node there, and a merge that folds the root in keeps its
    level.  A pointer to an internal node may be stale after a union;
    every such read goes through _r(), which resolves it with a find.
    Leaf ids are never unioned and always valid.
    """

    def __init__(self, weights):
        weights = list(weights)
        if not weights:
            raise LevelTreeError("need at least one weight")
        for w in weights:
            if not math.isfinite(w):
                raise LevelTreeError("weights must be finite, got %r" % (w,))
        self.weights = weights
        self.n = n = len(weights)
        self.ceils = [math.ceil(w) for w in weights]
        self.bits = [0] * n
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

    def _adopt(self, u: int, group: list[int]) -> None:
        # link group (left to right) as the children of u; direct writes,
        # only used at build time before any journaling
        prev = NIL
        for c in group:
            self.parent[c] = u
            self.lsib[c] = prev
            if prev != NIL:
                self.rsib[prev] = c
            prev = c
        self.rsib[prev] = NIL
        self.fch[u] = group[0]
        self.lch[u] = group[-1]
        cs = 0
        for c in group:
            cs += self.load[c]
        self.csum[u] = cs
        self.load[u] = _ceil_shift(cs, self.level[u] - self.level[group[0]])

    def _build(self) -> int:
        # one left-to-right pass with a stack of subtree roots whose
        # levels are non-increasing from bottom to top; each maximal
        # equal-level run becomes the child list of one new node
        level = self.level
        stack: list[int] = []
        for i in range(self.n):
            self._reduce(stack, level[i])
            stack.append(i)
        self._reduce(stack, self.sentinel)
        root = stack[0]
        if len(stack) != 1 or self.level[root] != self.sentinel:
            raise AssertionError("level-tree build left a malformed stack")
        return root

    def _reduce(self, stack: list[int], y: int) -> None:
        level = self.level
        while stack and level[stack[-1]] < y:
            run_level = level[stack[-1]]
            j = len(stack) - 1
            while j > 0 and level[stack[j - 1]] == run_level:
                j -= 1
            group = stack[j:]
            del stack[j:]
            if stack:
                new_level = min(level[stack[-1]], y)
            else:
                new_level = y
            u = self._append_node(new_level)
            self._adopt(u, group)
            stack.append(u)

    # ------------------------------------------------------------------
    # journaled primitives

    def _set(self, arr: list, idx: int, val) -> None:
        old = arr[idx]
        if old != val:
            self.journal.extend((old, idx, arr))
            arr[idx] = val

    def _create(self, level: int) -> int:
        self.journal.append(_CREATE)
        return self._append_node(level)

    def _union(self, a: int, b: int) -> int:
        self.journal.append(_UNION)
        return self.uf.union(a, b)

    def _r(self, x: int) -> int:
        # resolve a possibly-stale node pointer; leaf ids (and NIL) never
        # go stale
        if x < self.n:
            return x
        return self.uf.find(x)

    def _node_load(self, u: int, child_level: int) -> int:
        return _ceil_shift(self.csum[u], self.level[u] - child_level)

    def _refresh_up(self, u: int) -> None:
        # recompute load(u) and propagate the delta while it changes
        while u != NIL:
            fr = self._r(self.fch[u])
            new = self._node_load(u, self.level[fr])
            old = self.load[u]
            if new == old:
                break
            self._set(self.load, u, new)
            if self.level[u] == self.sentinel:
                break
            pu = self.uf.find(self.parent[u])
            self._set(self.csum, pu, self.csum[pu] - old + new)
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
        w = self.weights[i]
        if w == math.floor(w):
            raise LevelTreeError("set(%d): weight %r is an integer" % (i, w))
        if self.bits[i]:
            raise LevelTreeError("set(%d): bit is already 1" % i)
        self.journal.append(_SEG)
        self.segments += 1
        self.sets += 1
        self._set(self.bits, i, 1)
        self._lower_leaf(i)

    def undo(self) -> None:
        """Exactly reverse the modifications of the last set."""
        if self.segments == 0:
            raise LevelTreeError("undo with no set to reverse")
        self.undos += 1
        pop = self.journal.pop
        while True:
            e = pop()
            if type(e) is list:
                idx = pop()
                e[idx] = pop()
            elif e == _SEG:
                break
            elif e == _CREATE:
                for arr in self._arena:
                    arr.pop()
                self.uf.pop()
            else:  # _UNION
                self.uf.deunion()
        self.segments -= 1

    def cost(self) -> int:
        """Alphabetic minimax cost of the current integer sequence Y."""
        r = self._r(self.root)
        fr = self._r(self.fch[r])
        return self.level[fr] + ceil_log2(self.csum[r])

    def current_levels(self) -> list[int]:
        """Y as a list: ceil(w_i) - x_i per leaf."""
        return [self.ceils[i] - self.bits[i] for i in range(self.n)]

    # ------------------------------------------------------------------
    # the set(i) surgery
    #
    # v's parent keeps all children at one level y; v moves to y-1, so
    # the two pieces adjacent to v merge with it one level down.  Leaf
    # neighbours stay put as level-y points.  The case depends on how
    # many internal neighbours already have their children at y-1:
    #   two   _merge joins them around v with one union
    #   one   _absorb puts v under that host, followed by the internal
    #         neighbour on v's other side, if any, re-levelled to y-1
    #   none  _wrap makes a fresh level-y node over v and its internal
    #         neighbours, re-levelled to y-1
    # A side of v is given by toward, the sibling link stepping toward v
    # (rsib on the left, lsib on the right), away, the opposite link, and
    # end, the child pointer facing v (lch on the left, fch on the right).

    def _lower_leaf(self, v: int) -> None:
        lv = self.level
        y = lv[v]
        ny = y - 1
        p = self.uf.find(self.parent[v])
        ul = self._r(self.lsib[v])
        ur = self._r(self.rsib[v])

        if ul == NIL and ur == NIL:
            # only child: the parent's child level simply drops
            self._set(lv, v, ny)
            self._refresh_up(p)
            return

        # from here on ul and ur name internal neighbours only
        ul = ul if ul >= self.n else NIL
        ur = ur if ur >= self.n else NIL
        cl_l = lv[self._r(self.fch[ul])] if ul != NIL else None
        cl_r = lv[self._r(self.fch[ur])] if ur != NIL else None

        if cl_l == ny and cl_r == ny:
            self._merge(v, ul, ur, p, y, ny)
        elif cl_l == ny:
            self._absorb(v, ul, ur, p, ny, cl_r, self.rsib, self.lsib, self.lch)
        elif cl_r == ny:
            self._absorb(v, ur, ul, p, ny, cl_l, self.lsib, self.rsib, self.fch)
        else:
            # with no internal neighbour this is the degenerate
            # one-child piece over v alone
            self._wrap(v, ul, ur, p, y, ny, cl_l, cl_r)

    def _merge(self, v, ul, ur, p, y, ny):
        # Both pieces already sit one level down: one union combines ul
        # and ur, and v is spliced between their child lists.  The link
        # into ul from its left (a sibling's rsib or p's fch) still names
        # ul and resolves to the merged class; same on the right, so no
        # sibling rewrites are needed there.
        ld, cs = self.load, self.csum
        lov = ld[v]
        l1 = self._r(self.lch[ul])
        f2 = self._r(self.fch[ur])
        f1 = self._r(self.fch[ul])
        l2 = self._r(self.lch[ur])
        A = self._r(self.lsib[ul])
        B = self._r(self.rsib[ur])
        csum = cs[ul] + cs[ur] + lov
        if A != NIL or B != NIL:
            # v had at least one sibling besides ul and ur, so the
            # merged node stays a child of p
            level, parent, top = y, p, p
            removed = ld[ul] + ld[ur] + lov
            r = self._union(ul, ur)
        else:
            # v's only siblings were ul and ur: no new node; the former
            # parent is reused.  A second union folds p in too, and the
            # class keeps p's identity, level and outside links, and
            # its children are ul's children, v, then ur's children.
            level, parent = self.level[p], self.parent[p]
            A = self._r(self.lsib[p])
            B = self._r(self.rsib[p])
            top = self.uf.find(parent) if level != self.sentinel else NIL
            removed = ld[p]
            r = self._union(self._union(ul, ur), p)
        self._set(self.level, r, level)
        self._set(self.parent, r, parent)
        self._set(self.lsib, r, A)
        self._set(self.rsib, r, B)
        self._set(self.fch, r, f1)
        self._set(self.lch, r, l2)
        self._set(cs, r, csum)
        self._set(self.rsib, l1, v)
        self._set(self.lsib, v, l1)
        self._set(self.rsib, v, f2)
        self._set(self.lsib, f2, v)
        self._set(self.parent, v, r)
        self._set(self.level, v, ny)
        nlo = self._node_load(r, ny)
        self._set(ld, r, nlo)
        if top != NIL:
            self._set(cs, top, cs[top] - removed + nlo)
            self._refresh_up(top)

    def _absorb(self, v, host, nb, p, ny, cl_nb, toward, away, end):
        # host's children are already at y-1: v joins them at host's end
        # facing v.  nb is the internal neighbour on v's far side, or
        # NIL; it drops to level y-1 and hangs after v as host's new end
        # child.  Whatever lay beyond becomes host's sibling.
        ld, cs = self.load, self.csum
        lov = ld[v]
        last = nb if nb != NIL else v
        removed = lov + ld[host] + (ld[nb] if nb != NIL else 0)
        beyond = self._r(toward[last])
        e = self._r(end[host])

        self._set(toward, host, beyond)
        if beyond != NIL:
            self._set(away, beyond, host)
        else:
            self._set(end, p, host)
        self._set(toward, e, v)
        self._set(away, v, e)
        self._set(toward, v, nb)
        csum = cs[host] + lov
        if nb != NIL:
            csum += self._hang(nb, host, v, ny, cl_nb, away, toward)
        self._set(end, host, last)
        self._set(self.parent, v, host)
        self._set(self.level, v, ny)
        self._set(cs, host, csum)
        nlo = self._node_load(host, ny)
        self._set(ld, host, nlo)
        self._set(cs, p, cs[p] - removed + nlo)
        self._refresh_up(p)

    def _wrap(self, v, ul, ur, p, y, ny, cl_l, cl_r):
        # No piece can take v at level y-1 directly: make a fresh node
        # at level y over [ul?, v, ur?], re-levelling the taken
        # neighbours to y-1.
        ld, cs = self.load, self.csum
        u = self._create(y)
        self.parent[u] = p
        removed = csu = ld[v]
        for nb, cl, toward, away, end in (
            (ul, cl_l, self.rsib, self.lsib, self.fch),
            (ur, cl_r, self.lsib, self.rsib, self.lch),
        ):
            edge = nb if nb != NIL else v
            outer = self._r(away[edge])
            away[u] = outer
            end[u] = edge
            if outer != NIL:
                self._set(toward, outer, u)
            else:
                self._set(end, p, u)
            self._set(away, v, nb)
            if nb != NIL:
                removed += ld[nb]
                csu += self._hang(nb, u, v, ny, cl, toward, away)
        self._set(self.parent, v, u)
        self._set(self.level, v, ny)
        self.csum[u] = csu
        self.load[u] = self._node_load(u, ny)
        self._set(cs, p, cs[p] - removed + self.load[u])
        self._refresh_up(p)

    def _hang(self, nb, parent, v, ny, cl, toward, away):
        # internal neighbour nb (children at level cl) drops to y-1 as
        # v's outer sibling under parent; toward is nb's link to v, and
        # the caller links v back.  Returns nb's new load.
        self._set(away, nb, NIL)
        self._set(toward, nb, v)
        self._set(self.parent, nb, parent)
        self._set(self.level, nb, ny)
        lo = self._node_load(nb, cl)
        self._set(self.load, nb, lo)
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
        and the journal depth.  Two states behave identically iff their
        serializations are byte-identical, which is how the undo
        contract is tested.
        """
        nodes = []
        for u, pu, ch in self._walk():
            nodes.append(
                {
                    "id": u,
                    "kind": "root" if self.level[u] == self.sentinel else "internal",
                    "level": self.level[u],
                    "load": self.load[u],
                    "csum": self.csum[u],
                    "children": ch,
                    "parent": pu,
                }
            )
            for c in ch:
                if c < self.n:
                    nodes.append(
                        {
                            "id": c,
                            "kind": "leaf",
                            "level": self.level[c],
                            "load": self.load[c],
                            "csum": 0,
                            "children": [],
                            "parent": u,
                        }
                    )
        payload = {
            "nodes": nodes,
            "bits": "".join(str(b) for b in self.bits),
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

    def audit(self) -> None:
        """Check every structural invariant; raises AssertionError.

        Leaf order is checked by the span rule in the module docstring.
        Test/debug only: walks the whole tree, so it is O(n) plus finds.
        """
        nodes = list(self._walk())
        r = nodes[0][0]
        if self.level[r] != self.sentinel:
            raise AssertionError("root level is not the sentinel")
        span: dict[int, tuple[int, int]] = {}
        # children before parents, so each child's span is known
        for u, _, ch in reversed(nodes):
            if not ch:
                raise AssertionError("internal node %d has no children" % u)
            cl = self.level[ch[0]]
            prev = NIL
            cs = 0
            spans = []
            for c in ch:
                if self.level[c] != cl:
                    raise AssertionError("children of %d at mixed levels" % u)
                if self._r(self.lsib[c]) != prev:
                    raise AssertionError("bad lsib under %d" % u)
                if self.uf.find(self.parent[c]) != u:
                    raise AssertionError("child %d does not resolve to parent %d" % (c, u))
                if c < self.n:
                    if self.load[c] != 1:
                        raise AssertionError("leaf %d has load != 1" % c)
                    if self.level[c] != self.ceils[c] - self.bits[c]:
                        raise AssertionError("leaf %d level out of sync with bits" % c)
                    spans.append((c, c + 1))
                else:
                    spans.append(span[c])
                cs += self.load[c]
                prev = c
            if any(a[1] != b[0] for a, b in zip(spans, spans[1:])):
                raise AssertionError("leaf order not preserved under %d" % u)
            span[u] = (spans[0][0], spans[-1][1])
            if self._r(self.lch[u]) != ch[-1]:
                raise AssertionError("bad lch on %d" % u)
            if cl >= self.level[u]:
                raise AssertionError("child level not below node %d" % u)
            if cs != self.csum[u]:
                raise AssertionError("csum mismatch on %d" % u)
            if self.load[u] != self._node_load(u, cl):
                raise AssertionError("load recurrence violated on %d" % u)
        if span[r] != (0, self.n):
            raise AssertionError("leaves do not cover 0..n-1 in order")
        live_internal = sum(
            1 for x in range(self.n, len(self.level)) if self.uf.find(x) == x
        )
        if len(nodes) != live_internal:
            raise AssertionError("unreachable live internal nodes exist")

    # ------------------------------------------------------------------
    # witness extraction

    def depth_profile(self) -> list[int]:
        """Leaf depths of one optimal tree realizing cost().

        Per node, the children's tree fragments are concatenated in
        sibling order and paired from the left (odd fragment last, kept
        unpaired) once per level step up to the node's level, stopping
        early at a single fragment; the fragment count must then equal
        the node's load.  The root keeps pairing until one fragment is
        left, whose shape is the witness tree.
        """
        # per node: its fragments' start leaves and the end of its leaves
        frags: dict[int, tuple[list, int]] = {}
        diff = [0] * (self.n + 1)
        # children before parents: the walk's preorder, reversed
        for u, _, ch in reversed(list(self._walk())):
            fl = []
            for c in ch:
                if c < self.n:
                    fl.append(c)
                    end = c + 1
                else:
                    sub, end = frags.pop(c)
                    fl.extend(sub)
            if self.level[u] == self.sentinel:
                fl = _pair(fl, ceil_log2(len(fl)), end, diff)
            else:
                fl = _pair(fl, self.level[u] - self.level[ch[0]], end, diff)
                if len(fl) != self.load[u]:
                    raise AssertionError(
                        "fragment count %d != load %d at node %d" % (len(fl), self.load[u], u)
                    )
            frags[u] = (fl, end)
        return list(accumulate(diff[: self.n]))
