import gc
import hashlib
import json
import math
import random
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from alphatree import LevelTree, LevelTreeError, alpha_int_fast, tree_cost
from alphatree.core import minimax_cost_by_dp
from alphatree.leveltree import NIL, _bottom_entry, ceil_log2, static_cost, static_witness
from alphatree.realweight import _squeeze
from helpers import CachedIntOracle, audit, random_real_weights, walk_depth_profile


def settable(tree):
    # a non-integral weight whose leaf is still at its ceiling
    return [
        i
        for i in range(tree.n)
        if tree.weights[i] != tree.ceils[i] and tree.level[i] == tree.ceils[i]
    ]


def test_build_costs():
    assert LevelTree([7]).cost() == 7
    assert LevelTree([0, 0]).cost() == 1
    assert LevelTree([3, 3, 3, 3]).cost() == 5
    assert LevelTree([4, 5, 2, 2, 2, 1, 2, 3, 6, 4]).cost() == 8
    assert LevelTree([-2, -1, -2]).cost() == 1


def test_build_flat_shape():
    # equal weights collapse to a single node holding every leaf
    t = LevelTree([3, 3, 3, 3])
    root = t._r(t.root)
    assert t._children(root) == [0, 1, 2, 3]
    assert t.csum[root] == 4
    audit(t)


def test_build_accepts_reals():
    t = LevelTree([1.5, 1.5, 1.5])
    assert t.ceils == [2, 2, 2]
    assert t.cost() == 4
    audit(t)


def test_build_rejects_bad_input():
    with pytest.raises(LevelTreeError):
        LevelTree([])
    with pytest.raises(LevelTreeError):
        LevelTree([1.0, math.inf])
    with pytest.raises(LevelTreeError):
        LevelTree([math.nan])


def test_set_single_leaf():
    t = LevelTree([0.5])
    assert t.cost() == 1
    t.set(0)
    assert t.cost() == 0
    assert t.level[: t.n] == [0]
    t.undo()
    assert t.cost() == 1
    audit(t)


def test_set_rejections():
    t = LevelTree([0.5, 2.0])
    with pytest.raises(LevelTreeError):
        t.set(1)  # integral weight
    with pytest.raises(IndexError):
        t.set(2)
    t.set(0)
    with pytest.raises(LevelTreeError):
        t.set(0)  # bit already 1
    # failed attempts must not have disturbed anything
    t.undo()
    audit(t)
    assert t.cost() == 3


def test_undo_without_set():
    t = LevelTree([0.5])
    with pytest.raises(LevelTreeError):
        t.undo()


def test_uniform_half_weights():
    # 2^k + 1 copies of k - 0.5: cost k + (k+1), dropping by one after
    # any two sets
    for k in (2, 3, 4):
        n = 2**k + 1
        t = LevelTree([k - 0.5] * n)
        assert t.cost() == 2 * k + 1
        t.set(0)
        t.set(1)
        assert t.cost() == 2 * k
        t.undo()
        t.undo()
        assert t.cost() == 2 * k + 1
        audit(t)


def test_serialize_deterministic_and_restored():
    ws = [1.5, 1.5, 2.0, 0.5, 1.5]
    a = LevelTree(ws)
    b = LevelTree(ws)
    assert a.serialize() == b.serialize()
    base = a.serialize()
    a.set(0)
    assert a.serialize() != base
    a.set(3)
    a.undo()
    a.undo()
    assert a.serialize() == base


def test_counters_track_operations():
    t = LevelTree([0.5, 0.5, 0.5])
    c0 = t.counters()
    assert c0["sets"] == 0 and c0["undos"] == 0
    t.set(1)
    t.undo()
    c1 = t.counters()
    assert c1["sets"] == 1 and c1["undos"] == 1
    assert c1["unions"] == c1["deunions"]


def test_journal_holds_no_tracked_objects():
    # the journals hold ints and the tree's own lists, so a live search
    # gives the cycle collector nothing new to track
    rng = random.Random(31)
    t = LevelTree(random_real_weights(rng, 300))
    own = [id(a) for a in t._arena]
    for _ in range(600):
        free = settable(t)
        if t.segments and (not free or rng.random() < 0.3):
            t.undo()
        else:
            t.set(rng.choice(free))
    assert t.segments and t.uf.trail
    for e in t.journal:
        assert not gc.is_tracked(e) or id(e) in own
    assert not any(gc.is_tracked(e) for e in t.uf.trail)


def test_audit_catches_corruption():
    def tree():
        t = LevelTree([0.5] * 4 + [2.5, 1.5, 0.5, 0.5])
        t.set(6)
        audit(t)
        return t

    bad = [tree() for _ in range(4)]
    t = bad[0]
    t.csum[t.uf.find(t.parent[0])] += 1  # the node over leaves 0..3
    bad[1].level[6] -= 1  # an only child, so no level mix gives it away
    bad[2].load[5] = 2
    t = bad[3]
    # leaves 1 and 2 relinked as 2, 1 with consistent links: only the
    # leaf order is wrong
    t.rsib[0], t.lsib[2], t.rsib[2] = 2, 0, 1
    t.lsib[1], t.rsib[1], t.lsib[3] = 2, 3, 1
    # the integral weight 2.0 is the only child of a level-5 node, whose
    # load stays 1 when it drops a level: only the leaf rule sees it
    t = LevelTree([2.0, 5.0])
    audit(t)
    t.level[0] -= 1
    bad.append(t)
    for t in bad:
        with pytest.raises(AssertionError):
            audit(t)


def test_randomized_against_oracle():
    # the central correctness test: every set/undo lands on the value
    # the interval DP assigns to the current integer sequence, every
    # state passes a structural audit, and a full unwind restores the
    # serialized state bit for bit
    rng = random.Random(20240817)
    oracle = CachedIntOracle()
    for _ in range(250):
        n = rng.randint(1, 12)
        ws = random_real_weights(rng, n)
        t = LevelTree(ws)
        base = t.serialize()
        assert t.cost() == oracle(t.level[: t.n])
        for _ in range(rng.randint(1, 24)):
            todo = settable(t)
            if t.segments and (not todo or rng.random() < 0.45):
                t.undo()
            elif todo:
                t.set(rng.choice(todo))
            else:
                break
            assert t.cost() == oracle(t.level[: t.n])
            audit(t)
        while t.segments:
            t.undo()
        assert t.serialize() == base
        audit(t)


def test_deep_set_chains():
    # drive one instance to exhaustion and all the way back
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 10)
        ws = random_real_weights(rng, n, integral_rate=0.0)
        t = LevelTree(ws)
        oracle = CachedIntOracle()
        base = t.serialize()
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            t.set(i)
            assert t.cost() == oracle(t.level[: t.n])
        # everything set: Y = ceil(w) - 1 throughout
        assert t.level[: t.n] == [c - 1 for c in t.ceils]
        for _ in range(n):
            t.undo()
        assert t.serialize() == base


SET_UNDO_TRACE_SHA256 = "05b49f05ca7537d9165a559ece4eaf5d5ee5f027698a6f842ccce0b7c6929651"
SET_UNDO_COUNTERS_SHA256 = "2f4e4a867acca2d098ad9fff4bb8784dd044bd00eae15a92cd04fca0936b035d"


def test_set_undo_trace_is_pinned():
    # serialize() after every set and undo of a seeded trace hashes to
    # one recorded digest, and each tree's final counters() to another:
    # a rewrite of the surgery must leave the structure and the node ids
    # byte-identical, while a change to the work it does (the find
    # count) shows in the second digest alone
    rng = random.Random(1989)
    h = hashlib.sha256()
    hc = hashlib.sha256()
    for _ in range(100):
        n = rng.randint(1, 24)
        t = LevelTree(random_real_weights(rng, n))
        h.update(t.serialize().encode())
        for _ in range(rng.randint(1, 3 * n)):
            todo = settable(t)
            if t.segments and (not todo or rng.random() < 0.35):
                t.undo()
            elif todo:
                t.set(rng.choice(todo))
            else:
                break
            h.update(t.serialize().encode())
        hc.update(json.dumps(t.counters(), sort_keys=True).encode())
    assert h.hexdigest() == SET_UNDO_TRACE_SHA256
    assert hc.hexdigest() == SET_UNDO_COUNTERS_SHA256


SURGERY_CASES = {
    "merge_siblings": "merge_siblings",
    "merge_into_parent": "merge_into_parent",
    "absorb_left": "absorb_right",
    "absorb_right": "absorb_left",
    "absorb_left_take": "absorb_right_take",
    "absorb_right_take": "absorb_left_take",
    "wrap_0": "wrap_0",
    "wrap_1": "wrap_1",
    "wrap_2": "wrap_2",
}


def surgery_case(tree, i):
    """The case that set(i) takes, named from the tree's state before
    the call, or None for an only child.  A host is an internal
    neighbour of leaf i whose children already sit one level below i."""
    ny = tree.level[i] - 1
    ul = tree._r(tree.lsib[i])
    ur = tree._r(tree.rsib[i])
    if ul == NIL and ur == NIL:
        return None
    inner_l, inner_r = ul >= tree.n, ur >= tree.n
    host_l = inner_l and tree.level[tree._r(tree.fch[ul])] == ny
    host_r = inner_r and tree.level[tree._r(tree.fch[ur])] == ny
    if host_l and host_r:
        alone = tree._r(tree.lsib[ul]) == NIL and tree._r(tree.rsib[ur]) == NIL
        return "merge_into_parent" if alone else "merge_siblings"
    if host_l:
        return "absorb_left_take" if inner_r else "absorb_left"
    if host_r:
        return "absorb_right_take" if inner_l else "absorb_right"
    return "wrap_%d" % (inner_l + inner_r)


def test_surgery_is_mirror_symmetric():
    # set(i) on W and set(n-1-i) on reversed W are mirror images: each
    # step must take the mirrored surgery case and reach the same cost.
    # This guards the link directions of the surgery, and every case
    # must be reached.
    rng = random.Random(1985)
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 12)
        ws = random_real_weights(rng, n, lo=-2, hi=3, integral_rate=0.15)
        a, b = LevelTree(ws), LevelTree(ws[::-1])
        log_a, log_b = [], []
        base_a, base_b = a.serialize(), b.serialize()
        for _ in range(rng.randint(1, 2 * n)):
            todo = settable(a)
            if a.segments and (not todo or rng.random() < 0.3):
                a.undo()
                b.undo()
            elif todo:
                i = rng.choice(todo)
                case = surgery_case(a, i)
                if case is not None:
                    log_a.append(case)
                    log_b.append(surgery_case(b, n - 1 - i))
                a.set(i)
                b.set(n - 1 - i)
            else:
                break
            assert a.cost() == b.cost()
            assert log_b == [SURGERY_CASES[c] for c in log_a]
            audit(a)
            audit(b)
        while a.segments:
            a.undo()
            b.undo()
        assert a.serialize() == base_a
        assert b.serialize() == base_b
        seen.update(log_a)
    assert seen == set(SURGERY_CASES)


def test_witness_tracks_dynamic_state():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 10)
        ws = random_real_weights(rng, n)
        t = LevelTree(ws)
        for _ in range(rng.randint(0, n)):
            todo = settable(t)
            if not todo:
                break
            t.set(rng.choice(todo))
        depths = t.depth_profile()
        assert walk_depth_profile(t) == depths
        assert tree_cost(depths, t.level[: t.n]) == t.cost()


def test_large_static_build_matches_witness():
    rng = random.Random(31337)
    n = 100_000
    ws = [rng.randint(-50, 50) for _ in range(n)]
    cost, depths = alpha_int_fast(ws)
    assert tree_cost(depths, ws) == cost


def test_large_dynamic_matches_fresh_build():
    # after each set, the surgically-updated tree must agree with a
    # tree built from scratch on the current integer sequence
    rng = random.Random(271828)
    n = 50_000
    ws = random_real_weights(rng, n, lo=-30, hi=30, integral_rate=0.2)
    t = LevelTree(ws)
    for _ in range(25):
        todo = settable(t)
        if not todo:
            break
        t.set(rng.choice(todo))
        fresh = LevelTree(t.level[: t.n])
        assert t.cost() == fresh.cost()
    audit(t)
    while t.segments:
        t.undo()
    assert t.cost() == LevelTree(ws).cost()


# integer level lists: general ones with negatives, long all-equal
# runs, few levels far apart (gaps much wider than log2 n), and long
# lists (up to 600 items) of equal-level runs up to 75 long, levels 3
# apart or far apart, so that lifted runs hold many fragments and pair
# over several rounds, with an odd count in some of them
level_lists = st.one_of(
    st.lists(st.integers(-12, 12), min_size=1, max_size=40),
    st.builds(lambda v, n: [v] * n, st.integers(-5, 5), st.integers(1, 40)),
    st.lists(st.sampled_from([-1000, -3, 0, 64, 10**6]), min_size=1, max_size=12),
    st.lists(
        st.tuples(st.sampled_from([-9, -6, -3, -1, 0, 3, 6, 9, 1000]), st.integers(1, 75)),
        min_size=1,
        max_size=8,
    ).map(lambda runs: [y for y, k in runs for _ in range(k)]),
)


@settings(max_examples=400, deadline=None)
@given(level_lists)
def test_static_pass_matches_level_tree(levels):
    tree = LevelTree(levels)
    cost = tree.cost()
    assert static_cost(levels) == cost
    assert static_witness(levels) == (cost, walk_depth_profile(tree))
    if len(levels) <= 10:
        assert cost == minimax_cost_by_dp(levels)


WITNESS_SHA256 = "782f79571ed8e7f7c04f89a64153b22f08a7a036d5139a54eb10a4bb5eaaa73f"


def test_witness_on_benchmark_shaped_levels_is_pinned():
    # static_witness on level lists shaped like the benchmark's real-*
    # inputs at an offset b (n = 2^14, ceilings 0, 3, ..., 3(d - 1), each
    # one lower with probability b) hashes to one recorded digest: a
    # rewrite of the pass must leave every cost and depth as it was
    rng = random.Random(2008)
    h = hashlib.sha256()
    for d in (2, 64):
        for b in (0.05, 0.67, 0.95):
            levels = [3 * rng.randrange(d) - (rng.random() < b) for _ in range(2**14)]
            cost, depths = static_witness(levels)
            assert tree_cost(depths, levels) == cost
            h.update(json.dumps([cost, depths]).encode())
    assert h.hexdigest() == WITNESS_SHA256


def test_static_pass_edge_cases():
    assert static_cost([7]) == 7
    assert static_witness([-3]) == (-3, [0])
    for solve in (static_cost, static_witness):
        with pytest.raises(LevelTreeError):
            solve([])
    for bad in ([], [float("inf")], [float("nan")]):
        with pytest.raises(LevelTreeError):
            alpha_int_fast(bad)


# weighted items (level, count): levels mostly close, sometimes far apart
items_lists = st.lists(
    st.tuples(
        st.one_of(st.integers(-6, 6), st.sampled_from([-1000, 40, 10**6])),
        st.integers(1, 6),
    ),
    max_size=25,
)


def _cost(items):
    # the cost of items (y, a), each a leaves at level y
    t, a = _bottom_entry([y for y, _ in items], repeat(0.0), [a for _, a in items], 0.0)
    return t + ceil_log2(a)


@settings(max_examples=200, deadline=None)
@given(items_lists)
def test_weighted_item_acts_as_its_leaves(items):
    # an item (y, a) is a leaves at level y
    if items:
        leaves = [y for y, a in items for _ in range(a)]
        assert _cost(items) == static_cost(leaves)
        if len(leaves) <= 40:
            assert _cost(items) == LevelTree(leaves).cost()


@settings(max_examples=400, deadline=None)
@given(items_lists, items_lists, items_lists)
def test_squeeze_keeps_every_enclosing_cost(p, r, s):
    # with every frac 0.0 no item of r is undecided or lowered, so the
    # sorted search's squeeze replaces r as one run
    acc = {"squeeze_items": 0}
    out = _squeeze([y for y, _ in r], [0.0] * len(r), [a for _, a in r], 0.5, 0.5, acc)
    squeezed = list(zip(out[0], out[2]))
    assert out[1] == [0.0] * len(squeezed)
    # emitted bottoms rise and the residual stack falls
    assert len(squeezed) <= min(len(r), 2 * len({y for y, _ in r}))
    if p or r or s:
        assert _cost(p + squeezed + s) == _cost(p + r + s)
    # a squeeze of a squeeze changes nothing
    assert _squeeze(*out, 0.5, 0.5, acc) == out


class SetUndoMachine(RuleBasedStateMachine):
    """Random set/undo sequences on one live tree.  After every step the
    tree passes audit(), its cost is the static pass's over its current
    levels and the walk of its nodes gives its depth_profile(); every
    undo restores serialize() byte for byte, the arena size and the
    union-find trail length, the segment header undo returns to.  The
    node kinds in serialize() and the root test in audit() are derived
    from ids and levels, so this also checks that derivation."""

    # at least one weight is not an integer, so a first set is possible
    @initialize(ws=st.lists(
        st.builds(lambda c, f: c - f, st.integers(-4, 4), st.sampled_from([0.0, 0.25, 0.5, 0.9])),
        min_size=1, max_size=24,
    ).filter(lambda ws: any(w != math.floor(w) for w in ws)))
    def build(self, ws):
        self.tree = LevelTree(ws)
        # (serialize(), arena size, trail length) before each open set
        self.before: list[tuple[str, int, int]] = []

    def snapshot(self):
        t = self.tree
        return t.serialize(), len(t.level), len(t.uf.trail)

    @precondition(lambda self: settable(self.tree))
    @rule(data=st.data())
    def set(self, data):
        i = data.draw(st.sampled_from(settable(self.tree)))
        self.before.append(self.snapshot())
        self.tree.set(i)

    @precondition(lambda self: self.before)
    @rule()
    def undo(self):
        self.tree.undo()
        assert self.snapshot() == self.before.pop()

    @invariant()
    def consistent(self):
        audit(self.tree)
        assert self.tree.cost() == static_cost(self.tree.level[: self.tree.n])
        assert walk_depth_profile(self.tree) == self.tree.depth_profile()


SetUndoMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
test_set_undo_machine = SetUndoMachine.TestCase
