import gc
import math
import random

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
from alphatree.core import alpha_int_oracle
from alphatree.leveltree import NIL, static_cost, static_squeeze, static_witness
from helpers import CachedIntOracle, random_real_weights


def settable(tree):
    return [
        i
        for i in range(tree.n)
        if tree.weights[i] != int(tree.weights[i]) and not tree.bits[i]
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
    t.audit()


def test_build_accepts_reals():
    t = LevelTree([1.5, 1.5, 1.5])
    assert t.ceils == [2, 2, 2]
    assert t.cost() == 4
    t.audit()


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
    assert t.current_levels() == [0]
    t.undo()
    assert t.cost() == 1
    t.audit()


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
    t.audit()
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
        t.audit()


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
    own = [id(a) for a in t._arena] + [id(t.bits)]
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
        t.audit()
        return t

    bad = [tree() for _ in range(5)]
    t = bad[0]
    t.csum[t.uf.find(t.parent[0])] += 1  # the node over leaves 0..3
    bad[1].level[6] -= 1  # an only child, so no level mix gives it away
    bad[2].load[5] = 2
    t = bad[3]
    # leaves 1 and 2 relinked as 2, 1 with consistent links: only the
    # leaf order is wrong
    t.rsib[0], t.lsib[2], t.rsib[2] = 2, 0, 1
    t.lsib[1], t.rsib[1], t.lsib[3] = 2, 3, 1
    bad[4].bits[6] = 0
    for t in bad:
        with pytest.raises(AssertionError):
            t.audit()


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
        assert t.cost() == oracle(t.current_levels())
        for _ in range(rng.randint(1, 24)):
            todo = settable(t)
            if t.segments and (not todo or rng.random() < 0.45):
                t.undo()
            elif todo:
                t.set(rng.choice(todo))
            else:
                break
            assert t.cost() == oracle(t.current_levels())
            t.audit()
        while t.segments:
            t.undo()
        assert t.serialize() == base
        t.audit()


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
            assert t.cost() == oracle(t.current_levels())
        # everything set: Y = ceil(w) - 1 throughout
        assert t.current_levels() == [c - 1 for c in t.ceils]
        for _ in range(n):
            t.undo()
        assert t.serialize() == base


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


def spy_surgery(tree):
    """Log the case of every surgery routine call on one tree."""
    log = []
    merge, absorb, wrap = tree._merge, tree._absorb, tree._wrap

    def spy_merge(v, ul, ur, *rest):
        alone = tree._r(tree.lsib[ul]) == NIL and tree._r(tree.rsib[ur]) == NIL
        log.append("merge_into_parent" if alone else "merge_siblings")
        merge(v, ul, ur, *rest)

    def spy_absorb(v, host, nb, p, ny, cl_nb, toward, away, end):
        case = "absorb_left" if toward is tree.rsib else "absorb_right"
        log.append(case + "_take" if nb != NIL else case)
        absorb(v, host, nb, p, ny, cl_nb, toward, away, end)

    def spy_wrap(v, ul, ur, *rest):
        log.append("wrap_%d" % ((ul != NIL) + (ur != NIL)))
        wrap(v, ul, ur, *rest)

    tree._merge, tree._absorb, tree._wrap = spy_merge, spy_absorb, spy_wrap
    return log


def test_surgery_is_mirror_symmetric():
    # set(i) on W and set(n-1-i) on reversed W are mirror images: each
    # step must take the mirrored surgery case and reach the same cost.
    # This guards the direction arguments of the surgery routines, and
    # the spy makes sure every case was reached.
    rng = random.Random(1985)
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 12)
        ws = random_real_weights(rng, n, lo=-2, hi=3, integral_rate=0.15)
        a, b = LevelTree(ws), LevelTree(ws[::-1])
        log_a, log_b = spy_surgery(a), spy_surgery(b)
        base_a, base_b = a.serialize(), b.serialize()
        for _ in range(rng.randint(1, 2 * n)):
            todo = settable(a)
            if a.segments and (not todo or rng.random() < 0.3):
                a.undo()
                b.undo()
            elif todo:
                i = rng.choice(todo)
                a.set(i)
                b.set(n - 1 - i)
            else:
                break
            assert a.cost() == b.cost()
            assert log_b == [SURGERY_CASES[c] for c in log_a]
            a.audit()
            b.audit()
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
        assert tree_cost(depths, t.current_levels()) == t.cost()


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
        fresh = LevelTree(t.current_levels())
        assert t.cost() == fresh.cost()
    t.audit()
    while t.segments:
        t.undo()
    assert t.cost() == LevelTree(ws).cost()


# integer level lists: general ones with negatives, long all-equal
# runs, and few levels far apart (gaps much wider than log2 n)
level_lists = st.one_of(
    st.lists(st.integers(-12, 12), min_size=1, max_size=40),
    st.builds(lambda v, n: [v] * n, st.integers(-5, 5), st.integers(1, 40)),
    st.lists(st.sampled_from([-1000, -3, 0, 64, 10**6]), min_size=1, max_size=12),
)


@settings(max_examples=400, deadline=None)
@given(level_lists)
def test_static_pass_matches_level_tree(levels):
    tree = LevelTree(levels)
    cost = tree.cost()
    assert static_cost(levels) == cost
    assert static_witness(levels) == (cost, tree.depth_profile())
    if len(levels) <= 10:
        assert cost == alpha_int_oracle(levels)


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
    return static_cost([y for y, _ in items], [a for _, a in items])


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
    out = ([], [])
    static_squeeze([y for y, _ in r], [a for _, a in r], out)
    squeezed = list(zip(*out))
    # emitted bottoms rise and the residual stack falls
    assert len(squeezed) <= min(len(r), 2 * len({y for y, _ in r}))
    if p or r or s:
        assert _cost(p + squeezed + s) == _cost(p + r + s)
    # a squeeze of a squeeze changes nothing
    again = ([], [])
    static_squeeze(*out, again)
    assert again == out


class SetUndoMachine(RuleBasedStateMachine):
    """Random set/undo sequences on one live tree.  After every step the
    tree passes audit() and its cost is the static pass's over its
    current levels; every undo restores serialize() byte for byte.  The
    node kinds in serialize() and the root test in audit() are derived
    from ids and levels, so this also checks that derivation."""

    # at least one weight is not an integer, so a first set is possible
    @initialize(ws=st.lists(
        st.builds(lambda c, f: c - f, st.integers(-4, 4), st.sampled_from([0.0, 0.25, 0.5, 0.9])),
        min_size=1, max_size=24,
    ).filter(lambda ws: any(w != math.floor(w) for w in ws)))
    def build(self, ws):
        self.tree = LevelTree(ws)
        self.before: list[str] = []  # serialize() before each open set

    @precondition(lambda self: settable(self.tree))
    @rule(data=st.data())
    def set(self, data):
        i = data.draw(st.sampled_from(settable(self.tree)))
        self.before.append(self.tree.serialize())
        self.tree.set(i)

    @precondition(lambda self: self.before)
    @rule()
    def undo(self):
        self.tree.undo()
        assert self.tree.serialize() == self.before.pop()

    @invariant()
    def consistent(self):
        self.tree.audit()
        assert self.tree.cost() == static_cost(self.tree.current_levels())


SetUndoMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
test_set_undo_machine = SetUndoMachine.TestCase
