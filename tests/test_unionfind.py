import random

import pytest

from alphatree.leveltree import LevelTreeError, UnionFindDeunion


def test_basic_lifecycle():
    uf = UnionFindDeunion()
    a, b, c = uf.add(), uf.add(), uf.add()
    assert uf.find(a) == a and uf.find(b) == b
    r = uf.union(a, b)
    assert uf.find(a) == uf.find(b) == r
    assert uf.find(c) == c
    uf.deunion()
    assert uf.find(a) == a and uf.find(b) == b


def test_union_of_connected_rejected():
    uf = UnionFindDeunion()
    a, b = uf.add(), uf.add()
    uf.union(a, b)
    with pytest.raises(LevelTreeError):
        uf.union(a, b)


def test_deunion_without_union_rejected():
    uf = UnionFindDeunion()
    uf.add()
    with pytest.raises(LevelTreeError):
        uf.deunion()


def test_pop_rejects_a_joined_element_and_changes_nothing():
    # the newest element is a child after union(0, 1) and a root with a
    # child after union(1, 0); pop must refuse both before any change
    for a, b in ((0, 1), (1, 0)):
        uf = UnionFindDeunion(2)
        uf.union(a, b)
        before = (list(uf.parent), list(uf.rank), list(uf.trail))
        with pytest.raises(LevelTreeError):
            uf.pop()
        assert (list(uf.parent), list(uf.rank), list(uf.trail)) == before
        assert uf.find(0) == uf.find(1)
        uf.deunion()
        uf.pop()
        assert (uf.parent, uf.rank) == ([0], [0])


def test_find_never_mutates():
    # deunion depends on find leaving the forest untouched
    uf = UnionFindDeunion()
    for _ in range(20):
        uf.add()
    rng = random.Random(2)
    for _ in range(12):
        x, y = rng.randrange(20), rng.randrange(20)
        if uf.find(x) != uf.find(y):
            uf.union(x, y)
    before = (list(uf.parent), list(uf.rank))
    for x in range(20):
        uf.find(x)
    assert (list(uf.parent), list(uf.rank)) == before


def test_deunion_unwinds_a_chain_exactly():
    uf = UnionFindDeunion()
    elems = [uf.add() for _ in range(16)]
    states = [(list(uf.parent), list(uf.rank))]
    rng = random.Random(3)
    merges = 0
    while merges < 15:
        x, y = rng.sample(elems, 2)
        if uf.find(x) == uf.find(y):
            continue
        uf.union(x, y)
        merges += 1
        states.append((list(uf.parent), list(uf.rank)))
    for want in reversed(states[:-1]):
        uf.deunion()
        assert (list(uf.parent), list(uf.rank)) == want


def test_counters():
    uf = UnionFindDeunion()
    a, b = uf.add(), uf.add()
    uf.find(a)
    uf.union(a, b)
    uf.deunion()
    # union performs two internal finds
    assert uf.finds == 3
    assert uf.unions == 1
    assert uf.deunions == 1
