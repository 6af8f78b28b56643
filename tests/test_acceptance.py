"""Acceptance gate: nine end-to-end criteria, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they pass; plain `pytest` runs them silently as ordinary tests.
"""

import gc
import itertools
import math
import random
import time

import numpy as np
import pytest

from alphatree import (
    CodeBook,
    Distribution,
    LevelTree,
    LevelTreeError,
    alpha_int_fast,
    alpha_real_new,
    build_code,
    evaluate,
    redundancy_bound,
)
from alphatree.core import minimax_cost_by_dp
from alphatree.leveltree import UnionFindDeunion
from alphatree.realweight import alpha_real_oracle, alpha_real_sorted
from alphatree.cli import generate_weights
from helpers import CachedIntOracle, audit, random_real_weights, random_tree_profile


def report(num: int, detail: str):
    print("criterion %d: PASS - %s" % (num, detail))


def test_criterion_1_fast_matches_oracle():
    """Integer fast path equals the interval DP: exhaustively for
    n <= 6 over weights {0,1,2,3}, and on 10^4 random sequences with
    n <= 12 and weights in [-4, 4].  Zero mismatches allowed."""
    checked = 0
    for n in range(1, 7):
        for ws in itertools.product(range(4), repeat=n):
            cost, _ = alpha_int_fast(ws)
            assert cost == minimax_cost_by_dp(ws), ws
            checked += 1
    rng = random.Random(0xACCE01)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        ws = [rng.randint(-4, 4) for _ in range(n)]
        cost, _ = alpha_int_fast(ws)
        assert cost == minimax_cost_by_dp(ws), ws
        checked += 1
    report(1, "fast == DP oracle on %d sequences (exhaustive + random)" % checked)


def test_criterion_2_reference_instance():
    """The ten-leaf reference weights evaluate to the frozen value 8 on
    the oracle, the fast path, and the level tree."""
    ws = [4, 5, 2, 2, 2, 1, 2, 3, 6, 4]
    assert minimax_cost_by_dp(ws) == 8
    cost, depths = alpha_int_fast(ws)
    assert cost == 8
    assert max(w + d for w, d in zip(ws, depths)) == 8
    assert LevelTree(ws).cost() == 8
    report(2, "reference instance costs 8 on oracle, fast path, and level tree")


def test_criterion_3_uniform_half_weight_ladder():
    """2^k + 1 copies of k - 0.5 for k = 2..6: cost 2k+1 at rest and 2k
    after any two sets; two undos restore the cost and the serialized
    state byte for byte.  Values cross-checked against the DP oracle
    (derived, then frozen as 2k / 2k+1)."""
    for k in range(2, 7):
        n = 2**k + 1
        tree = LevelTree([k - 0.5] * n)
        base = tree.serialize()
        assert tree.cost() == 2 * k + 1
        assert minimax_cost_by_dp(tree.level[: tree.n], max_n=70) == 2 * k + 1
        for pair in ((0, 1), (n - 2, n - 1)):
            for i in pair:
                tree.set(i)
            assert tree.cost() == 2 * k
            assert minimax_cost_by_dp(tree.level[: tree.n], max_n=70) == 2 * k
            tree.undo()
            tree.undo()
            assert tree.cost() == 2 * k + 1
            assert tree.serialize() == base
    report(3, "half-weight ladders k=2..6: 2k+1 -> 2k -> restored, both end pairs")


def test_criterion_4_dynamic_against_oracle():
    """10^4 random set/undo operations across random instances with
    n <= 12: after every single operation the tree cost equals the DP
    oracle on the current integer sequence, and unwinding each instance
    restores its serialized state exactly."""
    rng = random.Random(0xACCE04)
    oracle = CachedIntOracle()
    ops = 0
    while ops < 10_000:
        n = rng.randint(1, 12)
        ws = random_real_weights(rng, n)
        tree = LevelTree(ws)
        base = tree.serialize()
        for _ in range(rng.randint(1, 30)):
            todo = [
                i
                for i in range(n)
                if ws[i] != int(ws[i]) and tree.level[i] == tree.ceils[i]
            ]
            if tree.segments and (not todo or rng.random() < 0.45):
                tree.undo()
            elif todo:
                tree.set(rng.choice(todo))
            else:
                break
            ops += 1
            assert tree.cost() == oracle(tree.level[: tree.n])
            audit(tree)
        while tree.segments:
            tree.undo()
        assert tree.serialize() == base
    report(4, "%d set/undo ops match the oracle after every op; rollbacks exact" % ops)


def test_criterion_5_strategies_agree():
    """10^4 instances with d in {1, 2, 4, n} and n up to 10^3: both
    real-weight strategies give the same offset and alphas within
    1e-9; for n <= 10 both also match the real-valued DP oracle."""
    rng = random.Random(0xACCE05)
    sizes = (
        [rng.randint(1, 16) for _ in range(9000)]
        + [rng.randint(17, 64) for _ in range(850)]
        + [rng.randint(65, 256) for _ in range(120)]
        + [rng.randint(257, 1000) for _ in range(30)]
    )
    oracle_checked = 0
    for idx, n in enumerate(sizes):
        d = min((1, 2, 4, n)[idx % 4], n)
        if idx % 5 == 0:
            # include integral weights so zero fractional parts and the
            # b = 0 path stay covered
            pool = rng.sample(range(-d - 8, d + 8), d)
            ws = []
            for i in range(n):
                c = pool[i] if i < d else pool[rng.randrange(d)]
                if rng.random() < 0.3:
                    ws.append(float(c))
                else:
                    f = rng.random()
                    while f == 0.0:
                        f = rng.random()
                    ws.append(c - 1 + f)
        else:
            ws = generate_weights(rng, n, d)
        a = alpha_real_new(ws)
        b = alpha_real_sorted(ws)
        assert abs(a.alpha - b.alpha) <= 1e-9, (n, d, ws[:8])
        assert a.b == b.b, (n, d, ws[:8])
        if n <= 10:
            want = alpha_real_oracle(ws)
            assert abs(a.alpha - want) <= 1e-9, (n, d, ws)
            oracle_checked += 1
    report(
        5,
        "both strategies agree on %d instances (1e-9 / exact b); %d oracle-checked"
        % (len(sizes), oracle_checked),
    )


def _random_q(rng, n):
    probs = [rng.random() + 0.01 for _ in range(n)]
    total = sum(probs)
    labels = ["s%03d" % i for i in range(n)]
    return Distribution(labels, [x / total for x in probs])


def test_criterion_6_codes_and_bounds():
    """10^3 random sample distributions with n <= 64: the codebook is
    alphabetical, prefix-free, and Kraft-complete, and
    max_i(log2 q_i + len_i) equals redundancy_bound within 1e-9.
    Dyadic distributions read off a random tree give bound exactly 0.0."""
    rng = random.Random(0xACCE06)
    for _ in range(1000):
        q = _random_q(rng, rng.randint(1, 64))
        book = build_code(q)  # constructor enforces the code invariants
        lens = book.lengths()
        maxlen = max(lens)
        assert sum(1 << (maxlen - l) for l in lens) == 1 << maxlen  # Kraft, exact
        for a, b in zip(book.codewords, book.codewords[1:]):
            assert a < b and not b.startswith(a)
        bound = redundancy_bound(q)
        worst = max(l + math.log2(qi) for l, qi in zip(lens, q.probs))
        assert abs(worst - bound) <= 1e-9
        assert bound >= -1e-12
    for _ in range(150):
        profile = random_tree_profile(rng, rng.randint(1, 64))
        labels = ["s%03d" % i for i in range(len(profile))]
        q = Distribution(labels, [2.0 ** -d for d in profile])
        assert redundancy_bound(q) == 0.0
        assert build_code(q).lengths() == profile
    report(6, "1000 codebooks valid, bound == worst slack (1e-9); 150 dyadic bounds exactly 0.0")


def test_criterion_7_excess_within_bound():
    """For each of the 10^3 sample distributions, 10^3 random sources:
    avg_len - H(P) - D(P||Q) <= bound + 1e-9 every time, and the
    point-mass source on the worst symbol attains the bound to 1e-9."""
    rng = random.Random(0xACCE06)  # same Qs as criterion 6
    nprng = np.random.default_rng(0xACCE07)
    rows = 0
    for qi in range(1000):
        q = _random_q(rng, rng.randint(1, 64))
        book = build_code(q)
        bound = redundancy_bound(q)
        qv = np.array(q.probs)
        slack = np.array(book.lengths(), dtype=float) + np.log2(qv)
        pm = nprng.random((1000, len(qv)))
        pm /= pm.sum(axis=1, keepdims=True)
        excess = pm @ slack  # == avg_len - H - D termwise
        assert float(excess.max()) <= bound + 1e-9
        rows += pm.shape[0]
        # point mass on the worst symbol: excess attains the bound
        probs = [0.0] * len(qv)
        probs[int(np.argmax(slack))] = 1.0
        rep = evaluate(Distribution(q.labels, probs), book, q)
        assert abs(rep.excess - bound) <= 1e-9
        if qi % 100 == 0:
            # spot-check the identity through the full report path
            pv = [float(x) for x in pm[0]]
            rep = evaluate(Distribution(q.labels, pv), book, q)
            direct = rep.avg_len - rep.entropy - rep.relative_entropy
            assert abs(direct - rep.excess) <= 1e-9
            assert rep.excess <= bound + 1e-9
    report(7, "%d random sources stay within the bound; point masses attain it" % rows)


@pytest.mark.timing
def test_criterion_8_scaling_and_budget():
    """Median-search strategy at d = 2: best-of-3 wall time grows by a
    factor in [1.6, 2.6] per doubling over n = 2^14, 2^15, 2^16; at
    n = 2^16 the set count stays <= 4n for d in {1, 2, 4, 8}."""
    best = []
    gc.disable()
    try:
        for n in (2**14, 2**15, 2**16):
            rng = random.Random(0xACCE08 + n)
            ws = generate_weights(rng, n, 2)
            t_min = None
            for _ in range(3):
                t0 = time.perf_counter()
                alpha_real_new(ws)
                dt = time.perf_counter() - t0
                t_min = dt if t_min is None else min(t_min, dt)
            best.append(t_min)
    finally:
        gc.enable()
    ratios = [b / a for a, b in zip(best, best[1:])]
    for r in ratios:
        assert 1.6 <= r <= 2.6, (best, ratios)
    n = 2**16
    for d in (1, 2, 4, 8):
        rng = random.Random(0xACCE08 * d)
        res = alpha_real_new(generate_weights(rng, n, d))
        assert res.instrumentation["sets"] <= 4 * n, (d, res.instrumentation)
    report(
        8,
        "doubling ratios %s within [1.6, 2.6]; sets <= 4n at n=65536, d in {1,2,4,8}"
        % (["%.2f" % r for r in ratios],),
    )


def test_criterion_9_union_find_against_snapshots():
    """10^5 randomized union/find/deunion operations agree exactly with
    a snapshot-stack partition oracle."""
    rng = random.Random(0xACCE09)
    size = 256
    uf = UnionFindDeunion()
    for _ in range(size):
        uf.add()
    comp = list(range(size))
    snaps = []
    for step in range(100_000):
        roll = rng.random()
        if roll < 0.40:
            x, y = rng.randrange(size), rng.randrange(size)
            if comp[x] == comp[y]:
                with pytest.raises(LevelTreeError):
                    uf.union(x, y)
            else:
                snaps.append(list(comp))
                uf.union(x, y)
                old, new = comp[y], comp[x]
                for i in range(size):
                    if comp[i] == old:
                        comp[i] = new
        elif roll < 0.70 and snaps:
            uf.deunion()
            comp = snaps.pop()
        else:
            x, y = rng.randrange(size), rng.randrange(size)
            assert (uf.find(x) == uf.find(y)) == (comp[x] == comp[y])
        if step % 4000 == 0:
            roots = {}
            ok = True
            for i in range(size):
                r = uf.find(i)
                if comp[i] in roots:
                    ok = ok and roots[comp[i]] == r
                else:
                    roots[comp[i]] = r
            assert ok and len(roots) == len(set(comp))
    report(9, "100000 union/find/deunion ops exactly match the snapshot oracle")
