"""Shared test utilities: independent oracles and instance generators.

Run as a script (PYTHONPATH=src python tests/helpers.py), it prints the
sorted search's counters on every answer-corpus input and every
near-uniform input as CSV, one row per input, so that a change to its
work can be read input by input.  With the argument lines
(PYTHONPATH=src python tests/helpers.py lines) it prints the code size
of each module of the package and the total: every line that a
non-comment token spans, less the module docstring.
"""

import ast
import io
import math
import os
import random
import sys
import tokenize
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate

import alphatree
from alphatree import CodingError, DecodeError, LevelTree, WeightSeq, alpha_real, tree_cost
from alphatree.cli import generate_weights
from alphatree.core import minimax_cost_by_dp
from alphatree.leveltree import (
    NIL,
    _TOP,
    _ceil_shift,
    as_weight_seq,
    ceil_log2,
    static_cost,
    static_witness,
)
from alphatree.realweight import _SQUEEZE_RUN, _finish, _probe, _squeeze, _zero_counters


@lru_cache(maxsize=None)
def all_profiles(n: int):
    """Depth profiles of every ordered strictly-binary tree on n leaves.

    Pure shape enumeration, nothing shared with the package's DP: a
    tree is a root joining a left tree on k leaves and a right tree on
    the rest.  Catalan growth, so keep n small.
    """
    if n > 10:
        raise ValueError("profile enumeration is exponential; n=%d is too big" % n)
    if n == 1:
        return ((0,),)
    out = []
    for k in range(1, n):
        for left in all_profiles(k):
            for right in all_profiles(n - k):
                out.append(
                    tuple(d + 1 for d in left) + tuple(d + 1 for d in right)
                )
    return tuple(out)


def minimax_by_enumeration(weights):
    """Minimax cost by trying every tree shape."""
    best = None
    for prof in all_profiles(len(weights)):
        c = max(w + d for w, d in zip(weights, prof))
        if best is None or c < best:
            best = c
    return best


class CachedIntOracle:
    """Memoized wrapper around the interval-DP oracle, for test loops
    that revisit the same integer sequences many times."""

    def __init__(self, max_n: int = 16):
        self.max_n = max_n
        self._cache: dict = {}

    def __call__(self, levels) -> int:
        key = tuple(levels)
        got = self._cache.get(key)
        if got is None:
            got = minimax_cost_by_dp(key, max_n=self.max_n)
            self._cache[key] = got
        return got


def random_real_weights(rng, n, lo=-4, hi=4, integral_rate=0.3):
    """n random reals with ceilings in [lo, hi]; roughly integral_rate
    of them are exact integers (fractional part zero)."""
    out = []
    for _ in range(n):
        c = rng.randint(lo, hi)
        if rng.random() < integral_rate:
            out.append(float(c))
        else:
            f = rng.random()
            while f == 0.0:
                f = rng.random()
            out.append(c - 1 + f)
    return out


def random_tree_profile(rng, n):
    """Depth profile of one uniformly-split random ordered binary tree."""
    if n == 1:
        return [0]
    k = rng.randint(1, n - 1)
    left = random_tree_profile(rng, k)
    right = random_tree_profile(rng, n - k)
    return [d + 1 for d in left] + [d + 1 for d in right]


def probe_decode(book, bits):
    """Reference decoder: at each offset, try every codeword length from
    1 up with a slice and a dictionary lookup."""
    if bits.strip("01") != "":
        raise CodingError("bit string contains non-binary characters")
    if book.max_len == 0:
        if bits:
            raise DecodeError(0, "no bits are decodable with an empty-codeword code")
        return ""
    by_word = dict(zip(book.codewords, book.labels))
    out = []
    i = 0
    n = len(bits)
    while i < n:
        for j in range(i + 1, min(i + book.max_len, n) + 1):
            lab = by_word.get(bits[i:j])
            if lab is not None:
                out.append(lab)
                i = j
                break
        else:
            raise DecodeError(i, "bit string ends inside a codeword")
    return "".join(out)


def unsqueezed_sorted(w):
    """Reference sorted search: the same binary search over the sorted
    fractional parts, dropping a probed value's whole run of copies,
    with every probe a full stack pass over all n adjusted levels.
    Returns (b, int_cost, depths, probes)."""
    seq = WeightSeq(w)
    order = sorted(seq.fracs)
    target = static_cost(seq.adjusted(order[-1]))
    probes = 1
    lo, hi = 0, order.index(order[-1])
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if static_cost(seq.adjusted(order[mid])) == target:
            hi = order.index(order[mid])
        else:
            lo = mid + 1
            while order[lo] == order[mid]:
                lo += 1
    cost, depths = static_witness(seq.adjusted(order[lo]))
    assert cost == target
    return order[lo], target, depths, probes + 1


def bisected_sorted(w):
    """Reference for alpha_real with no interpolated window: the
    bisection over the sorted fractional parts from the whole range,
    squeezing at the start of each round once at most 1/_SQUEEZE_RUN of
    the items are undecided.  Returns its RealCostResult, counters
    included."""
    seq = as_weight_seq(w)
    acc = _zero_counters()
    order = sorted(seq.fracs)
    acc["sort_items"] += seq.n
    items = seq.floors, seq.fracs, [1] * seq.n
    t, a = _probe(*items, order[-1], acc)
    target = t + ceil_log2(a)
    lo, hi = 0, bisect_left(order, order[-1])
    while lo < hi:
        if _SQUEEZE_RUN * (hi - lo + 1) <= len(items[0]):
            items = _squeeze(*items, order[lo], order[hi], acc)
        mid = (lo + hi) // 2
        b = order[mid]
        t, a = _probe(*items, b, acc)
        if t + ceil_log2(a) == target:
            hi = bisect_left(order, b, lo, mid)
        else:
            lo = bisect_right(order, b, mid, hi)
    return _finish(seq, order[lo], target, "sorted", acc)


def near_uniform_weights(rng, n):
    """The weights build_code takes for a near-uniform sample: log2 q_i
    for q_i proportional to 1 + u_i, u_i uniform in [0, 1)."""
    q = [1 + rng.random() for _ in range(n)]
    total = math.fsum(q)
    return [math.log2(x / total) for x in q]


def near_uniform_inputs():
    """(label, weights) pairs: near_uniform_weights at fixed seeds, 8
    inputs each at 2^12 and 2^14 symbols."""
    return [("near-uniform", near_uniform_weights(random.Random("near-uniform:%d:%d" % (n, s)), n))
            for n in (2**12, 2**14) for s in range(8)]


def _pair(fl, x, z, end, diff):
    """Pair the adjacent fragments that start at fl and end at end from
    the left, the odd one last kept unpaired, z - x times or until one
    is left, round by round; each round deepens fl[0] up to the
    unpaired fragment (or end) by one in the difference array diff.
    Returns the fragments left."""
    rounds = z - x
    while rounds > 0 and len(fl) > 1:
        diff[fl[0]] += 1
        diff[fl[-1] if len(fl) % 2 else end] -= 1
        fl = fl[0::2]
        rounds -= 1
    return fl


def walk_depth_profile(tree):
    """Reference witness of a LevelTree, by a walk of its nodes.

    Per node, the children's tree fragments are concatenated in sibling
    order and paired from the left (odd fragment last, kept unpaired)
    once per level step up to the node's level, stopping early at a
    single fragment; the fragment count must then equal the node's
    load.  The root keeps pairing until one fragment is left, whose
    shape is the witness tree.  static_witness and the live tree's
    depth_profile() must both give these depths.
    """
    n, level = tree.n, tree.level
    # per node: its fragments' start leaves and the end of its leaves
    frags = {}
    diff = [0] * (n + 1)
    # children before parents: the walk's preorder, reversed
    for u, _, ch in reversed(list(tree._walk())):
        fl = []
        for c in ch:
            if c < n:
                fl.append(c)
                end = c + 1
            else:
                sub, end = frags.pop(c)
                fl.extend(sub)
        if level[u] == tree.sentinel:
            fl = _pair(fl, 0, ceil_log2(len(fl)), end, diff)
        else:
            fl = _pair(fl, level[ch[0]], level[u], end, diff)
            assert len(fl) == tree.load[u], (
                "fragment count %d != load %d at node %d" % (len(fl), tree.load[u], u)
            )
        frags[u] = (fl, end)
    return list(accumulate(diff[:n]))


def audit(tree):
    """Check every structural invariant of a LevelTree; raises
    AssertionError.

    Leaf order is checked by spans: leaf i covers [i, i + 1), each
    internal node's children cover consecutive spans, left to right,
    whose union is the node's span, and the root covers [0, n).  So
    every leaf is reached exactly once, in weight order.  Walks the
    whole tree, so it is O(n) plus finds.
    """
    n, level, load, csum = tree.n, tree.level, tree.load, tree.csum
    find = tree.uf.find
    nodes = list(tree._walk())
    r = nodes[0][0]
    if level[r] != tree.sentinel:
        raise AssertionError("root level is not the sentinel")
    span: dict[int, tuple[int, int]] = {}
    # children before parents, so each child's span is known
    for u, _, ch in reversed(nodes):
        if not ch:
            raise AssertionError("internal node %d has no children" % u)
        cl = level[ch[0]]
        prev = NIL
        cs = 0
        spans = []
        for c in ch:
            if level[c] != cl:
                raise AssertionError("children of %d at mixed levels" % u)
            if tree._r(tree.lsib[c]) != prev:
                raise AssertionError("bad lsib under %d" % u)
            if find(tree.parent[c]) != u:
                raise AssertionError("child %d does not resolve to parent %d" % (c, u))
            if c < n:
                if load[c] != 1:
                    raise AssertionError("leaf %d has load != 1" % c)
                # a leaf sits at its ceiling, or one below if settable
                bit = tree.ceils[c] - level[c]
                if not 0 <= bit <= (tree.weights[c] != tree.ceils[c]):
                    raise AssertionError("leaf %d is not at its ceiling or one below" % c)
                spans.append((c, c + 1))
            else:
                spans.append(span[c])
            cs += load[c]
            prev = c
        if any(a[1] != b[0] for a, b in zip(spans, spans[1:])):
            raise AssertionError("leaf order not preserved under %d" % u)
        span[u] = (spans[0][0], spans[-1][1])
        if tree._r(tree.lch[u]) != ch[-1]:
            raise AssertionError("bad lch on %d" % u)
        if cl >= level[u]:
            raise AssertionError("child level not below node %d" % u)
        if cs != csum[u]:
            raise AssertionError("csum mismatch on %d" % u)
        if load[u] != _ceil_shift(csum[u], level[u] - cl):
            raise AssertionError("load recurrence violated on %d" % u)
    if span[r] != (0, n):
        raise AssertionError("leaves do not cover 0..n-1 in order")
    live_internal = sum(1 for x in range(n, len(level)) if find(x) == x)
    if len(nodes) != live_internal:
        raise AssertionError("unreachable live internal nodes exist")


def run_squeeze(levels, counts, out):
    """Reference squeeze of one run of weighted items, appended to the
    lists out = (levels, counts): the run's own stack pass with the
    whole stack in lists, where the entry just above the sentinel is
    emitted when popped instead of lifted, then the entries left,
    bottom to top."""
    lv = [_TOP]
    cs = [0]
    for y, add in zip(levels, counts):
        b = lv[-1]
        while b < y:
            x = lv.pop()
            c = cs.pop()
            b = lv[-1]
            if b < y:
                cs[-1] += -((-c) >> (b - x))
            elif b != _TOP:
                add += -((-c) >> (y - x))
            else:
                out[0].append(x)
                out[1].append(c)
        if b == y:
            cs[-1] += add
        else:
            lv.append(y)
            cs.append(add)
    out[0].extend(lv[1:])
    out[1].extend(cs[1:])


def per_run_squeeze(levels, fracs, counts, flo, fhi):
    """Reference for the sorted search's squeeze: the items for every
    probe offset in [flo, fhi], with each maximal run of items whose
    level is fixed (every item but one with flo < frac <= fhi) cut out,
    fixed (raised iff frac > fhi) and squeezed on its own by
    run_squeeze.  Undecided items keep their level and frac, with
    count 1; squeezed items carry frac 0.0."""
    n = len(levels)
    fixed = [y + 1 if f > fhi else y for y, f in zip(levels, fracs)]
    out_l, out_f, out_k = out = [], [], []
    start = 0
    for i in [i for i, f in enumerate(fracs) if flo < f <= fhi] + [n]:
        if start < i:
            m = len(out_l)
            run_squeeze(fixed[start:i], counts[start:i], (out_l, out_k))
            out_f += [0.0] * (len(out_l) - m)
        if i < n:
            out_l.append(levels[i])
            out_f.append(fracs[i])
            out_k.append(1)
        start = i + 1
    return out


def bottom_entry(levels, counts=None):
    """Reference for the bottom entry (t, a) of the stack pass over
    integer levels, each standing for counts[i] leaves (one each by
    default): a LevelTree over the items expanded to unit leaves, whose
    root holds the runs at the largest level t, with csum a."""
    if counts is None:
        counts = [1] * len(levels)
    tree = LevelTree([y for y, k in zip(levels, counts) for _ in range(k)])
    root = tree._r(tree.root)
    return tree.level[tree._r(tree.fch[root])], tree.csum[root]


def certify(ws, res):
    """Check that res, a RealCostResult for the weights ws, is optimal,
    by static_witness alone (which shares no code with the search's
    passes); raises AssertionError.

    The integer cost at offset b is nonincreasing in b, so int_cost + b
    is the least cost over the offsets when: the witness depths form a
    tree of cost alpha; the cost at b, and at the largest frac, is
    int_cost; and the cost at the largest frac below b is above it, or
    b is the smallest frac.
    """
    seq = as_weight_seq(ws)
    assert tree_cost(res.depths, seq.weights) == res.alpha, res
    assert res.b in seq.fracs, res

    def cost(b):
        return static_witness(seq.adjusted(b))[0]

    assert cost(res.b) == cost(max(seq.fracs)) == res.int_cost, res
    below = [f for f in seq.fracs if f < res.b]
    assert not below or cost(max(below)) > res.int_cost, ("a smaller offset is feasible", res)


def code_lines(path):
    """Code size of one module: the lines that a non-comment token
    spans, less the module docstring's."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    with open(path, "rb") as f:
        source = f.read()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    body = ast.parse(source).body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        lines -= set(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines)


# Sizes of the answer corpus: the small ones the DP oracle can check,
# and the large ones straddle 4096, where the sorted search starts to
# place windows from a sample of the fractional parts
CORPUS_SIZES = (1, 2, 3, 5, 8, 12, 40, 300, 1000, 2500,
                4095, 4096, 4097, 6000, 8192, 12000, 16384, 20000)


def _with_fracs(ceils, fracs):
    # a weight per (ceiling, frac): frac 0.0 gives the integer ceiling
    return [c - 1 + f if f else float(c) for c, f in zip(ceils, fracs)]


def _tiny_weights(rng, n, share):
    # weights in (-1/2, 0) whose fractional parts are Fractions (-1e-20
    # and weights in (-2^-55, 0)), signed zeros, each about share of
    # them, and plain weights at ceilings near 0 for them to compete with
    specials = [-1e-20, 0.0, -0.0]
    out = []
    for _ in range(n):
        x = rng.random()
        if x < share:
            out.append(rng.choice(specials))
        elif x < 2 * share:
            out.append(-math.ldexp(1.0 - rng.random(), -55))
        else:
            out.append(rng.randint(-3, 1) - 1 + rng.random())
    return out


def _real_shape(rng, n, d):
    # perfbench's real_weights, as a formula: the d ceilings 0, 3, ...,
    # 3(d - 1), each at least once, and distinct fracs k / 2^40
    pool = list(range(0, 3 * d, 3))
    ceils = pool + [pool[rng.randrange(d)] for _ in range(n - d)]
    rng.shuffle(ceils)
    return [c - 1 + k / 2**40 for c, k in zip(ceils, rng.sample(range(1, 2**40), n))]


def corpus_inputs():
    """The answer corpus: (label, weights) pairs at fixed seeds, for
    every size in CORPUS_SIZES, shaped as 30%, 70% and 100% integral
    weights, 1 to 12 distinct offsets, Fraction fractional parts and
    signed zeros, fracs sorted by position (rising, or falling at odd
    sizes), generate_weights at d in {1, 2, 8, 64, 256, 1024, n}, and
    the benchmark's real weights at d in {2, 64}."""
    out = []
    for i, n in enumerate(CORPUS_SIZES):
        def rng(family):
            return random.Random("corpus:%s:%d" % (family, n))

        for rate in (0.3, 0.7, 1.0):
            label = "integral%d" % round(100 * rate)
            out.append((label, random_real_weights(rng(label), n, -8, 8, rate)))
        k = 1 + i % 12
        r = rng("offsets")
        pool = [r.choice([0.0, 0.5, r.random()]) for _ in range(k)]
        ceils = [r.randint(-8, 4) for _ in range(n)]
        out.append(("offsets%d" % k, _with_fracs(ceils, [r.choice(pool) for _ in range(n)])))
        for share in (0.1, 0.45):
            label = "fraction%d" % round(100 * share)
            out.append((label, _tiny_weights(rng(label), n, share)))
        r = rng("sorted")
        ws = generate_weights(r, n, min(8, n))
        fracs = sorted((w - math.floor(w) for w in ws), reverse=i % 2 == 1)
        out.append(("sorted", _with_fracs([math.floor(w) + 1 for w in ws], fracs)))
        for d in sorted({1, 2, 8, 64, 256, 1024, n}):
            if d <= n:
                label = "gen%s" % ("n" if d == n else d)
                out.append((label, generate_weights(rng(label), n, d)))
        for d in (2, 64):
            if d <= n:
                out.append(("real%d" % d, _real_shape(rng("real%d" % d), n, d)))
    return out


if __name__ == "__main__":
    if sys.argv[1:] == ["lines"]:
        root = os.path.dirname(alphatree.__file__)
        total = 0
        for name in sorted(f for f in os.listdir(root) if f.endswith(".py")):
            count = code_lines(os.path.join(root, name))
            total += count
            print(name, count)
        print("total", total)
    else:
        print(",".join(["family", "n"] + list(_zero_counters())))
        for label, ws in corpus_inputs() + near_uniform_inputs():
            acc = alpha_real(ws).instrumentation
            print(",".join([label, str(len(ws))] + [str(acc[key]) for key in _zero_counters()]))
