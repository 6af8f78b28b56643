"""Seeded inputs, the timed operation and its correctness checks, per workload.

Every input comes from the generators in this file, never from
``alphatree.cli.generate_weights``, so a change to the library cannot
move a workload.  Operation k of a run draws its input from a
``random.Random`` seeded with (workload, seed, k): the same seed gives
the same inputs however many operations a run manages.

A workload is five functions and a count:

* ``make(rng, scratch)`` builds one operation's input (untimed);
* ``run(inp)`` is the operation itself, the only timed call;
* ``check(inp, out)`` returns a list of failure messages (untimed);
* ``excess(inp, out)`` returns the code-length excess in bits (untimed);
* ``witness(inp)`` makes just enough of ``run``'s output for ``excess``;
* ``excess_ops``: excess_bits_mean is the mean over operations
  0 .. excess_ops - 1 of a seed, whatever number a run gets through.

``run`` looks every library name up at call time, so the same code runs
traced or untraced depending on what ``layertrace.Tracer`` has installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from time import perf_counter_ns

import alphatree.cli
import alphatree.coding
import alphatree.realweight
from alphatree.coding import Distribution, evaluate
from alphatree.core import tree_cost
from alphatree.realweight import (
    alpha_real_new,
    alpha_real_oracle,
    alpha_real_sorted,
)

# Fractional parts are k / 2^40 for distinct k: exact in a float, non-zero
# and pairwise distinct, so every offset the search probes is a real one.
_FRAC_DENOM = 1 << 40
REAL_N = 1 << 14

# 95 printable ASCII symbols, space through tilde.
PRINTABLE = "".join(chr(c) for c in range(32, 127))


def op_rng(workload: str, seed: int, k: int) -> random.Random:
    # string seeds are hashed with SHA-512, so they do not depend on
    # PYTHONHASHSEED
    return random.Random("%s:%d:%d" % (workload, seed, k))


# ----------------------------------------------------------------------
# real-lowd / real-highd: alpha_real on one weight vector


def real_weights(rng: random.Random, n: int, d: int) -> list[float]:
    """n weights with the d ceilings 0, 3, ..., 3(d - 1), each at random
    positions, and distinct non-zero fractional parts.

    The ceiling set is fixed rather than drawn: the gap between ceilings
    sets how much of Q the lower ceilings carry, so a drawn set makes the
    code-length excess of one instance swing by a factor of seven.
    """
    pool = list(range(0, 3 * d, 3))
    ceils = pool + [pool[rng.randrange(d)] for _ in range(n - d)]
    rng.shuffle(ceils)
    ks = rng.sample(range(1, _FRAC_DENOM), n)
    return [(c - 1) + k / _FRAC_DENOM for c, k in zip(ceils, ks)]


class RealInput:
    def __init__(self, weights):
        self.weights = weights
        self.fracs = frozenset(w - math.floor(w) for w in weights)


def _real_make(d):
    def make(rng, scratch):
        return RealInput(real_weights(rng, REAL_N, d))

    return make


def real_run(inp):
    return alphatree.realweight.alpha_real(inp.weights)


def real_check(inp, res) -> list[str]:
    fails = []
    cost = tree_cost(res.depths, inp.weights)
    if abs(cost - res.alpha) > 1e-9:
        fails.append("tree_cost %r != alpha %r" % (cost, res.alpha))
    if res.b != 0.0 and res.b not in inp.fracs:
        fails.append("offset %r is neither 0 nor a fractional part" % (res.b,))
    return fails


def real_excess(inp, res) -> float:
    """avg_len - H of the witness code under Q with q_i proportional to
    2^w_i: the excess avg_len - H - D of the coding workload with P = Q,
    so D = 0.  A witness with worse code lengths raises it."""
    top = max(inp.weights)
    scaled = [2.0 ** (w - top) for w in inp.weights]
    z = math.fsum(scaled)
    log_z = math.log2(z)
    return math.fsum(
        (s / z) * (d + (w - top) - log_z)
        for s, d, w in zip(scaled, res.depths, inp.weights)
    )


def strategies_agree(inp) -> tuple[bool, int, int]:
    """Run both strategies on one instance; (agree, new_ns, sorted_ns)."""
    t0 = perf_counter_ns()
    a = alpha_real_new(inp.weights)
    t1 = perf_counter_ns()
    b = alpha_real_sorted(inp.weights)
    t2 = perf_counter_ns()
    agree = abs(a.alpha - b.alpha) <= 1e-9 and a.b == b.b
    return agree, t1 - t0, t2 - t1


# ----------------------------------------------------------------------
# code-roundtrip: one user session through the CLI, then encode/decode


def zipf_text(rng: random.Random, symbols: str, probs, length: int) -> str:
    return "".join(rng.choices(symbols, weights=probs, k=length))


@dataclass
class CodeInput:
    alphabet: str
    sample_path: str
    target_path: str
    code_path: str
    target: str


def code_make(rng, scratch):
    """Alphabet of 2..95 printable symbols; a Zipf-skewed sample of 2-6
    KB; a target three times longer drawn from the same ranks with
    log-normal noise on every probability."""
    m = rng.randint(2, len(PRINTABLE))
    alphabet = "".join(sorted(rng.sample(PRINTABLE, m)))
    ranked = rng.sample(alphabet, m)  # Zipf rank order, unrelated to label order
    s = rng.uniform(0.8, 1.4)
    zipf = [1.0 / (r + 1) ** s for r in range(m)]
    perturbed = [z * math.exp(rng.gauss(0.0, 0.5)) for z in zipf]
    sample_len = rng.randint(2048, 6144)
    sample = zipf_text(rng, ranked, zipf, sample_len)
    target = zipf_text(rng, ranked, perturbed, 3 * sample_len)
    paths = [os.path.join(scratch, f) for f in ("sample.txt", "target.txt", "code.json")]
    for path, text in zip(paths, (sample, target)):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return CodeInput(alphabet, *paths, target)


@dataclass
class CodeOutput:
    rc_code: int
    rc_stats: int
    stats_text: str
    book: object = None
    q: object = None
    decoded: str = None


def code_witness(inp):
    """The cli session alone: `alphatree code`, then `alphatree stats`."""
    main = alphatree.cli.main
    rc_code = main([
        "code", inp.sample_path, "--smoothing", "add_one",
        "--alphabet=" + inp.alphabet, "--out", inp.code_path,
    ])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc_stats = main(["stats", inp.target_path, "--code", inp.code_path])
    return CodeOutput(rc_code, rc_stats, buf.getvalue())


def code_run(inp):
    out = code_witness(inp)
    with open(inp.code_path, encoding="utf-8") as fh:
        out.book, out.q = alphatree.coding.CodeBook.from_json(fh.read())
    out.decoded = out.book.decode(out.book.encode(inp.target))
    return out


def code_check(inp, out) -> list[str]:
    if out.rc_code != 0 or out.rc_stats != 0:
        return ["cli exit codes %d, %d" % (out.rc_code, out.rc_stats)]
    fails = []
    if out.decoded != inp.target:
        fails.append("decode(encode(target)) != target")
    stats = json.loads(out.stats_text)
    if stats["excess"] > stats["bound"] + 1e-9:
        fails.append("excess %r above bound %r" % (stats["excess"], stats["bound"]))
    labels = out.book.labels
    counts = dict.fromkeys(labels, 0)
    for sym in inp.target:
        counts[sym] += 1
    p = Distribution(labels, [counts[lab] / len(inp.target) for lab in labels])
    if json.loads(evaluate(p, out.book, out.q).to_json()) != stats:
        fails.append("stats JSON differs from library evaluate")
    return fails


def code_excess(inp, out) -> float:
    return json.loads(out.stats_text)["excess"]


# ----------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    make: object
    run: object
    check: object
    excess: object
    witness: object
    # at most the operations a 30 s run gets through at the first
    # benchmarked commit, except on code-roundtrip, whose per-instance
    # excess varies too much for that; its witness is cheap
    excess_ops: int
    real: bool  # alpha_real on an n = 2^14 vector: cross-check the strategies


WORKLOADS = {
    w.name: w
    for w in (
        Workload("real-lowd", _real_make(2), real_run, real_check, real_excess,
                 real_run, 32, True),
        Workload("real-highd", _real_make(64), real_run, real_check, real_excess,
                 real_run, 16, True),
        Workload("code-roundtrip", code_make, code_run, code_check, code_excess,
                 code_witness, 1024, False),
    )
}


# ----------------------------------------------------------------------
# the oracle batch: small instances against the interval DP


ORACLE_BATCH = 200


def oracle_weights(rng: random.Random) -> list[float]:
    """n <= 12 weights mixing the shapes the API accepts: repeated
    values, integral weights, and a few ceilings."""
    n = rng.randint(1, 12)
    d = rng.randint(1, n)
    pool = rng.sample(range(-4, 3 * d + 4), d)
    out = []
    for _ in range(n):
        r = rng.random()
        if out and r < 0.2:
            out.append(rng.choice(out))
        elif r < 0.35:
            out.append(float(rng.choice(pool)))
        else:
            out.append(rng.choice(pool) - 1 + rng.randrange(1, 1 << 20) / (1 << 20))
    return out


def oracle_batch(seed: int) -> tuple[int, list[str]]:
    """Check alpha_real, alpha_real_new and alpha_real_sorted against
    alpha_real_oracle on ORACLE_BATCH small instances; (checked, failures)."""
    rng = random.Random("oracle:%d" % seed)
    fails = []
    for _ in range(ORACLE_BATCH):
        w = oracle_weights(rng)
        want = alpha_real_oracle(w)
        for fn in (alphatree.realweight.alpha_real, alpha_real_new, alpha_real_sorted):
            try:
                res = fn(w)
                got = (res.alpha, tree_cost(res.depths, w))
            except Exception as e:
                got = (e,)
            if any(not isinstance(x, (int, float)) or abs(x - want) > 1e-9 for x in got):
                fails.append("%s(%r) gave %r, oracle %r" % (fn.__name__, w, got, want))
                break
    return ORACLE_BATCH, fails
