"""alphatree benchmark: one workload per run, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload real-lowd --seed 1 --seconds 20 --trace 0

One caller issues the next operation only after the last returns; no
threads, no worker processes.  Workloads (see workloads.py):

  real-lowd       alpha_real, n = 2^14, d = 2 distinct ceilings
  real-highd      alpha_real, n = 2^14, d = 64 distinct ceilings
  code-roundtrip  `alphatree code` + `alphatree stats` through cli.main,
                  then CodeBook.encode/decode of the target text

--trace 0 times operations for --seconds of wall time with tracing off
and reports the end-to-end metrics.  --trace 1 runs a fixed number of
operations (--seconds times a per-workload rate, so counts repeat
exactly at one seed), each once untraced and once traced, and reports
the per-layer metrics.  Every output is checked outside the timed
region; a batch of small instances is checked against the interval-DP
oracle in every run.

Every time the benchmark reports (ops_per_s, op_ms_p50, setup_s and
the per-layer *_ms) is reference-scaled, not plain wall-clock: it is
scaled to a nominal CPU speed by the reference work of refwork.py,
timed between operations once the last operation's input and output
are freed.  The raw wall-clock figures are reported next to them as
wall_*.  excess_bits_mean is the mean over a fixed set of operations
of the seed (Workload.excess_ops), so it does not depend on speed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it list every metric
with its unit.  A fuller record, with the machine facts, goes to
perfbench/out/, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter, perf_counter_ns

from refwork import REF_NOMINAL_S, time_reference

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 25
# prints the import time and the reference time around it
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = ['src', %r]\n"
    "from refwork import time_reference\n"
    "r0 = time_reference()\n"
    "t0 = time.perf_counter()\n"
    "import alphatree, alphatree.cli\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0, (r0 + time_reference()) / 2)\n"
) % HERE

# traced operations per second of --seconds, sized so a traced run
# (untraced twin, traced op, and on real-* both strategies) takes about
# --seconds on a 2-core Xeon at the first benchmarked commit
TRACE_OPS_PER_S = {"real-lowd": 0.5, "real-highd": 0.25, "code-roundtrip": 10.0}

P90_MIN_OPS = 100  # p90 needs ten samples beyond it


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "commit": git_commit(),
        "ref_nominal_s": REF_NOMINAL_S,
    }


def git_commit() -> str:
    """HEAD of ROOT; "unknown" outside a git checkout or without git."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def measure_setup_s() -> tuple[float, float]:
    """Median import time of alphatree and alphatree.cli, each sample in
    a fresh interpreter; (scaled, wall).  One unrecorded probe first
    compiles the bytecode."""
    scaled, wall = [], []
    for i in range(SETUP_SAMPLES + 1):
        r = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            t, ref = map(float, r.stdout.split())
            scaled.append(t * REF_NOMINAL_S / ref)
            wall.append(t)
    return statistics.median(scaled), statistics.median(wall)


def timed_attempt(w, run, inp):
    """Time run(inp) alone, then check its output: (out, failures, ns)."""
    t0 = perf_counter_ns()
    try:
        out = run(inp)
    except Exception:
        return None, [traceback.format_exc()], perf_counter_ns() - t0
    ns = perf_counter_ns() - t0
    return out, w.check(inp, out), ns


def report_failures(k, fails) -> None:
    for msg in fails[:3]:
        print("op %s failed: %s" % (k, msg.rstrip()), file=sys.stderr)


def run_untraced(w, seed, seconds, scratch) -> dict:
    from workloads import op_rng

    w.run(w.make(op_rng(w.name, seed, -1), scratch))  # warm-up, not recorded
    op_ms, wall_ms, excess, failed = [], [], [], 0
    ref_before = time_reference()
    deadline = perf_counter() + seconds
    k = 0
    while k == 0 or perf_counter() < deadline:
        inp = w.make(op_rng(w.name, seed, k), scratch)
        out, fails, ns = timed_attempt(w, w.run, inp)
        if fails:
            failed += 1
            report_failures(k, fails)
        elif k < w.excess_ops:
            excess.append(w.excess(inp, out))
        del inp, out  # so the reference runs without the op's heap
        ref_after = time_reference()
        wall_ms.append(ns / 1e6)
        op_ms.append(ns / 1e6 * REF_NOMINAL_S * 2 / (ref_before + ref_after))
        ref_before = ref_after
        k += 1
    # the excess of the operations this run did not reach, from the
    # witness alone and untimed
    attempted = k
    for k in range(k, w.excess_ops):
        inp = w.make(op_rng(w.name, seed, k), scratch)
        attempted += 1
        try:
            excess.append(w.excess(inp, w.witness(inp)))
        except Exception:
            failed += 1
            report_failures(k, [traceback.format_exc()])
    extra = {
        "ops": (len(op_ms), "count"),
        "excess_only_ops": (attempted - len(op_ms), "count"),
        "wall_op_ms_p50": (statistics.median(wall_ms), "ms"),
        "wall_ops_per_s": (len(wall_ms) / (math.fsum(wall_ms) / 1e3), "1/s"),
    }
    if len(op_ms) >= P90_MIN_OPS:
        extra["op_ms_p90"] = (statistics.quantiles(op_ms, n=10)[8], "ms")
    return {
        "ops": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": (len(op_ms) / (math.fsum(op_ms) / 1e3), "1/s"),
            "op_ms_p50": (statistics.median(op_ms), "ms"),
            "excess_bits_mean": (statistics.fmean(excess) if excess else 0.0, "bits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        },
        "extra": extra,
    }


def run_traced(w, seed, seconds, scratch, spans_path) -> dict:
    from layertrace import CALLS, INSTRUMENTATION, SELF_MS, Tracer
    from workloads import op_rng, strategies_agree

    tracer = Tracer()
    n_ops = max(2, round(seconds * TRACE_OPS_PER_S[w.name]))
    scale = []  # per op: nominal over measured reference time
    plain_ns = traced_ns = new_ms = sorted_ms = 0.0
    failed = disagreements = 0
    for k in range(n_ops):
        ref0 = time_reference()
        inp = w.make(op_rng(w.name, seed, k), scratch)
        traced = functools.partial(tracer.traced_op, k, w.run)
        # alternate which twin runs first, so neither gets the warmer caches
        order = [(False, w.run), (True, traced)]
        if k % 2:
            order.reverse()
        ok = True
        for is_traced, run in order:
            _, fails, ns = timed_attempt(w, run, inp)
            if is_traced:
                traced_ns += ns
            else:
                plain_ns += ns
            if fails:
                ok = False
                report_failures(k, fails)
        a_ns = b_ns = 0
        if w.real:
            agree, a_ns, b_ns = strategies_agree(inp)
            if not agree:
                disagreements += 1
                ok = False
                report_failures(k, ["alpha_real_new and alpha_real_sorted disagree"])
        failed += not ok
        del inp  # so the reference runs without the op's heap
        s = REF_NOMINAL_S * 2 / (ref0 + time_reference())
        scale.append(s)
        new_ms += a_ns / 1e6 * s
        sorted_ms += b_ns / 1e6 * s
    tracer.write_spans(spans_path)

    agg = tracer.self_times(scale)
    metrics = {}
    for metric, span in SELF_MS.items():
        metrics[metric] = (agg[span][1] / 1e6 / n_ops, "ms")
    for metric, span in CALLS.items():
        metrics[metric] = (agg[span][0] / n_ops, "count")
    for metric, key in INSTRUMENTATION.items():
        metrics[metric] = (tracer.counts[key] / n_ops, "count")
    sets, undos = agg["leveltree.set"][0], agg["leveltree.undo"][0]
    metrics["realweight.sets_kept_ratio"] = (1 - undos / sets if sets else 0.0, "ratio")
    metrics["realweight.new_ms"] = (new_ms / n_ops, "ms")
    metrics["realweight.sorted_ms"] = (sorted_ms / n_ops, "ms")
    metrics["realweight.strategy_disagreements"] = (disagreements, "count")
    metrics["coding.symbols"] = (tracer.counts["symbols"] / n_ops, "count")
    metrics["trace.overhead_ratio"] = (traced_ns / plain_ns, "ratio")

    total = sum(ns for _, ns in agg.values())
    shares = {name: ns / total for name, (_, ns) in agg.items() if ns}
    layers: dict = {}
    for name, share in shares.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + share
    return {
        "ops": n_ops,
        "failed": failed,
        "metrics": metrics,
        "extra": {"ops": (n_ops, "count"), "spans": (len(tracer.start), "count")},
        "self_time_share": {"by_span": shares, "by_layer": layers},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "alphatree", "__init__.py")):
        print("perfbench: no src/alphatree under %s; run from the repository root" % ROOT,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import alphatree
    import workloads

    if not os.path.abspath(alphatree.__file__).startswith(SRC + os.sep):
        print("perfbench: imported alphatree from %s, not %s" % (alphatree.__file__, SRC),
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (pick from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    w = workloads.WORKLOADS[args.workload]

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (w.name, args.seed, args.trace))
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            res = run_traced(w, args.seed, args.seconds, scratch, stem + "-spans.csv.gz")
        else:
            res = run_untraced(w, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    checked, oracle_fails = workloads.oracle_batch(args.seed)
    report_failures("oracle", oracle_fails)
    if not args.trace:
        scaled, wall = measure_setup_s()
        res["metrics"]["setup_s"] = (scaled, "s")
        res["extra"]["wall_setup_s"] = (wall, "s")

    attempted = res["ops"] + checked
    failed = res["failed"] + len(oracle_fails)
    res["extra"]["failed_ratio"] = (failed / attempted, "ratio")
    res["extra"]["oracle_instances"] = (checked, "count")
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in res["extra"].items()},
    }
    if "self_time_share" in res:
        record["self_time_share"] = res["self_time_share"]
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    for name, (value, unit) in sorted({**res["metrics"], **res["extra"]}.items()):
        print("%-36s %14.6g %s" % (name, value, unit))
    for layer, share in sorted(res.get("self_time_share", {}).get("by_layer", {}).items()):
        print("%-36s %14.4f share of traced op self time" % ("layer." + layer, share))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
