"""alphatree command line.

Subcommands: tree (minimax cost of a weights file), code (build a
codebook from a sample), stats (score a codebook against a target
file), bench (timed sweeps comparing the two real-weight strategies,
written as JSON rows).

Exit codes: 0 on success, 2 for any input problem, 3 when an internal
check fails on input that was already validated (which means a bug,
not bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from collections import Counter

from .coding import (
    CodeBook,
    CodingError,
    Distribution,
    build_code,
    empirical_distribution,
    evaluate,
)
from .core import (
    DepthProfileError,
    ParseError,
    alpha_int_fast,
    depths_to_tree,
    parse_weights,
)
from .leveltree import LevelTree, LevelTreeError
from .realweight import (
    InexactCostError,
    WeightSeq,
    _zero_counters,
    alpha_real,
    alpha_real_new,
)


class CliError(Exception):
    """Input-level problem: reported on stderr, exit code 2."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_text(path, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# tree


def cmd_tree(args) -> int:
    ws = parse_weights(_read_text(args.weights))
    if not ws:
        raise CliError("no weights found in %s" % args.weights)
    if args.algo == "int":
        bad = [w for w in ws if w != int(w)]
        if bad:
            raise CliError("--algo int given but %r is not an integer" % (bad[0],))
        ints = [int(w) for w in ws]
        cost, depths = alpha_int_fast(ints)
        alpha: float | int = cost
        offset = 0
        ceils = ints
        strategy = "int"
        instrumentation = _zero_counters()
    else:
        seq = WeightSeq(ws)
        res = _ALGO_RUNNERS[args.algo](seq)
        alpha = res.alpha
        # b is exact, a Fraction for some weights just below 0: print it
        # as a float rounded toward zero, so that it stays below 1
        offset = float(res.b)
        if offset > res.b:
            offset = math.nextafter(offset, 0.0)
        depths = res.depths
        ceils = seq.ceils
        strategy = res.strategy
        instrumentation = res.instrumentation
    out = {
        "n": len(ws),
        "d": len(set(ceils)),
        "alpha": alpha,
        "offset_b": offset,
        "depths": depths,
        "parent_array": depths_to_tree(depths),
        "strategy": strategy,
        "instrumentation": instrumentation,
    }
    if args.dump_level_tree:
        levels = ints if args.algo == "int" else seq.adjusted(res.b)
        out["level_tree"] = json.loads(LevelTree(levels).serialize())
    print(json.dumps(out, sort_keys=True, indent=2 if args.pretty else None))
    return 0


# ----------------------------------------------------------------------
# code


def _counts_from_csv(text: str) -> dict:
    counts: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        label, sep, count = line.rpartition(",")
        if not sep:
            raise CliError("line %d: expected label,count" % lineno)
        try:
            c = int(count.strip())
        except ValueError:
            raise CliError("line %d: bad count %r" % (lineno, count.strip())) from None
        if label in counts:
            raise CliError("line %d: duplicate label %r" % (lineno, label))
        counts[label] = c
    if not counts:
        raise CliError("no counts found")
    return counts


def _counts_from_bytes(data: bytes) -> dict:
    if not data:
        raise CliError("sample file is empty")
    return {chr(byte): c for byte, c in Counter(data).items()}


def cmd_code(args) -> int:
    if args.csv:
        counts = _counts_from_csv(_read_text(args.sample))
    else:
        counts = _counts_from_bytes(_read_bytes(args.sample))
    alphabet = list(args.alphabet) if args.alphabet is not None else None
    dist = empirical_distribution(counts, smoothing=args.smoothing, alphabet=alphabet)
    book = build_code(dist)
    _write_text(args.out, book.to_json(q=dist))
    return 0


# ----------------------------------------------------------------------
# stats


def cmd_stats(args) -> int:
    book, q = CodeBook.from_json(_read_text(args.code))
    if q is None:
        raise CliError(
            'codebook has no "q" entry; stats needs the sample distribution '
            "(regenerate the codebook with the code subcommand)"
        )
    data = _read_bytes(args.target)
    if not data:
        raise CliError("target file is empty")
    counts = _counts_from_bytes(data)
    known = set(book.labels)
    for sym in counts:  # in order of first occurrence
        if sym not in known:
            raise CliError("target symbol %r is not in the code" % sym)
    total = len(data)
    p = Distribution(book.labels, [counts.get(lab, 0) / total for lab in book.labels])
    report = evaluate(p, book, q)
    print(report.to_json())
    return 0


# ----------------------------------------------------------------------
# bench


def generate_weights(rng: random.Random, n: int, d: int) -> list[float]:
    """Random instance with exactly d distinct ceilings among n weights;
    every fractional part is nonzero."""
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n, got d=%d n=%d" % (d, n))
    pool = rng.sample(range(0, 2 * d + 8), d)
    ceils = pool + [pool[rng.randrange(d)] for _ in range(n - d)]
    rng.shuffle(ceils)
    out = []
    for c in ceils:
        f = rng.random()
        while f == 0.0:
            f = rng.random()
        out.append(c - 1 + f)
    return out


_ALGO_RUNNERS = {"new": alpha_real_new, "sorted": alpha_real}

# bench prints every instrumentation counter, in _zero_counters() order
_COUNTER_COLS = list(_zero_counters())


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        vals = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError("bad %s list %r" % (what, text)) from None
    if not vals or any(v < 1 for v in vals):
        raise CliError("%s list must hold positive integers" % what)
    return vals


def _bench_job(seed: int, n: int, d: int, trial: int, algos: list[str],
               repeat: int) -> list[dict]:
    # random hashes a str seed with SHA-512, independent of PYTHONHASHSEED
    rng = random.Random("%d:%d:%d:%d" % (seed, n, d, trial))
    # each strategy gets the plain list and builds its own WeightSeq,
    # so no row reuses the fracs another row computed
    ws = generate_weights(rng, n, d)
    rows = [{"n": n, "d": d, "trial": trial, "algo": algo} for algo in algos]
    results = []
    # the strategies run in turn, repeat times, so a slow spell of the
    # machine falls on each; a row keeps its best time, and its counters
    # must not move between repeats
    for rep in range(repeat):
        for row in rows:
            t0 = time.perf_counter_ns()
            res = _ALGO_RUNNERS[row["algo"]](ws)
            wall = time.perf_counter_ns() - t0
            counters = {key: res.instrumentation[key] for key in _COUNTER_COLS}
            if rep == 0:
                results.append(res)
                row["wall_ns"] = wall
                row.update(counters)
                continue
            if any(row[key] != v for key, v in counters.items()):
                raise AssertionError(
                    "%s counters moved between repeats (seed=%d n=%d d=%d trial=%d)"
                    % (row["algo"], seed, n, d, trial)
                )
            row["wall_ns"] = min(row["wall_ns"], wall)
    first = results[0]
    for res in results[1:]:
        if (res.alpha, res.b) != (first.alpha, first.b):
            raise AssertionError(
                "strategies disagree (seed=%d n=%d d=%d trial=%d): "
                "%s gave alpha=%r b=%r, %s gave alpha=%r b=%r"
                % (
                    seed, n, d, trial,
                    algos[0], first.alpha, first.b,
                    res.strategy, res.alpha, res.b,
                )
            )
    return rows


def cmd_bench(args) -> int:
    ns = _parse_int_list(args.n, "size")
    ds = _parse_int_list(args.d, "distinct-ceiling")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in _ALGO_RUNNERS:
            raise CliError("unknown algorithm %r (pick from new, sorted)" % a)
    if not algos:
        raise CliError("no algorithms selected")
    if args.trials < 1:
        raise CliError("--trials must be at least 1")
    if args.repeat < 1:
        raise CliError("--repeat must be at least 1")
    jobs = [
        (n, d, t)
        for n in ns
        for d in ds
        if d <= n
        for t in range(args.trials)
    ]
    if not jobs:
        raise CliError("no feasible (n, d) combinations")
    rows = [row for n, d, t in jobs for row in _bench_job(args.seed, n, d, t, algos, args.repeat)]
    # the arguments that reproduce these rows, then one row per line
    argv = ["bench"] + [
        tok for opt in ("n", "d", "trials", "seed", "algos", "repeat")
        for tok in ("--" + opt, str(getattr(args, opt)))
    ]
    if args.omit_timing:
        argv.append("--omit-timing")
        for row in rows:
            del row["wall_ns"]
    lines = ",\n".join(json.dumps(row) for row in rows)
    _write_text(args.out, '{"argv": %s,\n"rows": [\n%s\n]}' % (json.dumps(argv), lines))
    return 0


# ----------------------------------------------------------------------


@functools.cache  # parse_args leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphatree",
        description="Alphabetic minimax trees and order-preserving prefix codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tree", help="minimax cost and witness for a weights file")
    t.add_argument("weights", help="weights file (numbers split by lines/commas), or - for stdin")
    t.add_argument("--algo", choices=(*_ALGO_RUNNERS, "int"), default="sorted",
                   help="new or sorted (the default) searches real weights; int "
                   "requires integer weights and uses the integer fast path")
    t.add_argument("--dump-level-tree", action="store_true",
                   help="embed the level-tree snapshot in the output")
    t.add_argument("--pretty", action="store_true", help="indent the JSON output")

    c = sub.add_parser("code", help="build a codebook from a sample")
    c.add_argument("sample", help="sample file: raw bytes, or label,count lines with --csv")
    c.add_argument("--csv", action="store_true", help="sample is label,count lines")
    c.add_argument("--smoothing", choices=("none", "add_one"), default="none")
    c.add_argument("--alphabet", default=None,
                   help="declared alphabet as one string of symbols")
    c.add_argument("--out", default=None, help="write the codebook here instead of stdout")

    s = sub.add_parser("stats", help="score a codebook against a target file")
    s.add_argument("target", help="target file (raw bytes)")
    s.add_argument("--code", required=True, help="codebook JSON from the code subcommand")

    b = sub.add_parser("bench", help="compare the real-weight strategies")
    b.add_argument("--n", required=True, help="comma-separated instance sizes")
    b.add_argument("--d", default="2", help="comma-separated distinct-ceiling counts")
    b.add_argument("--trials", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--algos", default="new,sorted")
    b.add_argument("--repeat", type=int, default=1,
                   help="run the strategies in turn this many times per trial, "
                   "keeping each row's best wall_ns")
    b.add_argument("--omit-timing", action="store_true",
                   help="drop each row's wall_ns for reproducible output")
    b.add_argument("--out", default=None,
                   help="write the JSON rows and their argv here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name on each call, so a rebound cmd_* is the one run
    cmd = globals()["cmd_" + args.command]
    try:
        return cmd(args)
    except (
        CliError, ParseError, CodingError, InexactCostError, UnicodeDecodeError, OSError
    ) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (AssertionError, LevelTreeError, DepthProfileError) as e:
        # raised past input validation, so the library itself is wrong
        print("internal invariant violated: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
