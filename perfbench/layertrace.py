"""Per-layer tracing from outside the package.

``Tracer.install()`` rebinds library names where the consuming module
looks them up (a timing subclass as ``alphatree.realweight.LevelTree``,
wrappers as ``alphatree.realweight.select_kth``, ``alphatree.cli.cmd_code``
and so on); ``uninstall()`` puts the originals back.  Nothing under
``src/`` is edited.  Every wrapped call records one span (name, start,
end, parent span, op id) into flat in-memory arrays, written once at
the end of a run; self times are derived from the spans afterwards.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import perf_counter_ns

import alphatree.cli as cli
import alphatree.coding as coding
import alphatree.core as core
import alphatree.realweight as realweight

# per-layer metric -> RealCostResult.instrumentation key it sums, per op
INSTRUMENTATION = {
    "leveltree.finds": "finds",
    "leveltree.unions": "unions",
    "leveltree.deunions": "deunions",
    "realweight.partition_items": "partition_items",
}

# per-layer metric -> span whose self time (ms per op) it reports
SELF_MS = {
    "leveltree.build_ms": "leveltree.build",
    "leveltree.set_ms": "leveltree.set",
    "leveltree.undo_ms": "leveltree.undo",
    "leveltree.depth_profile_ms": "leveltree.depth_profile",
    "leveltree.cost_ms": "leveltree.cost",
    "realweight.select_kth_ms": "realweight.select_kth",
    "realweight.search_self_ms": "realweight.alpha_real",
    "core.depths_to_tree_ms": "core.depths_to_tree",
    "coding.build_code_ms": "coding.build_code",
    "coding.codebook_ms": "coding.codebook",
    "coding.encode_ms": "coding.encode",
    "coding.decode_ms": "coding.decode",
    "coding.evaluate_ms": "coding.evaluate",
    "coding.redundancy_bound_ms": "coding.redundancy_bound",
    "cli.code_self_ms": "cli.code",
    "cli.stats_self_ms": "cli.stats",
    "cli.main_self_ms": "cli.main",
}

# per-layer metric -> span whose call count (per op) it reports
CALLS = {
    "leveltree.builds": "leveltree.build",
    "leveltree.sets": "leveltree.set",
    "leveltree.undos": "leveltree.undo",
    "realweight.select_calls": "realweight.select_kth",
}

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._open: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self._saved: list = []
        self._patches = self._make_patches()

    # -- spans ---------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._open.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._open.pop()

    def wrap(self, fn, name, on_result=None):
        """fn with a span named name around every call; on_result, if
        given, sees each return value."""
        nid = self.intern(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    # -- installation --------------------------------------------------

    def _make_patches(self):
        wrap = self.wrap
        LevelTree, CodeBook = realweight.LevelTree, coding.CodeBook

        class TimedLevelTree(LevelTree):
            __init__ = wrap(LevelTree.__init__, "leveltree.build")
            set = wrap(LevelTree.set, "leveltree.set")
            undo = wrap(LevelTree.undo, "leveltree.undo")
            cost = wrap(LevelTree.cost, "leveltree.cost")
            depth_profile = wrap(LevelTree.depth_profile, "leveltree.depth_profile")

        def count_symbols(decoded):
            self.counts["symbols"] += len(decoded)

        class TimedCodeBook(CodeBook):
            __init__ = wrap(CodeBook.__init__, "coding.codebook")
            encode = wrap(CodeBook.encode, "coding.encode")
            decode = wrap(CodeBook.decode, "coding.decode", count_symbols)

        # select_kth recurses through its module global, which is this
        # wrapper while installed: only the outermost call gets a span
        select_orig = realweight.select_kth
        select_outer = wrap(select_orig, "realweight.select_kth")
        depth = [0]

        def select_kth(*args, **kwargs):
            if depth[0]:
                return select_orig(*args, **kwargs)
            depth[0] = 1
            try:
                return select_outer(*args, **kwargs)
            finally:
                depth[0] = 0

        def count_instrumentation(res):
            for key in INSTRUMENTATION.values():
                self.counts[key] += res.instrumentation[key]

        alpha_real = wrap(realweight.alpha_real, "realweight.alpha_real", count_instrumentation)
        return [
            (realweight, "LevelTree", TimedLevelTree),
            (realweight, "select_kth", select_kth),
            (realweight, "alpha_real", alpha_real),
            (coding, "alpha_real", alpha_real),
            (coding, "CodeBook", TimedCodeBook),
            (coding, "redundancy_bound", wrap(coding.redundancy_bound, "coding.redundancy_bound")),
            (core, "depths_to_tree", wrap(core.depths_to_tree, "core.depths_to_tree")),
            (cli, "CodeBook", TimedCodeBook),
            (cli, "build_code", wrap(cli.build_code, "coding.build_code")),
            (cli, "evaluate", wrap(cli.evaluate, "coding.evaluate")),
            (cli, "cmd_code", wrap(cli.cmd_code, "cli.code")),
            (cli, "cmd_stats", wrap(cli.cmd_stats, "cli.stats")),
            (cli, "main", wrap(cli.main, "cli.main")),
        ]

    def install(self) -> None:
        self._saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self._patches]
        for mod, attr, new in self._patches:
            setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in self._saved:
            setattr(mod, attr, old)
        self._saved = []

    def traced_op(self, op_id: int, fn, *args):
        """Run fn(*args) as op op_id under an OP_SPAN root span."""
        self.op_id = op_id
        self.install()
        try:
            return self.wrap(fn, OP_SPAN)(*args)
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------

    def self_times(self, scale) -> dict[str, list]:
        """Span name -> [calls, total self ns]; self time is a span's
        duration minus the durations of its direct children, multiplied
        by scale[op id] (see refwork.py)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        agg = {name: [0, 0.0] for name in self.names}
        for i, nid in enumerate(self.name_id):
            a = agg[self.names[nid]]
            a[0] += 1
            a[1] += (dur[i] - child[i]) * scale[self.op[i]]
        return agg

    def write_spans(self, path: str) -> None:
        """All spans as gzipped CSV; times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                fh.write("%d,%s,%d,%d,%d,%d\n" % (
                    i, self.names[self.name_id[i]], self.start[i] - t0,
                    self.end[i] - t0, self.parent[i], self.op[i],
                ))
