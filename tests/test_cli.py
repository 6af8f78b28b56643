import contextlib
import glob
import io
import itertools
import json
import math
import os
import random
import shlex
import subprocess
import sys
import tempfile
import types
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import alphatree.cli
import alphatree.coding
import alphatree.core
from alphatree.cli import main
from alphatree.coding import CodeBook, empirical_distribution, evaluate
from alphatree.leveltree import LevelTree, LevelTreeError


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_tree_real_weights(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("1.2, 0.3\n")
    rc, out, _ = run(capsys, "tree", str(f))
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["alpha"] - 2.2) < 1e-9
    assert doc["depths"] == [1, 1]
    assert doc["parent_array"] == [2, 2, -1]
    assert doc["n"] == 2 and doc["d"] == 2
    assert doc["strategy"] == "sorted"
    assert set(doc["instrumentation"]) == {
        "sets", "undos", "finds", "unions", "deunions", "partition_items",
        "probes", "probe_items", "squeeze_items", "sort_items", "kept_items",
    }


def test_tree_int_mode(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("4 5 2 2 2\n1 2 3 6 4\n")
    rc, out, _ = run(capsys, "tree", str(f), "--algo", "int")
    assert rc == 0
    doc = json.loads(out)
    assert doc["alpha"] == 8
    assert doc["offset_b"] == 0
    assert doc["strategy"] == "int"
    rc, _, err = run(capsys, "tree", str(f))  # same file, real mode: fine
    assert rc == 0
    # on integral weights the integer path dumps the sorted search's tree
    dumps = [run(capsys, "tree", str(f), "--algo", algo, "--dump-level-tree")
             for algo in ("int", "sorted")]
    assert [rc for rc, _, _ in dumps] == [0, 0]
    docs = [json.loads(out) for _, out, _ in dumps]
    for key in ("level_tree", "d", "depths"):
        assert docs[0][key] == docs[1][key]
    f.write_text("2 1.5 0.5\n")
    rc, _, err = run(capsys, "tree", str(f), "--algo", "int")
    assert rc == 2
    assert "--algo int" in err and "1.5" in err and "0.5" not in err
    # the integer path is one value of --algo, not a flag beside it
    with pytest.raises(SystemExit) as exc:
        main(["tree", str(f), "--int"])
    assert exc.value.code == 2


def test_tree_algo_flags_agree(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("0.7 3.2 1.9 0.7 2.2 2.2\n")
    docs = []
    for algo in ("new", "sorted"):
        rc, out, _ = run(capsys, "tree", str(f), "--algo", algo)
        assert rc == 0
        docs.append(json.loads(out))
    assert docs[0]["alpha"] == docs[1]["alpha"]
    assert docs[0]["offset_b"] == docs[1]["offset_b"]
    assert docs[0]["depths"] == docs[1]["depths"]
    assert [doc["strategy"] for doc in docs] == ["new", "sorted"]
    rc, out, _ = run(capsys, "tree", str(f))
    assert rc == 0 and json.loads(out) == docs[1]  # sorted is the default
    with pytest.raises(SystemExit) as exc:
        main(["tree", str(f), "--algo", "auto"])
    assert exc.value.code == 2
    assert "invalid choice: 'auto'" in capsys.readouterr().err


def test_tree_and_code_read_stdin(tmp_path, capsys, monkeypatch):
    # "-" reads tree's weights as text and code's sample as raw bytes,
    # where a byte that is not UTF-8 is one more symbol
    f = tmp_path / "input"
    for command, data in (("tree", b"1.2, 0.3\n"), ("code", b"abba\xff")):
        f.write_bytes(data)
        rc, from_file, _ = run(capsys, command, str(f))
        assert rc == 0
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert run(capsys, command, "-") == (0, from_file, "")


def test_module_runs_the_cli():
    # python -m alphatree is main with the process's arguments and exit
    src = os.path.dirname(os.path.dirname(alphatree.cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "alphatree", "tree", "-", "--algo", "int"],
        input="4 5 2 2 2\n1 2 3 6 4\n", capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["alpha"] == 8


def test_tree_dump_and_pretty(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("1.5 1.5 1.5\n")
    rc, out, _ = run(capsys, "tree", str(f), "--dump-level-tree", "--pretty")
    assert rc == 0
    doc = json.loads(out)
    assert "level_tree" in doc
    assert doc["level_tree"]["journal_depth"] == 0
    assert any(node["kind"] == "root" for node in doc["level_tree"]["nodes"])
    assert "\n" in out.strip()  # pretty-printed


def test_tree_input_errors(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("1.5\nbogus\n")
    rc, _, err = run(capsys, "tree", str(f))
    assert rc == 2
    assert "line 2" in err
    f.write_text("")
    rc, _, err = run(capsys, "tree", str(f))
    assert rc == 2
    rc, _, err = run(capsys, "tree", str(tmp_path / "missing.txt"))
    assert rc == 2
    f.write_bytes(b"1.5 \xff\xfe\n")
    rc, _, err = run(capsys, "tree", str(f))
    assert rc == 2 and "utf-8" in err


def test_tree_alpha_rounds_once_from_the_weight(tmp_path, capsys):
    # the last two have fractional parts that round to one float; the
    # exact offset is printed rounded toward zero, below 1
    f = tmp_path / "w.txt"
    for text, alpha in (
        ("-0.3\n", -0.3),
        ("-1e-20\n", -1e-20),
        ("-6.661338147750939e-17, -1.554312234475219e-16, -2\n", 1.9999999999999998),
        ("-1.554312234475219e-16, -6.661338147750939e-17, -0.5\n", 2.0),
    ):
        f.write_text(text)
        for algo in ("new", "sorted"):
            rc, out, _ = run(capsys, "tree", str(f), "--algo", algo, "--dump-level-tree")
            assert rc == 0
            doc = json.loads(out)
            assert doc["alpha"] == alpha
            assert 0 <= doc["offset_b"] < 1


def test_tree_inexact_cost_exits_2(tmp_path, capsys):
    # exact costs 2^53 + 1 and 2^52 + 1.5 have no float
    f = tmp_path / "w.txt"
    big = "4503599627370495.5" + " 4503599627370494.5" * 3
    for text in ("9007199254740992 0.5\n", big):
        f.write_text(text)
        for algo in ("new", "sorted"):
            rc, out, err = run(capsys, "tree", str(f), "--algo", algo)
            assert rc == 2 and out == ""
            assert "no exact float answer" in err and "Traceback" not in err


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    # a level-tree failure on validated input is a bug, not bad input
    def broken_set(self, i):
        raise LevelTreeError("surgery left a malformed tree")

    monkeypatch.setattr(LevelTree, "set", broken_set)
    f = tmp_path / "w.txt"
    f.write_text("1.2 0.3 2.7\n")
    rc, _, err = run(capsys, "tree", str(f), "--algo", "new")
    assert rc == 3 and "malformed" in err


def test_bench_strategy_disagreement_exits_3(capsys, monkeypatch):
    # the cross-check is a bug check: it exits 3 and names the trial
    new = alphatree.cli._ALGO_RUNNERS["new"]

    def off_by_one(seq):
        res = new(seq)
        res.alpha += 1
        return res

    monkeypatch.setitem(alphatree.cli._ALGO_RUNNERS, "new", off_by_one)
    rc, out, err = run(capsys, "bench", "--n", "16", "--trials", "1")
    assert rc == 3 and out == ""
    assert "strategies disagree (seed=0 n=16 d=2 trial=0)" in err


def test_bench_gives_each_strategy_the_weight_list(capsys, monkeypatch):
    # each row pays for its own WeightSeq, as the benchmark's runs do:
    # a shared one would hand the second strategy the fracs the first
    # computed
    seen = []
    for algo, solve in list(alphatree.cli._ALGO_RUNNERS.items()):
        def record(ws, solve=solve):
            seen.append(type(ws))
            return solve(ws)

        monkeypatch.setitem(alphatree.cli._ALGO_RUNNERS, algo, record)
    rc, _, _ = run(capsys, "bench", "--n", "16", "--trials", "2")
    assert rc == 0 and seen == [list] * 4


def test_main_looks_commands_up_by_name(monkeypatch):
    # main finds cmd_<command> when it is called, so a rebound command
    # (a tracer's wrapper, say) is the one that runs
    seen = []
    monkeypatch.setattr(alphatree.cli, "cmd_stats", lambda args: seen.append(args.target) or 7)
    assert main(["stats", "t.txt", "--code", "c.json"]) == 7
    assert seen == ["t.txt"]


def test_build_code_looks_depths_to_tree_up_by_name(monkeypatch):
    # codewords_from_depths imports depths_to_tree when it is called, so
    # a rebound core.depths_to_tree (a tracer's wrapper, say) is the one
    # that runs
    seen = []
    real = alphatree.core.depths_to_tree
    monkeypatch.setattr(alphatree.core, "depths_to_tree", lambda d: seen.append(d) or real(d))
    book = alphatree.coding.build_code(alphatree.coding.Distribution("abc", [0.5, 0.25, 0.25]))
    assert book.codewords == ("0", "10", "11")
    assert seen == [[1, 2, 2]]


def test_main_parses_each_call_afresh(monkeypatch):
    # the parser is built once; each call still gets only its own
    # subcommand's arguments and defaults
    seen = []
    for name in ("cmd_tree", "cmd_code"):
        monkeypatch.setattr(alphatree.cli, name, lambda args: seen.append(vars(args)) or 0)
    assert main(["tree", "w.txt", "--algo", "new", "--pretty"]) == 0
    assert main(["code", "s.txt", "--csv", "--smoothing", "add_one"]) == 0
    assert main(["tree", "v.txt"]) == 0
    assert seen == [
        {"command": "tree", "weights": "w.txt", "algo": "new", "dump_level_tree": False,
         "pretty": True},
        {"command": "code", "sample": "s.txt", "csv": True, "smoothing": "add_one",
         "alphabet": None, "out": None},
        {"command": "tree", "weights": "v.txt", "algo": "sorted", "dump_level_tree": False,
         "pretty": False},
    ]
    assert alphatree.cli.build_parser() is alphatree.cli.build_parser()


def test_code_and_stats_flow(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_bytes(b"aaaabbbc")
    book_path = tmp_path / "book.json"
    rc, out, _ = run(capsys, "code", str(sample), "--out", str(book_path))
    assert rc == 0
    doc = json.loads(book_path.read_text())
    assert [e["label"] for e in doc["code"]] == ["a", "b", "c"]
    assert doc["q"] == [0.5, 0.375, 0.125]

    # stats scores the target's distribution as the library builds it,
    # on a target that leaves "c" out too
    book, q = CodeBook.from_json(book_path.read_text())
    target = tmp_path / "target.txt"
    for data in (b"abcabc", b"abba"):
        target.write_bytes(data)
        rc, out, _ = run(capsys, "stats", str(target), "--code", str(book_path))
        assert rc == 0
        rep = json.loads(out)
        assert set(rep) == {"avg_len", "entropy", "relative_entropy", "excess", "bound"}
        assert rep["excess"] <= rep["bound"] + 1e-9
        p = empirical_distribution(Counter(data.decode()), alphabet=book.labels)
        assert out == evaluate(p, book, q).to_json() + "\n"


def test_stats_runs_no_optimizer(tmp_path, capsys, monkeypatch):
    # the bound comes from the codebook's own lengths, so stats gives the
    # same JSON with the optimizer out of reach
    sample = tmp_path / "sample.txt"
    sample.write_bytes(b"the quick brown fox jumps over the lazy dog")
    book_path = tmp_path / "book.json"
    assert run(capsys, "code", str(sample), "--out", str(book_path))[0] == 0
    target = tmp_path / "target.txt"
    target.write_bytes(b"a lazy fox")
    rc, before, _ = run(capsys, "stats", str(target), "--code", str(book_path))
    assert rc == 0

    def no_optimizer(w):
        raise AssertionError("stats ran the optimizer")

    monkeypatch.setattr(alphatree.coding, "alpha_real", no_optimizer)
    rc, after, _ = run(capsys, "stats", str(target), "--code", str(book_path))
    assert rc == 0 and after == before


def test_stats_bound_of_a_hand_written_codebook(tmp_path, capsys):
    # a code not built for its q: the bound is still max(len_i + log2 q_i)
    # of this code, so the excess stays within it
    q = [0.1, 0.1, 0.8]
    book_path = tmp_path / "book.json"
    book_path.write_text(json.dumps({
        "code": [{"label": lab, "codeword": cw}
                 for lab, cw in (("a", "0"), ("b", "10"), ("c", "11"))],
        "q": q,
    }))
    target = tmp_path / "target.txt"
    target.write_bytes(b"c" * 10)
    rc, out, _ = run(capsys, "stats", str(target), "--code", str(book_path))
    assert rc == 0
    rep = json.loads(out)
    assert rep["bound"] == max(l + math.log2(qi) for l, qi in zip((1, 2, 2), q))
    assert abs(rep["bound"] - 1.678) < 1e-3
    assert rep["excess"] <= rep["bound"] + 1e-12
    assert math.copysign(1.0, rep["entropy"]) == 1.0  # +0.0, not -0.0


def test_code_csv_and_smoothing(tmp_path, capsys):
    sample = tmp_path / "counts.csv"
    sample.write_text("a,3\nb,1\n")
    rc, out, _ = run(capsys, "code", str(sample), "--csv")
    assert rc == 0
    doc = json.loads(out)
    assert doc["q"] == [0.75, 0.25]

    rc, out, _ = run(
        capsys, "code", str(sample), "--csv", "--smoothing", "add_one",
        "--alphabet", "abc",
    )
    assert rc == 0
    doc = json.loads(out)
    assert [e["label"] for e in doc["code"]] == ["a", "b", "c"]
    assert doc["q"] == [4 / 7, 2 / 7, 1 / 7]


def test_code_counts_bytes_above_ascii(tmp_path, capsys):
    data = bytes([0x41, 0xE9, 0xE9, 0xFF, 0x80, 0x41, 0xE9, 0x0A])
    sample = tmp_path / "sample.bin"
    sample.write_bytes(data)
    rc, out, _ = run(capsys, "code", str(sample))
    assert rc == 0
    counts = {}
    for byte in data:
        counts[chr(byte)] = counts.get(chr(byte), 0) + 1
    labels = sorted(counts)
    doc = json.loads(out)
    assert [e["label"] for e in doc["code"]] == labels
    assert doc["q"] == [counts[lab] / len(data) for lab in labels]


def test_code_errors(tmp_path, capsys):
    sample = tmp_path / "counts.csv"
    sample.write_text("a,notanumber\n")
    rc, _, err = run(capsys, "code", str(sample), "--csv")
    assert rc == 2 and "line 1" in err
    raw = tmp_path / "raw.txt"
    raw.write_bytes(b"ab")
    rc, _, err = run(capsys, "code", str(raw), "--alphabet", "abz")
    assert rc == 2 and "q('z') = 0" in err and "smoothing" in err
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    rc, _, err = run(capsys, "code", str(empty))
    assert rc == 2


def test_stats_errors(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_bytes(b"aabb")
    book_path = tmp_path / "book.json"
    assert run(capsys, "code", str(sample), "--out", str(book_path))[0] == 0

    target = tmp_path / "target.txt"
    target.write_bytes(b"abz")
    rc, _, err = run(capsys, "stats", str(target), "--code", str(book_path))
    assert rc == 2 and "'z'" in err

    # codebook without the sample distribution is unusable for stats
    doc = json.loads(book_path.read_text())
    del doc["q"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    target.write_bytes(b"ab")
    rc, _, err = run(capsys, "stats", str(target), "--code", str(bare))
    assert rc == 2 and '"q"' in err

    # a zero q for a symbol the target uses: divergence undefined
    doc = json.loads(book_path.read_text())
    doc["q"] = [1.0, 0.0]
    holed = tmp_path / "holed.json"
    holed.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "stats", str(target), "--code", str(holed))
    assert rc == 2 and "undefined" in err.lower()

    # a zero q for a symbol the target never uses: no finite bound
    target.write_bytes(b"aa")
    rc, out, err = run(capsys, "stats", str(target), "--code", str(holed))
    assert rc == 2 and out == "" and "q('b') = 0" in err
    target.write_bytes(b"ab")

    # a non-number, a number as a string, a bool or a number past the
    # float range in "q" is bad input too, and so is JSON nested deeper
    # than the parser recurses
    for text in (json.dumps(dict(doc, q=["half", 0.5])), json.dumps(dict(doc, q=["0.5", "0.5"])),
                 json.dumps(dict(doc, q=[True, False])),
                 json.dumps(doc).replace('"q": [1.0', '"q": [1' + "0" * 400)):
        holed.write_text(text)
        rc, _, err = run(capsys, "stats", str(target), "--code", str(holed))
        assert rc == 2 and "numbers" in err
    holed.write_text("[" * 100_000)
    rc, _, err = run(capsys, "stats", str(target), "--code", str(holed))
    assert rc == 2 and "not valid JSON" in err

    # labels that mix strings and integers, or that are lists, are bad
    # input, not a crash
    doc["q"] = [0.5, 0.5]
    for labels, msg in ((["a", 1], "mix"), ([["a"], ["b"]], "string or an integer")):
        for entry, lab in zip(doc["code"], labels):
            entry["label"] = lab
        holed.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "stats", str(target), "--code", str(holed))
        assert rc == 2 and msg in err


def test_stats_names_first_unknown_symbol(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_bytes(b"aabb")
    book_path = tmp_path / "book.json"
    assert run(capsys, "code", str(sample), "--out", str(book_path))[0] == 0
    target = tmp_path / "target.txt"
    target.write_bytes(b"abzy")
    rc, _, err = run(capsys, "stats", str(target), "--code", str(book_path))
    assert rc == 2
    assert "'z'" in err and "'y'" not in err


def test_bench_deterministic_without_timing(capsys):
    args = ("bench", "--n", "32,64", "--d", "1,2", "--trials", "2",
            "--seed", "7", "--omit-timing")
    rc, out1, _ = run(capsys, *args)
    assert rc == 0
    rc, out2, _ = run(capsys, *args)
    assert out1 == out2
    # 2 sizes x 2 d x 2 trials x 2 algos, none with a wall_ns
    assert [list(row) for row in json.loads(out1)["rows"]] == [[
        "n", "d", "trial", "algo", "sets", "undos", "finds", "unions", "deunions",
        "partition_items", "probes", "probe_items", "squeeze_items", "sort_items",
        "kept_items",
    ]] * 16


# the sorted search's bench rows, as CSV lines under their keys,
# recorded when its one search loop landed, with the squeeze_items,
# sort_items and kept_items keys added since; a later change to the
# search's work (its probes, probe_items, squeeze_items, sort_items or
# kept_items on any row) shows here as the rows that moved, and must
# update them and log the old and new rows in CHANGES.md
SORTED_BENCH_CSV = """\
n,d,trial,algo,sets,undos,finds,unions,deunions,partition_items,probes,probe_items,squeeze_items,sort_items,kept_items
1024,1,0,sorted,0,0,0,0,0,0,7,2223,1067,1024,1024
1024,1,1,sorted,0,0,0,0,0,0,7,2223,1067,1024,1024
1024,2,0,sorted,0,0,0,0,0,0,9,2520,872,645,645
1024,2,1,sorted,0,0,0,0,0,0,8,2394,1969,898,898
1024,8,0,sorted,0,0,0,0,0,0,9,2365,1187,442,442
1024,8,1,sorted,0,0,0,0,0,0,7,2227,369,222,222
1024,64,0,sorted,0,0,0,0,0,0,7,2258,205,106,106
1024,64,1,sorted,0,0,0,0,0,0,10,2746,384,108,108
4096,1,0,sorted,0,0,0,0,0,0,4,8328,4229,570,4096
4096,1,1,sorted,0,0,0,0,0,0,4,8298,4199,554,4096
4096,2,0,sorted,0,0,0,0,0,0,8,9178,3821,2926,2926
4096,2,1,sorted,0,0,0,0,0,0,13,10174,3846,2570,2570
4096,8,0,sorted,0,0,0,0,0,0,10,9509,4286,2730,2730
4096,8,1,sorted,0,0,0,0,0,0,9,9026,2497,1631,1631
4096,64,0,sorted,0,0,0,0,0,0,11,9628,809,222,222
4096,64,1,sorted,0,0,0,0,0,0,8,8630,740,403,403
4096,4096,0,sorted,0,0,0,0,0,0,7,8377,49,30,30
4096,4096,1,sorted,0,0,0,0,0,0,7,8459,60,37,37
"""


def test_sorted_search_work_is_pinned(capsys):
    rc, out, _ = run(capsys, "bench", "--n", "1024,4096", "--d", "1,2,8,64,4096",
                     "--trials", "2", "--seed", "7", "--omit-timing", "--algos", "sorted")
    assert rc == 0
    header, *lines = SORTED_BENCH_CSV.splitlines()
    rows = json.loads(out)["rows"]
    assert [list(row) for row in rows] == [header.split(",")] * len(rows)
    assert [",".join(map(str, row.values())) for row in rows] == lines


def test_bench_argv_reproduces_the_rows(tmp_path, capsys):
    # --out writes what bench would print: the arguments that reproduce
    # the rows, then the rows, each with its wall_ns and every counter;
    # --omit-timing drops wall_ns and is recorded in the argv
    args = ["bench", "--n", "64,4096", "--d", "1,8", "--trials", "2", "--seed", "7"]
    path = tmp_path / "bench.json"
    rc, out, _ = run(capsys, *args, "--out", str(path))
    assert rc == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["argv"] == args + ["--algos", "new,sorted", "--repeat", "1"]
    assert all(row.pop("wall_ns") > 0 for row in doc["rows"])
    rc, out, _ = run(capsys, *doc["argv"], "--omit-timing")
    assert rc == 0
    untimed = json.loads(out)
    assert untimed == {"argv": doc["argv"] + ["--omit-timing"], "rows": doc["rows"]}
    rc, again, _ = run(capsys, *untimed["argv"])
    assert rc == 0 and again == out
    # the rows are written once, in one format
    with pytest.raises(SystemExit) as exc:
        main([*args, "--json", str(path)])
    assert exc.value.code == 2


def test_bench_repeat_keeps_the_best_time(capsys, monkeypatch):
    # --repeat k runs the strategies in turn k times per trial; each row
    # keeps its least wall_ns and the counters every repeat gave, and
    # the argv records k
    rc, plain, _ = run(capsys, "bench", "--n", "64", "--trials", "1", "--omit-timing")
    assert rc == 0
    calls = []
    for algo, solve in list(alphatree.cli._ALGO_RUNNERS.items()):
        def record(ws, algo=algo, solve=solve):
            calls.append(algo)
            return solve(ws)

        monkeypatch.setitem(alphatree.cli._ALGO_RUNNERS, algo, record)
    # a clock read twice per run: new takes 50, 30, 70 ns, sorted 40, 60, 20
    ticks = itertools.accumulate(x for dt in (50, 40, 30, 60, 70, 20) for x in (0, dt))
    monkeypatch.setattr(alphatree.cli, "time", types.SimpleNamespace(
        perf_counter_ns=lambda: next(ticks)))
    rc, out, _ = run(capsys, "bench", "--n", "64", "--trials", "1", "--repeat", "3")
    assert rc == 0 and calls == ["new", "sorted"] * 3
    doc = json.loads(out)
    assert doc["argv"][-2:] == ["--repeat", "3"]
    assert [row.pop("wall_ns") for row in doc["rows"]] == [30, 20]
    assert doc["rows"] == json.loads(plain)["rows"]


def test_bench_repeat_checks_the_counters(capsys, monkeypatch):
    # a strategy whose counters move between repeats is a bug: exit 3
    new = alphatree.cli._ALGO_RUNNERS["new"]
    runs = []

    def drifting(ws):
        res = new(ws)
        runs.append(ws)
        res.instrumentation["probes"] += len(runs)
        return res

    monkeypatch.setitem(alphatree.cli._ALGO_RUNNERS, "new", drifting)
    rc, _, err = run(capsys, "bench", "--n", "16", "--trials", "1", "--repeat", "2")
    assert rc == 3 and "new counters moved between repeats (seed=0 n=16 d=2 trial=0)" in err
    rc, _, _ = run(capsys, "bench", "--n", "16", "--trials", "1")
    assert rc == 0


def test_bench_timing_column(capsys):
    rc, out, _ = run(capsys, "bench", "--n", "16", "--trials", "1")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [list(row) for row in rows] == [[
        "n", "d", "trial", "algo", "wall_ns", "sets", "undos", "finds", "unions",
        "deunions", "partition_items", "probes", "probe_items", "squeeze_items",
        "sort_items", "kept_items",
    ]] * 2
    assert all(row["wall_ns"] > 0 for row in rows)


# every committed bench file, and one bench writes now: the baselines a
# speed claim compares against must stay readable beside fresh rows
_BENCH_FILES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_*.json")))
_BENCH_FILES_BEFORE_KEPT_ITEMS = {"BENCH_baseline.json", "BENCH_qsteps.json",
                                  "BENCH_sample-ends.json", "BENCH_sample8.json"}


@pytest.mark.parametrize("path", _BENCH_FILES + [None],
                         ids=[os.path.basename(p) for p in _BENCH_FILES] + ["bench --out"])
def test_bench_files_share_one_format(path, tmp_path, capsys):
    if path is None:
        path = tmp_path / "BENCH_fresh.json"
        rc, _, _ = run(capsys, "bench", "--n", "16,64", "--d", "1,8", "--trials", "2",
                       "--out", str(path))
        assert rc == 0
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    # the argv leads, then one row per line
    assert list(doc) == ["argv", "rows"] and doc["rows"]
    lines = text.splitlines()
    assert lines[1] == '"rows": [' and lines[-1] == "]}" and len(lines) == len(doc["rows"]) + 3
    # the argv is still a bench command line
    assert doc["argv"][0] == "bench"
    assert alphatree.cli.build_parser().parse_args(doc["argv"]).command == "bench"
    # kept_items came last, with BENCH_fold.json; the files before it
    # hold every other counter.  Only the format is checked: the new
    # rows of BENCH_fold.json hold the kept_items of the fold pass, as
    # the sorted rows do, recorded while new took its target from it,
    # and new prints 0 now
    keys = ["n", "d", "trial", "wall_ns", *alphatree.cli._COUNTER_COLS]
    if os.path.basename(str(path)) in _BENCH_FILES_BEFORE_KEPT_ITEMS:
        keys.remove("kept_items")
    for row in doc["rows"]:
        assert row["algo"] in alphatree.cli._ALGO_RUNNERS
        assert all(type(row[key]) is int for key in keys), row


def test_bench_bad_inputs(capsys):
    rc, _, err = run(capsys, "bench", "--n", "16", "--algos", "quantum")
    assert rc == 2 and "quantum" in err
    rc, _, err = run(capsys, "bench", "--n", "2", "--d", "8")
    assert rc == 2  # d > n everywhere: nothing to run
    rc, _, err = run(capsys, "bench", "--n", "abc")
    assert rc == 2
    rc, _, err = run(capsys, "bench", "--n", "16", "--trials", "0")
    assert rc == 2
    rc, _, err = run(capsys, "bench", "--n", "16", "--repeat", "0")
    assert rc == 2 and "--repeat" in err
    rc, _, err = run(capsys, "bench", "--n", "16", "--algos", ",")
    assert rc == 2 and "no algorithms selected" in err
    rc, _, err = run(capsys, "bench", "--n", "0")
    assert rc == 2
    # bench skips d > n itself; the generator rejects it
    with pytest.raises(ValueError):
        alphatree.cli.generate_weights(random.Random(0), 4, 5)


def test_generate_weights_redraws_a_zero_fraction():
    # a fractional part of 0.0 would make the weight an integer: it is
    # drawn again
    fracs = iter([0.0, 0.0, 0.25, 0.5])
    rng = types.SimpleNamespace(sample=lambda pop, k: [3], randrange=lambda k: 0,
                                shuffle=lambda xs: None, random=lambda: next(fracs))
    assert alphatree.cli.generate_weights(rng, 2, 1) == [2.25, 2.5]


# number tokens at the edges of what a float holds: huge, tiny,
# negative, beyond the float range, not finite, and not a number
_NUMBERS = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.floats().map(repr),
    st.sampled_from([
        "1e308", "-1.7976931348623157e308", "1e400", "-1e400", "5e-324", "-0.0",
        "9007199254740993", "4503599627370495.5", "1" * 400, "0x10", "1_0", "--1",
    ]),
)
_WEIGHTS = st.one_of(
    st.binary(max_size=40),
    st.lists(_NUMBERS, max_size=10).map(", ".join),
    st.builds(lambda tok, k: (tok + "\n") * k, _NUMBERS, st.integers(1, 9)),
)
_CSV = st.lists(
    st.tuples(
        st.text(max_size=2),
        st.one_of(_NUMBERS, st.sampled_from(["0", "1", "3", "1" * 401, "1" * 5000])),
    ),
    max_size=5,
).map(lambda rows: "".join("%s,%s\n" % row for row in rows))
# JSON values a codebook should not hold; "@401@" and "@5000@" stand for
# ints of that many digits, which json.dumps cannot write
_ODD_JSON = st.one_of(
    st.sampled_from(["@401@", "@5000@"]),
    st.sampled_from([-1, 2, 10**20, None, True, [], {}, 1e300]),
    st.floats(),
    st.text(max_size=2),
)


@st.composite
def _codebooks(draw):
    # a complete code on k symbols with its q, one of whose labels,
    # codewords or probabilities, or q as a whole, may be odd JSON
    k = draw(st.integers(1, 3))
    code = [
        {"label": "abc"[i], "codeword": w}
        for i, w in enumerate([[""], ["0", "1"], ["0", "10", "11"]][k - 1])
    ]
    q = [1.0 / k] * k
    odd = draw(_ODD_JSON)
    spot = draw(st.sampled_from(["q entry", "label", "codeword", "q", "no q", "none"]))
    i = draw(st.integers(0, k - 1))
    if spot in ("label", "codeword"):
        code[i][spot] = odd
    elif spot == "q entry":
        q[i] = odd
    elif spot == "q":
        q = odd
    text = json.dumps(code if spot == "no q" else {"code": code, "q": q})
    return text.replace('"@401@"', "1" * 401).replace('"@5000@"', "1" * 5000)


_TREE_FLAGS = [[], ["--algo", "int"], ["--algo", "new"], ["--dump-level-tree"],
               ["--algo", "int", "--dump-level-tree"], ["--algo", "new", "--dump-level-tree"]]
# bench flags: a small grid (no size above 64), valid or with one flag
# spoiled: a size or distinct-ceiling list that may hold bad tokens, a
# count below 1, or algorithm names that may be unknown or missing
_INT_LIST = st.lists(st.integers(1, 64), min_size=1, max_size=3).map(
    lambda vals: ",".join(map(str, vals)))
_ANY_LIST = st.lists(
    st.one_of(st.integers(-2, 64).map(str),
              st.sampled_from(["", " 8", "abc", "1.5", "1e3", "0x10", "--1", "1" * 5000])),
    max_size=3,
).map(",".join)


@st.composite
def _bench_flags(draw):
    spoil = draw(st.sampled_from([None, None, None, "n", "d", "trials", "repeat", "algos"]))
    if spoil == "algos":
        algos = st.lists(st.sampled_from(["new", "sorted", "int", "quantum", ""]), max_size=3)
    else:
        algos = st.lists(st.sampled_from(["new", "sorted", " sorted "]), min_size=1, max_size=3)
    flags = {
        "n": draw(_ANY_LIST if spoil == "n" else _INT_LIST),
        "d": draw(_ANY_LIST if spoil == "d" else _INT_LIST),
        "trials": draw(st.integers(-1, 0) if spoil == "trials" else st.integers(1, 2)),
        "repeat": draw(st.integers(-1, 0) if spoil == "repeat" else st.integers(1, 2)),
        "seed": draw(st.integers(-3, 3)),
        "algos": ",".join(draw(algos)),
    }
    return ["--%s=%s" % item for item in flags.items()] + ["--omit-timing"] * draw(st.booleans())


# per subcommand: (flags, input file contents or None, codebook text or
# None)
_INPUTS = {
    "tree": st.tuples(st.sampled_from(_TREE_FLAGS), _WEIGHTS, st.none()),
    "code": st.one_of(
        st.tuples(st.just([]), st.binary(max_size=40), st.none()),
        st.tuples(st.just(["--csv"]), _CSV, st.none()),
        st.tuples(
            st.text(max_size=4).map(
                lambda a: ["--csv", "--smoothing", "add_one", "--alphabet=" + a]
            ),
            _CSV,
            st.none(),
        ),
    ),
    "stats": st.tuples(
        st.just([]), st.binary(max_size=20), st.one_of(_codebooks(), st.text(max_size=30))
    ),
    "bench": st.tuples(_bench_flags(), st.none(), st.none()),
}


@pytest.mark.parametrize("name", sorted(_INPUTS))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_no_cli_input_crashes_or_exits_3(name, data):
    # every input is bad input (exit 2) or an answer (exit 0): exit 3
    # means a library bug, and an exception escaping main is a crash
    flags, contents, book = data.draw(_INPUTS[name])
    with tempfile.TemporaryDirectory() as tmp:

        def write(filename, text):
            path = os.path.join(tmp, filename)
            with open(path, "wb") as fh:
                if isinstance(text, str):
                    text = text.encode("utf-8", "surrogatepass")
                fh.write(text)
            return path

        if book is not None:
            flags = ["--code", write("book.json", book)]
        if contents is not None:
            flags = [write("input", contents), *flags]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([name, *flags])
    assert rc in (0, 2), err.getvalue()


def test_readme_bench_rows_are_current(capsys):
    # the bench block in README.md: its command prints each listed row,
    # in order
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    start = next(i for i, line in enumerate(lines) if line.startswith("$ alphatree bench"))
    argv = shlex.split(lines[start])[2:]
    rows = []
    for line in lines[start + 1:]:
        if line in ("...", "```"):
            break
        rows.append(line)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and rows
    got = out.splitlines()
    # a subsequence test: each `in` resumes where the last match ended
    printed = iter(got)
    assert all(row in printed for row in rows), "README lists %r, the command prints %r" % (
        rows, got)
