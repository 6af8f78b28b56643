import json
import math

import pytest

import alphatree.cli
import alphatree.coding
import alphatree.core
from alphatree.cli import main
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
        "probes", "probe_items",
    }


def test_tree_int_mode(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("4 5 2 2 2\n1 2 3 6 4\n")
    rc, out, _ = run(capsys, "tree", str(f), "--int")
    assert rc == 0
    doc = json.loads(out)
    assert doc["alpha"] == 8
    assert doc["offset_b"] == 0
    assert doc["strategy"] == "int"
    rc, _, err = run(capsys, "tree", str(f))  # same file, real mode: fine
    assert rc == 0
    f.write_text("1.5\n")
    rc, _, err = run(capsys, "tree", str(f), "--int")
    assert rc == 2
    assert "--int" in err


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
    f = tmp_path / "w.txt"
    for text, alpha in (("-0.3\n", -0.3), ("-1e-20\n", -1e-20)):
        f.write_text(text)
        for algo in ("new", "sorted"):
            rc, out, _ = run(capsys, "tree", str(f), "--algo", algo)
            assert rc == 0
            assert json.loads(out)["alpha"] == alpha


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
        {"command": "tree", "weights": "w.txt", "int_weights": False, "algo": "new",
         "dump_level_tree": False, "pretty": True},
        {"command": "code", "sample": "s.txt", "csv": True, "smoothing": "add_one",
         "alphabet": None, "out": None},
        {"command": "tree", "weights": "v.txt", "int_weights": False, "algo": "sorted",
         "dump_level_tree": False, "pretty": False},
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

    target = tmp_path / "target.txt"
    target.write_bytes(b"abcabc")
    rc, out, _ = run(capsys, "stats", str(target), "--code", str(book_path))
    assert rc == 0
    rep = json.loads(out)
    assert set(rep) == {"avg_len", "entropy", "relative_entropy", "excess", "bound"}
    assert rep["excess"] <= rep["bound"] + 1e-9


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

    # a non-number in "q" is bad input too
    doc["q"] = ["half", 0.5]
    holed.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "stats", str(target), "--code", str(holed))
    assert rc == 2 and "numbers" in err

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


def test_bench_deterministic_without_timing(tmp_path, capsys):
    args = ("bench", "--n", "32,64", "--d", "1,2", "--trials", "2",
            "--seed", "7", "--omit-timing")
    rc, out1, _ = run(capsys, *args)
    assert rc == 0
    rc, out2, _ = run(capsys, *args)
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == (
        "n,d,trial,algo,sets,undos,finds,unions,deunions,partition_items,"
        "probes,probe_items"
    )
    # 2 sizes x 2 d x 2 trials x 2 algos
    assert len(out1.strip().splitlines()) == 1 + 16


def test_bench_timing_column(capsys):
    rc, out, _ = run(capsys, "bench", "--n", "16", "--trials", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "n,d,trial,algo,wall_ns,sets,undos,finds,unions,deunions,partition_items,"
        "probes,probe_items"
    )
    assert int(lines[1].split(",")[4]) > 0


def test_bench_bad_inputs(capsys):
    rc, _, err = run(capsys, "bench", "--n", "16", "--algos", "quantum")
    assert rc == 2 and "quantum" in err
    rc, _, err = run(capsys, "bench", "--n", "2", "--d", "8")
    assert rc == 2  # d > n everywhere: nothing to run
    rc, _, err = run(capsys, "bench", "--n", "abc")
    assert rc == 2
    rc, _, err = run(capsys, "bench", "--n", "16", "--trials", "0")
    assert rc == 2
