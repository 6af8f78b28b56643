import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from alphatree import (
    CodeBook,
    CodingError,
    DecodeError,
    DepthProfileError,
    Distribution,
    UndefinedDivergenceError,
    build_code,
    codewords_from_depths,
    empirical_distribution,
    entropy,
    evaluate,
    redundancy_bound,
    relative_entropy,
)
from alphatree.coding import _WINDOW_BITS
from helpers import probe_decode, random_tree_profile


def dyadic_from_profile(profile):
    labels = [chr(ord("a") + i) if i < 26 else "z%03d" % i for i in range(len(profile))]
    return Distribution(labels, [2.0 ** -d for d in profile])


# ----------------------------------------------------------------------
# distributions


def test_distribution_validation():
    Distribution("ab", [0.5, 0.5])
    with pytest.raises(CodingError):
        Distribution("ba", [0.5, 0.5])  # labels out of order
    with pytest.raises(CodingError):
        Distribution("aa", [0.5, 0.5])  # duplicate labels
    with pytest.raises(CodingError):
        Distribution("ab", [0.6, 0.6])  # sums past tolerance
    with pytest.raises(CodingError):
        Distribution("ab", [-0.1, 1.1])
    with pytest.raises(CodingError):
        Distribution("", [])
    with pytest.raises(CodingError, match="cannot be compared"):
        Distribution([1, "a"], [0.5, 0.5])


def test_empirical_plain():
    d = empirical_distribution({"a": 2, "b": 1, "c": 1})
    assert d.labels == ("a", "b", "c")
    assert d.probs == (0.5, 0.25, 0.25)
    d = empirical_distribution([("b", 3), ("a", 1)])
    assert d.labels == ("a", "b")
    assert d.probs == (0.25, 0.75)


def test_empirical_add_one():
    d = empirical_distribution({"a": 1, "b": 0}, smoothing="add_one", alphabet="ab")
    assert d.probs == (2 / 3, 1 / 3)
    # unseen symbols of the declared alphabet get mass too
    d = empirical_distribution({"a": 1}, smoothing="add_one", alphabet="abc")
    assert d.probs == (0.5, 0.25, 0.25)


def test_empirical_errors():
    with pytest.raises(CodingError, match="empty alphabet"):
        empirical_distribution({})
    with pytest.raises(CodingError):
        empirical_distribution({"a": 0, "b": 0})
    with pytest.raises(CodingError):
        empirical_distribution({"a": 1}, smoothing="add_one")  # no alphabet
    with pytest.raises(CodingError):
        empirical_distribution({"z": 1}, alphabet="ab")  # symbol outside
    with pytest.raises(CodingError):
        empirical_distribution({"a": -1})
    with pytest.raises(CodingError):
        empirical_distribution({"a": 1}, smoothing="jeffreys")
    with pytest.raises(CodingError):
        empirical_distribution([("a", 1), ("a", 2)])
    with pytest.raises(CodingError, match="mutually comparable"):
        empirical_distribution({1: 1, "a": 2})
    for bad in (2.5, -1, float("inf"), float("nan"), "x", None):
        with pytest.raises(CodingError, match="bad count"):
            empirical_distribution({"a": 1, "b": bad})


# ----------------------------------------------------------------------
# entropy and divergence


def test_entropy_examples():
    assert entropy(Distribution("abcd", [0.25] * 4)) == 2.0
    # a point mass gives +0.0; -0.0 == 0.0 too, so check the sign
    for probs in ([1.0], [1.0, 0.0], [0.0, 0.0, 1.0]):
        h = entropy(Distribution("abc"[: len(probs)], probs))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
    h = entropy(Distribution("ab", [0.5, 0.5]))
    assert abs(h - 1.0) < 1e-12


def test_relative_entropy_examples():
    p = Distribution("ab", [0.5, 0.5])
    assert relative_entropy(p, p) == 0.0
    q = Distribution("ab", [0.25, 0.75])
    assert abs(relative_entropy(p, q) - (1.0 - 0.5 * math.log2(3))) < 1e-12
    # p zero entries are fine even where q is zero
    assert relative_entropy(
        Distribution("ab", [1.0, 0.0]), Distribution("ab", [1.0, 0.0])
    ) == 0.0


def test_relative_entropy_undefined():
    p = Distribution("ab", [0.5, 0.5])
    q = Distribution("ab", [1.0, 0.0])
    with pytest.raises(UndefinedDivergenceError) as ei:
        relative_entropy(p, q)
    assert ei.value.label == "b"
    with pytest.raises(CodingError):
        relative_entropy(p, Distribution("ac", [0.5, 0.5]))


# ----------------------------------------------------------------------
# codeword assignment


def test_codewords_goldens():
    assert codewords_from_depths([0]) == [""]
    assert codewords_from_depths([1, 1]) == ["0", "1"]
    assert codewords_from_depths([1, 2, 2]) == ["0", "10", "11"]
    assert codewords_from_depths([2, 2, 1]) == ["00", "01", "1"]
    assert codewords_from_depths([2, 2, 2, 2]) == ["00", "01", "10", "11"]
    assert codewords_from_depths([1, 3, 3, 2]) == ["0", "100", "101", "11"]
    # integral float depths pass validation, so they get codewords too
    assert codewords_from_depths([1.0, 1.0]) == ["0", "1"]
    # a one-pass iterable is read once
    assert codewords_from_depths(iter([1, 1])) == ["0", "1"]
    assert codewords_from_depths(d for d in [1, 2, 2]) == ["0", "10", "11"]


def test_codewords_reject_bad_profiles():
    with pytest.raises(Exception):
        codewords_from_depths([1, 1, 1])
    with pytest.raises(Exception):
        codewords_from_depths([2, 1])
    with pytest.raises(DepthProfileError):
        codewords_from_depths([1, float("inf")])


def test_codewords_random_are_a_valid_codebook():
    rng = random.Random(30)
    for _ in range(100):
        n = rng.randint(1, 40)
        profile = random_tree_profile(rng, n)
        words = codewords_from_depths(profile)
        labels = ["s%03d" % i for i in range(n)]
        book = CodeBook(labels, words)  # constructor re-checks everything
        assert book.lengths() == profile


# ----------------------------------------------------------------------
# codebooks


def test_build_code_goldens():
    book = build_code(Distribution("abc", [0.5, 0.25, 0.25]))
    assert list(book.codewords) == ["0", "10", "11"]
    book = build_code(Distribution("abc", [0.25, 0.5, 0.25]))
    assert list(book.codewords) == ["00", "01", "1"]
    book = build_code(Distribution("abcd", [0.25] * 4))
    assert book.lengths() == [2, 2, 2, 2]
    solo = build_code(Distribution("a", [1.0]))
    assert list(solo.codewords) == [""]


def test_build_code_rejects_zero_mass():
    with pytest.raises(CodingError):
        build_code(Distribution("ab", [1.0, 0.0]))


def test_codebook_invariants_enforced():
    with pytest.raises(CodingError):
        CodeBook(["a", "b"], ["1", "0"])  # not increasing
    with pytest.raises(CodingError):
        CodeBook(["a", "b"], ["0", "01"])  # prefix
    with pytest.raises(CodingError):
        CodeBook(["a", "b"], ["0", "11"])  # incomplete (Kraft < 1)
    with pytest.raises(CodingError):
        CodeBook(["b", "a"], ["0", "1"])  # labels out of order
    with pytest.raises(CodingError):
        CodeBook(["a", "b"], ["0", "1x"])
    with pytest.raises(CodingError):
        CodeBook([], [])
    with pytest.raises(CodingError, match="not a string"):
        CodeBook(["a", "b", "c"], [0, 10, 11])  # integers, not bit strings
    with pytest.raises(CodingError, match="cannot be compared"):
        CodeBook([1, "a"], ["0", "1"])
    # digits other than ASCII "0" and "1" are not bits, though int(cw, 2)
    # would read them as bits; the binary check comes before the
    # empty-codeword check, as for decode's bits
    for bad in ("\uff10", "\u0661", "0\n", "\n"):
        with pytest.raises(CodingError, match="not binary"):
            CodeBook(["a", "b"], [bad, "1"])
    with pytest.raises(CodingError, match="not binary"):
        CodeBook(["a", "b"], ["\uff10", ""])


def test_codebook_json_roundtrip():
    q = Distribution("abc", [0.5, 0.25, 0.25])
    book = build_code(q)
    text = book.to_json(q=q)
    back, q2 = CodeBook.from_json(text)
    assert back.labels == book.labels
    assert back.codewords == book.codewords
    assert q2.probs == q.probs
    bare, none_q = CodeBook.from_json(book.to_json())
    assert none_q is None
    assert bare.codewords == book.codewords
    with pytest.raises(CodingError, match="alphabet differs"):
        book.to_json(q=Distribution("abd", [0.5, 0.25, 0.25]))


def test_codebook_json_errors():
    with pytest.raises(CodingError):
        CodeBook.from_json("[1, 2, 3]")
    with pytest.raises(CodingError):
        CodeBook.from_json("{not json")
    with pytest.raises(CodingError):
        CodeBook.from_json(json.dumps({"code": [{"label": "a"}]}))
    with pytest.raises(CodingError, match="must be a list"):
        CodeBook.from_json('{"code": {}}')
    code = [{"label": "a", "codeword": "0"}, {"label": "b", "codeword": "1"}]
    for q in (["half", 0.5], [None, 1.0], 1.0):
        with pytest.raises(CodingError):
            CodeBook.from_json(json.dumps({"code": code, "q": q}))
    # labels must be all strings or all integers
    for labels in (["a", 1], [["a"], ["b"]], [None, "b"], [True, 2], [0.5, 1]):
        bad = [dict(e, label=lab) for e, lab in zip(code, labels)]
        with pytest.raises(CodingError):
            CodeBook.from_json(json.dumps({"code": bad, "q": [0.5, 0.5]}))
    # a codeword must be a JSON string, not a number that reads as bits
    for codewords in ([0, 1], ["0", 1], [10, 11], [None, "1"], [["0"], "1"]):
        bad = [dict(e, codeword=cw) for e, cw in zip(code, codewords)]
        with pytest.raises(CodingError, match="not a string"):
            CodeBook.from_json(json.dumps({"code": bad}))
    ints = [dict(e, label=k) for k, e in enumerate(code)]
    book, _ = CodeBook.from_json(json.dumps({"code": ints}))
    assert book.labels == (0, 1)


# ----------------------------------------------------------------------
# encode / decode


def test_encode_decode_roundtrip():
    book = build_code(Distribution("abc", [0.5, 0.25, 0.25]))
    bits = book.encode("abacab")
    assert bits == "010011010"
    assert book.decode(bits) == "abacab"
    assert book.encode("") == ""
    assert book.decode("") == ""


def test_encode_decode_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 12)
        labels = [chr(ord("a") + i) for i in range(n)]
        probs = [rng.random() + 0.05 for _ in range(n)]
        t = sum(probs)
        book = build_code(Distribution(labels, [x / t for x in probs]))
        msg = "".join(rng.choice(labels) for _ in range(rng.randint(0, 60)))
        assert book.decode(book.encode(msg)) == msg


def test_encode_unknown_symbol():
    book = build_code(Distribution("ab", [0.5, 0.5]))
    with pytest.raises(CodingError):
        book.encode("abz")
    with pytest.raises(CodingError, match="not in code"):
        book.encode(["z"])


@pytest.mark.parametrize("symbols", [None, 5, [["a"]], ["a", {"b"}], iter([[]])])
def test_encode_unreadable_symbols(symbols):
    # not iterable, or an unhashable symbol: a CodingError, as for an
    # unknown symbol, never a bare TypeError
    book = build_code(Distribution("ab", [0.5, 0.5]))
    with pytest.raises(CodingError, match="iterable of labels") as ei:
        book.encode(symbols)
    assert ei.value.__cause__ is None and ei.value.__suppress_context__


def test_decode_errors():
    book = build_code(Distribution("abc", [0.5, 0.25, 0.25]))
    with pytest.raises(CodingError):
        book.decode("01x")
    with pytest.raises(DecodeError) as ei:
        book.decode("01")  # '0' decodes, then a dangling '1'
    assert ei.value.bit_offset == 1
    solo = build_code(Distribution("a", [1.0]))
    assert solo.decode("") == ""
    with pytest.raises(DecodeError):
        solo.decode("0")


def test_decode_needs_string_labels():
    book = CodeBook([1, 2, 3], ["0", "10", "11"])
    assert book.encode([1, 3]) == "011"
    with pytest.raises(CodingError, match="string labels"):
        book.decode("01110")
    # the check does not wait for a label to be emitted
    with pytest.raises(CodingError, match="string labels"):
        book.decode("")
    with pytest.raises(CodingError, match="string labels"):
        CodeBook([7], [""]).decode("")


def decode_outcome(decode, bits):
    """decode(bits), or the exception class and DecodeError offset."""
    try:
        return decode(bits)
    except DecodeError as e:
        return (DecodeError, e.bit_offset)
    except CodingError as e:
        return (type(e), None)


# non-binary characters in the middle and at the end, and digits that
# are not ASCII: a fullwidth zero and an Arabic-Indic one
NON_BINARY = ["01x10", "0110\n", "\n", "0 1", "2", "\uff10", "1\u06611", "10\uff10"]


def test_decode_rejects_non_binary_before_other_checks():
    book = CodeBook(["a", "b", "c"], ["0", "10", "11"])
    ints = CodeBook([1, 2, 3], ["0", "10", "11"])
    solo = CodeBook(["a"], [""])
    for bits in NON_BINARY:
        # before the string-label check and the empty-codeword check
        for b in (book, ints, solo):
            with pytest.raises(CodingError, match="non-binary") as ei:
                b.decode(bits)
            assert type(ei.value) is CodingError, bits
        assert decode_outcome(lambda b: probe_decode(book, b), bits) == (CodingError, None)
    # bits of another type: bytes and bytearray have a translate that
    # needs a bytes table, the others have none
    for bits in (b"01", bytearray(b"01"), None, ["0", "1"], 1):
        for b in (book, ints, solo):
            with pytest.raises(CodingError, match="bits must be a str") as ei:
                b.decode(bits)
            assert type(ei.value) is CodingError, bits


def greedy_window(book, window):
    """Reference window-table entry: the longest prefix of window that
    probe_decode decodes whole, as (labels, bits used).  Only the
    codewords lying wholly inside the window decode, so this is the
    greedy reading of the window's codewords."""
    outcomes = [decode_outcome(lambda b: probe_decode(book, b), window[:u])
                for u in range(len(window) + 1)]
    used = max(u for u, got in enumerate(outcomes) if isinstance(got, str))
    return outcomes[used], used


def test_window_table_of_small_codes():
    book = CodeBook(["a", "b", "c"], ["0", "10", "11"])
    k, table = book._window_table()
    # "00" holds two codewords; "01" holds "0" and the start of "10" or
    # "11", which the next lookup reads
    assert k == 2
    assert table == {"00": ("aa", 2), "01": ("a", 1), "10": ("b", 2), "11": ("c", 2)}
    assert all(table[w] == greedy_window(book, w) for w in table)
    # a caterpillar code "0", "10", "110", ... whose last two codewords
    # are longer than the window, with multi-character labels and an
    # empty one: used, not the labels, says what a window holds
    depths = list(range(1, _WINDOW_BITS + 2)) + [_WINDOW_BITS + 1]
    long = CodeBook(["x" * i for i in range(len(depths))], codewords_from_depths(depths))
    k, table = long._window_table()
    assert k == _WINDOW_BITS and len(table) == 2**k
    assert table["0" * k] == ("", k)
    assert table["10110" + "1" * (k - 5)] == ("xxx", 5)
    assert table["1" * k] == ("", 0)
    assert all(table[w] == greedy_window(long, w) for w in table)
    # decode probes past the window for both long codewords, at every
    # truncation too
    msg = [long.labels[i] for i in (k, 0, k + 1, 1, k)]
    bits = long.encode(msg)
    assert long.decode(bits) == "".join(msg)
    for cut in range(len(bits)):
        expect = decode_outcome(lambda b: probe_decode(long, b), bits[:cut])
        assert decode_outcome(long.decode, bits[:cut]) == expect, cut


@st.composite
def skewed_codes(draw):
    """build_code on 1..40 symbols with geometric probabilities in a
    random rank order; a steep ratio gives codewords far longer than
    the decode window.  The labels are single letters, or strings of 0
    to 4 characters, the empty one included."""
    m = draw(st.integers(1, 40))
    ratio = draw(st.floats(0.2, 1.0))
    ranks = draw(st.permutations(range(m)))
    weights = [ratio**r for r in ranks]
    total = math.fsum(weights)
    if draw(st.booleans()):
        labels = [chr(ord("A") + i) for i in range(m)]
    else:
        labels = sorted(draw(st.sets(st.text("abc", max_size=4), min_size=m, max_size=m)))
    return build_code(Distribution(labels, [w / total for w in weights]))


@settings(max_examples=40, deadline=None)
@given(skewed_codes().filter(lambda book: book.max_len))  # decode needs no table at 0
def test_window_table_matches_greedy_probe(book):
    k, table = book._window_table()
    assert k == min(book.max_len, _WINDOW_BITS) and len(table) == 2**k
    assert all(table[w] == greedy_window(book, w) for w in table)


def test_decode_matches_probe_decoder():
    max_lens = []
    msg_lens = []
    long_decoded = []
    tails = []

    @settings(max_examples=300, deadline=None)
    @given(skewed_codes(), st.data())
    def check(book, data):
        max_lens.append(book.max_len)
        size = data.draw(st.integers(0, 400))
        msg = data.draw(st.lists(st.sampled_from(book.labels), min_size=size, max_size=size))
        msg_lens.append(len(msg))
        kind = data.draw(st.sampled_from(["message", "truncated", "tail", "random"]))
        bits = book.encode(msg)
        k = min(book.max_len, _WINDOW_BITS)
        if kind == "truncated":
            bits = bits[: data.draw(st.integers(0, len(bits)))]
        elif kind == "tail" and k and bits:
            # cut inside the last k bits, where the window loop hands the
            # rest to the probe
            bits = bits[: -data.draw(st.integers(1, min(k, len(bits))))]
            tails.append(len(bits) >= k)
        elif kind == "random":
            bits = data.draw(st.text("01", max_size=120))
        foreign = data.draw(st.integers(0, 9)) == 0
        if foreign:
            at = data.draw(st.integers(0, len(bits)))
            bits = bits[:at] + data.draw(st.sampled_from(NON_BINARY)) + bits[at:]
        got = decode_outcome(book.decode, bits)
        assert got == decode_outcome(lambda b: probe_decode(book, b), bits)
        if foreign:
            assert got == (CodingError, None)
        elif kind == "message" and book.max_len:
            assert got == "".join(msg)
            long_decoded.extend(s for s in msg if len(book.encode([s])) > _WINDOW_BITS)

    check()
    assert max(max_lens) > _WINDOW_BITS
    assert max(msg_lens) >= 200
    assert long_decoded  # the probe past the window ran
    assert any(tails)  # the window loop ran before the probe of the tail


# ----------------------------------------------------------------------
# redundancy accounting


def test_redundancy_bound_dyadic_is_exactly_zero():
    rng = random.Random(32)
    for _ in range(50):
        q = dyadic_from_profile(random_tree_profile(rng, rng.randint(1, 32)))
        assert redundancy_bound(q) == 0.0


def test_redundancy_bound_examples():
    assert redundancy_bound(Distribution("abc", [0.5, 0.25, 0.25])) == 0.0
    assert abs(redundancy_bound(Distribution("abc", [1 / 3] * 3)) - (2 - math.log2(3))) < 1e-9
    assert redundancy_bound(Distribution("abc", [0.25, 0.5, 0.25])) == 1.0


def test_bound_is_nonnegative_and_tight():
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(1, 24)
        probs = [rng.random() + 0.01 for _ in range(n)]
        t = sum(probs)
        labels = ["c%02d" % i for i in range(n)]
        q = Distribution(labels, [x / t for x in probs])
        book = build_code(q)
        bound = redundancy_bound(q)
        worst = max(l + math.log2(qi) for l, qi in zip(book.lengths(), q.probs))
        assert bound >= -1e-12
        assert abs(worst - bound) <= 1e-9
        assert evaluate(q, book, q).bound == bound


def test_evaluate_report():
    q = Distribution("abc", [0.5, 0.25, 0.25])
    book = build_code(q)
    rep = evaluate(q, book, q)
    assert abs(rep.avg_len - 1.5) < 1e-12
    assert abs(rep.excess) < 1e-12
    assert rep.bound == 0.0
    doc = json.loads(rep.to_json())
    assert set(doc) == {"avg_len", "entropy", "relative_entropy", "excess", "bound"}


def test_evaluate_excess_below_bound():
    rng = random.Random(34)
    for _ in range(40):
        n = rng.randint(2, 16)
        labels = [chr(ord("a") + i) for i in range(n)]
        qp = [rng.random() + 0.02 for _ in range(n)]
        qt = sum(qp)
        q = Distribution(labels, [x / qt for x in qp])
        book = build_code(q)
        bound = redundancy_bound(q)
        for _ in range(10):
            pp = [rng.random() for _ in range(n)]
            pt = sum(pp)
            p = Distribution(labels, [x / pt for x in pp])
            rep = evaluate(p, book, q)
            assert rep.excess <= bound + 1e-9


def test_point_mass_attains_bound():
    q = Distribution("abc", [0.25, 0.5, 0.25])
    book = build_code(q)
    bound = redundancy_bound(q)
    worst = max(
        range(3), key=lambda i: book.lengths()[i] + math.log2(q.probs[i])
    )
    probs = [0.0, 0.0, 0.0]
    probs[worst] = 1.0
    rep = evaluate(Distribution("abc", probs), book, q)
    assert abs(rep.excess - bound) <= 1e-9


def test_evaluate_rejects_mismatched_alphabets():
    q = Distribution("ab", [0.5, 0.5])
    book = build_code(q)
    other = Distribution("ac", [0.5, 0.5])
    with pytest.raises(CodingError):
        evaluate(other, book, q)
    with pytest.raises(CodingError):
        evaluate(q, book, other)


def test_evaluate_undefined_divergence():
    q = Distribution("ab", [0.5, 0.5])
    book = build_code(q)
    q_holed = Distribution("ab", [1.0, 0.0])
    p = Distribution("ab", [0.5, 0.5])
    with pytest.raises(UndefinedDivergenceError):
        evaluate(p, book, q_holed)
