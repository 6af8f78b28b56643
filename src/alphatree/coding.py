"""Alphabetical prefix codes tuned to a sample distribution.

Running the real-weight minimax machinery on weights log2(q_i) yields
codeword lengths for an order-preserving prefix code, and the minimax
value itself bounds the code's excess cost: for any source P,

    avg_len(P) - H(P) - D(P || Q) = sum_i p_i (len_i + log2 q_i)
                                 <= max_i (len_i + log2 q_i)

and the right-hand side is exactly the cost the tree minimizes.
"""

from __future__ import annotations

import json
import math
from itertools import product

from .realweight import alpha_real


class CodingError(ValueError):
    """Invalid distribution, codebook, or encode/decode input."""


class UndefinedDivergenceError(CodingError):
    """D(P || Q) with q(s) = 0 while p(s) > 0 for some symbol s."""

    def __init__(self, label: str):
        super().__init__(
            "relative entropy undefined: q(%r) = 0 but p(%r) > 0" % (label, label)
        )
        self.label = label


class DecodeError(CodingError):
    """Bit string not decodable; .bit_offset points at the failure."""

    def __init__(self, bit_offset: int, message: str):
        super().__init__("%s (bit offset %d)" % (message, bit_offset))
        self.bit_offset = bit_offset


_SUM_TOL = 1e-9

# decode maps each window of k = min(max_len, _WINDOW_BITS) bits to every
# codeword that lies wholly inside it, and probes codeword lengths only
# for a codeword longer than k and for the last bits, where no whole
# window is left; k = 10 and k = 12 decoded no faster
_WINDOW_BITS = 8

# translate deletes "0" and "1" by this table, so a string is binary iff
# nothing is left
_BITS = str.maketrans("", "", "01")


def _is_binary(s: str) -> bool:
    return not s.translate(_BITS)


def _check_increasing(labels) -> None:
    try:
        for a, b in zip(labels, labels[1:]):
            if not a < b:
                raise CodingError("labels must be strictly increasing (%r >= %r)" % (a, b))
    except TypeError:
        raise CodingError("labels %r and %r cannot be compared" % (a, b)) from None


class Distribution:
    """Probability vector over a strictly increasing label sequence."""

    def __init__(self, labels, probs):
        labels = list(labels)
        try:
            probs = [float(p) for p in probs]
        except (TypeError, ValueError, OverflowError):
            raise CodingError("probabilities must be a list of numbers") from None
        if not labels:
            raise CodingError("distribution needs at least one symbol")
        if len(labels) != len(probs):
            raise CodingError(
                "%d labels but %d probabilities" % (len(labels), len(probs))
            )
        _check_increasing(labels)
        for lab, p in zip(labels, probs):
            if not (p >= 0.0 and math.isfinite(p)):
                raise CodingError("bad probability %r for %r" % (p, lab))
        total = math.fsum(probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise CodingError("probabilities sum to %r, not 1" % total)
        self.labels = tuple(labels)
        self.probs = tuple(probs)


def empirical_distribution(counts, smoothing: str = "none", alphabet=None) -> Distribution:
    """Distribution from symbol counts.

    counts is a mapping or an iterable of (label, count) pairs.  With
    smoothing="add_one" every symbol of the declared alphabet gets one
    phantom occurrence; that mode requires alphabet, since it exists to
    give unseen symbols mass.
    """
    if hasattr(counts, "items"):
        pairs = list(counts.items())
    else:
        pairs = [(lab, c) for lab, c in counts]
    cmap: dict = {}
    for lab, c in pairs:
        if lab in cmap:
            raise CodingError("duplicate count for symbol %r" % (lab,))
        try:
            ok = c == int(c) and c >= 0
        except (TypeError, ValueError, OverflowError):
            ok = False  # inf, nan, or not a number at all
        if not ok:
            raise CodingError("bad count %r for symbol %r" % (c, lab))
        cmap[lab] = int(c)
    try:
        if alphabet is None:
            labels = sorted(cmap)
        else:
            labels = sorted(set(alphabet))
            extra = set(cmap) - set(labels)
            if extra:
                raise CodingError(
                    "counted symbols missing from the alphabet: %r" % (sorted(extra),)
                )
    except TypeError:
        raise CodingError("labels must be hashable and mutually comparable") from None
    if not labels:
        raise CodingError("empty alphabet")

    if smoothing == "none":
        total = sum(cmap.get(lab, 0) for lab in labels)
        if total == 0:
            raise CodingError("all counts are zero")
        return Distribution(labels, [cmap.get(lab, 0) / total for lab in labels])
    if smoothing == "add_one":
        if alphabet is None:
            raise CodingError("add_one smoothing requires a declared alphabet")
        total = sum(cmap.get(lab, 0) for lab in labels) + len(labels)
        return Distribution(labels, [(cmap.get(lab, 0) + 1) / total for lab in labels])
    raise CodingError("unknown smoothing %r" % (smoothing,))


def entropy(p: Distribution) -> float:
    """Shannon entropy in bits, zero-probability terms skipped; a point
    mass gives +0.0 (0.0 - fsum, where -fsum would give -0.0)."""
    return 0.0 - math.fsum(pi * math.log2(pi) for pi in p.probs if pi > 0.0)


def relative_entropy(p: Distribution, q: Distribution) -> float:
    """D(P || Q) in bits over a shared alphabet."""
    if p.labels != q.labels:
        raise CodingError("distributions are over different alphabets")
    acc = []
    for lab, pi, qi in zip(p.labels, p.probs, q.probs):
        if pi == 0.0:
            continue
        if qi == 0.0:
            raise UndefinedDivergenceError(lab)
        acc.append(pi * math.log2(pi / qi))
    return math.fsum(acc)


def codewords_from_depths(depths) -> list[str]:
    """Canonical order-preserving codewords for a valid depth profile.

    With L the largest depth, the k-th codeword is the Kraft sum of the
    codewords before it, acc = sum of 2^(L - d_j), read in its top d_k
    of L bits; a valid profile makes it exactly 2^L at the end.
    """
    from .core import depths_to_tree

    depths = list(depths)  # depths_to_tree would empty an iterator
    depths_to_tree(depths)  # raises DepthProfileError when unrealizable
    depths = list(map(int, depths))
    top = max(depths)
    out: list[str] = []
    acc = 0
    for length in depths:
        out.append(format(acc >> (top - length), "0%db" % length) if length else "")
        acc += 1 << (top - length)
    if acc != 1 << top:
        raise AssertionError("codeword assignment did not exhaust the tree")
    return out


class CodeBook:
    """Alphabetical complete prefix code over an ordered alphabet.

    The constructor re-checks everything a codebook promises: labels
    strictly increasing, codewords strictly increasing with no prefix
    relations, and Kraft equality (the code tree is full).
    """

    def __init__(self, labels, codewords):
        labels = list(labels)
        codewords = list(codewords)
        if not labels or len(labels) != len(codewords):
            raise CodingError("label/codeword lists empty or mismatched")
        _check_increasing(labels)
        for cw in codewords:
            if not isinstance(cw, str):
                raise CodingError("codeword %r is not a string" % (cw,))
            if not _is_binary(cw):
                raise CodingError("codeword %r is not binary" % (cw,))
            if cw == "" and len(codewords) > 1:
                raise CodingError("empty codeword in a multi-symbol code")
        for a, b in zip(codewords, codewords[1:]):
            if not a < b:
                raise CodingError("codewords must be strictly increasing (%r >= %r)" % (a, b))
            if b.startswith(a):
                raise CodingError("codeword %r is a prefix of %r" % (a, b))
        maxlen = max(len(cw) for cw in codewords)
        kraft = sum(1 << (maxlen - len(cw)) for cw in codewords)
        if kraft != 1 << maxlen:
            raise CodingError("code is not complete (Kraft sum != 1)")
        self.labels = tuple(labels)
        self.codewords = tuple(codewords)
        self._by_label = dict(zip(self.labels, self.codewords))
        self._by_word = dict(zip(self.codewords, self.labels))
        self.max_len = maxlen

    def lengths(self) -> list[int]:
        return [len(cw) for cw in self.codewords]

    def encode(self, symbols) -> str:
        try:
            return "".join(map(self._by_label.__getitem__, symbols))
        except KeyError as e:
            raise CodingError("symbol %r not in code" % (e.args[0],)) from None
        except TypeError as e:
            # symbols is not iterable, or holds an unhashable symbol
            raise CodingError("symbols must be an iterable of labels (%s)" % e) from None

    def _window_table(self):
        """(k, table): k = min(max_len, _WINDOW_BITS), and table maps every
        k-bit string to (labels, used): the labels of the codewords that
        lie wholly inside it, read from its start and joined, and the
        bits they use.  used is 0 where a codeword longer than k starts
        the window.

        The code is complete and its codewords are in increasing order,
        so a codeword cw of length l <= k starts the 2^(k-l) windows from
        int(cw) << (k-l) on; the windows no such codeword starts are the
        prefixes of codewords longer than k.  The codeword after one of
        l bits starts window w << l (shifting in zeros), and lies inside
        w iff it ends by bit k.
        """
        k = min(self.max_len, _WINDOW_BITS)
        size = 1 << k
        mask = size - 1
        # the first codeword of each window, (label, length); length
        # k + 1 never fits, so it stands for a codeword longer than k
        first = [(None, k + 1)] * size
        for lab, cw in zip(self.labels, self.codewords):
            pad = k - len(cw)
            if pad >= 0:
                lo = int(cw, 2) << pad
                first[lo : lo + (1 << pad)] = [(lab, len(cw))] * (1 << pad)
        entries = []
        for w in range(size):
            labs, used = "", 0
            lab, length = first[w]
            while used + length <= k:
                labs += lab
                used += length
                lab, length = first[(w << used) & mask]
            entries.append((labs, used))
        # product lists the k-bit strings in increasing order, four
        # times as fast as formatting each number
        return k, dict(zip(map("".join, product("01", repeat=k)), entries))

    def decode(self, bits: str) -> str:
        """The labels that bits encodes, joined into one string, so
        decode(encode(s)) == "".join(s).  The labels must be strings: a
        book with integer labels raises CodingError on every decode, the
        empty one included.

        While a whole k-bit window is left, one lookup in _window_table
        decodes every codeword that lies inside the window.  Since no
        codeword is a prefix of another, the bits name one parse, so
        the lookups decode what a codeword-by-codeword reading would.  A
        codeword longer than k, and the last bits, are found by probing
        each codeword length in turn.  Raises DecodeError at the offset
        of a codeword the bits end inside, and CodingError for bits that
        are not a str of 0s and 1s.
        """
        if not isinstance(bits, str):
            raise CodingError("bits must be a str, not %s" % type(bits).__name__)
        if not _is_binary(bits):
            raise CodingError("bit string contains non-binary characters")
        if not all(isinstance(lab, str) for lab in self.labels):
            raise CodingError("decode needs string labels")
        if self.max_len == 0:
            # single symbol, empty codeword: only the empty string decodes
            if bits:
                raise DecodeError(0, "no bits are decodable with an empty-codeword code")
            return ""
        k, table = self._window_table()
        by_word = self._by_word
        out = []
        append = out.append
        n = len(bits)
        last = n - k  # the last offset a whole window starts at
        i = 0
        while True:
            while i <= last:
                labs, used = table[bits[i : i + k]]
                if not used:
                    break
                append(labs)
                i += used
            if i == n:
                return "".join(out)
            # a codeword longer than k starts at i, or fewer than k bits
            # are left: probe the lengths it can have
            for j in range(i + (k + 1 if i <= last else 1), min(i + self.max_len, n) + 1):
                lab = by_word.get(bits[i:j])
                if lab is not None:
                    break
            else:
                # the code is complete, so enough bits always match: we
                # ran off the end of the string
                raise DecodeError(i, "bit string ends inside a codeword")
            append(lab)
            i = j

    def to_json(self, q=None) -> str:
        """The code as JSON, with the probabilities of q, a Distribution
        over the same labels, when given."""
        payload: dict = {
            "code": [
                {"label": lab, "codeword": cw}
                for lab, cw in zip(self.labels, self.codewords)
            ]
        }
        if q is not None:
            if q.labels != self.labels:
                raise CodingError("sample distribution alphabet differs from the code")
            payload["q"] = list(q.probs)
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        """Parse to_json output; returns (codebook, q distribution or None)."""
        try:
            doc = json.loads(text)
        # a JSONDecodeError, an int too long to read, or nesting too deep
        except (ValueError, RecursionError) as e:
            raise CodingError("codebook is not valid JSON: %s" % e) from None
        if not isinstance(doc, dict) or "code" not in doc:
            raise CodingError('codebook JSON must be an object with a "code" list')
        entries = doc["code"]
        if not isinstance(entries, list):
            raise CodingError('"code" must be a list')
        labels, codewords = [], []
        for e in entries:
            if not isinstance(e, dict) or "label" not in e or "codeword" not in e:
                raise CodingError("each code entry needs label and codeword")
            lab = e["label"]
            if isinstance(lab, bool) or not isinstance(lab, (str, int)):
                raise CodingError("label %r is not a string or an integer" % (lab,))
            labels.append(lab)
            codewords.append(e["codeword"])
        if len({type(lab) for lab in labels}) > 1:
            raise CodingError("labels mix strings and integers")
        book = cls(labels, codewords)
        q = None
        if "q" in doc:
            q = Distribution(labels, doc["q"])
        return book, q


def _log2_weights(q: Distribution) -> list[float]:
    """log2 q_i for every symbol; each q_i must be positive, since a zero
    would demand an infinite codeword."""
    for lab, qi in zip(q.labels, q.probs):
        if qi <= 0.0:
            raise CodingError(
                "q(%r) = 0 has no finite codeword (smoothing would fix this)" % (lab,)
            )
    return [math.log2(qi) for qi in q.probs]


def build_code(q: Distribution) -> CodeBook:
    """Order-preserving prefix code for sample distribution Q.

    Every q_i must be positive.  Codeword lengths are the witness
    depths of the minimax run on weights log2(q_i).
    """
    result = alpha_real(_log2_weights(q))
    return CodeBook(q.labels, codewords_from_depths(result.depths))


def redundancy_bound(q: Distribution) -> float:
    """min over alphabetic codes of max_i (len_i + log2 q_i), attained by
    build_code(q); bounds its excess avg_len - H - D for every source."""
    return alpha_real(_log2_weights(q)).alpha


class CodeReport:
    """Cost accounting for one code against one source distribution."""

    def __init__(self, avg_len, entropy, relative_entropy, excess, bound):
        self.avg_len = avg_len
        self.entropy = entropy
        self.relative_entropy = relative_entropy
        self.excess = excess
        self.bound = bound

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True)


def evaluate(p: Distribution, code: CodeBook, q: Distribution) -> CodeReport:
    """Report avg length, entropy, divergence, and the excess

        avg_len(P) - H(P) - D(P || Q)

    with the bound max_i (len_i + log2 q_i) of the code, which caps it.
    For the code build_code(q) returns, the bound is redundancy_bound(q).
    """
    if p.labels != code.labels:
        raise CodingError("source alphabet differs from the code")
    if q.labels != code.labels:
        raise CodingError("sample alphabet differs from the code")
    lens = code.lengths()
    avg = math.fsum(pi * li for pi, li in zip(p.probs, lens))
    h = entropy(p)
    d = relative_entropy(p, q)
    bound = max(li + wi for li, wi in zip(lens, _log2_weights(q)))
    return CodeReport(avg, h, d, avg - h - d, bound)
