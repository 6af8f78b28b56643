"""Alphabetic minimax trees over integer weights.

An ordered strictly-binary tree over leaves 1..n in fixed order is
scored by max_i (w_i + depth_i); the minimum over all such trees is the
minimax cost of the weight sequence.  alpha_int_fast computes it in
O(n) with one stack pass over the levels; minimax_cost_by_dp is the
small-n interval dynamic program the fast path is tested against.
"""

from __future__ import annotations

import math

from .leveltree import LevelTreeError, static_witness


class ParseError(ValueError):
    """Bad token in a weights file; .line is the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class DepthProfileError(ValueError):
    """A depth sequence that no ordered binary tree realizes.

    .index is the leaf position where validation failed (n for a
    profile that ends before the tree is complete), .reason a short tag.
    """

    def __init__(self, index: int, reason: str):
        super().__init__("depth profile invalid at index %d: %s" % (index, reason))
        self.index = index
        self.reason = reason


def parse_weights(text: str) -> list[float]:
    """Parse a weights file: one or more numbers per line, separated by
    commas and/or whitespace; blank lines are skipped."""
    out: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.replace(",", " ").split():
            try:
                val = float(tok)
            except ValueError:
                raise ParseError(lineno, "not a number: %r" % tok) from None
            if not math.isfinite(val):
                raise ParseError(lineno, "weight must be finite: %r" % tok)
            out.append(val)
    return out


def minimax_cost_by_dp(values, max_n: int = 16):
    """Reference interval DP: cost of values[i..j] is the best over all
    split points of max(left, right) + 1.  O(n^3); guarded by max_n so
    it cannot be mistaken for a production path."""
    n = len(values)
    if n == 0:
        raise ValueError("need at least one value")
    if n > max_n:
        raise ValueError("DP oracle limited to n <= %d (got %d)" % (max_n, n))
    best = [[0] * n for _ in range(n)]
    for i in range(n):
        best[i][i] = values[i]
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span - 1
            row = best[i]
            b = None
            for k in range(i, j):
                left = row[k]
                right = best[k + 1][j]
                cand = left if left >= right else right
                if b is None or cand < b:
                    b = cand
            row[j] = b + 1
    return best[0][n - 1]


def alpha_int_fast(y) -> tuple[int, list[int]]:
    """Minimax cost of an integer sequence in O(n), with a witness.

    Returns (cost, depths) where depths realizes the cost:
    max(y_i + depths_i) == cost and depths is a valid profile.  One
    stack pass over y (leveltree.static_witness) finds both, with the
    same grouping as a LevelTree build and the same depths as its
    depth_profile(); an empty y or an infinite or NaN value raises
    LevelTreeError, and any other non-integer value ValueError.
    """
    y = list(y)
    for v in y:
        if v != v or v in (math.inf, -math.inf):
            raise LevelTreeError("weights must be finite, got %r" % (v,))
        if v != int(v):
            raise ValueError("alpha_int_fast got non-integer %r" % (v,))
    return static_witness([int(v) for v in y])


def tree_cost(depths, weights):
    """max(w_i + depth_i) for a given tree, after validating the
    profile and that the lengths match."""
    depths = list(depths)
    weights = list(weights)
    if len(depths) != len(weights):
        raise ValueError(
            "profile has %d leaves but %d weights given" % (len(depths), len(weights))
        )
    depths_to_tree(depths)  # raises DepthProfileError if not realizable
    return max(w + d for w, d in zip(weights, depths))


def depths_to_tree(depths) -> list[int]:
    """Validate a depth profile and return the parent array of the tree
    realizing it.

    Leaves are nodes 0..n-1; internal nodes n..2n-2 follow in creation
    order (bottom-up, left to right), so the root is the last node and
    holds parent -1.  The profile is consumed left to right with a stack
    of pending subtrees; two adjacent subtrees at equal depth merge into
    one a level up.  A valid profile finishes with exactly one subtree
    at depth 0.
    """
    depths = list(depths)
    n = len(depths)
    if n == 0:
        raise DepthProfileError(0, "empty profile")
    parents = [-1] * n
    stack: list[tuple[int, int]] = []  # (node id, depth)
    for i, w in enumerate(depths):
        try:
            d = int(w)
        except (OverflowError, TypeError, ValueError):  # inf, nan, not a number
            d = -1
        if d != w or d < 0:
            raise DepthProfileError(i, "depth must be a nonnegative integer")
        if len(stack) == 1 and stack[0][1] == 0:
            raise DepthProfileError(i, "tree is already complete")
        if stack and d < stack[-1][1]:
            raise DepthProfileError(i, "leaf is shallower than the open branch")
        stack.append((i, d))
        while len(stack) >= 2 and stack[-1][1] == stack[-2][1]:
            (b, db) = stack.pop()
            (a, _) = stack.pop()
            u = len(parents)
            parents[a] = parents[b] = u
            parents.append(-1)
            stack.append((u, db - 1))
    if len(stack) != 1 or stack[0][1] != 0:
        raise DepthProfileError(n, "profile ended before the tree was complete")
    return parents
