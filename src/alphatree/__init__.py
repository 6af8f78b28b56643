"""Alphabetic minimax trees over integer and real weights, a dynamic
level tree with exact undo, and order-preserving prefix-code tooling."""

from .core import (
    DepthProfileError,
    MinimaxTree,
    ParseError,
    alpha_int_fast,
    depths_to_tree,
    parse_weights,
    tree_cost,
)
from .leveltree import LevelTree, LevelTreeError
from .realweight import (
    InexactCostError,
    RealCostResult,
    WeightSeq,
    alpha_real,
    alpha_real_new,
    alpha_real_sorted,
)
from .coding import (
    CodeBook,
    CodeReport,
    CodingError,
    DecodeError,
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

__version__ = "0.1.0"

__all__ = [
    "CodeBook",
    "CodeReport",
    "CodingError",
    "DecodeError",
    "DepthProfileError",
    "Distribution",
    "InexactCostError",
    "LevelTree",
    "LevelTreeError",
    "MinimaxTree",
    "ParseError",
    "RealCostResult",
    "UndefinedDivergenceError",
    "WeightSeq",
    "alpha_int_fast",
    "alpha_real",
    "alpha_real_new",
    "alpha_real_sorted",
    "build_code",
    "codewords_from_depths",
    "depths_to_tree",
    "empirical_distribution",
    "entropy",
    "evaluate",
    "parse_weights",
    "redundancy_bound",
    "relative_entropy",
    "tree_cost",
]
