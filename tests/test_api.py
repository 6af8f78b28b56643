import importlib

import alphatree


def test_public_names():
    assert alphatree.__all__ == [
        "CodeBook",
        "CodeReport",
        "CodingError",
        "DecodeError",
        "DepthProfileError",
        "Distribution",
        "InexactCostError",
        "LevelTree",
        "LevelTreeError",
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
    for name in alphatree.__all__:
        assert getattr(alphatree, name) is not None


def test_helpers_and_oracles_import_from_their_modules():
    for module, names in (
        ("alphatree.core", ("minimax_cost_by_dp",)),
        ("alphatree.leveltree", ("UnionFindDeunion", "ceil_log2")),
        ("alphatree.realweight", ("alpha_real_oracle", "select_kth")),
    ):
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name)), (module, name)
