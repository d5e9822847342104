"""The top-level names of the tokengraphs package, pinned."""

import types

import tokengraphs

PUBLIC_NAMES = {
    # connectivity
    "ConnectivityReport", "brute_force_connectivity", "edge_connectivity",
    "vertex_connectivity",
    # families
    "Case1Context", "Case2Context", "FamilyConstructionError", "FamilyResult",
    "PathFamily", "build_family", "normalize",
    # graphs
    "Graph", "Graph6Error", "bridged_cliques", "complete_graph", "cycle_graph",
    "emit_graph6", "enumerate_trees", "girth", "parse_graph6", "path_graph",
    "star_graph", "tree_canonical_form",
    # moves
    "TokenPath", "TraceCondition", "check_trace",
    "pairwise_internally_disjoint", "trace_condition",
    # tokens
    "TokenGraph", "build_token_graph", "make_config", "min_token_degree", "token_degree",
}


def test_top_level_public_names():
    names = {
        name for name, value in vars(tokengraphs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES
    assert len(names) == 33
