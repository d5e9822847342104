"""The top-level names of the tokengraphs package, pinned, and the README's
library example, run as written."""

import re
import types
from pathlib import Path

import tokengraphs

PUBLIC_NAMES = {
    # connectivity
    "brute_force_connectivity", "edge_connectivity",
    "vertex_connectivity",
    # families
    "Case1Context", "Case2Context", "FamilyConstructionError", "FamilyResult",
    "TraceCondition", "build_family", "check_trace", "normalize",
    # graphs
    "Graph", "Graph6Error", "bridged_cliques", "emit_graph6", "enumerate_trees",
    "girth", "parse_graph6", "tree_canonical_form",
    # moves
    "TokenPath", "pairwise_internally_disjoint",
    # tokens
    "TokenGraph", "build_token_graph", "min_token_degree",
}


def test_top_level_public_names():
    names = {
        name for name, value in vars(tokengraphs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES
    assert len(names) == 24


def test_readme_library_example(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(blocks[0], {})
    assert capsys.readouterr().out == "T1 ((0, 1), (0, 2), (0, 3))\n"
