"""Token graphs of small simple graphs.

Builds k-token graphs, constructs pairwise internally disjoint path families
between distance-2 configurations over trees, and checks the results against
flow-based connectivity oracles.
"""

from .connectivity import (
    brute_force_connectivity,
    edge_connectivity,
    vertex_connectivity,
)
from .families import (
    Case1Context,
    Case2Context,
    FamilyConstructionError,
    FamilyResult,
    TraceCondition,
    build_family,
    check_trace,
    normalize,
)
from .graphs import (
    Graph,
    Graph6Error,
    bridged_cliques,
    emit_graph6,
    enumerate_trees,
    girth,
    parse_graph6,
    tree_canonical_form,
)
from .moves import TokenPath, pairwise_internally_disjoint
from .tokens import (
    TokenGraph,
    build_token_graph,
    min_token_degree,
)

__version__ = "0.1.0"
