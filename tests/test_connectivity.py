"""Tests for the flow-based and brute-force connectivity oracles."""

import random
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fk import complete_graph, cycle_graph, double_star, path_graph, star_graph
from tokengraphs.connectivity import (
    _unit_flow,
    brute_force_connectivity,
    edge_connectivity,
    vertex_connectivity,
)
from tokengraphs.graphs import (
    Graph,
    bridged_cliques,
)
from tokengraphs.tokens import build_token_graph, min_token_degree

PETERSEN = Graph(
    10,
    (
        (0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7),
        (3, 4), (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9),
    ),
)


def nx_of(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def local_kappa(g: Graph, s: int, t: int, limit: int | None = None) -> int:
    """kappa(s, t) of non-adjacent s and t: the oracles' vertex-split unit flow."""
    return _unit_flow(g.neighbor_masks, s, t, g.n if limit is None else limit, split=True)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pool), max_size=len(pool)) if pool else st.just(set()))
    return Graph(n, tuple(edges))


class TestFrozenValues:
    @pytest.mark.parametrize(
        "g,kappa,lam,delta",
        [
            (path_graph(4), 1, 1, 1),
            (cycle_graph(5), 2, 2, 2),
            (complete_graph(4), 3, 3, 3),
            (star_graph(4), 1, 1, 1),
            (PETERSEN, 3, 3, 3),
            (Graph(4, ((0, 1), (2, 3))), 0, 0, 1),
            (Graph(3, ()), 0, 0, 0),
            (complete_graph(1), 0, 0, 0),
            (complete_graph(2), 1, 1, 1),
        ],
    )
    def test_small_graphs(self, g, kappa, lam, delta):
        assert vertex_connectivity(g) == kappa
        assert edge_connectivity(g) == lam
        assert brute_force_connectivity(g) == (kappa, lam)
        assert g.min_degree() == delta

    def test_two_token_graph_of_bridged_cliques(self):
        fk = build_token_graph(bridged_cliques(4), 2).as_graph()
        assert vertex_connectivity(fk) == 3
        assert edge_connectivity(fk) == 3
        assert fk.min_degree() == 4

    def test_brute_force_petersen(self):
        assert brute_force_connectivity(PETERSEN) == (3, 3)

    def test_complete_graph_has_no_cut(self):
        assert brute_force_connectivity(complete_graph(5)) == (4, 4)


class TestLocalConnectivity:
    def test_cycle_witness(self):
        assert local_kappa(cycle_graph(5), 0, 2) == 2

    def test_petersen_witness(self):
        assert local_kappa(PETERSEN, 0, 2) == 3

    def test_limit_caps_flow_and_witness(self):
        assert local_kappa(PETERSEN, 0, 2, limit=2) == 2

    def test_disconnected_pair(self):
        assert local_kappa(Graph(4, ((0, 1), (2, 3))), 0, 2) == 0

    def test_witness_runs_back_along_two_flow_edges(self):
        # 0-1-2-3-4 is the unique shortest 0-4 path, so the first unit takes
        # it; the second enters at 3 and must run back to 1 through 2
        g = Graph(
            11,
            (
                (0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 3),
                (1, 8), (8, 9), (9, 10), (10, 4),
            ),
        )
        assert local_kappa(g, 0, 4) == 2


class TestAgainstBruteForce:
    def test_seeded_random_graphs(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.randint(2, 8)
            edges = [e for e in combinations(range(n), 2) if rng.random() < rng.choice((0.2, 0.4, 0.7))]
            g = Graph(n, tuple(edges))
            kappa, lam = brute_force_connectivity(g)
            assert vertex_connectivity(g) == kappa
            assert edge_connectivity(g) == lam
            assert kappa <= lam <= g.min_degree()

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_networkx(self, g):
        h = nx_of(g)
        expect_kappa = nx.node_connectivity(h) if g.n > 1 else 0
        assert vertex_connectivity(g) == expect_kappa
        assert edge_connectivity(g) == (nx.edge_connectivity(h) if g.n > 1 else 0)

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_kappa_lambda_delta_chain(self, g):
        assert vertex_connectivity(g) <= edge_connectivity(g) <= g.min_degree() or g.n == 1


def kappa_by_definition(g: Graph) -> int:
    """Minimum local vertex connectivity over every non-adjacent pair."""
    if g.is_complete():
        return max(g.n - 1, 0)
    return min(
        local_kappa(g, s, t)
        for s, t in combinations(range(g.n), 2)
        if t not in g.adjacency[s]
    )


# two K_6 (0..5 and 6..11) hanging off vertex 12 through 0, 1, 6 and 7: the
# minimum-degree vertex 12 is the only cut vertex, so flows from 12 alone
# find 2 and only a pair of its neighbours in different cliques finds 1
HUB = Graph(
    13,
    tuple(combinations(range(6), 2))
    + tuple(combinations(range(6, 12), 2))
    + ((0, 12), (1, 12), (6, 12), (7, 12)),
)

# two K_5 (1..5 and 6..10) joined through vertex 0 (to 1, 2, 6, 7) and vertex
# 11 (to 3, 4, 8, 9): no cut vertex, and {0, 11} is the only 2-separator, so
# flows from the minimum-degree vertex 0 alone find 3
TWO_HUBS = Graph(
    12,
    tuple(combinations(range(1, 6), 2))
    + tuple(combinations(range(6, 11), 2))
    + ((0, 1), (0, 2), (0, 6), (0, 7), (3, 11), (4, 11), (8, 11), (9, 11)),
)


def prufer_tree(rng: random.Random, n: int) -> Graph:
    tree = nx.from_prufer_sequence([rng.randrange(n) for _ in range(n - 2)])
    return Graph(n, tuple(tree.edges()))


def planted_cut_graph(rng: random.Random) -> tuple[Graph, int]:
    """Two dense blocks joined through a few separator vertices and edges.

    Returns the graph and the size of the planted vertex separator: the
    separator vertices plus one endpoint of each direct crossing edge.
    """
    a, b = rng.randint(5, 9), rng.randint(5, 9)
    sep = rng.randint(0, 2)
    crossing = rng.randint(0 if sep else 1, 2)
    n = a + b + sep
    left, right = range(a), range(a, a + b)
    edges = [e for block in (left, right) for e in combinations(block, 2) if rng.random() < 0.8]
    for s in range(a + b, n):
        edges += [(s, rng.choice(left)), (s, rng.choice(right))]
        edges += [(s, w) for w in range(a + b) if rng.random() < 0.3]
    edges += [(rng.choice(left), rng.choice(right)) for _ in range(crossing)]
    return Graph(n, tuple(edges)), sep + crossing


class TestAgainstDefinition:
    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_minimum_over_nonadjacent_pairs(self, g):
        assert vertex_connectivity(g) == kappa_by_definition(g)

    def test_tree_families(self):
        for g in (path_graph(7), star_graph(5), Graph(6, ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5)))):
            assert vertex_connectivity(g) == 1

    def test_complete_graph_shortcut(self):
        assert vertex_connectivity(complete_graph(6)) == 5


class TestPairSetBranches:
    def test_hub_needs_neighbour_pairs(self):
        assert HUB.min_degree() == 4
        assert vertex_connectivity(HUB) == 1
        assert edge_connectivity(HUB) == 2
        assert brute_force_connectivity(HUB) == (1, 2)
        from_hub = min(
            local_kappa(HUB, 12, w)
            for w in range(12)
            if w not in HUB.adjacency[12]
        )
        assert from_hub == 2

    def test_two_connected_hub_needs_neighbour_pairs(self):
        assert TWO_HUBS.min_degree() == 4
        assert vertex_connectivity(TWO_HUBS) == 2
        assert edge_connectivity(TWO_HUBS) == 4
        h = nx_of(TWO_HUBS)
        assert nx.node_connectivity(h) == 2 and nx.edge_connectivity(h) == 4
        from_hub = min(
            local_kappa(TWO_HUBS, 0, w)
            for w in range(1, 12)
            if w not in TWO_HUBS.adjacency[0]
        )
        assert from_hub == 3

    @pytest.mark.parametrize("m", range(3, 7))
    def test_two_token_bridged_cliques(self, m):
        fk = build_token_graph(bridged_cliques(m), 2).as_graph()
        assert fk.min_degree() == 2 * (m - 2)
        assert vertex_connectivity(fk) == edge_connectivity(fk) == m - 1
        h = nx_of(fk)
        assert nx.node_connectivity(h) == nx.edge_connectivity(h) == m - 1


class TestSeededDifferential:
    def test_token_graphs_of_random_trees(self):
        # most random trees give delta = 1, which the early exit answers, so
        # keep drawing until six instances need flows
        rng = random.Random(20261017)
        flat = needs_flows = 0
        while needs_flows < 6:
            n = rng.randint(10, 11)
            k = rng.choice((2, 3, n - 3, n - 2))
            tree = prufer_tree(rng, n)
            delta = min_token_degree(tree, k)
            if delta == 1:
                if flat == 3:
                    continue
                flat += 1
            else:
                needs_flows += 1
            fk = build_token_graph(tree, k).as_graph()
            h = nx_of(fk)
            assert vertex_connectivity(fk) == nx.node_connectivity(h) == delta
            assert edge_connectivity(fk) == nx.edge_connectivity(h) == delta

    def test_folded_token_graphs_of_stars_and_double_stars(self):
        # beyond the exhaustive theorem sweep (n <= 13): flows on F_k with
        # delta >= 3, folded by the automorphisms of a symmetric base tree
        rng = random.Random(20261019)
        cases = [(star_graph(29), 3), (star_graph(19), 4), (double_star(8, 8), 3)]
        for _ in range(3):
            cases.append((star_graph(rng.randint(13, 29)), 3))
            a = rng.randint(4, 14)
            cases.append((double_star(a, rng.randint(max(4, 12 - a), 28 - a)), 3))
        cases.append((star_graph(rng.randint(13, 19)), 4))
        cases.append((double_star(6, rng.randint(6, 12)), 4))
        for tree, k in cases:
            assert 14 <= tree.n <= 30
            fk = build_token_graph(tree, k)
            delta = fk.min_degree()
            assert delta >= 3 and fk.symmetries()
            assert vertex_connectivity(fk) == edge_connectivity(fk) == delta

    def test_random_graphs_with_planted_cuts(self):
        rng = random.Random(87)
        below_delta = Counter()
        for _ in range(40):
            g, planted = planted_cut_graph(rng)
            h = nx_of(g)
            kappa, lam = vertex_connectivity(g), edge_connectivity(g)
            assert kappa == nx.node_connectivity(h)
            assert lam == nx.edge_connectivity(h)
            assert kappa <= planted
            below_delta["kappa"] += kappa < g.min_degree()
            below_delta["lambda"] += lam < g.min_degree()
        # the planted cuts must reach the branches where a flow beats delta
        assert below_delta["kappa"] >= 10 and below_delta["lambda"] >= 10, below_delta


# a bowtie: two triangles sharing vertex 0, the DFS root, or vertex 2
BOWTIE_AT_ROOT = Graph(5, ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)))
BOWTIE_INSIDE = Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))
BRIDGED_TRIANGLES = Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)))
K4_PAIR = Graph(7, tuple(combinations(range(4), 2)) + tuple(combinations(range(3, 7), 2)))


def glued_blocks(rng: random.Random) -> Graph:
    """Cycles and cliques glued one by one into a connected graph with n >= 17.

    Each graph draws the block kinds and the joins it uses.  A new block
    meets the graph so far in one shared vertex (a cut vertex), in one edge
    (a bridge), or in two or three disjoint edges.
    """
    kinds = rng.choice((("cycle",), ("clique",), ("cycle", "clique")))
    joins = rng.choice((("vertex",), ("bridge",), ("edges",), ("vertex", "bridge", "edges")))
    edges = []
    n = 0
    while n < 17:
        kind = rng.choice(kinds)
        size = rng.randint(3, 7) if kind == "cycle" else rng.randint(4, 6)
        join = rng.choice(joins) if n else None
        if join == "vertex":
            block = [rng.randrange(n)] + list(range(n, n + size - 1))
        else:
            block = list(range(n, n + size))
        if kind == "cycle":
            edges += [(block[i - 1], block[i]) for i in range(size)]
        else:
            edges += combinations(block, 2)
        if join == "bridge":
            edges.append((rng.randrange(n), rng.choice(block)))
        elif join == "edges":
            width = rng.randint(2, 3)
            edges += zip(rng.sample(range(n), width), rng.sample(block, width))
        n = block[-1] + 1
    return Graph(n, tuple(edges))


class TestDfsDecision:
    @pytest.mark.parametrize(
        "g,kappa,lam,delta",
        [
            (BOWTIE_AT_ROOT, 1, 2, 2),
            (BOWTIE_INSIDE, 1, 2, 2),
            (BRIDGED_TRIANGLES, 1, 1, 2),
            (cycle_graph(7), 2, 2, 2),
            (K4_PAIR, 1, 3, 3),
        ],
        ids=["bowtie-at-root", "bowtie-inside", "bridged-triangles", "cycle", "k4-pair"],
    )
    def test_small_graphs(self, g, kappa, lam, delta):
        h = nx_of(g)
        assert g.min_degree() == delta
        assert vertex_connectivity(g) == nx.node_connectivity(h) == kappa
        assert edge_connectivity(g) == nx.edge_connectivity(h) == lam

    def test_glued_blocks_beyond_subset_removal(self):
        rng = random.Random(1973)
        branches = Counter()
        for _ in range(80):
            g = glued_blocks(rng)
            assert g.n > 16
            h = nx_of(g)
            delta = g.min_degree()
            assert vertex_connectivity(g) == nx.node_connectivity(h)
            assert edge_connectivity(g) == nx.edge_connectivity(h)
            if any(True for _ in nx.articulation_points(h)):
                branches["cut vertex"] += 1
            else:
                branches["kappa flows" if delta > 2 else "kappa 2"] += 1
            if nx.has_bridges(h):
                branches["bridge"] += 1
            else:
                branches["lambda flows" if delta > 2 else "lambda 2"] += 1
        wanted = ("cut vertex", "kappa 2", "kappa flows", "bridge", "lambda 2", "lambda flows")
        assert all(branches[b] >= 3 for b in wanted), branches


class TestGuards:
    def test_brute_force_size_limit(self):
        with pytest.raises(ValueError, match="n <= 16"):
            brute_force_connectivity(path_graph(17))

    def test_brute_force_empty_graph(self):
        with pytest.raises(ValueError, match="empty"):
            brute_force_connectivity(Graph(0, ()))
