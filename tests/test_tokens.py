"""Token graph construction, degrees, the complement map, classification."""

from itertools import combinations
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _catalog import girth5_catalog
from _fk import complete_graph, cycle_graph, fk_distances, fk_neighbors, path_graph, star_graph
from tokengraphs import tokens
from tokengraphs.cli import main
from tokengraphs.connectivity import edge_connectivity, vertex_connectivity
from tokengraphs.families import build_family, normalize
from tokengraphs.graphs import (
    Graph,
    bridged_cliques,
    enumerate_trees,
    mask_connected,
    mask_cut_flags,
)
from tokengraphs.moves import TokenPath
from tokengraphs.tokens import (
    build_token_graph,
    checked_mask,
    classify_masks,
    config_mask,
    min_token_degree,
)


def boundary_count(g, cfg):
    """The token degree of cfg by definition: the base edges with exactly one end in cfg."""
    return sum((u in cfg) != (v in cfg) for u, v in g.edges)


def complement(cfg, n):
    """Image of a configuration under occupied/free exchange on n vertices."""
    return tuple(sorted(set(range(n)) - set(cfg)))


def classify(g, a, b):
    return classify_masks(g, checked_mask(g, a), checked_mask(g, b))


@st.composite
def tree_and_k(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    trees = enumerate_trees(n)
    tree = trees[draw(st.integers(min_value=0, max_value=len(trees) - 1))]
    k = draw(st.integers(min_value=1, max_value=n - 1))
    return tree, k


class TestConfigs:
    def test_token_degree_star_center(self):
        g = star_graph(4)
        tg = build_token_graph(g, 2)
        # tokens on center and one leaf: edges to the three free leaves
        assert boundary_count(g, (0, 1)) == len(fk_neighbors(tg, (0, 1))) == 3
        # tokens on two leaves: each can only step to the center
        assert boundary_count(g, (1, 2)) == len(fk_neighbors(tg, (1, 2))) == 2


class TestTokenGraphShape:
    def test_two_tokens_on_p3(self):
        tg = build_token_graph(path_graph(3), 2)
        assert tg.vertices == ((0, 1), (0, 2), (1, 2))
        assert tg.edge_count == 2
        assert fk_neighbors(tg, (0, 1)) == ((0, 2),)

    def test_degree_sequence_p4(self):
        tg = build_token_graph(path_graph(4), 2)
        seq = sorted(m.bit_count() for m in tg.neighbor_masks)
        assert seq == [1, 1, 2, 2, 3, 3]

    def test_f1_is_the_base_graph(self):
        for g in (path_graph(5), cycle_graph(5), star_graph(4)):
            tg = build_token_graph(g, 1)
            assert tg.as_graph().edges == g.edges

    @given(tree_and_k())
    @settings(max_examples=60)
    def test_counting_formulas(self, tk):
        tree, k = tk
        tg = build_token_graph(tree, k)
        assert tg.n == comb(tree.n, k)
        assert tg.edge_count == comb(tree.n - 2, k - 1) * tree.edge_count

    @given(tree_and_k())
    @settings(max_examples=40)
    def test_degree_equals_boundary_count(self, tk):
        tree, k = tk
        tg = build_token_graph(tree, k)
        for cfg, m in zip(tg.vertices, tg.neighbor_masks):
            assert m.bit_count() == len(fk_neighbors(tg, cfg)) == boundary_count(tree, cfg)

    @given(tree_and_k(max_n=7))
    @settings(max_examples=40)
    def test_complement_is_an_isomorphism(self, tk):
        tree, k = tk
        n = tree.n
        a = build_token_graph(tree, k)
        b = build_token_graph(tree, n - k)
        mapped = {
            tuple(sorted((complement(u, n), complement(v, n))))
            for u in a.vertices
            for v in fk_neighbors(a, u)
        }
        actual = {
            tuple(sorted((u, v))) for u in b.vertices for v in fk_neighbors(b, u)
        }
        assert mapped == actual

    def test_min_token_degree(self):
        tree = path_graph(5)
        tg = build_token_graph(tree, 2)
        assert min_token_degree(tree, 2) == min(len(fk_neighbors(tg, v)) for v in tg.vertices)

    def test_materialization_guard(self):
        with pytest.raises(ValueError):
            build_token_graph(path_graph(40), 20)

    @pytest.mark.parametrize("k", [2.0, 1.5, "2", None, 0, 4])
    def test_token_count_must_be_an_int_in_range(self, k):
        # one check for both entry points: an int with 1 <= k <= n-1
        for call in (build_token_graph, min_token_degree):
            with pytest.raises(ValueError, match=r"need an int 1 <= k <= n-1, got k="):
                call(path_graph(4), k)

    def test_distance_bfs(self):
        tg = build_token_graph(path_graph(4), 2)
        dist = fk_distances(tg)
        assert dist[tg.vertices.index((0, 1))][tg.vertices.index((2, 3))] == 4
        assert dist[0][0] == 0

    def test_token_degree_rejects_bad_configurations(self):
        # unsorted, not a tuple, out of range, and k = n: each a ValueError
        # from both entry points, which share `checked_mask`
        tree = path_graph(4)
        for call in (lambda c: TokenPath(tree, c, ()), lambda c: normalize(tree, c, (0, 3), 1)):
            for cfg in ((1, 0), [0, 1], (0, 4), (-1, 0), (0, 1, 2, 3)):
                with pytest.raises(ValueError):
                    call(cfg)
            with pytest.raises(ValueError, match="not a sorted"):
                call((1, 0))

    @pytest.mark.parametrize("cfg", [([0], [1]), (0.0, 1.0), ("a", "b")])
    def test_non_int_entries_raise_value_error(self, cfg):
        # (0, 1) is checked first, and (0.0, 1.0) compares equal to it: no
        # earlier check may stand in for the check of a value that equals it
        tree = path_graph(4)
        assert normalize(tree, (0, 1), (0, 3), 1)[0].x_cfg == (0, 1)
        assert TokenPath(tree, (0, 1), ()).masks == (0b11,)
        for call in (lambda c: normalize(tree, c, (0, 3), 1), lambda c: TokenPath(tree, c, ()),
                     lambda c: build_family(tree, c, (2, 3), 1)):
            with pytest.raises(ValueError, match="vertex ints"):
                call(cfg)


class TestAgainstDefinition:
    """F_k rebuilt from sets: configurations are adjacent when their
    symmetric difference is a base edge, and listed in colex order, which
    compares two configurations by their largest differing vertex."""

    GRAPHS = [t for n in range(2, 9) for t in enumerate_trees(n)]
    GRAPHS += [cycle_graph(5), cycle_graph(6), complete_graph(5)]

    def test_token_graph_matches_definition(self):
        for g in self.GRAPHS:
            base_edges = {frozenset(e) for e in g.edges}
            for k in range(1, g.n):
                tg = build_token_graph(g, k)
                configs = sorted(combinations(range(g.n), k), key=lambda c: c[::-1])
                order = range(len(configs))
                near = [
                    {j for j in order if frozenset(configs[i]) ^ frozenset(configs[j]) in base_edges}
                    for i in order
                ]
                assert tg.vertices == tuple(configs)
                for i, cfg in enumerate(configs):
                    assert fk_neighbors(tg, cfg) == tuple(configs[j] for j in sorted(near[i]))
                edges = [(i, j) for i, j in combinations(order, 2) if j in near[i]]
                assert tg.as_graph() == Graph(len(configs), tuple(edges))
                expected = [
                    (i, j) for i, j in combinations(order, 2) if j not in near[i] and near[i] & near[j]
                ]
                assert list(tg.distance2_pairs()) == expected, (g, k)

    def test_connectivity_on_masks_matches_the_flattened_graph(self):
        # the oracles read a TokenGraph as it is; as_graph() is the Graph reference
        for g in self.GRAPHS:
            for k in range(1, g.n):
                tg = build_token_graph(g, k)
                fk = tg.as_graph()
                assert tg.neighbor_masks == list(fk.neighbor_masks)
                assert tg.cut_flags == fk.cut_flags
                assert tg.min_degree() == fk.min_degree(), (g, k)
                assert vertex_connectivity(tg) == vertex_connectivity(fk), (g, k)
                assert edge_connectivity(tg) == edge_connectivity(fk), (g, k)


def definition_masks(g, k):
    """The occupancy masks of the k-configurations of g in colex order, and
    per configuration the indices whose symmetric difference with it is a
    base edge, as a bitmask."""
    occs = [config_mask(c) for c in sorted(combinations(range(g.n), k), key=lambda c: c[::-1])]
    edges = {1 << u | 1 << v for u, v in g.edges}
    return occs, [sum(1 << j for j, b in enumerate(occs) if a ^ b in edges) for a in occs]


class TestPrefixMemo:
    """`build_token_graph` keeps the masks of one graph's prefixes between
    builds; a build for any other graph starts from an empty memo."""

    def test_interleaved_builds_match_a_cleared_memo(self):
        trees = enumerate_trees(6)
        bases = [trees[0], trees[-1], cycle_graph(6), bridged_cliques(4)]
        assert trees[0] != trees[-1]
        for _ in range(2):
            for k in (2, 3, 1, 4):
                for g in bases + bases[::-1]:
                    tg = build_token_graph(g, k)
                    tokens._memo.clear()
                    cold = build_token_graph(g, k)
                    assert (tg.occupancy, tg.neighbor_masks) == (cold.occupancy, cold.neighbor_masks)
                    assert (tg.occupancy, tg.neighbor_masks) == definition_masks(g, k), (g, k)

    def test_a_theorem_sweep_leaves_one_graph(self, capsys):
        assert main(["theorem", "--n-max", "9", "--json"]) == 0
        capsys.readouterr()
        last = enumerate_trees(9)[-1]
        assert list(tokens._memo) == [last.neighbor_masks]
        memo = tokens._memo[last.neighbor_masks]
        assert memo and all(j <= m <= 9 for m, j in memo)
        # every entry is F_j of a prefix of that tree, so nothing of another graph
        for (m, j), masks in memo.items():
            prefix = Graph(m, tuple((u, v) for u, v in last.edges if v < m))
            assert masks == definition_masks(prefix, j)[1], (m, j)


class TestBfsConnectivity:
    """`mask_connected`, which `TokenGraph.connected` caches, against the DFS
    and networkx on token graphs."""

    def test_every_fk_of_small_trees_and_girth5_graphs(self):
        bases = [t for n in range(2, 10) for t in enumerate_trees(n)]
        bases += [g for g in girth5_catalog(9) if g.edge_count >= g.n]  # the non-trees
        for g in bases:
            for k in range(1, g.n):
                tg = build_token_graph(g, k)
                h = nx.Graph(tg.as_graph().edges)
                h.add_nodes_from(range(tg.n))
                connected = mask_connected(tg.neighbor_masks)
                assert connected == mask_cut_flags(tg.neighbor_masks)[0] == nx.is_connected(h)
                assert tg.connected == connected, (g, k)

    def test_disconnected_token_graph(self):
        tg = build_token_graph(Graph(4, ((0, 1), (2, 3))), 2)
        assert mask_connected(tg.neighbor_masks) is False
        assert tg.connected is False
        assert vertex_connectivity(tg) == edge_connectivity(tg) == 0


class TestDistance2Pairs:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)])
    def test_pairs_match_bfs(self, n, k):
        for tree in enumerate_trees(n):
            tg = build_token_graph(tree, k)
            dist = fk_distances(tg)
            expected = {
                (tg.vertices[i], tg.vertices[j])
                for i, j in combinations(range(tg.n), 2)
                if dist[i].get(j) == 2
            }
            assert {(tg.vertices[i], tg.vertices[j]) for i, j in tg.distance2_pairs()} == expected

    def test_pairs_are_in_colex_order(self):
        tg = build_token_graph(path_graph(5), 2)
        pairs = list(tg.distance2_pairs())
        assert pairs == sorted(pairs)
        assert all(i < j for i, j in pairs)
        # colex order compares configurations by their largest differing vertex
        colex = [(tg.vertices[i][::-1], tg.vertices[j][::-1]) for i, j in pairs]
        assert colex == sorted(colex)
        assert [(tg.vertices[i], tg.vertices[j]) for i, j in pairs[:3]] == [
            ((0, 1), (1, 2)), ((0, 1), (0, 3)), ((0, 2), (1, 3))]


class TestClassify:
    def test_one_token_case(self):
        g = path_graph(4)
        assert classify(g, (0, 1), (0, 3)) == (1, 3, 2)

    def test_one_token_occupied_middle(self):
        # the common neighbour may carry a token; callers complement later
        g = path_graph(4)
        assert classify(g, (0, 1), (1, 2)) == (0, 2, 1)

    def test_two_token_case(self):
        g = path_graph(4)
        assert classify(g, (0, 2), (1, 3)) == (0, 1, 2, 3)

    def test_adjacent_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="adjacent"):
            classify(g, (0, 1), (0, 2))

    def test_identical_rejected(self):
        with pytest.raises(ValueError, match="distance 0"):
            classify(path_graph(4), (0, 1), (0, 1))

    def test_distance_exceeds_two(self):
        g = path_graph(6)
        with pytest.raises(ValueError, match="share no neighbour"):
            classify(g, (0, 1), (0, 4))
        with pytest.raises(ValueError, match="larger than 4"):
            classify(g, (0, 1, 2), (3, 4, 5))

    def test_no_matching_rejected(self):
        # second token needs two steps (3 to 5), so no slide matching exists
        g = path_graph(6)
        with pytest.raises(ValueError, match="no matching"):
            classify(g, (0, 3), (1, 5))

    def test_different_sizes_rejected(self):
        with pytest.raises(ValueError, match="different sizes"):
            classify(path_graph(4), (0, 1), (0, 1, 2))

    @given(tree_and_k(max_n=7))
    @settings(max_examples=40)
    def test_classification_agrees_with_bfs(self, tk):
        tree, k = tk
        tg = build_token_graph(tree, k)
        for i, j in tg.distance2_pairs():
            x_cfg, y_cfg = tg.vertices[i], tg.vertices[j]
            pair = classify(tree, x_cfg, y_cfg)
            shared = len(set(x_cfg) & set(y_cfg))
            if len(pair) == 3:
                x, y, v = pair
                assert shared == k - 1
                assert set(x_cfg) - set(y_cfg) == {x} and set(y_cfg) - set(x_cfg) == {y}
                assert v in tree.adjacency[x]
                assert y in tree.adjacency[v]
            else:
                x1, y1, x2, y2 = pair
                assert shared == k - 2
                assert set(x_cfg) - set(y_cfg) == {x1, x2} and x1 < x2
                assert set(y_cfg) - set(x_cfg) == {y1, y2}
                assert y1 in tree.adjacency[x1]
                assert y2 in tree.adjacency[x2]
