"""Base graph layer: parsing, canonical trees, girth, generators."""

import math
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengraphs import graphs as graphs_module
from tokengraphs.connectivity import edge_connectivity, vertex_connectivity
from tokengraphs.graphs import (
    Graph,
    Graph6Error,
    bridged_cliques,
    complete_graph,
    cycle_graph,
    emit_graph6,
    enumerate_trees,
    girth,
    mask_connected,
    mask_cut_flags,
    orbit_firsts,
    parse_graph6,
    path_graph,
    star_graph,
    tree_automorphism_generators,
    tree_canonical_form,
)
from tokengraphs.tokens import build_token_graph

# free trees per vertex count, n = 1..12
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]

PETERSEN_EDGES = (
    (0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7),
    (3, 4), (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9),
)


def canonical_relabel(g: Graph) -> Graph:
    """Reference labels of a tree: preorder from the centroid of least AHU code,
    children in code order; the centroids are found by deleting each vertex."""
    adj = g.adjacency

    def code(u: int, p: int) -> str:
        return "(" + "".join(sorted(code(c, u) for c in adj[u] if c != p)) + ")"

    def heaviest_branch(u: int) -> int:
        h = nx_of(g)
        h.remove_node(u)
        return max((len(c) for c in nx.connected_components(h)), default=0)

    branch = [heaviest_branch(u) for u in range(g.n)]
    root = min((u for u in range(g.n) if branch[u] == min(branch)), key=lambda c: code(c, -1))
    new_id: dict[int, int] = {}

    def visit(u: int, p: int) -> None:
        new_id[u] = len(new_id)
        for c in sorted((c for c in adj[u] if c != p), key=lambda c: code(c, u)):
            visit(c, u)

    visit(root, -1)
    return Graph(g.n, tuple((new_id[u], new_id[v]) for u, v in g.edges))


def petersen() -> Graph:
    return Graph(10, PETERSEN_EDGES)


def nx_of(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


# strategy: a random simple graph as (n, edge set)
@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph(n, tuple(edges))


class TestGraphBasics:
    def test_edge_normalisation(self):
        g = Graph(3, ((2, 1), (1, 2), (0, 1)))
        assert g.edges == ((0, 1), (1, 2))
        assert g.edge_count == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 3),))

    @pytest.mark.parametrize("n,edges,message", [
        (3, ((0.0, 1),), "int"), (3, ((0, 1.0),), "int"), (3.0, ((0, 1),), "int"),
        ("3", (), "int"), (3, (("0", 1),), "int"),
        (3, (1, 2), "^edge 1 is not a pair of vertex ints$"),
        (3, ((0, 1, 2),), r"^edge \(0, 1, 2\) is not a pair"),
        (3, ((0,),), r"^edge \(0,\) is not a pair"),
        (3, (None,), "^edge None is not a pair"),
        (3, 5, "^edges 5 is not a collection of vertex pairs$"),
        (3, None, "^edges None is not a collection"),
    ], ids=["float-u", "float-v", "float-n", "str-n", "str-u",
            "bare-int-edge", "triple-edge", "single-edge", "none-edge",
            "int-edges", "none-edges"])
    def test_rejects_non_int_input(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph(n, edges)

    def test_degrees(self):
        g = star_graph(3)
        assert g.neighbor_masks[0] == 0b1110
        assert g.min_degree() == 1
        assert sorted(g.adjacency[0]) == [1, 2, 3]

    def test_connectivity_flags(self):
        assert path_graph(4).connected
        assert not Graph(4, ((0, 1), (2, 3))).connected
        assert path_graph(4).is_tree()
        assert not cycle_graph(4).is_tree()
        assert complete_graph(4).is_complete()
        assert not path_graph(4).is_complete()


class TestOneDfs:
    """`mask_connected` and `mask_cut_flags`, which `MaskGraph.connected` and
    `MaskGraph.cut_flags` cache, and the mask-based degree reads against networkx."""

    @pytest.fixture(scope="class")
    def small_graphs(self):
        # every graph with 1 <= n <= 7, then the edgeless graphs on 1 and 2 vertices
        pairs = [(h, Graph(h.number_of_nodes(), tuple(h.edges()))) for h in nx.graph_atlas_g()[1:]]
        pairs += [(nx.empty_graph(n), Graph(n, ())) for n in (1, 2)]
        return pairs

    def test_flags_match_networkx(self, small_graphs):
        connected_count = 0
        for h, g in small_graphs:
            connected, cut_vertex, bridge = mask_cut_flags(g.neighbor_masks)
            assert g.cut_flags == (connected, cut_vertex, bridge)
            assert connected == nx.is_connected(h) == g.connected, h.edges
            assert mask_connected(g.neighbor_masks) == connected, h.edges
            if connected:
                connected_count += 1
                assert cut_vertex == any(True for _ in nx.articulation_points(h)), h.edges
                assert bridge == nx.has_bridges(h), h.edges
        assert connected_count == 996 + 1  # the atlas for n = 1..7, then Graph(1, ())

    def test_null_graph_is_connected(self):
        assert mask_connected(()) is True
        assert mask_cut_flags(()) == (True, False, False)
        assert Graph(0, ()).cut_flags == (True, False, False)
        assert Graph(0, ()).connected

    @staticmethod
    def count_searches(monkeypatch) -> Counter:
        """Count the BFS and DFS runs that `connected` and `cut_flags` make."""
        calls: Counter = Counter()

        def counted(name, fn):
            def wrapper(masks):
                calls[name] += 1
                return fn(masks)
            return wrapper

        monkeypatch.setattr(graphs_module, "mask_connected", counted("bfs", mask_connected))
        monkeypatch.setattr(graphs_module, "mask_cut_flags", counted("dfs", mask_cut_flags))
        return calls

    def test_dfs_runs_once_per_graph(self, monkeypatch):
        # the BFS decides connectivity and settles delta = 1; the DFS alone
        # decides when delta >= 2, and each cached answer is computed once
        calls = self.count_searches(monkeypatch)
        g = cycle_graph(5)
        assert g.connected and g.connected
        assert "cut_flags" not in vars(g) and calls == {"bfs": 1}

        tg = build_token_graph(path_graph(5), 2)
        assert tg.min_degree() == 1
        assert vertex_connectivity(tg) == edge_connectivity(tg) == 1
        assert "cut_flags" not in vars(tg) and "_min_degree" in vars(tg)
        assert calls == {"bfs": 2}

        fk = build_token_graph(cycle_graph(5), 2)
        assert vertex_connectivity(fk) == edge_connectivity(fk) == fk.min_degree() == 2
        assert fk.cut_flags is fk.cut_flags
        assert calls == {"bfs": 2, "dfs": 1}

    def test_dfs_settles_a_disconnected_graph(self, monkeypatch):
        # two disjoint 5-cycles: delta = 2, so the DFS runs and finds the
        # second cycle unreached, and no BFS runs
        calls = self.count_searches(monkeypatch)
        c5 = cycle_graph(5).edges
        g = Graph(10, c5 + tuple((u + 5, v + 5) for u, v in c5))
        assert g.min_degree() == 2
        assert vertex_connectivity(g) == edge_connectivity(g) == 0
        assert calls == {"dfs": 1}

    def test_mask_reads_match_adjacency(self, small_graphs):
        for _, g in small_graphs:
            adj = g.adjacency
            assert g.min_degree() == min(len(a) for a in adj)
            for v in range(g.n):
                assert g.neighbor_masks[v].bit_count() == len(adj[v])
                for w in range(g.n):
                    assert bool(g.neighbor_masks[v] >> w & 1) is (w in adj[v])


class TestGraph6:
    # strings produced independently by networkx for the same labelings
    FROZEN = [
        ("A_", complete_graph(2)),
        ("Bg", path_graph(3)),
        ("Ch", path_graph(4)),
        ("Cs", star_graph(3)),
        ("Dhc", cycle_graph(5)),
        ("C~", complete_graph(4)),
        ("DhC", path_graph(5)),
        ("F~~~w", complete_graph(7)),
        ("B?", Graph(3, ())),
        ("IheA@GUAo", petersen()),
    ]

    @pytest.mark.parametrize("text,graph", FROZEN)
    def test_parse_frozen(self, text, graph):
        assert parse_graph6(text) == graph

    @pytest.mark.parametrize("text,graph", FROZEN)
    def test_emit_frozen(self, text, graph):
        assert emit_graph6(graph) == text

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<Bg") == path_graph(3)

    def test_empty_payload(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("")
        assert err.value.offset == 0

    def test_byte_out_of_range(self):
        with pytest.raises(Graph6Error):
            parse_graph6("B\x1f")

    def test_truncated_bits(self):
        # C needs one data byte for 6 bits; none supplied
        with pytest.raises(Graph6Error):
            parse_graph6("C")

    def test_trailing_bytes(self):
        with pytest.raises(Graph6Error):
            parse_graph6("BgW")

    def test_nonzero_padding(self):
        # P3 uses 3 of 6 data bits; set a padding bit
        with pytest.raises(Graph6Error):
            parse_graph6("Bh")

    def test_multibyte_order_unsupported(self):
        with pytest.raises(Graph6Error):
            parse_graph6("~??")

    def test_emit_rejects_large(self):
        with pytest.raises(ValueError):
            emit_graph6(Graph(63, ()))

    @given(graphs())
    def test_round_trip(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    @given(graphs())
    @settings(max_examples=60)
    def test_emit_matches_networkx(self, g):
        expected = nx.to_graph6_bytes(nx_of(g), header=False).decode().strip()
        assert emit_graph6(g) == expected

    @given(graphs())
    @settings(max_examples=60)
    def test_parse_matches_networkx(self, g):
        text = nx.to_graph6_bytes(nx_of(g), header=False).decode().strip()
        assert parse_graph6(text) == g


class TestDistanceGirth:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete_graph(3), 3),
            (complete_graph(4), 3),
            (cycle_graph(5), 5),
            (cycle_graph(6), 6),
            (petersen(), 5),
            (path_graph(5), math.inf),
            (star_graph(4), math.inf),
            (bridged_cliques(4), 3),
        ],
    )
    def test_girth_frozen(self, g, expected):
        assert girth(g) == expected

    @given(graphs())
    @settings(max_examples=60)
    def test_girth_matches_networkx(self, g):
        h = nx_of(g)
        try:
            expected = nx.girth(h)
        except Exception:  # pragma: no cover - very old networkx
            pytest.skip("nx.girth unavailable")
        assert girth(g) == expected

    @given(graphs())
    @settings(max_examples=40)
    def test_edge_removal_never_shrinks_girth(self, g):
        base = girth(g)
        for e in g.edges:
            reduced = Graph(g.n, tuple(x for x in g.edges if x != e))
            assert girth(reduced) >= base


class TestTrees:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_counts(self, n):
        assert len(enumerate_trees(n)) == TREE_COUNTS[n - 1]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_counts_match_networkx(self, n):
        assert len(enumerate_trees(n)) == sum(1 for _ in nx.nonisomorphic_trees(n))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_are_trees_and_distinct(self, n):
        trees = enumerate_trees(n)
        assert all(t.n == n and t.is_tree() for t in trees)
        forms = {tree_canonical_form(t) for t in trees}
        assert len(forms) == len(trees)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_prufer_closure(self, n):
        # every labeled tree's canonical form appears in the enumeration
        listed = {tree_canonical_form(t) for t in enumerate_trees(n)}
        if n == 2:
            seen = {tree_canonical_form(path_graph(2))}
        else:
            seen = set()
            for code in range(n ** (n - 2)):
                seq = []
                c = code
                for _ in range(n - 2):
                    seq.append(c % n)
                    c //= n
                t = nx.from_prufer_sequence(seq)
                seen.add(tree_canonical_form(Graph(n, tuple(t.edges()))))
        assert seen == listed

    def test_memoised_levels_match_a_fresh_regrowth(self):
        # grown here from n = 1 for every n, from first-seen labels, then relabelled
        level = {tree_canonical_form(Graph(1, ())): Graph(1, ())}
        for n in range(2, 12):
            grown = {}
            for t in level.values():
                for v in range(t.n):
                    cand = Graph(n, t.edges + ((v, n - 1),))
                    grown.setdefault(tree_canonical_form(cand), cand)
            level = grown
            fresh = [canonical_relabel(level[key]) for key in sorted(level)]
            assert enumerate_trees(n) == fresh
            assert enumerate_trees(n) is not enumerate_trees(n)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_trees(0)
        with pytest.raises(ValueError):
            enumerate_trees(14)

    @given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_canonical_form_is_invariant(self, n, rng):
        tree = rng.choice(enumerate_trees(n))
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Graph(n, tuple((perm[u], perm[v]) for u, v in tree.edges))
        assert tree_canonical_form(relabeled) == tree_canonical_form(tree)


def generated_group(gens, n):
    """Every composition of the given vertex maps, the identity included."""
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(g[v] for v in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def self_isomorphisms(g):
    matcher = nx.algorithms.isomorphism.GraphMatcher(nx_of(g), nx_of(g))
    return {tuple(m[v] for v in range(g.n)) for m in matcher.isomorphisms_iter()}


class TestAutomorphismGenerators:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_generate_every_automorphism(self, n):
        for tree in enumerate_trees(n):
            gens = tree_automorphism_generators(tree)
            assert all(sorted(p) == list(range(n)) for p in gens)
            assert generated_group(gens, n) == self_isomorphisms(tree), emit_graph6(tree)

    @pytest.mark.parametrize("tree, order", [
        (Graph(1, ()), 1),
        (path_graph(2), 2),
        (path_graph(7), 2),
        (path_graph(8), 2),
        (star_graph(5), 120),
        (Graph(6, ((3, 0), (3, 5), (5, 1), (5, 2), (3, 4))), 8),  # a labelled double star
    ])
    def test_small_and_labelled(self, tree, order):
        group = generated_group(tree_automorphism_generators(tree), tree.n)
        assert group == self_isomorphisms(tree)
        assert len(group) == order

    @pytest.mark.parametrize("n", range(1, 8))
    def test_generate_every_automorphism_keeping_a_marked_set(self, n):
        for tree in enumerate_trees(n):
            isos = self_isomorphisms(tree)
            for size in range(n // 2 + 1):
                for marked in combinations(range(n), size):
                    gens = tree_automorphism_generators(tree, sum(1 << v for v in marked))
                    keeping = {p for p in isos if {p[v] for v in marked} == set(marked)}
                    assert generated_group(gens, n) == keeping, (emit_graph6(tree), marked)

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError):
            tree_automorphism_generators(cycle_graph(4))


def pair_key_maps(gens, n):
    """Each vertex map as a map of the keys lo * n + hi of unordered pairs."""
    def key(a, b):
        return a * n + b if a < b else b * n + a

    return [{key(a, b): key(p[a], p[b]) for a, b in combinations(range(n), 2)} for p in gens]


class TestPairOrbits:
    """`orbit_firsts` on the keys of unordered vertex pairs, as `paths` folds its pairs."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_passes_the_first_pair_of_each_orbit(self, n):
        for tree in enumerate_trees(n):
            gens = tree_automorphism_generators(tree)
            group = generated_group(gens, n)
            pairs = list(combinations(range(n), 2))
            # in lexicographic order, an orbit's first pair is its least
            least = {min(tuple(sorted((p[a], p[b]))) for p in group) for a, b in pairs}
            firsts = orbit_firsts([a * n + b for a, b in pairs], pair_key_maps(gens, n))
            assert firsts == sorted(a * n + b for a, b in least), emit_graph6(tree)

    def test_pairs_are_unordered(self):
        # swapping 0 and 1 keeps the pair {0, 1} and exchanges {0, 2} and {1, 2}
        maps = pair_key_maps([(1, 0, 2)], 3)
        assert maps == [{1: 1, 2: 5, 5: 2}]
        # the first point of an orbit in the order given stands for it
        assert orbit_firsts([5, 1, 2], maps) == [5, 1]

    def test_no_maps_passes_every_pair(self):
        assert orbit_firsts([3, 0, 1], []) == [3, 0, 1]

    def test_orbit_may_leave_the_points(self):
        # the swaps (0 1) and (1 2) reach 2 from 0 only through 1, which is
        # not listed: 2 is still in the orbit of 0, so it is skipped
        assert orbit_firsts([0, 2], [(1, 0, 2), (0, 2, 1)]) == [0]
        assert orbit_firsts([0, 2], [(1, 0, 2)]) == [0, 2]


class TestGenerators:
    def test_shapes(self):
        assert path_graph(5).edge_count == 4
        assert cycle_graph(5).edge_count == 5
        assert complete_graph(5).edge_count == 10
        assert star_graph(4).edge_count == 4

    def test_bridged_cliques(self):
        h = bridged_cliques(4)
        assert h.n == 8
        assert h.edge_count == 2 * 6 + 1
        assert 4 in h.adjacency[0]
        assert h.connected
