"""Tests for token paths, disjointness and trace conditions."""

from enum import IntEnum
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengraphs.graphs import Graph, cycle_graph, enumerate_trees, path_graph
from tokengraphs.moves import (
    CONDITION_IDS,
    TokenMove,
    TokenPath,
    check_trace,
    pairwise_internally_disjoint,
    trace_condition,
)

P4 = path_graph(4)
P5 = path_graph(5)
C4 = cycle_graph(4)


class TestTokenPath:
    def test_replay_example(self):
        p = TokenPath(P4, (0, 1), ((1, 2), (2, 3)))
        assert p.configs == ((0, 1), (0, 2), (0, 3))
        assert p.start == (0, 1)
        assert p.end == (0, 3)
        assert p.inner == ((0, 2),)
        assert p.length == 2
        assert p.k == 2

    def test_moves_coerced_to_tokenmove(self):
        p = TokenPath(P4, (0, 1), ((1, 2),))
        assert p.moves == (TokenMove(1, 2),)
        assert isinstance(p.moves[0], TokenMove)

    def test_empty_path(self):
        p = TokenPath(P4, (1, 2), ())
        assert p.configs == ((1, 2),)
        assert p.end == p.start
        assert p.inner == ()
        assert p.length == 0

    def test_no_token_at_source(self):
        with pytest.raises(ValueError, match="no token at 2"):
            TokenPath(P4, (0, 1), ((2, 3),))

    def test_target_occupied(self):
        with pytest.raises(ValueError, match="target 1 occupied"):
            TokenPath(P4, (0, 1), ((0, 1),))

    def test_not_a_base_edge(self):
        with pytest.raises(ValueError, match="0-2 is not a base edge"):
            TokenPath(P4, (0, 1), ((0, 2),))

    @pytest.mark.parametrize("move, message", [
        ((-1, 1), "move 1: no token at -1 in (0, 2)"),
        ((-2, -5), "move 1: no token at -2 in (0, 2)"),
        ((4, 3), "move 1: no token at 4 in (0, 2)"),
        ((2, 0), "move 1: target 0 occupied in (0, 2)"),
        ((2, -1), "move 1: 2--1 is not a base edge"),
        ((2, 4), "move 1: 2-4 is not a base edge"),
        ((0, 3), "move 1: 0-3 is not a base edge"),
    ])
    def test_rejected_move_is_worded_by_its_first_failed_check(self, move, message):
        # negative and out-of-range vertices are rejected before any shift or lookup
        with pytest.raises(ValueError) as info:
            TokenPath(P4, (0, 1), ((1, 2), move))
        assert str(info.value) == message

    def test_repeated_configuration(self):
        with pytest.raises(ValueError, match="repeats"):
            TokenPath(P4, (0, 1), ((1, 2), (2, 1)))

    def test_error_indexes_offending_move(self):
        with pytest.raises(ValueError, match="move 1:"):
            TokenPath(P4, (0, 1), ((1, 2), (1, 0)))

    def test_start_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            TokenPath(P4, (1, 0), ())

    def test_start_must_fit_graph(self):
        with pytest.raises(ValueError, match="out of range"):
            TokenPath(P4, (0, 9), ())


class Side(IntEnum):
    LEFT = 1
    RIGHT = 2


class TestConstructionContract:
    """Starts are checked per graph size and moves always come out as int TokenMoves."""

    def test_start_accepted_on_a_larger_graph_is_rejected_on_a_smaller_one(self):
        P8 = path_graph(8)
        assert TokenPath(P8, (0, 6), ()).masks == (0b1000001,)
        with pytest.raises(ValueError, match=r"configuration \(0, 6\) out of range for n=4"):
            TokenPath(P4, (0, 6), ())
        assert TokenPath(P5, (0, 1, 2, 3), ()).k == 4
        with pytest.raises(ValueError, match="need 1 <= k <= n-1 tokens, got k=4 with n=4"):
            TokenPath(P4, (0, 1, 2, 3), ())

    def test_rejections_repeat(self):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"configuration \(1, 0\) is not a sorted"):
                TokenPath(P4, (1, 0), ())

    def test_unhashable_start_and_moves(self):
        with pytest.raises(ValueError, match=r"configuration \[0, 1\] is not a sorted"):
            TokenPath(P4, [0, 1], ())
        p = TokenPath(P4, (0, 1), [[1, 2], [2, 3]])
        assert p.moves == (TokenMove(1, 2), TokenMove(2, 3))

    @pytest.mark.parametrize(
        "moves",
        [
            ((1, 2), (2, 3)),
            (TokenMove(1, 2), TokenMove(2, 3)),
            ((True, Side.RIGHT), (Side.RIGHT, 3)),
            (TokenMove(Side.LEFT, 2), (2, 3)),
            iter([(1, 2), (2, 3)]),
        ],
    )
    def test_move_spellings_give_equal_paths(self, moves):
        p = TokenPath(P4, (0, 1), moves)
        assert p == TokenPath(P4, (0, 1), ((1, 2), (2, 3)))
        assert all(type(m) is TokenMove for m in p.moves)
        assert all(type(v) is int for m in p.moves for v in m)
        assert p.configs == ((0, 1), (0, 2), (0, 3))


class TestPairwiseDisjoint:
    def test_disjoint_pair(self):
        a = TokenPath(C4, (0, 1), ((1, 2), (0, 3)))
        b = TokenPath(C4, (0, 1), ((0, 3), (1, 2)))
        assert a.end == b.end == (2, 3)
        assert a.inner == ((0, 2),) and b.inner == ((1, 3),)
        assert pairwise_internally_disjoint([a, b]) == (True, None)

    def test_overlap_reports_first_pair(self):
        a = TokenPath(C4, (0, 1), ((1, 2), (0, 3)))
        b = TokenPath(C4, (0, 1), ((0, 3), (1, 2)))
        c = TokenPath(C4, (0, 1), ((1, 2), (0, 3)))
        ok, clash = pairwise_internally_disjoint([a, b, c])
        assert not ok
        assert clash == (0, 2)

    def test_endpoint_mismatch_raises(self):
        a = TokenPath(C4, (0, 1), ((1, 2), (0, 3)))
        d = TokenPath(C4, (0, 1), ((1, 2),))
        with pytest.raises(ValueError, match="endpoint mismatch"):
            pairwise_internally_disjoint([a, d])

    def test_trivial_inputs(self):
        assert pairwise_internally_disjoint([]) == (True, None)
        a = TokenPath(C4, (0, 1), ((1, 2), (0, 3)))
        assert pairwise_internally_disjoint([a]) == (True, None)


# A 5-vertex tree shaped for exchange-style paths: 1 is the hub, with the
# shared token at 0, the free side vertex at 4, and the corridor 1-2-3.
EXCHANGE_TREE = Graph(5, ((0, 1), (1, 2), (2, 3), (1, 4)))


class TestTraceConditions:
    def test_condition_table_is_complete(self):
        assert CONDITION_IDS == (
            "C1", "C2", "C2.1", "C2.2", "C3", "C4", "C5",
            "D1", "D2", "D3", "D4", "D3*", "D4*",
            "E1", "E2", "E3", "E4",
        )
        assert len(CONDITION_IDS) == 17

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown trace condition"):
            trace_condition("C9")

    def test_slot_mismatch_rejected(self):
        with pytest.raises(ValueError, match="needs slots"):
            trace_condition("C2", w=3)
        with pytest.raises(ValueError, match="needs slots"):
            trace_condition("C3", z=0)
        with pytest.raises(ValueError, match="needs slots"):
            trace_condition("C1", z=0)

    def test_vertex_lookup(self):
        cond = trace_condition("D2", z=5, w=7)
        assert cond.vertex("z") == 5
        assert cond.vertex("w") == 7
        with pytest.raises(KeyError):
            cond.vertex("q")

    def test_undisturbed_passage(self):
        # both tokens of Z stay put and the free region is never touched
        ctx = SimpleNamespace(z=frozenset({0}), w_region=frozenset())
        p = TokenPath(P4, (0, 1), ((1, 2), (2, 3)))
        assert check_trace(p, trace_condition("C1"), ctx)

    def test_undisturbed_fails_when_shared_token_moves(self):
        ctx = SimpleNamespace(z=frozenset({0}), w_region=frozenset())
        p = TokenPath(C4, (0, 1), ((0, 3), (1, 2)))
        assert not check_trace(p, trace_condition("C1"), ctx)

    def test_single_displacement_condition(self):
        # every interior configuration must be missing exactly the bound token
        ctx = SimpleNamespace(z=frozenset({0}), w_region=frozenset({3}))
        p = TokenPath(C4, (0, 1), ((0, 3), (1, 2)))
        assert check_trace(p, trace_condition("C2", z=0), ctx)
        assert not check_trace(p, trace_condition("C2", z=1), ctx)

    def test_exchange_condition_holds_on_exchange_path(self):
        # hub token visits 4 while the shared token at 0 takes its place
        moves = ((1, 4), (0, 1), (1, 2), (2, 3), (4, 1), (1, 0))
        p = TokenPath(EXCHANGE_TREE, (0, 1), moves)
        assert p.end == (0, 3)
        ctx = SimpleNamespace(z=frozenset({0}), w_region=frozenset({4}))
        assert check_trace(p, trace_condition("C3", z=0, w=4), ctx)

    def test_exchange_condition_forbids_undisturbed_interior(self):
        # a plain slide never disturbs anything, which the exchange shape bans
        ctx = SimpleNamespace(z=frozenset({0}), w_region=frozenset({4}))
        p = TokenPath(EXCHANGE_TREE, (0, 1), ((1, 2), (2, 3)))
        assert not check_trace(p, trace_condition("C3", z=0, w=4), ctx)

    def test_double_displacement_condition(self):
        ctx = SimpleNamespace(z=frozenset({0, 1}), w_region=frozenset())
        p = TokenPath(P4, (0, 1), ((1, 2), (0, 1), (2, 3)))
        assert p.inner == ((0, 2), (1, 2))
        assert check_trace(p, trace_condition("C5", z1=0, z2=1), ctx)

    def test_region_violation_detected(self):
        # an interior configuration parks a token on the watched free vertex
        ctx = SimpleNamespace(z=frozenset({0, 1}), w_region=frozenset({3}))
        p = TokenPath(P4, (0, 1), ((1, 2), (2, 3), (0, 1)))
        assert p.inner == ((0, 2), (0, 3))
        assert not check_trace(p, trace_condition("C5", z1=0, z2=1), ctx)

    def test_parked_interior_condition(self):
        # every interior configuration occupies exactly the bound free vertex
        ctx = SimpleNamespace(z=frozenset({0}), w_region=frozenset({1}))
        p = TokenPath(P5, (0, 3), ((0, 1), (3, 4), (1, 0)))
        assert check_trace(p, trace_condition("C2.1", w=1), ctx)
        assert not check_trace(p, trace_condition("C1"), ctx)


@st.composite
def tree_route_start(draw):
    """A tree, the unique base path between two vertices, and a start config."""
    n = draw(st.integers(min_value=3, max_value=8))
    trees = enumerate_trees(n)
    g = trees[draw(st.integers(min_value=0, max_value=len(trees) - 1))]
    head = draw(st.integers(min_value=0, max_value=n - 1))
    tail = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda v: v != head))
    # unique tree path via parent pointers from a BFS rooted at head
    parent = {head: None}
    frontier = [head]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w not in parent:
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    route = [tail]
    while route[-1] != head:
        route.append(parent[route[-1]])
    route.reverse()
    spare = sorted(set(range(n)) - set(route))
    extra = draw(st.sets(st.sampled_from(spare), max_size=len(spare)) if spare else st.just(set()))
    start = tuple(sorted({head} | extra))
    return g, tuple(route), start


class TestLiftProperties:
    """One token slid along a tree route through free vertices."""

    @given(tree_route_start())
    @settings(max_examples=120, deadline=None)
    def test_lift_moves_one_token_between_endpoints(self, case):
        g, route, start = case
        p = TokenPath(g, start, tuple(zip(route, route[1:])))
        assert p.length == len(route) - 1
        expect = tuple(sorted(set(start) - {route[0]} | {route[-1]}))
        assert p.end == expect
        # every visited configuration keeps the bystanders fixed
        bystanders = set(start) - {route[0]}
        for cfg in p.configs:
            assert bystanders <= set(cfg)

    @given(tree_route_start())
    @settings(max_examples=120, deadline=None)
    def test_reversed_moves_walk_the_path_backwards(self, case):
        g, route, start = case
        p = TokenPath(g, start, tuple(zip(route, route[1:])))
        back = TokenPath(g, p.end, tuple(TokenMove(d, s) for s, d in reversed(p.moves)))
        assert back.configs == p.configs[::-1]


def set_replay(g, start, moves):
    """Reference replay on Python sets: the visited configurations, or the error text."""
    edges = set(g.edges)
    occupied = set(start)
    configs = [tuple(start)]
    for step, (src, dst) in enumerate(moves):
        if src not in occupied:
            return f"move {step}: no token at {src} in {tuple(sorted(occupied))}"
        if dst in occupied:
            return f"move {step}: target {dst} occupied in {tuple(sorted(occupied))}"
        if (min(src, dst), max(src, dst)) not in edges:
            return f"move {step}: {src}-{dst} is not a base edge"
        occupied = occupied - {src} | {dst}
        cfg = tuple(sorted(occupied))
        if cfg in configs:
            return f"move {step}: configuration {cfg} repeats, path not simple"
        configs.append(cfg)
    return tuple(configs)


@st.composite
def tree_start_moves(draw):
    """A tree, a start configuration, and moves that are mostly admissible slides."""
    n = draw(st.integers(min_value=2, max_value=8))
    trees = enumerate_trees(n)
    g = trees[draw(st.integers(min_value=0, max_value=len(trees) - 1))]
    start = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))))
    occupied = set(start)
    seen = {start}
    moves = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        slides = sorted((u, w) for u in occupied for w in g.neighbors(u) if w not in occupied)
        fresh = [(u, w) for u, w in slides if tuple(sorted(occupied - {u} | {w})) not in seen]
        kind = draw(st.integers(0, 4))  # 0: any pair, 1: any slide, else an unseen one
        pool = slides if kind == 1 else fresh
        if kind and pool:
            src, dst = draw(st.sampled_from(pool))
            occupied = occupied - {src} | {dst}
            seen.add(tuple(sorted(occupied)))
        else:
            src, dst = draw(st.integers(-1, n)), draw(st.integers(-1, n))
        moves.append((src, dst))
    return g, start, tuple(moves)


class TestMaskReplay:
    @given(tree_start_moves())
    @settings(max_examples=300, deadline=None)
    def test_matches_set_replay(self, case):
        g, start, moves = case
        expect = set_replay(g, start, moves)
        if isinstance(expect, str):
            with pytest.raises(ValueError) as info:
                TokenPath(g, start, moves)
            assert str(info.value) == expect
            return
        p = TokenPath(g, start, moves)
        assert p.configs == expect
        assert p.inner == expect[1:-1]
        assert p.end == expect[-1]
        assert p.masks == tuple(sum(1 << v for v in cfg) for cfg in expect)
