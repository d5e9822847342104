"""Tests for token paths, disjointness and trace conditions."""

from enum import IntEnum
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fk import cycle_graph, path_graph
from tokengraphs.families import _SLOTS, TraceCondition, check_trace
from tokengraphs.graphs import Graph, enumerate_trees
from tokengraphs.moves import TokenPath, pairwise_internally_disjoint

P4 = path_graph(4)
P5 = path_graph(5)
C4 = cycle_graph(4)


def mask_stub(z, region):
    """A trace context holding only the occupancy masks of Z and the W region."""
    return SimpleNamespace(z_mask=sum(1 << v for v in z), region_mask=sum(1 << v for v in region))


class TestTokenPath:
    def test_replay_example(self):
        p = TokenPath(P4, (0, 1), ((1, 2), (2, 3)))
        assert p.configs == ((0, 1), (0, 2), (0, 3))
        assert p.start == (0, 1)
        assert p.masks == (0b11, 0b101, 0b1001)

    def test_moves_stored_as_pairs(self):
        p = TokenPath(P4, (0, 1), [[1, 2]])
        assert p.moves == ((1, 2),)
        assert type(p.moves[0]) is tuple

    def test_empty_path(self):
        p = TokenPath(P4, (1, 2), ())
        assert p.configs == ((1, 2),)
        assert p.masks == (0b110,)
        assert p.moves == ()

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
        ((1.5, 2.9), "move 1: ends 1.5, 2.9 are not both vertex ints"),
        (("1", "2"), "move 1: ends '1', '2' are not both vertex ints"),
        ((1, 2.7), "move 1: ends 1, 2.7 are not both vertex ints"),
        ((2.0, 3), "move 1: ends 2.0, 3 are not both vertex ints"),
        ((2, None), "move 1: ends 2, None are not both vertex ints"),
        (5, "move 1: 5 is not a pair of vertex ints"),
        ((0, 1, 2), "move 1: (0, 1, 2) is not a pair of vertex ints"),
        ((2,), "move 1: (2,) is not a pair of vertex ints"),
        (None, "move 1: None is not a pair of vertex ints"),
    ])
    def test_rejected_move_is_worded_by_its_first_failed_check(self, move, message):
        # negative and out-of-range vertices are rejected before any shift or
        # lookup, and ends that are not ints are never truncated to a vertex:
        # (2.0, 3) would replay as the admissible move (2, 3)
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
    """Starts are checked per graph size, and moves are vertex-int pairs, stored as tuples."""

    def test_start_accepted_on_a_larger_graph_is_rejected_on_a_smaller_one(self):
        P8 = path_graph(8)
        assert TokenPath(P8, (0, 6), ()).masks == (0b1000001,)
        with pytest.raises(ValueError, match=r"configuration \(0, 6\) out of range for n=4"):
            TokenPath(P4, (0, 6), ())
        assert TokenPath(P5, (0, 1, 2, 3), ()).masks == (0b1111,)
        with pytest.raises(ValueError, match="need 1 <= k <= n-1 tokens, got k=4 with n=4"):
            TokenPath(P4, (0, 1, 2, 3), ())

    def test_rejections_repeat(self):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"configuration \(1, 0\) is not a sorted"):
                TokenPath(P4, (1, 0), ())

    def test_unhashable_start_and_moves(self):
        for start, shown in (([0, 1], r"\[0, 1\]"), (5, "5"), (None, "None")):
            with pytest.raises(ValueError, match=f"configuration {shown} is not a sorted"):
                TokenPath(P4, start, ())
        p = TokenPath(P4, (0, 1), [[1, 2], [2, 3]])
        assert p.moves == ((1, 2), (2, 3))
        for moves in (7, None):
            with pytest.raises(ValueError, match=f"^moves {moves} is not a collection of moves$"):
                TokenPath(P4, (0, 1), moves)

    @pytest.mark.parametrize("bad", [5, (0, 1, 2), (1.5, 2)])
    def test_an_earlier_inadmissible_move_is_named_first(self, bad):
        with pytest.raises(ValueError, match="^move 0: no token at 2 in"):
            TokenPath(P4, (0, 1), ((2, 3), bad))

    @pytest.mark.parametrize(
        "moves",
        [
            ((1, 2), (2, 3)),
            [[1, 2], [2, 3]],
            ((True, Side.RIGHT), (Side.RIGHT, 3)),
            ((Side.LEFT, 2), [2, 3]),
            iter([(1, 2), (2, 3)]),
        ],
    )
    def test_move_spellings_give_equal_paths(self, moves):
        p = TokenPath(P4, (0, 1), moves)
        assert p == TokenPath(P4, (0, 1), ((1, 2), (2, 3)))
        assert p.moves == ((1, 2), (2, 3))
        assert all(type(m) is tuple for m in p.moves)
        assert p.configs == ((0, 1), (0, 2), (0, 3))


class TestPairwiseDisjoint:
    """The check reads the occupancy-mask walks of paths."""

    def test_disjoint_pair(self):
        a = TokenPath(C4, (0, 1), ((1, 2), (0, 3)))
        b = TokenPath(C4, (0, 1), ((0, 3), (1, 2)))
        assert a.configs[-1] == b.configs[-1] == (2, 3)
        assert a.configs[1:-1] == ((0, 2),) and b.configs[1:-1] == ((1, 3),)
        assert pairwise_internally_disjoint([a.masks, b.masks]) == (True, None)

    def test_overlap_reports_first_pair(self):
        a = TokenPath(C4, (0, 1), ((1, 2), (0, 3)))
        b = TokenPath(C4, (0, 1), ((0, 3), (1, 2)))
        c = TokenPath(C4, (0, 1), ((1, 2), (0, 3)))
        ok, clash = pairwise_internally_disjoint([a.masks, b.masks, c.masks])
        assert not ok
        assert clash == (0, 2)

    def test_endpoint_mismatch_raises(self):
        a = TokenPath(C4, (0, 1), ((1, 2), (0, 3)))
        d = TokenPath(C4, (0, 1), ((1, 2),))
        with pytest.raises(ValueError, match="endpoint mismatch"):
            pairwise_internally_disjoint([a.masks, d.masks])

    def test_trivial_inputs(self):
        assert pairwise_internally_disjoint([]) == (True, None)
        a = TokenPath(C4, (0, 1), ((1, 2), (0, 3)))
        assert pairwise_internally_disjoint([a.masks]) == (True, None)

    def test_mask_walks_keep_the_contract(self):
        a = TokenPath(C4, (0, 1), ((1, 2), (0, 3)))
        b = TokenPath(C4, (0, 1), ((0, 3), (1, 2)))
        c = TokenPath(C4, (0, 1), ((1, 2), (0, 3)))
        assert pairwise_internally_disjoint([a.masks, b.masks]) == (True, None)
        assert pairwise_internally_disjoint([list(a.masks), b.masks]) == (True, None)
        assert pairwise_internally_disjoint([a.masks, b.masks, c.masks]) == (False, (0, 2))
        # the first offending pair in (i, j) order, not the first clash met
        d = TokenPath(C4, (0, 1), ((0, 3), (1, 2)))
        walks = [a.masks, b.masks, d.masks, c.masks]
        assert pairwise_internally_disjoint(walks) == (False, (0, 3))
        short = TokenPath(C4, (0, 1), ((1, 2),))
        with pytest.raises(ValueError, match=r"endpoint mismatch: expected \(0, 1\)->\(2, 3\), "
                                             r"got \(0, 1\)->\(0, 2\)"):
            pairwise_internally_disjoint([a.masks, short.masks])


# A 5-vertex tree shaped for exchange-style paths: 1 is the hub, with the
# shared token at 0, the free side vertex at 4, and the corridor 1-2-3.
EXCHANGE_TREE = Graph(5, ((0, 1), (1, 2), (2, 3), (1, 4)))


# Each condition's slots, in the name order its bindings keep.
CONDITION_SLOTS = {
    "C1": (), "C2": ("z",), "C2.1": ("w",), "C2.2": (), "C3": ("w", "z"), "C4": ("w", "z"),
    "C5": ("z1", "z2"), "D1": (), "D2": ("w", "z"), "D3": ("w", "z"), "D4": ("w", "z"),
    "D3*": ("w", "z"), "D4*": ("w", "z"), "E1": ("w1", "w2"), "E2": ("w", "z"),
    "E3": ("z",), "E4": ("w",),
}

# One fixed context for the table below: Z = {0, 1, 2} and the W region
# {4, 5, 6}; z and z1 are bound to 0, z2 to 1, w and w1 to 4, w2 to 5, so 2
# and 6 are never bound.  An inner configuration is written as the shared
# tokens it has dropped and the region vertices it occupies.
TABLE_CONTEXT = mask_stub(z={0, 1, 2}, region={4, 5, 6})
TABLE_VERTICES = {"z": 0, "z1": 0, "z2": 1, "w": 4, "w1": 4, "w2": 5}
EXCHANGE_ROW = ([((0,), ()), ((), (4,)), ((0,), (4,))], ((1,), (4,)), ((0,), (5,)), True)

# id -> (conforming configurations, a disallowed Z-drop, a disallowed W
# occupancy, whether the undisturbed state is forbidden); None where that
# side is unconstrained
CONDITION_CASES = {
    "C1": ([((), ())], ((0,), ()), ((), (4,)), False),
    "C2": ([((0,), ()), ((0,), (4, 5, 6))], ((0, 1), ()), None, False),
    "C2.1": ([((), (4,)), ((0, 1, 2), (4,))], None, ((), (5,)), False),
    "C2.2": ([((), ()), ((0, 1, 2), ())], None, ((), (6,)), False),
    "C3": EXCHANGE_ROW,
    "C4": EXCHANGE_ROW,
    "C5": ([((0,), ()), ((1,), ()), ((0, 1), ())], ((2,), ()), ((0,), (4,)), False),
    "D1": ([((), ())], ((1,), ()), ((), (5,)), False),
    "D2": ([((0,), (4,))], ((), (4,)), ((0,), ()), False),
    "D3": EXCHANGE_ROW,
    "D4": EXCHANGE_ROW,
    "D3*": EXCHANGE_ROW,
    "D4*": EXCHANGE_ROW,
    "E1": ([((), (4,)), ((), (5,)), ((), (4, 5))], ((0,), (4,)), ((), (6,)), False),
    "E2": EXCHANGE_ROW,
    "E3": ([((), ()), ((0,), ())], ((1,), ()), ((), (4,)), False),
    "E4": ([((), ()), ((), (4,))], ((0,), ()), ((), (5,)), False),
}


def inner_mask(dropped, parked):
    """The occupancy mask of TABLE_CONTEXT's Z less dropped, plus parked."""
    return sum(1 << v for v in {0, 1, 2} - set(dropped) | set(parked))


class TestTraceConditions:
    def test_condition_table_is_complete(self):
        assert list(_SLOTS.items()) == list(CONDITION_SLOTS.items())
        assert list(CONDITION_CASES) == list(CONDITION_SLOTS)

    @pytest.mark.parametrize("cid", list(CONDITION_CASES))
    def test_each_condition_on_its_own_configurations(self, cid):
        oks, bad_drop, bad_w, forbid_trivial = CONDITION_CASES[cid]
        cond = TraceCondition(cid, tuple((s, TABLE_VERTICES[s]) for s in CONDITION_SLOTS[cid]))
        inner = [inner_mask(*cfg) for cfg in oks]
        assert check_trace(inner, cond, TABLE_CONTEXT)
        # one violating configuration fails the path, wherever it sits
        bads = [bad_drop, bad_w, ((), ()) if forbid_trivial else None]
        for bad in filter(None, bads):
            assert not check_trace(inner + [inner_mask(*bad)], cond, TABLE_CONTEXT)
            assert not check_trace([inner_mask(*bad)] + inner, cond, TABLE_CONTEXT)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown trace condition"):
            TraceCondition("C9", ())
        with pytest.raises(ValueError, match="unknown trace condition"):
            TraceCondition(["C1"], ())

    def test_slot_mismatch_rejected(self):
        for cid, bound in [
            ("C2", (("w", 3),)),
            ("C3", (("z", 0),)),
            ("C1", (("z", 0),)),
            ("D2", (("z", 5), ("w", 7))),  # both slots, out of name order
            ("C5", (("z2", 1), ("z1", 0))),
            ("C2", ("z",)),
            ("C2", 5),
        ]:
            with pytest.raises(ValueError, match="needs slots"):
                TraceCondition(cid, bound)

    @pytest.mark.parametrize("z", [1.5, "1", -1, None, 1.0, [1]])
    def test_non_vertex_binding_rejected(self, z):
        # z=1 is bound first, and 1.0 compares equal to it: no check may lean
        # on an earlier condition, nor hash an unhashable binding before it
        # names its slot
        assert TraceCondition("C2", (("z", 1),)).bound == (("z", 1),)
        with pytest.raises(ValueError, match="slot 'z'"):
            TraceCondition("C2", (("z", z),))

    def test_undisturbed_passage(self):
        # both tokens of Z stay put and the free region is never touched
        ctx = mask_stub(z={0}, region=set())
        p = TokenPath(P4, (0, 1), ((1, 2), (2, 3)))
        assert check_trace(p.masks[1:-1], TraceCondition("C1", ()), ctx)

    def test_undisturbed_fails_when_shared_token_moves(self):
        ctx = mask_stub(z={0}, region=set())
        p = TokenPath(C4, (0, 1), ((0, 3), (1, 2)))
        assert not check_trace(p.masks[1:-1], TraceCondition("C1", ()), ctx)

    def test_single_displacement_condition(self):
        # every interior configuration must be missing exactly the bound token
        ctx = mask_stub(z={0}, region={3})
        p = TokenPath(C4, (0, 1), ((0, 3), (1, 2)))
        assert check_trace(p.masks[1:-1], TraceCondition("C2", (("z", 0),)), ctx)
        assert not check_trace(p.masks[1:-1], TraceCondition("C2", (("z", 1),)), ctx)

    def test_exchange_condition_holds_on_exchange_path(self):
        # hub token visits 4 while the shared token at 0 takes its place
        moves = ((1, 4), (0, 1), (1, 2), (2, 3), (4, 1), (1, 0))
        p = TokenPath(EXCHANGE_TREE, (0, 1), moves)
        assert p.configs[-1] == (0, 3)
        ctx = mask_stub(z={0}, region={4})
        assert check_trace(p.masks[1:-1], TraceCondition("C3", (("w", 4), ("z", 0))), ctx)

    def test_exchange_condition_forbids_undisturbed_interior(self):
        # a plain slide never disturbs anything, which the exchange shape bans
        ctx = mask_stub(z={0}, region={4})
        p = TokenPath(EXCHANGE_TREE, (0, 1), ((1, 2), (2, 3)))
        assert not check_trace(p.masks[1:-1], TraceCondition("C3", (("w", 4), ("z", 0))), ctx)

    def test_double_displacement_condition(self):
        ctx = mask_stub(z={0, 1}, region=set())
        p = TokenPath(P4, (0, 1), ((1, 2), (0, 1), (2, 3)))
        assert p.configs[1:-1] == ((0, 2), (1, 2))
        assert check_trace(p.masks[1:-1], TraceCondition("C5", (("z1", 0), ("z2", 1))), ctx)

    def test_region_violation_detected(self):
        # an interior configuration parks a token on the watched free vertex
        ctx = mask_stub(z={0, 1}, region={3})
        p = TokenPath(P4, (0, 1), ((1, 2), (2, 3), (0, 1)))
        assert p.configs[1:-1] == ((0, 2), (0, 3))
        assert not check_trace(p.masks[1:-1], TraceCondition("C5", (("z1", 0), ("z2", 1))), ctx)

    def test_parked_interior_condition(self):
        # every interior configuration occupies exactly the bound free vertex
        ctx = mask_stub(z={0}, region={1})
        p = TokenPath(P5, (0, 3), ((0, 1), (3, 4), (1, 0)))
        assert check_trace(p.masks[1:-1], TraceCondition("C2.1", (("w", 1),)), ctx)
        assert not check_trace(p.masks[1:-1], TraceCondition("C1", ()), ctx)


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
            for w in g.adjacency[u]:
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
        assert len(p.configs) == len(route)
        expect = tuple(sorted(set(start) - {route[0]} | {route[-1]}))
        assert p.configs[-1] == expect
        # every visited configuration keeps the bystanders fixed
        bystanders = set(start) - {route[0]}
        for cfg in p.configs:
            assert bystanders <= set(cfg)

    @given(tree_route_start())
    @settings(max_examples=120, deadline=None)
    def test_reversed_moves_walk_the_path_backwards(self, case):
        g, route, start = case
        p = TokenPath(g, start, tuple(zip(route, route[1:])))
        back = TokenPath(g, p.configs[-1], tuple((d, s) for s, d in reversed(p.moves)))
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
        slides = sorted((u, w) for u in occupied for w in g.adjacency[u] if w not in occupied)
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
        assert p.masks == tuple(sum(1 << v for v in cfg) for cfg in expect)
