"""Tests for the constructive disjoint path families over trees."""

import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from itertools import combinations
from math import comb

import networkx as nx

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fk import family_faults, fk_neighbors, normalized_paths, planned_moves
from tokengraphs import families
from tokengraphs.connectivity import edge_connectivity, vertex_connectivity
from tokengraphs.families import (
    _CASE_REDUCTIONS,
    _TERMINAL_CASES,
    Case1Context,
    Case2Context,
    FamilyConstructionError,
    _case_index,
    build_family,
    normalize,
)
from tokengraphs.graphs import Graph, cycle_graph, enumerate_trees, path_graph, star_graph
from tokengraphs.moves import check_trace
from tokengraphs.tokens import build_token_graph, min_token_degree

P4 = path_graph(4)

# spider with three legs of two leaves each; the smallest tree we found whose
# 5-token pairs reach both extension bounds (two extra paths in the one-token
# scheme, one extra in the two-token scheme)
TRISTAR = Graph(10, ((0, 1), (0, 4), (0, 7), (1, 2), (1, 3), (4, 5), (4, 6), (7, 8), (7, 9)))

# hand-built instances that force each rare supplemental branch
SPIDER7 = Graph(7, ((0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6)))
TREE_P1 = Graph(8, ((0, 1), (2, 3), (1, 2), (0, 4), (2, 5), (1, 6), (3, 7)))
TREE_P2 = Graph(8, ((0, 1), (2, 3), (0, 2), (0, 4), (2, 5), (2, 6), (1, 7)))
TREE_P3 = Graph(5, ((0, 1), (2, 3), (0, 3), (0, 4)))
TREE_P4 = Graph(5, ((0, 1), (2, 3), (0, 3), (3, 4)))
TREE_PRESWAP = Graph(5, ((0, 1), (2, 3), (1, 2), (2, 4)))
TREE_CASE7 = Graph(8, ((0, 1), (2, 3), (0, 2), (0, 4), (3, 5), (2, 6), (2, 7)))
TREE_CASE4 = Graph(8, ((0, 1), (2, 3), (0, 2), (0, 4), (2, 5), (1, 6), (3, 7)))

STEP1_LABELS = {"T1", "T2", "T3", "T4", "L1", "L2", "L3", "L4", "L3*", "L4*"}


def config_pairs(tg):
    """The distance-2 pairs of a token graph, as configuration pairs."""
    return [(tg.vertices[i], tg.vertices[j]) for i, j in tg.distance2_pairs()]


def family_labels(result):
    """The construction label of each path of a verified family, in order."""
    return tuple(label for label, _, _ in result.plans)


def verify_result(tree, x_cfg, y_cfg, result):
    """Re-check every promise build_family makes, from the outside."""
    paths = result.family
    assert result.x_cfg == x_cfg and result.y_cfg == y_cfg
    assert len(paths) == len(result.plans) >= result.delta
    assert not family_faults(paths, x_cfg, y_cfg)
    step1 = sum(1 for lab in family_labels(result) if lab in STEP1_LABELS)
    assert step1 == result.context.m
    # the trace certificates speak about the normalised paths
    norm = normalized_paths(result)
    assert len(norm) == len(paths)
    ctx = result.context
    for path, (_, _, conds) in zip(norm, result.plans):
        assert path.configs[0] == ctx.x_cfg and path.configs[-1] == ctx.y_cfg
        for cond in conds:
            assert check_trace(path.masks[1:-1], cond, ctx), cond


class TestNormalize:
    def test_one_token_no_reduction(self):
        ctx, reds = normalize(P4, (0, 1), (0, 3), 1)
        assert reds == ()
        assert isinstance(ctx, Case1Context)
        assert (ctx.x, ctx.y, ctx.v) == (1, 3, 2)
        assert (ctx.z_mask, ctx.w_mask, ctx.region_mask) == (0b1, 0b100, 0)
        assert (ctx.a, ctx.b, ctx.c, ctx.d, len(ctx.zw_edges)) == (0, 0, 1, 0, 0)
        assert ctx.m == 1

    def test_occupied_middle_complements(self):
        ctx, reds = normalize(P4, (0, 1), (1, 2), 1)
        assert list(reds) == ["complement"]
        assert isinstance(ctx, Case1Context)
        # tokens and holes traded places, so the instance lives at k = n - k
        assert len(ctx.x_cfg) == 2
        assert ctx.x_cfg == (2, 3) and ctx.y_cfg == (0, 3)
        assert (ctx.x, ctx.y, ctx.v) == (2, 0, 1)
        assert ctx.m == 1

    def test_degree_ordering_swaps_endpoints(self):
        ctx, reds = normalize(P4, (0, 3), (0, 1), 1)
        assert list(reds) == ["swap_xy"]
        assert ctx.x_cfg == (0, 1) and ctx.y_cfg == (0, 3)

    def test_two_token_instance(self):
        ctx, reds = normalize(P4, (0, 2), (1, 3), 1)
        assert reds == ()
        assert isinstance(ctx, Case2Context)
        assert (ctx.x1, ctx.y1, ctx.x2, ctx.y2) == (0, 1, 2, 3)
        assert ctx.z_mask == 0 and ctx.w_mask == 0
        assert ctx.cross == (1, 2)
        assert ctx.cross_kind == "y1x2"
        assert ctx.case_number == 16
        assert ctx.m == 2

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError, match="must be a tree"):
            normalize(cycle_graph(4), (0, 1), (0, 3), 1)

    def test_adjacent_configurations_rejected(self):
        with pytest.raises(ValueError, match="adjacent"):
            normalize(P4, (0, 1), (0, 2), 1)

    @pytest.mark.parametrize("delta", [1.5, 1.0, "x", None])
    def test_non_int_delta_rejected(self, delta):
        # checked where it enters, before it can pick a path or size a family
        for call in (normalize, build_family):
            with pytest.raises(ValueError, match="delta must be an int, got"):
                call(P4, (0, 1), (0, 3), delta)

    @pytest.mark.parametrize("x_cfg", [(1, 0), [0, 1], (0, 0)])
    def test_configurations_are_taken_as_sorted_tuples(self, x_cfg):
        # no entry point sorts or deduplicates a configuration for its caller
        for call in (normalize, build_family):
            with pytest.raises(ValueError, match="not a sorted duplicate-free tuple"):
                call(P4, x_cfg, (0, 3), 1)


class TestCaseArithmetic:
    def test_index_corners(self):
        assert _case_index(True, True, True, True) == 1
        assert _case_index(False, False, False, False) == 16
        assert _case_index(True, False, True, False) == 6
        assert _case_index(True, False, False, True) == 7

    def test_index_is_a_bijection(self):
        seen = {
            _case_index(a, b, c, d)
            for a in (True, False)
            for b in (True, False)
            for c in (True, False)
            for d in (True, False)
        }
        assert seen == set(range(1, 17))

    def test_tables_partition_the_cases(self):
        assert set(_CASE_REDUCTIONS) | set(_TERMINAL_CASES) | {1} == set(range(1, 17))
        assert not set(_CASE_REDUCTIONS) & set(_TERMINAL_CASES)

    @staticmethod
    def _apply(case: int, kind: str) -> int:
        bits = case - 1
        a1, a2, b1, b2 = (
            not bits & 8,
            not bits & 4,
            not bits & 2,
            not bits & 1,
        )
        if kind == "swap_indices_12":
            a1, a2, b1, b2 = a2, a1, b2, b1
        else:  # complement_with_relabel trades the a/c and b/d comparisons
            a1, a2, b1, b2 = b1, b2, a1, a2
        return _case_index(a1, a2, b1, b2)

    def test_reduction_targets(self):
        expect = {3: 2, 9: 5, 10: 7, 11: 6, 12: 8, 15: 14, 5: 2, 13: 4, 14: 8}
        for case, kind in _CASE_REDUCTIONS.items():
            assert self._apply(case, kind) == expect[case]

    def test_every_case_terminates_within_two_steps(self):
        for case in range(2, 17):
            steps = 0
            while case not in _TERMINAL_CASES:
                case = self._apply(case, _CASE_REDUCTIONS[case])
                steps += 1
                assert steps <= 2
            assert case in _TERMINAL_CASES


class TestSmallSweep:
    def test_every_distance2_pair_up_to_n6(self):
        total = 0
        labels = Counter()
        chains = set()
        for n in range(2, 7):
            for tree in enumerate_trees(n):
                for k in range(1, n):
                    tg = build_token_graph(tree, k)
                    for x, y in config_pairs(tg):
                        result = build_family(tree, x, y, tg.min_degree())
                        verify_result(tree, x, y, result)
                        total += 1
                        labels.update(family_labels(result))
                        chains.add(result.reductions)
        assert total == 924
        assert labels == Counter(
            {
                "T1": 718,
                "T2": 694,
                "L1": 412,
                "T3": 36,
                "T4": 36,
                "L2": 24,
                "L3": 20,
                "L4": 4,
                "P": 2,
            }
        )
        assert chains == {
            (),
            ("complement",),
            ("swap_xy",),
            ("complement", "swap_xy"),
            ("swap_indices_12",),
            ("complement_with_relabel",),
            ("swap_indices_12", "complement_with_relabel"),
            ("swap_xy", "swap_indices_12"),
            ("swap_xy", "complement_with_relabel"),
        }


class TestTristar:
    def test_five_token_degree_floor(self):
        assert min_token_degree(TRISTAR, 5) == 3

    def test_double_extension_instance(self):
        result = build_family(TRISTAR, (0, 1, 2, 3, 4), (0, 1, 2, 3, 7), 3)
        verify_result(TRISTAR, (0, 1, 2, 3, 4), (0, 1, 2, 3, 7), result)
        assert result.case == 1
        assert (result.delta, result.context.m) == (3, 1)
        assert family_labels(result) == ("T1", "P", "P'")
        assert list(result.reductions) == ["complement"]

    def test_single_extension_instances(self):
        r1 = build_family(TRISTAR, (0, 1, 2, 3, 4), (1, 2, 3, 5, 7), 3)
        verify_result(TRISTAR, (0, 1, 2, 3, 4), (1, 2, 3, 5, 7), r1)
        assert family_labels(r1) == ("L1", "L1", "P1")
        assert list(r1.reductions) == ["swap_indices_12"]
        assert r1.context.case_number == 8

        r3 = build_family(TRISTAR, (0, 1, 2, 3, 5), (1, 2, 3, 4, 7), 3)
        verify_result(TRISTAR, (0, 1, 2, 3, 5), (1, 2, 3, 4, 7), r3)
        assert family_labels(r3) == ("L1", "L1", "P3")
        assert r3.reductions == ()
        assert r3.context.case_number == 16

    def test_five_token_sweep_hits_both_extension_bounds(self):
        tg = build_token_graph(TRISTAR, 5)
        slack = {1: 0, 2: 0}
        hits = Counter()
        for x, y in config_pairs(tg):
            result = build_family(TRISTAR, x, y, tg.min_degree())
            verify_result(TRISTAR, x, y, result)
            slack[result.case] = max(slack[result.case], result.delta - result.context.m)
            hits.update(lab for lab in family_labels(result) if lab.startswith("P"))
        assert slack == {1: 2, 2: 1}
        assert hits == Counter({"P1": 24, "P3": 24, "P": 6, "P'": 6})


class TestSupplementalBranches:
    def test_double_extension_on_spider(self):
        result = build_family(SPIDER7, (0, 3, 4, 5, 6), (2, 3, 4, 5, 6), delta=3)
        verify_result(SPIDER7, (0, 3, 4, 5, 6), (2, 3, 4, 5, 6), result)
        assert family_labels(result) == ("T1", "P", "P'")
        assert result.reductions == ()
        assert result.context.m == 1

    def test_spider_default_degree_needs_one_extension(self):
        assert min_token_degree(SPIDER7, 5) == 2
        result = build_family(SPIDER7, (0, 3, 4, 5, 6), (2, 3, 4, 5, 6), 2)
        assert family_labels(result) == ("T1", "P")

    def test_p1_after_two_reductions(self):
        result = build_family(TREE_P1, (0, 2, 6), (1, 3, 6), delta=3)
        verify_result(TREE_P1, (0, 2, 6), (1, 3, 6), result)
        assert family_labels(result) == ("L1", "L1", "P1")
        assert list(result.reductions) == ["swap_xy", "swap_indices_12"]
        assert result.context.case_number == 8
        assert result.context.m == 2

    def test_p2_in_terminal_case_six(self):
        result = build_family(TREE_P2, (0, 2, 5, 6, 7), (1, 3, 5, 6, 7), delta=3)
        verify_result(TREE_P2, (0, 2, 5, 6, 7), (1, 3, 5, 6, 7), result)
        assert family_labels(result) == ("L1", "L1", "P2")
        assert result.reductions == ()
        assert result.context.case_number == 6
        assert (result.context.c2, result.context.a2) == (2, 0)

    def test_p3_with_cross_edge(self):
        result = build_family(TREE_P3, (0, 2, 4), (1, 3, 4), delta=3)
        verify_result(TREE_P3, (0, 2, 4), (1, 3, 4), result)
        assert family_labels(result) == ("L1", "L1", "P3")
        assert result.reductions == ()
        assert result.context.case_number == 16
        assert result.context.cross_kind == "x1y2"

    def test_p4_with_cross_edge(self):
        result = build_family(TREE_P4, (0, 2), (1, 3), delta=3)
        verify_result(TREE_P4, (0, 2), (1, 3), result)
        assert family_labels(result) == ("L1", "L1", "P4")
        assert result.context.case_number == 16
        assert (result.context.d2, result.context.b2) == (1, 0)

    def test_misoriented_cross_gets_relabelled_first(self):
        result = build_family(TREE_PRESWAP, (0, 2, 4), (1, 3, 4), delta=3)
        verify_result(TREE_PRESWAP, (0, 2, 4), (1, 3, 4), result)
        assert family_labels(result) == ("L1", "L1", "P3")
        assert list(result.reductions) == ["swap_indices_12"]
        assert result.context.cross_kind == "x1y2"


class TestFailureModes:
    def test_no_supplement_in_case_seven(self):
        ctx, _ = normalize(TREE_CASE7, (0, 2, 5, 6, 7), (1, 3, 5, 6, 7), 3)
        assert ctx.case_number == 7 and ctx.m == 2
        with pytest.raises(FamilyConstructionError, match="no supplemental path"):
            build_family(TREE_CASE7, (0, 2, 5, 6, 7), (1, 3, 5, 6, 7), delta=3)
        result = build_family(TREE_CASE7, (0, 2, 5, 6, 7), (1, 3, 5, 6, 7), delta=2)
        assert family_labels(result) == ("L1", "L1")

    def test_no_supplement_in_case_four(self):
        ctx, _ = normalize(TREE_CASE4, (0, 2), (1, 3), 3)
        assert ctx.case_number == 4 and ctx.m == 2
        with pytest.raises(FamilyConstructionError, match="no supplemental path"):
            build_family(TREE_CASE4, (0, 2), (1, 3), delta=3)

    def test_one_token_surplus_is_capped_at_two(self):
        with pytest.raises(FamilyConstructionError, match="exceeds the case-1 bound"):
            build_family(P4, (0, 1), (0, 3), delta=4)

    def test_two_token_surplus_is_capped_at_one(self):
        with pytest.raises(FamilyConstructionError, match="exceeds the case-2 bound"):
            build_family(P4, (0, 2), (1, 3), delta=4)

    def test_one_token_extension_guards(self):
        # this instance has b = d = 0, so no extension path exists
        with pytest.raises(FamilyConstructionError, match="requires b > d and c > a"):
            build_family(P4, (0, 1), (0, 3), delta=2)


# one-token instances whose normalisation complements (star centre occupied)
# or swaps the endpoints; both have a Z-W edge and a spare free neighbour of v
BROKEN_BUILDER_INSTANCES = {
    "complement": (star_graph(4), (0, 1, 2), (0, 1, 3)),
    "swap_xy": (Graph(6, ((0, 1), (0, 4), (0, 5), (1, 2), (2, 3))), (2, 4), (1, 2)),
}


class TestBrokenBuilders:
    """Every family check still fires when the planner emits a bad path."""

    @pytest.fixture(params=sorted(BROKEN_BUILDER_INSTANCES))
    def instance(self, request):
        tree, x, y = BROKEN_BUILDER_INSTANCES[request.param]
        delta = min_token_degree(tree, len(x))
        ctx, reds = normalize(tree, x, y, delta)
        assert list(reds) == [request.param]
        assert isinstance(ctx, Case1Context) and ctx.zw_edges
        return request.param, tree, x, y, delta, ctx

    @staticmethod
    def tamper_plan(monkeypatch, change):
        real = families.plan_family
        monkeypatch.setattr(families, "plan_family", lambda ctx, delta: real(change(ctx), delta))

    def test_inadmissible_move(self, instance, monkeypatch):
        _, tree, x, y, delta, ctx = instance
        z = ctx.zw_edges[0][0]
        far = min(w for w in range(tree.n) if ctx.region_mask >> w & 1 and w not in tree.adjacency[z])
        self.tamper_plan(
            monkeypatch, lambda c: replace(c, zw_edges=c.zw_edges + ((z, far),))
        )
        with pytest.raises(FamilyConstructionError, match="path T2 does not replay"):
            build_family(tree, x, y, delta)

    def test_wrong_end(self, instance, monkeypatch):
        kind, tree, x, y, delta, ctx = instance
        taken = {ctx.x, ctx.y} | set(ctx.x_cfg) | set(ctx.y_cfg)
        other = min(tree.adjacency[ctx.v] - taken)
        self.tamper_plan(monkeypatch, lambda c: replace(c, y=other))
        # after an endpoint swap the path runs backwards from the original X,
        # so its wrong end can surface as a first move that does not replay
        symptom = "(ends at|does not replay)" if kind == "swap_xy" else "ends at"
        with pytest.raises(FamilyConstructionError, match=f"path T1 {symptom}"):
            build_family(tree, x, y, delta)

    def test_broken_trace_condition(self, instance, monkeypatch):
        _, tree, x, y, delta, ctx = instance
        label, steps, _ = families._COMPILED["T1"]
        # T1 never parks a token in W - {v}, so C2.1 bound to its slot v
        # (slot index 2: x, y, v) fails on it
        monkeypatch.setitem(families._COMPILED, "T1", (label, steps, (("C2.1", (("w", 2),)),)))
        # plans are memoised with their conditions, so none may outlive the patch
        families._bind.cache_clear()
        try:
            with pytest.raises(
                FamilyConstructionError, match="path T1 violates trace condition C2.1"
            ):
                build_family(tree, x, y, delta)
        finally:
            families._bind.cache_clear()

    def test_identical_paths(self, instance, monkeypatch):
        _, tree, x, y, delta, ctx = instance
        self.tamper_plan(
            monkeypatch, lambda c: replace(c, zw_edges=c.zw_edges[:1] + c.zw_edges)
        )
        with pytest.raises(FamilyConstructionError, match="paths T2 and T2 share"):
            build_family(tree, x, y, delta)

    def test_delta_above_family_size(self, instance, monkeypatch):
        _, tree, x, y, delta, ctx = instance
        # plan for delta = m, so the family stops at m paths
        real = families.plan_family
        monkeypatch.setattr(families, "plan_family", lambda c, delta: real(c, c.m))
        with pytest.raises(FamilyConstructionError, match=f"below delta = {ctx.m + 1}"):
            build_family(tree, x, y, delta=ctx.m + 1)


def uniform_tree(rng: random.Random, n: int) -> Graph:
    """A tree drawn uniformly from the labelled trees on n vertices (Prüfer)."""
    code = [rng.randrange(n) for _ in range(n - 2)]
    return Graph(n, tuple(nx.from_prufer_sequence(code).edges()))


def hub_tree(rng: random.Random, n: int) -> Graph:
    """A Prüfer-random tree whose code uses three hubs, each of degree >= 3.

    Uniform Prüfer trees have a leaf-heavy k-set with one or two boundary
    edges, so their token graphs have delta <= 2 and never need the extension
    paths; three hubs give delta = 3 often enough to reach both bounds.
    """
    hubs = rng.sample(range(n), 3)
    code = hubs * 2 + [rng.choice(hubs) for _ in range(n - 8)]
    rng.shuffle(code)
    return Graph(n, tuple(nx.from_prufer_sequence(code).edges()))


class TestSeededLargerTrees:
    """Seeded random instances beyond the exhaustive paths sweep (n <= 8)."""

    def test_families_on_trees_with_9_to_12_vertices(self):
        rng = random.Random(3)
        slack = {1: 0, 2: 0}
        covered = Counter()
        trees = checked = 0
        for _ in range(80):
            n = rng.randint(9, 12)
            tree = hub_tree(rng, n)
            deltas = {k: min_token_degree(tree, k) for k in range(1, n)}
            if max(deltas.values()) < 3:
                continue
            k = rng.choice([k for k, d in deltas.items() if d == max(deltas.values())])
            delta = deltas[k]
            pairs = config_pairs(build_token_graph(tree, k))
            # a uniform sample almost never holds a pair whose family needs
            # extension paths, so every such pair joins the sample
            sample = rng.sample(pairs, 40) + [
                (x, y) for x, y in pairs if normalize(tree, x, y, delta)[0].m < delta
            ]
            for x, y in sample:
                result = build_family(tree, x, y, delta)
                assert result.delta == delta
                verify_result(tree, x, y, result)
                slack[result.case] = max(slack[result.case], delta - result.context.m)
                number = getattr(result.context, "case_number", None)
                covered[(result.case, number, result.reductions)] += 1
            checked += len(sample)
            trees += 1
            if trees == 3:
                break
        print(f"{trees} trees, {checked} families; (case, case_number, reductions) covered:")
        for combo, hits in sorted(covered.items(), key=str):
            print(f"  {combo}: {hits}")
        assert trees == 3
        assert slack == {1: 2, 2: 1}

    def test_rare_terminal_cases_on_trees_with_9_to_12_vertices(self):
        # cases 2, 4, 6 and 7 need a1 > c1: x1 has more free neighbours than
        # shared ones.  Around a hub that holds a token most vertices are
        # shared, so the hub-tree samples above reach only cases 8 and 16;
        # uniform trees have longer free branches.  Case 2 is rarest: no
        # distance-2 pair on a tree with n <= 8 reaches it.
        wanted = {2: 1, 4: 3, 6: 3, 7: 3}
        rng = random.Random(11)
        hits = Counter()
        trees = 0
        while any(hits[case] < least for case, least in wanted.items()):
            n = rng.randint(9, 12)
            tree = uniform_tree(rng, n)
            k = rng.randint(2, n - 2)
            tg = build_token_graph(tree, k)
            pairs = config_pairs(tg)
            for x, y in rng.sample(pairs, min(200, len(pairs))):
                result = build_family(tree, x, y, tg.min_degree())
                number = getattr(result.context, "case_number", None)
                hits[number] += 1
                if number in wanted:
                    verify_result(tree, x, y, result)
            trees += 1
            by_case = sorted(hits.items(), key=str)
            assert trees <= 20, f"after 20 trees, families by terminal case: {by_case}"
        print(f"{trees} trees; families by terminal case (None: case 1): {by_case}")

    @pytest.mark.parametrize("leaves, sample", [(9, None), (11, 300)])
    def test_families_on_stars_with_delta_5(self, leaves, sample):
        # F_5 of a star with 9 or more leaves has delta = 5, past the
        # delta <= 4 that the exhaustive paths sweep (n <= 8) reaches: every
        # pair of K_{1,9}, and a seeded sample of the pairs of K_{1,11}
        tree = star_graph(leaves)
        tg = build_token_graph(tree, 5)
        pairs = config_pairs(tg)
        assert tg.min_degree() == 5 and len(pairs) == {9: 2520, 11: 11550}[leaves]
        if sample:
            pairs = random.Random(leaves).sample(pairs, sample)
        for x, y in pairs:
            result = build_family(tree, x, y, 5)
            assert result.size >= 5
            assert not family_faults(result.family, x, y), (x, y)

    def test_connectivity_equals_min_degree_on_trees_with_9_to_12_vertices(self):
        # the flow oracles against the degree floor on every F_k with n <= 12;
        # comb(n, k) <= 924 admits every k, so k near n/2 reaches delta >= 3,
        # where the oracles run flows instead of stopping at the DFS
        rng = random.Random(5)
        deltas = Counter()
        for _ in range(40):
            n = rng.randint(9, 12)
            tree = hub_tree(rng, n)
            for k in range(1, n):
                if comb(n, k) > 924:
                    continue
                fk = build_token_graph(tree, k).as_graph()
                delta = min_token_degree(tree, k)
                assert fk.min_degree() == delta
                assert vertex_connectivity(fk) == edge_connectivity(fk) == delta, (tree, k)
                deltas[delta] += 1
        print(f"{sum(deltas.values())} F_k checked; count by delta: {sorted(deltas.items())}")
        assert deltas[2] >= 100
        assert deltas[3] >= 1


def expected_context(tree, x_cfg, y_cfg, ctx, reductions):
    """Every context field normalize promises, recomputed on plain sets."""
    full = set(range(tree.n))
    x_set, y_set = set(x_cfg), set(y_cfg)
    for red in reductions:  # the normalised endpoints follow from the reductions alone
        if red in ("complement", "complement_with_relabel"):
            x_set, y_set = full - x_set, full - y_set
        elif red == "swap_xy":
            x_set, y_set = y_set, x_set
    adj = {u: set(tree.adjacency[u]) for u in full}
    z, w = x_set & y_set, full - x_set - y_set

    def mask(vertices):
        return sum(1 << v for v in vertices)

    got = {"x_cfg": tuple(sorted(x_set)), "y_cfg": tuple(sorted(y_set)),
           "z_mask": mask(z), "w_mask": mask(w)}
    got["zw_edges"] = tuple((u, t) for u in sorted(z) for t in sorted(adj[u] & w))
    eta = len(got["zw_edges"])
    if isinstance(ctx, Case1Context):
        assert x_set - y_set == {ctx.x} and y_set - x_set == {ctx.y}
        assert ctx.v in w and ctx.v in adj[ctx.x] & adj[ctx.y]
        region = w - {ctx.v}
        got["region_mask"] = mask(region)
        sides = (adj[ctx.x] & region, adj[ctx.y] & z, adj[ctx.x] & z, adj[ctx.y] & region)
        got["side_masks"] = tuple(map(mask, sides))
        got.update(zip("abcd", map(len, sides)))
        got["m"] = min(got["a"], got["c"]) + min(got["b"], got["d"]) + eta + 1
        return got
    x1, y1, x2, y2 = ctx.x1, ctx.y1, ctx.x2, ctx.y2
    assert x_set - y_set == {x1, x2} and y_set - x_set == {y1, y2}
    assert y1 in adj[x1] and y2 in adj[x2]
    got["region_mask"] = mask(w)
    # wx1 wx2 zy1 zy2 zx1 zx2 wy1 wy2, counted as a1 a2 b1 b2 c1 c2 d1 d2
    sides = [adj[u] & side for u, side in (
        (x1, w), (x2, w), (y1, z), (y2, z), (x1, z), (x2, z), (y1, w), (y2, w))]
    got["side_masks"] = tuple(map(mask, sides))
    got.update(zip(("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2"), map(len, sides)))
    got["m"] = eta + 2 + sum(
        min(got[f"{p}{i}"], got[f"{q}{i}"]) for i in (1, 2) for p, q in (("a", "c"), ("b", "d"))
    )
    names = {x1: "x1", y1: "y1", x2: "x2", y2: "y2"}
    crosses = [(p, q) for p in (x1, y1) for q in (x2, y2) if q in adj[p]]
    assert len(crosses) <= 1
    got["cross"] = crosses[0] if crosses else None
    got["cross_kind"] = names[crosses[0][0]] + names[crosses[0][1]] if crosses else None
    ge = [got[f"{p}{i}"] <= got[f"{q}{i}"] for p, q in (("a", "c"), ("b", "d")) for i in (1, 2)]
    got["case_number"] = 1 + 8 * ge[0] + 4 * ge[1] + 2 * ge[2] + ge[3]
    return got


def seeded_pairs(seed, trees_wanted, per_tree):
    """Distance-2 pairs drawn on hub trees with 9 to 12 vertices, each with
    the minimum token degree of its token graph."""
    rng = random.Random(seed)
    for _ in range(trees_wanted):
        n = rng.randint(9, 12)
        tree = hub_tree(rng, n)
        k = rng.randint(2, n - 2)
        tg = build_token_graph(tree, k)
        pairs = config_pairs(tg)
        for x, y in rng.sample(pairs, min(per_tree, len(pairs))):
            yield tree, x, y, tg.min_degree()


class TestMaskContexts:
    """normalize's contexts match a recomputation on sets, pair by pair."""

    @staticmethod
    def check_pair(tree, x, y, delta):
        ctx, reductions = normalize(tree, x, y, delta)
        expect = expected_context(tree, x, y, ctx, reductions)
        assert {name: getattr(ctx, name) for name in expect} == expect
        return type(ctx).__name__, reductions

    def test_every_pair_up_to_n7(self):
        kinds = Counter()
        for n in range(2, 8):
            for tree in enumerate_trees(n):
                for k in range(1, n):
                    tg = build_token_graph(tree, k)
                    for x, y in config_pairs(tg):
                        kinds[self.check_pair(tree, x, y, tg.min_degree())] += 1
        assert sum(kinds.values()) == 4972
        assert len(kinds) == 12  # both cases, every reduction chain that occurs

    def test_seeded_trees_with_9_to_12_vertices(self):
        kinds = Counter(self.check_pair(*pair) for pair in seeded_pairs(3, 6, per_tree=60))
        print(f"{sum(kinds.values())} seeded pairs; (context, reductions) covered:")
        for combo, hits in sorted(kinds.items()):
            print(f"  {combo}: {hits}")
        assert {name for name, _ in kinds} == {"Case1Context", "Case2Context"}


def plan_record(result):
    """Every planned field of a verified family, as JSON-ready lists."""
    labels, _, traces = zip(*result.plans)
    return [
        list(labels),
        [[list(map(int, move)) for move in path.moves] for path in result.family],
        [[list(move) for move in moves] for moves in planned_moves(result)],
        [[[cond.id, [list(b) for b in cond.bound]] for cond in conds] for conds in traces],
        list(result.reductions),
        result.context.m,
    ]


class TestPlanDigest:
    """The planned families of every distance-2 pair on trees with n <= 7, pinned.

    The digest covers each path's label, its original-frame and normalised
    moves, its trace conditions with their bindings, the reductions and m,
    so any change to a template, its slot bindings or their order shows.
    """

    def test_every_pair_up_to_n7(self):
        digest = hashlib.sha256()
        pairs = 0
        for n in range(2, 8):
            for tree in enumerate_trees(n):
                for k in range(1, n):
                    tg = build_token_graph(tree, k)
                    for x, y in config_pairs(tg):
                        result = build_family(tree, x, y, tg.min_degree())
                        record = plan_record(result)
                        digest.update(json.dumps(record, separators=(",", ":")).encode() + b"\n")
                        pairs += 1
                        # the paths built on read are the walks that were verified
                        assert len(result.family) == result.size
                        assert tuple(p.masks for p in result.family) == result.walks
                        assert tuple(p.moves for p in result.family) == result.moves
        assert pairs == 4972
        assert digest.hexdigest() == (
            "d7695f7a26fd90dccdffc9e395362b746aac62712e35e6452bafcc4671b44fb2"
        )

    def test_l4_before_l3_star(self):
        # no family on a tree with n <= 7 holds both L4 and L3*, so the digest
        # above cannot see their order; this 8-vertex instance pins it
        tree = Graph(8, ((0, 1), (0, 5), (1, 2), (2, 3), (2, 4), (5, 6), (5, 7)))
        result = build_family(tree, (0, 1, 2, 6), (1, 3, 5, 6), min_token_degree(tree, 4))
        assert family_labels(result) == ("L1", "L1", "L4", "L3*")
        assert planned_moves(result)[2:] == [
            ((6, 5), (5, 7), (2, 3), (0, 5), (5, 6), (7, 5)),
            ((2, 4), (1, 2), (2, 3), (0, 5), (4, 2), (2, 1)),
        ]
        assert [cond.bound for _, _, (cond,) in result.plans[2:]] == [
            (("w", 7), ("z", 6)), (("w", 4), ("z", 1)),
        ]

@st.composite
def tree_distance2_instance(draw):
    n = draw(st.integers(min_value=4, max_value=7))
    trees = enumerate_trees(n)
    tree = trees[draw(st.integers(min_value=0, max_value=len(trees) - 1))]
    k = draw(st.integers(min_value=1, max_value=n - 1))
    tg = build_token_graph(tree, k)
    x = tg.vertices[draw(st.integers(min_value=0, max_value=len(tg.vertices) - 1))]
    mids = fk_neighbors(tg, x)
    mid = mids[draw(st.integers(min_value=0, max_value=len(mids) - 1))]
    adj = set(mids) | {x}
    options = [y for y in fk_neighbors(tg, mid) if y not in adj]
    if not options:
        return None
    y = options[draw(st.integers(min_value=0, max_value=len(options) - 1))]
    return tree, x, y, tg.min_degree()


class TestRandomInstances:
    @given(tree_distance2_instance())
    @settings(max_examples=150, deadline=None)
    def test_family_verifies(self, instance):
        if instance is None:
            return
        tree, x, y, delta = instance
        result = build_family(tree, x, y, delta)
        verify_result(tree, x, y, result)

    @given(tree_distance2_instance())
    @settings(max_examples=60, deadline=None)
    def test_family_is_symmetric_in_its_endpoints(self, instance):
        if instance is None:
            return
        tree, x, y, delta = instance
        forward = build_family(tree, x, y, delta)
        backward = build_family(tree, y, x, delta)
        assert len(forward.family) == len(backward.family)
        assert forward.context.m == backward.context.m
