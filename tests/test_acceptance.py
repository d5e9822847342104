"""Acceptance checks, one test per numbered criterion.

Each test prints one `ACCEPT criterion-N PASS|FAIL` line (run pytest with -s
to see them) and asserts the same verdict.  Two shared sweeps back the
checks: a full tree path sweep for n <= 8 and the small-graph atlas for
n <= 7.  The whole module takes roughly half a minute on one core.
"""

import json
import math
import random
import warnings
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

from _catalog import girth5_catalog
from _fk import family_faults, fk_neighbors, normalized_paths
from tokengraphs.cli import main
from tokengraphs.connectivity import (
    _unit_flow,
    brute_force_connectivity,
    edge_connectivity,
    vertex_connectivity,
)
from tokengraphs.families import Case1Context, build_family, check_trace
from tokengraphs.graphs import Graph, emit_graph6, enumerate_trees, girth
from tokengraphs.tokens import build_token_graph, min_token_degree

STEP1_LABELS = {"T1", "T2", "T3", "T4", "L1", "L2", "L3", "L4", "L3*", "L4*"}

# ten-vertex spider whose 5-token pairs attain the extension bounds that the
# n <= 8 sweep leaves open
TRISTAR = Graph(10, ((0, 1), (0, 4), (0, 7), (1, 2), (1, 3), (4, 5), (4, 6), (7, 8), (7, 9)))


def verdict(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPT {name} {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def run_json(capsys, argv) -> tuple[int, list[dict]]:
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines()]


@pytest.fixture(scope="module")
def tree_sweep():
    """Build and re-verify a family for every distance-2 pair, trees n <= 8."""
    stats = {
        "pairs": 0,
        "paths": 0,
        "failures": [],
        "step1_mismatch": [],
        "trace_failures": [],
        "slack": {1: set(), 2: set()},
    }
    for n in range(2, 9):
        for tree in enumerate_trees(n):
            g6 = emit_graph6(tree)
            for k in range(1, n):
                tg = build_token_graph(tree, k)
                delta = min_token_degree(tree, k)
                for i, j in tg.distance2_pairs():
                    x_cfg, y_cfg = tg.vertices[i], tg.vertices[j]
                    stats["pairs"] += 1
                    where = (g6, k, x_cfg, y_cfg)
                    try:
                        result = build_family(tree, x_cfg, y_cfg, delta)
                    except Exception as exc:
                        stats["failures"].append((*where, str(exc)))
                        continue
                    # disjointness and endpoints by set arithmetic on the
                    # paths' configurations, not by the engine's own check
                    paths = result.family
                    stats["paths"] += len(paths)
                    faults = family_faults(paths, x_cfg, y_cfg)
                    if len(paths) < delta or faults:
                        stats["failures"].append((*where, len(paths), faults))
                        continue
                    m = result.context.m
                    step1 = sum(1 for label, _, _ in result.plans if label in STEP1_LABELS)
                    if step1 != m:
                        stats["step1_mismatch"].append((*where, step1, m))
                    case = 1 if isinstance(result.context, Case1Context) else 2
                    stats["slack"][case].add(result.delta - m)
                    traces = [conds for _, _, conds in result.plans]
                    for path, conds in zip(normalized_paths(result), traces):
                        for cond in conds:
                            if not check_trace(path.masks[1:-1], cond, result.context):
                                stats["trace_failures"].append((*where, cond.id))
    return stats


@pytest.fixture(scope="module")
def atlas():
    """Every simple graph on 1..7 vertices, as library graphs."""
    graphs = []
    for h in nx.graph_atlas_g()[1:]:
        graphs.append(Graph(h.number_of_nodes(), tuple(h.edges())))
    assert len(graphs) == 1252
    return graphs


def test_criterion_1_tree_connectivity(capsys):
    code, records = run_json(capsys, ["theorem", "--n-max", "9"])
    counts = Counter(r["status"] for r in records)
    trees = {r["graph_id"] for r in records}
    equalities = all(r["kappa"] == r["lambda"] == r["delta"] for r in records)
    ok = (
        code == 0
        and counts == Counter(confirmed=654)
        and len(trees) == 94
        and equalities
    )
    verdict(
        "criterion-1",
        ok,
        f"94 trees n<=9, {len(records)} (tree,k) units, {counts['violated']} violated",
    )


def test_criterion_2_path_families(capsys, tree_sweep):
    code, records = run_json(capsys, ["paths", "--n-max", "8"])
    counts = Counter(r["status"] for r in records)
    cli_ok = code == 0 and counts == Counter(confirmed=278)
    sweep_ok = not tree_sweep["failures"] and not tree_sweep["step1_mismatch"]
    verdict(
        "criterion-2",
        cli_ok and sweep_ok,
        f"{tree_sweep['pairs']} pairs over trees n<=8, {tree_sweep['paths']} paths "
        f"audited for endpoints and disjointness, {len(tree_sweep['failures'])} failures, "
        f"{len(tree_sweep['step1_mismatch'])} step-1 size mismatches",
    )


def test_criterion_3_extension_bounds(tree_sweep):
    slack1, slack2 = tree_sweep["slack"][1], tree_sweep["slack"][2]
    bounds_ok = max(slack1) <= 2 and max(slack2) <= 1
    # negative slack just means the guaranteed family already beats the
    # graph-wide degree floor; the bound and attainment track delta - m >= 0
    attained1 = sorted(s for s in slack1 if s >= 0)
    attained2 = sorted(s for s in slack2 if s >= 0)
    sweep_attains = attained1[:2] == [0, 1] and 0 in attained2

    # the sweep stops at n = 8; the ten-vertex spider attains what is absent
    delta = min_token_degree(TRISTAR, 5)
    spider1 = build_family(TRISTAR, (0, 1, 2, 3, 4), (0, 1, 2, 3, 7), delta)
    spider2 = build_family(TRISTAR, (0, 1, 2, 3, 4), (1, 2, 3, 5, 7), delta)
    attained_elsewhere = (
        delta - spider1.context.m == 2 and delta - spider2.context.m == 1
    )
    verdict(
        "criterion-3",
        bounds_ok and sweep_attains and attained_elsewhere,
        f"case-1 max slack {max(slack1)} (bound 2), attained {attained1} of [0, 1, 2]; "
        f"case-2 max slack {max(slack2)} (bound 1), attained {attained2} of [0, 1]; "
        f"missing values 2 and 1 attained on the 10-vertex spider",
    )


def test_criterion_4_bridged_cliques(capsys):
    code, records = run_json(capsys, ["hfamily", "--m-min", "4", "--m-max", "6"])
    got = [(r["m"], r["kappa"], r["lambda"], r["delta"], r["status"]) for r in records]
    expect = [
        (4, 3, 3, 4, "confirmed"),
        (5, 4, 4, 6, "confirmed"),
        (6, 5, 5, 8, "confirmed"),
    ]
    verdict("criterion-4", code == 0 and got == expect, f"m=4..6 -> {got}")


def test_criterion_5_structural_invariants(atlas):
    def edge_set(tg):
        return {frozenset((u, w)) for u in tg.vertices for w in fk_neighbors(tg, u)}

    checked = 0
    bad = []
    for g in atlas:
        n = g.n
        token_graphs = {k: build_token_graph(g, k) for k in range(1, n)}

        def complement(cfg):
            # the occupied/free exchange on the n vertices of g
            return tuple(sorted(set(range(n)) - set(cfg)))

        for k, tg in token_graphs.items():
            if len(tg.vertices) != math.comb(n, k):
                bad.append((g, k, "vertex count"))
            if tg.edge_count != math.comb(n - 2, k - 1) * g.edge_count:
                bad.append((g, k, "edge count"))
            checked += 1
        if 1 in token_graphs and token_graphs[1].as_graph() != g:
            bad.append((g, 1, "one-token graph differs from the base"))
        for k in range(1, n // 2 + 1):
            mapped = {
                frozenset((complement(u), complement(w)))
                for u, w in edge_set(token_graphs[k])
            }
            if mapped != edge_set(token_graphs[n - k]):
                bad.append((g, k, "complement map is not an isomorphism"))
    ok = not bad and checked == sum(g.n - 1 for g in atlas)
    verdict(
        "criterion-5",
        ok,
        f"counting, identity and complement isomorphisms on {len(atlas)} graphs n<=7, "
        f"{len(bad)} mismatches",
    )


def test_criterion_6_oracle_equivalence(atlas):
    rng = random.Random(20260819)
    randoms = []
    for _ in range(200):
        n = rng.randint(2, 8)
        p = rng.choice((0.2, 0.35, 0.5))
        randoms.append(
            Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < p))
        )

    disagreements = []
    for g in list(atlas) + randoms:
        if (vertex_connectivity(g), edge_connectivity(g)) != brute_force_connectivity(g):
            disagreements.append((g, "flow vs subset removal"))

    scan = list(atlas) + randoms + list(enumerate_trees(8))
    compared = 0
    for g in scan:
        if not g.connected or g.is_complete():
            continue
        by_definition = min(
            _unit_flow(g.neighbor_masks, s, t, g.n, split=True)
            for s, t in combinations(range(g.n), 2)
            if t not in g.adjacency[s]
        )
        if vertex_connectivity(g) != by_definition:
            disagreements.append((g, "pair set vs every non-adjacent pair"))
        compared += 1
    verdict(
        "criterion-6",
        not disagreements,
        f"flow vs subset removal on {len(atlas)} + 200 graphs, "
        f"pair set vs every non-adjacent pair on {compared} connected non-complete graphs, "
        f"{len(disagreements)} disagreements",
    )


def test_criterion_7_trace_audit(tree_sweep):
    verdict(
        "criterion-7",
        not tree_sweep["trace_failures"],
        f"{tree_sweep['pairs']} families re-audited, "
        f"{len(tree_sweep['trace_failures'])} condition failures",
    )


def test_criterion_8_girth5_scan(capsys, tmp_path, atlas):
    catalog = girth5_catalog(8)
    by_n = Counter(g.n for g in catalog)
    atlas_counts = Counter(
        g.n for g in atlas if g.connected and girth(g) >= 5
    )
    assert all(by_n[n] == atlas_counts[n] for n in range(1, 8)), (by_n, atlas_counts)
    assert by_n[8] == 47

    path = tmp_path / "girth5.g6"
    path.write_text("".join(emit_graph6(g) + "\n" for g in catalog), encoding="ascii")
    code, records = run_json(capsys, ["conjecture", "--input", str(path)])
    counts = Counter(r["status"] for r in records)
    violated = [r for r in records if r["status"] == "violated"]
    for r in violated:
        warnings.warn(f"conjecture violation: graph {r['graph_id']} k={r['k']}")
    # a violated record would be a finding about an open question, not a bug,
    # so the verdict only requires a complete scan with every unit reported
    ok = (
        code == 0
        and len(records) == 344
        and counts["skipped"] == 3
        and counts["confirmed"] + len(violated) == 341
    )
    verdict(
        "criterion-8",
        ok,
        f"{len(catalog)} girth>=5 graphs n<=8, {counts['confirmed']} confirmed, "
        f"{len(violated)} violations (findings, not failures)",
    )
