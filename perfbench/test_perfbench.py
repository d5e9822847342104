"""Tests of the benchmark's own code: inputs, output checks, tracer, contract.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root.  The contract tests start short benchmark
runs; the whole module takes about ten seconds.
"""

import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads as W  # noqa: E402

# sha256 of the girth5-scan input file for the default seed
GIRTH5_DEFAULT_INPUT_SHA256 = "9b770db982645e9521c17ada7b86ee948ad1403e4fa68cfcf4dd8758f6d3ab7a"


def _cli_output(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "tokengraphs", *argv],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            texts = []
            for _ in range(2):
                W.WORKLOADS["girth5-scan"].prepare(W.DEFAULT_SEED, tmp)
                with open(os.path.join(tmp, f"girth5-seed{W.DEFAULT_SEED}.g6"), "rb") as fh:
                    texts.append(fh.read())
        self.assertEqual(texts[0], texts[1])
        self.assertEqual(hashlib.sha256(texts[0]).hexdigest(), GIRTH5_DEFAULT_INPUT_SHA256)

    def test_seeds_relabel_the_same_structures(self):
        a, b = W.girth5_lines(1), W.girth5_lines(2)
        self.assertNotEqual(a, b)
        self.assertEqual(sorted(len(W.decode_graph6(g)[1]) for g in a),
                         sorted(len(W.decode_graph6(g)[1]) for g in b))

    def test_graphs_are_connected_with_girth_five(self):
        for line in W.girth5_lines(3):
            n, edges = W.decode_graph6(line)
            adj = W._adjacency(n, edges)
            self.assertTrue(W.is_connected(adj))
            self.assertGreaterEqual(W.shortest_cycle(adj), 5)
            self.assertTrue(8 <= n <= 11)

    def test_chords_keep_girth(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(5, 12)
            edges = W.random_girth5_graph(rng, n, 4)
            adj = W._adjacency(n, edges)
            self.assertTrue(W.is_connected(adj))
            self.assertGreaterEqual(W.shortest_cycle(adj), 5)

    def test_graph6_round_trip(self):
        edges = [(0, 3), (1, 4), (2, 5), (3, 6), (0, 6)]
        by_column = sorted(edges, key=lambda e: (e[1], e[0]))
        self.assertEqual(W.decode_graph6(W.encode_graph6(7, edges)), (7, by_column))
        self.assertEqual(W.encode_graph6(4, [(0, 1), (1, 2), (2, 3)]), "Ch")

    def test_tree_canon_counts_free_trees(self):
        # every labelled tree on n vertices is the decoding of one Pruefer code
        for n in range(3, 8):
            forms = set()
            for code in itertools.product(range(n), repeat=n - 2):
                rng = _Replay(code)
                forms.add(W.tree_canon(n, W._prufer_tree(rng, n)))
            self.assertEqual(len(forms), W.FREE_TREES[n], n)

    def test_min_token_degree(self):
        path4 = [(0, 1), (1, 2), (2, 3)]
        self.assertEqual(W.min_token_degree(4, path4, 1), 1)
        self.assertEqual(W.min_token_degree(4, path4, 2), 1)
        cycle5 = [(i, (i + 1) % 5) for i in range(5)]
        self.assertEqual(W.min_token_degree(5, cycle5, 2), 2)


class _Replay:
    """Stands in for random.Random, handing out a fixed Pruefer code."""

    def __init__(self, code):
        self.code = iter(code)

    def randrange(self, _n):
        return next(self.code)


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.theorem = W.Workload("small-theorem", "theorem", ["--n-max", "6"])
        cls.theorem_text = _cli_output("theorem", "--n-max", "6")
        cls.paths = W.Workload("small-paths", "paths", ["--n-max", "5"], pairs=None)
        cls.paths_text = _cli_output("paths", "--n-max", "5")

    def test_clean_outputs_pass(self):
        self.assertEqual(self.theorem.check(self.theorem_text, 0, 1), (51, 0, []))
        attempted, failed, problems = self.paths.check(self.paths_text, 0, 1)
        self.assertEqual((attempted, failed, problems), (21, 0, []))

    def test_wrong_kappa_fails_one_unit(self):
        lines = self.theorem_text.splitlines(keepends=True)
        rec = json.loads(lines[10])
        rec["kappa"] += 1
        lines[10] = json.dumps(rec) + "\n"
        attempted, failed, problems = self.theorem.check("".join(lines), 0, 1)
        self.assertEqual((attempted, failed), (51, 1))

    def test_missing_record_and_bad_exit(self):
        lines = self.theorem_text.splitlines(keepends=True)
        _, failed, _ = self.theorem.check("".join(lines[:-2] + lines[-1:]), 0, 1)
        self.assertEqual(failed, 1)
        _, failed, _ = self.theorem.check(self.theorem_text, 1, 1)
        self.assertEqual(failed, 51)

    def test_duplicate_tree_fails_coverage(self):
        lines = self.theorem_text.splitlines(keepends=True)
        # replace the last n = 6 tree's records by a copy of the first one's
        recs = [json.loads(line) for line in lines[:-1]]
        ids = [r["graph_id"] for r in recs if r["graph_id"].startswith("E")]
        first, last = ids[0], ids[-1]
        text = "".join(
            json.dumps(dict(r, graph_id=first) if r["graph_id"] == last else r) + "\n" for r in recs
        ) + lines[-1]
        _, failed, problems = self.theorem.check(text, 0, 1)
        self.assertEqual(failed, 51, problems)

    def test_pairs_total_and_digest(self):
        paths = W.Workload("small-paths", "paths", ["--n-max", "5"], pairs=1)
        self.assertEqual(paths.check(self.paths_text, 0, 1)[1], 21)
        self.assertIsNone(W.reference_digest("girth5-scan", W.DEFAULT_SEED + 1))
        self.assertIsNotNone(W.reference_digest("girth5-scan", W.DEFAULT_SEED))


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tr = tracer.Tracer()
        tr.spans += [(1, "cli.main", 0, 100, None, None), (2, "cli.unit", 10, 90, 1, "u")]
        tr.agg[(2, "moves.token_path")] = [5, 30]
        tr.agg[(2, "moves.check_trace")] = [2, 20]
        calls, total, own = tr.totals()
        self.assertEqual(own, {"cli.main": 20, "cli.unit": 30, "moves.token_path": 30,
                               "moves.check_trace": 20})
        self.assertEqual(calls["moves.token_path"], 5)
        self.assertEqual(sum(own.values()), total["cli.main"])

    def test_wrappers_record_parents(self):
        tr = tracer.Tracer()
        inner = tr.leaf("moves.check_trace", lambda x: x + 1)
        outer = tr.full("families.build_family", lambda x: inner(inner(x)))
        self.assertEqual(outer(1), 3)
        (sid, name, _, _, parent, _), = tr.spans
        self.assertEqual((name, parent), ("families.build_family", None))
        self.assertEqual(tr.agg[(sid, "moves.check_trace")][0], 2)


class ContractTest(unittest.TestCase):
    def _run(self, cwd, *args):
        return subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
            cwd=cwd, capture_output=True, text=True, timeout=180,
        )

    def test_traced_run_reports_every_per_layer_metric(self):
        proc = self._run(ROOT, "--workload", "theorem-trees-j2", "--seed", "3",
                         "--seconds", "1", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec["per_layer"]])
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["connectivity.vertex_connectivity_calls"]["value"], 654)

    def test_fails_without_the_source_tree(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self._run(tmp, "--workload", "theorem-trees", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
