"""Benchmark workloads: CLI arguments, seeded inputs and output checks.

Everything here is stdlib-only and independent of the tokengraphs package,
so the checks do not trust the code they check.  Graphs are decoded from the
records' graph6 ids with this module's own codec, and delta is recomputed by
a direct scan of token configurations.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import deque
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1

# free trees on n vertices, OEIS A000055
FREE_TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}

# girth5-scan catalogue: (n, chords, graphs).  The structures come from one
# fixed seed; the run seed relabels vertices and shuffles the lines.  So a new
# seed changes the input bytes and the order in which flows meet vertex pairs,
# but not the isomorphism classes, and runs on different seeds do the same
# amount of work.  Random structures per seed would move the sweep time by
# about 25% per n = 10 graph, more than any bound the benchmark could keep.
GIRTH5_CATALOGUE_SEED = 5
GIRTH5_SHAPES = ((8, 1, 2), (8, 2, 2), (8, 3, 2), (9, 1, 2), (9, 2, 2), (9, 3, 2),
                 (10, 1, 2), (10, 2, 2), (11, 1, 1))


# ---------------------------------------------------------------------------
# graphs, own codec and BFS


def encode_graph6(n: int, edges) -> str:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [
        "1" if (row, col) in present else "0"
        for col in range(1, n)
        for row in range(col)
    ]
    s = "".join(bits)
    s += "0" * (-len(s) % 6)
    return chr(n + 63) + "".join(chr(int(s[i:i + 6], 2) + 63) for i in range(0, len(s), 6))


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    n = ord(text[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in text[1:])
    edges = []
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if bits[idx] == "1":
                edges.append((row, col))
            idx += 1
    return n, edges


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs_distances(adj, source: int) -> list[int]:
    """Hop distances from source; -1 marks unreachable vertices."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_connected(adj) -> bool:
    return min(bfs_distances(adj, 0)) >= 0


def shortest_cycle(adj) -> float:
    """Girth by BFS from every root, or inf for a forest."""
    best = float("inf")
    for root in range(len(adj)):
        dist = [-1] * len(adj)
        parent = [-1] * len(adj)
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def min_token_degree(n: int, edges, k: int) -> int:
    """Minimum over k-sets of the edges with exactly one end in the set."""
    return min(
        sum((u in occ) != (v in occ) for u, v in edges)
        for occ in map(set, combinations(range(n), k))
    )


def tree_canon(n: int, edges) -> str:
    """Isomorphism-invariant string of a tree: nested parentheses from a centre."""
    adj = _adjacency(n, edges)

    def rooted(v: int, parent: int) -> str:
        return "(" + "".join(sorted(rooted(w, v) for w in adj[v] if w != parent)) + ")"

    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    return min(rooted(c, -1) for c in layer)


# ---------------------------------------------------------------------------
# girth-5 input generator


def _prufer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return edges


def random_girth5_graph(rng: random.Random, n: int, chords: int) -> list[tuple[int, int]]:
    """A Pruefer tree plus up to `chords` edges between vertices at distance >= 4.

    A chord between vertices at distance d closes a shortest new cycle of
    length d + 1, so every chord keeps the girth at five or more.
    """
    edges = _prufer_tree(rng, n)
    for _ in range(chords):
        adj = _adjacency(n, edges)
        far = [
            (u, v)
            for u in range(n)
            for v, d in enumerate(bfs_distances(adj, u))
            if u < v and d >= 4
        ]
        if not far:
            break
        edges.append(rng.choice(far))
    return edges


def girth5_catalogue() -> list[tuple[int, list[tuple[int, int]]]]:
    """The fixed girth-5 structures, each checked with this module's own BFS."""
    rng = random.Random(GIRTH5_CATALOGUE_SEED)
    graphs = []
    for n, chords, count in GIRTH5_SHAPES:
        for _ in range(count):
            edges = random_girth5_graph(rng, n, chords)
            adj = _adjacency(n, edges)
            if not is_connected(adj) or shortest_cycle(adj) < 5:
                raise RuntimeError("generator produced a graph of girth below five")
            graphs.append((n, edges))
    return graphs


def girth5_lines(seed: int) -> list[str]:
    """The girth5-scan input for one seed, one graph6 line per graph."""
    rng = random.Random(seed)
    lines = []
    for n, edges in girth5_catalogue():
        label = list(range(n))
        rng.shuffle(label)
        lines.append(encode_graph6(n, [(label[u], label[v]) for u, v in edges]))
    rng.shuffle(lines)
    return lines


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One CLI sweep: its arguments, input files and output checks."""

    def __init__(self, name: str, mode: str, args: list[str], jobs: int = 1,
                 pairs: int | None = None):
        self.name = name
        self.mode = mode
        self.args = args
        self.jobs = jobs
        # the distance-2 pairs a paths sweep must cover, summed over records
        self.pairs = pairs

    def prepare(self, seed: int, workdir: str) -> list[str]:
        """Write any input files; return the CLI argv for one sweep."""
        argv = [self.mode, *self.args]
        if self.mode == "conjecture":
            path = os.path.join(workdir, f"girth5-seed{seed}.g6")
            with open(path, "w", encoding="ascii") as fh:
                fh.write("".join(line + "\n" for line in girth5_lines(seed)))
            argv += ["--input", os.path.relpath(path)]
        if self.jobs > 1:
            argv += ["--jobs", str(self.jobs)]
        return argv

    def expected_units(self, seed: int) -> list[tuple[object, int]]:
        """(graph key, k) of every record in output order.

        The key is the graph6 id for the girth-5 scan and the vertex count for
        the tree sweeps, whose id order is the enumerator's own.
        """
        if self.mode == "conjecture":
            return [
                (line, k)
                for line in girth5_lines(seed)
                for k in range(2, ord(line[0]) - 63 - 1)
            ]
        n_max = int(self.args[self.args.index("--n-max") + 1])
        return [
            (n, k)
            for n in range(2, n_max + 1)
            for _ in range(FREE_TREES[n])
            for k in range(1, n)
        ]

    def check(self, text: str, exit_code: int, seed: int) -> tuple[int, int, list[str]]:
        """Check one sweep's stdout; return (attempted, failed, problems).

        A unit fails when its record is missing, unreadable or breaks an
        invariant.  A failed whole-output check (summary, pair total, tree
        coverage, reference digest) fails every unit.
        """
        expected = self.expected_units(seed)
        lines = text.splitlines()
        records = [line for line in lines if not line.startswith("#")]
        problems: list[str] = []
        failed = max(0, len(expected) - len(records))
        if failed:
            problems.append(f"{failed} of {len(expected)} records missing")
        pairs = 0
        trees: dict[int, set[str]] = {}
        prev_id = None
        for want, line in zip(expected, records):
            try:
                rec = json.loads(line)
                why = self._check_record(rec, want, prev_id)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                why = f"unreadable record: {exc}"
            if why:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"{line[:80]}: {why}")
                continue
            prev_id = rec["graph_id"]
            pairs += rec.get("pairs", 0)
            if self.mode != "conjecture":
                trees.setdefault(want[0], set()).add(tree_canon(*decode_graph6(prev_id)))

        whole = []
        if exit_code != 0:
            whole.append(f"exit code {exit_code}")
        if len(records) > len(expected):
            whole.append(f"{len(records) - len(expected)} unexpected records")
        summary = lines[-1] if lines else ""
        count = f": {len(expected)} records: "
        if not (summary.startswith(f"# {self.mode} ") and count in summary):
            whole.append(f"bad summary line {summary!r}")
        if self.pairs is not None and pairs != self.pairs:
            whole.append(f"{pairs} distance-2 pairs, expected {self.pairs}")
        if any(len(forms) != FREE_TREES[n] for n, forms in trees.items()):
            whole.append("tree ids do not cover the free trees once each")
        digest = reference_digest(self.name, seed)
        if digest and output_digest(text) != digest:
            whole.append(f"record digest {output_digest(text)} is not the reference {digest}")
        if whole:
            problems += whole
            failed = len(expected)
        return len(expected), failed, problems

    def _check_record(self, rec: dict, want, prev_id: str | None) -> str | None:
        g6, k = rec["graph_id"], rec["k"]
        n, edges = decode_graph6(g6)
        if self.mode == "conjecture":
            if (g6, k) != want:
                return f"expected unit {want}"
        elif (n, k) != want:
            return f"expected n, k = {want}"
        elif k > 1 and g6 != prev_id:
            return "graph id changed inside a tree's k range"
        elif len(edges) != n - 1 or not is_connected(_adjacency(n, edges)):
            return "graph id is not a tree"
        delta = min_token_degree(n, edges, k)
        if rec["delta"] != delta:
            return f"delta {rec['delta']}, expected {delta}"
        if self.mode == "theorem":
            if not rec["kappa"] == rec["lambda"] == delta or rec["status"] != "confirmed":
                return "kappa = lambda = delta does not hold"
        elif self.mode == "paths":
            if rec["status"] != "confirmed" or (rec["pairs"] and rec["min_family_size"] < delta):
                return "min_family_size below delta"
        else:
            # every catalogue graph has kappa = delta (reference digest, seed 1)
            # and relabelling keeps both, so no seed may give a violation
            if not 1 <= rec["kappa"] <= delta:
                return "kappa outside [1, delta]"
            if rec["kappa"] != delta or rec["status"] != "confirmed":
                return "kappa < delta on a catalogue graph that has kappa = delta"
        return None


def output_digest(text: str) -> str:
    """sha256 of the record lines, without the summary line."""
    records = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    return hashlib.sha256(records.encode()).hexdigest()


def reference_digest(name: str, seed: int) -> str | None:
    """The frozen record digest for this workload and seed, if there is one."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        ref = json.load(fh).get(name)
    if ref is None or ref["seed"] not in (None, seed):
        return None
    return ref["sha256"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("theorem-trees", "theorem", ["--n-max", "9"]),
        # 27,660 distance-2 pairs over all trees n <= 8, every k
        Workload("paths-trees", "paths", ["--n-max", "8"], pairs=27_660),
        Workload("girth5-scan", "conjecture", []),
        Workload("theorem-trees-j2", "theorem", ["--n-max", "9"], jobs=2),
    )
}
