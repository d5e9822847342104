"""Simple undirected graphs on dense integer vertices, with small-order utilities.

Vertices are always 0..n-1. Graphs are immutable and hashable so they can sit
inside frozen dataclasses and key caches.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from typing import Callable, Iterable, Sequence

__all__ = [
    "Graph",
    "Graph6Error",
    "parse_graph6",
    "emit_graph6",
    "girth",
    "enumerate_trees",
    "tree_canonical_form",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "bridged_cliques",
]


class Graph6Error(ValueError):
    """Raised when a graph6 payload cannot be decoded."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        seen = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            seen.add((min(u, v), max(u, v)))
        # normalise: each edge (u, v) with u < v, sorted, deduplicated
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per vertex, the bitmask of its neighbours (bit w set when vw is an edge)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return self.neighbor_masks[v].bit_count()

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("empty graph has no degrees")
        return min(m.bit_count() for m in self.neighbor_masks)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.neighbor_masks[u] >> v & 1)

    @cached_property
    def cut_flags(self) -> tuple[bool, bool, bool]:
        """(connected, has a cut vertex, has a bridge): `mask_cut_flags` on this graph."""
        return mask_cut_flags(self.neighbor_masks)

    @cached_property
    def pair_orbits(self) -> PairOrbits:
        """Orbits of vertex pairs under the automorphisms known for this graph:
        none, so every pair is its own orbit.  `TokenGraph.pair_orbits` knows more."""
        return PairOrbits((), 0)

    def is_connected(self) -> bool:
        return self.cut_flags[0]

    def is_tree(self) -> bool:
        return self.n >= 1 and self.edge_count == self.n - 1 and self.is_connected()

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2


def mask_cut_flags(masks: Sequence[int]) -> tuple[bool, bool, bool]:
    """(connected, has a cut vertex, has a bridge), from one low-point DFS.

    `masks[v]` is the neighbour bitmask of vertex v.  `Graph.cut_flags` and
    `TokenGraph.cut_flags` cache the answer per graph.

    One iterative DFS from vertex 0 computes discovery times and low points
    (the earliest discovery time reachable from a subtree by one back edge;
    Hopcroft and Tarjan, "Efficient algorithms for graph manipulation",
    CACM 16, 1973).  The graph is connected exactly when the DFS reaches
    every vertex.  In an undirected DFS every non-tree edge joins a vertex
    to an ancestor, so the subtrees of a vertex's children are joined to
    the rest of the graph only through their back edges:

    - the root is a cut vertex exactly when it has two or more children;
    - another vertex p is one exactly when some child c has low[c] >= disc[p];
    - a tree edge (p, c) is a bridge exactly when low[c] > disc[p], and a
      non-tree edge lies on a cycle, so it never is.

    The cut-vertex and bridge flags describe the graph only when it is
    connected (otherwise they describe the component of vertex 0).
    """
    n = len(masks)
    if n == 0:
        return True, False, False
    disc = [0] * n
    low = [0] * n
    parent = [-1] * n
    todo = list(masks)
    disc[0] = low[0] = clock = 1
    root_children = 0
    cut_vertex = bridge = False
    stack = [0]
    while stack:
        v = stack[-1]
        rest = todo[v]
        if rest:
            bit = rest & -rest
            todo[v] = rest ^ bit
            w = bit.bit_length() - 1
            if not disc[w]:
                clock += 1
                disc[w] = low[w] = clock
                parent[w] = v
                stack.append(w)
            elif w != parent[v] and disc[w] < low[v]:
                low[v] = disc[w]
            continue
        stack.pop()
        p = parent[v]
        if p < 0:
            continue
        if low[v] < low[p]:
            low[p] = low[v]
        if low[v] > disc[p]:
            bridge = True
        if p == 0:
            root_children += 1
        elif low[v] >= disc[p]:
            cut_vertex = True
    return clock == n, cut_vertex or root_children > 1, bridge


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or math.inf for forests.

    BFS from every vertex; a non-tree edge (u, w) seen from root r closes a
    walk of length dist(u)+dist(w)+1 through r, which contains a cycle no
    longer than that, and a root on a shortest cycle attains the girth.
    """
    best: int | float = math.inf
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


# ---------------------------------------------------------------------------
# graph6 codec (single-byte order, n <= 62)

_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optionally prefixed with the standard header)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 payload", 0)
    data = []
    for i, ch in enumerate(s):
        val = ord(ch)
        if not 63 <= val <= 126:
            raise Graph6Error(f"byte {val!r} outside graph6 range 63..126", i)
        data.append(val - 63)
    n = data[0]
    if n == 63:
        raise Graph6Error("multi-byte vertex counts (n > 62) not supported", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[1:]
    if len(body) < need:
        raise Graph6Error(
            f"truncated bit vector: n={n} needs {need} payload bytes, found {len(body)}",
            len(s),
        )
    if len(body) > need:
        raise Graph6Error("trailing bytes after bit vector", 1 + need)
    bits = "".join(format(b, "06b") for b in body)
    if any(b == "1" for b in bits[nbits:]):
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    edges = []
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if bits[idx] == "1":
                edges.append((row, col))
            idx += 1
    return Graph(n, tuple(edges))


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a single-line graph6 string (requires n <= 62)."""
    if g.n > 62:
        raise ValueError(f"graph6 single-byte encoding requires n <= 62, got {g.n}")
    present = set(g.edges)
    bits = []
    for col in range(1, g.n):
        for row in range(col):
            bits.append("1" if (row, col) in present else "0")
    s = "".join(bits)
    s += "0" * (-len(s) % 6)
    out = [chr(g.n + 63)]
    for i in range(0, len(s), 6):
        out.append(chr(int(s[i : i + 6], 2) + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# free trees

_TREE_COUNT_MAX = 12


def _rooted_codes(adj: Sequence[frozenset[int]]) -> Callable[[int, int], str]:
    """code(u, p): AHU code of the subtree at u hanging from neighbour p (-1: all of it)."""

    @cache
    def code(u: int, p: int) -> str:
        return "(" + "".join(sorted(code(c, u) for c in adj[u] if c != p)) + ")"

    return code


def _centroids(g: Graph) -> list[int]:
    """The one or two vertices of a tree whose largest branch is smallest."""
    n, adj = g.n, g.adjacency
    order, parent, size = [0], [-1] * n, [1] * n
    for u in order:  # breadth-first from 0; order grows while it is read
        for w in adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    heaviest = [max([n - size[u]] + [size[w] for w in adj[u] if w != parent[u]])
                for u in range(n)]
    best = min(heaviest)
    return [u for u in range(n) if heaviest[u] == best]


def tree_canonical_form(g: Graph) -> str:
    """Isomorphism-invariant string for a tree (rooted AHU at the centroid)."""
    if not g.is_tree():
        raise ValueError("tree_canonical_form requires a tree")
    code = _rooted_codes(g.adjacency)
    return min(code(c, -1) for c in _centroids(g))


def tree_automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Involutions, as vertex maps, that generate the automorphism group of a tree.

    Rooted at its centroid (at both, if two), the group is generated by swapping
    each two consecutive children of equal code at every vertex, pairing their
    children in code order, and the two centroids' halves when their codes agree.
    """
    if not g.is_tree():
        raise ValueError("tree_automorphism_generators requires a tree")
    adj, code, cents = g.adjacency, _rooted_codes(g.adjacency), _centroids(g)

    def kids(u: int, p: int) -> list[int]:
        return sorted((c for c in adj[u] if c != p), key=lambda c: code(c, u))

    def swap(a: int, pa: int, b: int, pb: int) -> tuple[int, ...]:
        perm, stack = list(range(g.n)), [(a, pa, b, pb)]
        while stack:
            a, pa, b, pb = stack.pop()
            perm[a], perm[b] = b, a
            stack.extend((c, a, d, b) for c, d in zip(kids(a, pa), kids(b, pb)))
        return tuple(perm)

    if len(cents) == 1:
        stack, gens = [(cents[0], -1)], []
    else:  # rooted at the central edge: each centroid hangs from the other
        stack = [(cents[0], cents[1]), (cents[1], cents[0])]
        gens = [swap(*stack[0], *stack[1])] if code(*stack[0]) == code(*stack[1]) else []
    while stack:
        u, p = stack.pop()
        children = kids(u, p)
        gens += [swap(c, u, d, u) for c, d in zip(children, children[1:])
                 if code(c, u) == code(d, u)]
        stack.extend((c, u) for c in children)
    return gens


class PairOrbits:
    """Orbits of unordered pairs of the points 0..N-1 under the group some maps
    generate, closed as they are met.

    Each map is a permutation of the points (`table[x]` is the image of x).
    The first lookup of a pair closes its orbit under the maps and files
    every pair in it under that pair's key, so later lookups of any pair of
    the orbit, from any walk, cost one dict read.  A pair is keyed by the
    ordered pair (lo, hi), packed as lo * N + hi.

    Closing takes at most `work` map images in all, since an orbit of pairs
    can be far larger than the few pairs a scan looks up (under the full
    symmetric group every pair with the same pattern is in one orbit).  Once
    the work is spent, closing stops and a pair not filed yet is an orbit of
    its own.  A walk then passes more pairs than it must, never fewer: every
    filed pair was reached from its key by the maps, so it is in that key's
    orbit.
    """

    def __init__(self, maps: Sequence[Sequence[int]], work: int):
        self.maps = tuple(maps)
        self._room = work
        self._orbit: dict[int, int] = {}

    def walk(self) -> Callable[[int, int], bool]:
        """A test that is false for a pair exactly when a pair filed under the
        same orbit was tested before in this walk.  While work remains, every
        orbit met is filed whole, so fed pairs in some order, the walk passes
        the first pair of each orbit met."""
        if not self.maps:
            return lambda a, b: True
        size, orbit, seen = len(self.maps[0]), self._orbit, set()

        def first(a: int, b: int) -> bool:
            key = a * size + b if a < b else b * size + a
            found = orbit.get(key)
            if found is None:
                found = self._close(a, b, key)
            if found in seen:
                return False
            seen.add(found)
            return True

        return first

    def _close(self, a: int, b: int, key: int) -> int:
        maps, size, orbit, room = self.maps, len(self.maps[0]), self._orbit, self._room
        if room > 0:
            orbit[key] = key
        todo = [(a, b)]
        while todo and room > 0:
            a, b = todo.pop()
            room -= len(maps)
            for table in maps:
                x, y = table[a], table[b]
                image = x * size + y if x < y else y * size + x
                if image not in orbit:
                    orbit[image] = key
                    todo.append((x, y))
        self._room = room
        return key


def _canonical_relabel(g: Graph) -> Graph:
    """Relabel a tree so equal canonical forms give identical edge tuples."""
    adj = g.adjacency
    canon = _rooted_codes(adj)
    root = min(_centroids(g), key=lambda c: canon(c, -1))
    new_id: dict[int, int] = {}

    def visit(u: int, p: int) -> None:
        new_id[u] = len(new_id)
        for c in sorted((c for c in adj[u] if c != p), key=lambda c: canon(c, u)):
            visit(c, u)

    visit(root, -1)
    return Graph(g.n, tuple((new_id[u], new_id[v]) for u, v in g.edges))


def enumerate_trees(n: int) -> list[Graph]:
    """All free trees on n vertices, one canonical representative per class.

    Grown by leaf extension (every tree on s+1 vertices is a tree on s
    vertices plus a pendant vertex), deduplicated by the AHU canonical form,
    returned in canonical-form order with deterministic labels.  Each level
    is grown once per process, so a sweep over n = 2..N grows N levels.
    """
    if not 1 <= n <= _TREE_COUNT_MAX:
        raise ValueError(f"enumerate_trees supports 1 <= n <= {_TREE_COUNT_MAX}, got {n}")
    level = _tree_level(n)
    return [_canonical_relabel(level[key]) for key in sorted(level)]


@cache
def _tree_level(size: int) -> dict[str, Graph]:
    """One tree per class on `size` vertices, keyed by canonical form; read-only."""
    if size == 1:
        return {tree_canonical_form(Graph(1, ())): Graph(1, ())}
    grown: dict[str, Graph] = {}
    for t in _tree_level(size - 1).values():
        for v in range(t.n):
            cand = Graph(size, t.edges + ((v, size - 1),))
            key = tree_canonical_form(cand)
            if key not in grown:
                grown[key] = cand
    return grown


# ---------------------------------------------------------------------------
# small generators

def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def bridged_cliques(m: int) -> Graph:
    """Two disjoint m-cliques joined by a single edge between vertices 0 and m."""
    if m < 2:
        raise ValueError("cliques need at least 2 vertices")
    edges: list[tuple[int, int]] = list(combinations(range(m), 2))
    edges += [(u + m, v + m) for u, v in combinations(range(m), 2)]
    edges.append((0, m))
    return Graph(2 * m, tuple(edges))
