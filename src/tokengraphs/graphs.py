"""Simple undirected graphs on dense integer vertices, with small-order utilities.

Vertices are always 0..n-1. Graphs are immutable and hashable so they can sit
inside frozen dataclasses and key caches.  The connectivity oracles read a
`MaskGraph`, and fold by its `symmetries` with `orbit_firsts`.
"""

from __future__ import annotations

import math
import string
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Sequence

__all__ = [
    "Graph",
    "Graph6Error",
    "parse_graph6",
    "emit_graph6",
    "girth",
    "enumerate_trees",
    "tree_canonical_form",
    "bridged_cliques",
]


class Graph6Error(ValueError):
    """Raised when a graph6 payload cannot be decoded."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class MaskGraph:
    """A graph read through `n` and `neighbor_masks`, which a subclass provides;
    the degree, the BFS and the DFS are each computed at most once per graph."""

    def min_degree(self) -> int:
        return self._min_degree

    @cached_property
    def _min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("empty graph has no degrees")
        return min(map(int.bit_count, self.neighbor_masks))

    @cached_property
    def connected(self) -> bool:
        """Whether the graph is connected: `mask_connected` on this graph."""
        return mask_connected(self.neighbor_masks)

    @cached_property
    def cut_flags(self) -> tuple[bool, bool, bool]:
        """(connected, has a cut vertex, has a bridge): `mask_cut_flags` on this graph."""
        return mask_cut_flags(self.neighbor_masks)

    @cached_property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.neighbor_masks)) // 2

    def symmetries(self, fixing: int | None = None) -> list[Sequence[int]]:
        """Vertex maps generating automorphisms that fix `fixing`: none known here."""
        return []


@dataclass(frozen=True)
class Graph(MaskGraph):
    """An undirected simple graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"vertex count must be a non-negative int, got {self.n!r}")
        try:
            edges = iter(self.edges)
        except TypeError:
            raise ValueError(f"edges {self.edges!r} is not a collection of vertex pairs") from None
        seen = set()
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair of vertex ints") from None
            if not (isinstance(u, int) and isinstance(v, int)):
                raise ValueError(f"edge {e!r} has an endpoint that is not a vertex int")
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

    def is_tree(self) -> bool:
        return self.n >= 1 and self.edge_count == self.n - 1 and self.connected

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2


def mask_connected(masks: Sequence[int]) -> bool:
    """Whether the graph with neighbour bitmasks `masks` is connected.

    A breadth-first search from vertex 0 in which each level is one mask: the
    OR of the frontier's neighbour masks, less the vertices already seen.
    `MaskGraph.connected` caches the answer per graph.
    """
    full = (1 << len(masks)) - 1
    seen = frontier = 1 & full
    while frontier and seen != full:
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= masks[low.bit_length() - 1]
        frontier = reach & ~seen
        seen |= frontier
    return seen == full


def mask_cut_flags(masks: Sequence[int]) -> tuple[bool, bool, bool]:
    """(connected, has a cut vertex, has a bridge), from one DFS on masks.

    `masks[v]` is the neighbour bitmask of vertex v.  `MaskGraph.cut_flags`
    caches the answer per graph.

    One iterative DFS from vertex 0 (Hopcroft and Tarjan, "Efficient
    algorithms for graph manipulation", CACM 16, 1973) takes each step with
    one mask operation: the top vertex v moves to its least neighbour in
    `masks[v] & unseen`, or finishes when there is none.  The graph is
    connected exactly when the DFS reaches every vertex.  Each vertex c on
    the stack keeps two masks: `before`, the vertices seen before c was
    discovered, and `reach`, the OR of the neighbour masks of c and of the
    vertices of its subtree finished so far.  When c finishes, its subtree
    is exactly `seen & ~before`, every neighbour of the subtree is seen, and
    so `reach & before` is the set of vertices outside the subtree that are
    joined to it.  In an undirected DFS every non-tree edge joins a vertex
    to one of its ancestors, so that set is c's parent p and those ancestors
    of p that a back edge from the subtree reaches.  So:

    - the root is a cut vertex exactly when it has two or more children;
    - another vertex p is one exactly when some child's set is {p}, since
      then removing p cuts that child's subtree off from the root;
    - a tree edge (p, c) is a bridge exactly when c's set is {p} and c is
      p's only neighbour in the subtree, so that it is the one edge leaving
      the subtree; a non-tree edge lies on a cycle, so it never is.

    Only the vertices on the stack hold these masks.  `unseen` is kept
    beside `seen` so that a step ANDs a neighbour mask with it instead of
    complementing `seen`, and each `before` is a past `seen`, no wider than
    the highest vertex seen by then.  The cut-vertex and bridge flags
    describe the graph only when it is connected (otherwise they describe
    the component of vertex 0).
    """
    n = len(masks)
    if n == 0:
        return True, False, False
    seen, unseen = 1, (1 << n) - 2
    stack, befores, reaches = [0], [0], [masks[0]]
    root_children = 0
    cut_vertex = bridge = False
    while True:
        v = stack[-1]
        rest = masks[v] & unseen
        if rest:
            bit = rest & -rest
            befores.append(seen)
            seen |= bit
            unseen ^= bit
            w = bit.bit_length() - 1
            stack.append(w)
            reaches.append(masks[w])
            continue
        stack.pop()
        if not stack:
            break
        before, reach = befores.pop(), reaches.pop()
        p = stack[-1]
        reaches[-1] |= reach
        if not p:
            root_children += 1
        if reach & before == 1 << p:
            cut_vertex = cut_vertex or p > 0
            bridge = bridge or masks[p] & seen & ~before == 1 << v
    return not unseen, cut_vertex or root_children > 1, bridge


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


@cache
def _g6_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The (row, col) pairs of order n in graph6 bit order: column by column,
    rows ascending within a column."""
    return tuple((row, col) for col in range(1, n) for row in range(col))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optionally prefixed with the standard header)."""
    s = text.strip(string.whitespace)  # str.strip() would drop \x1c-\x1f, \x85 and \xa0
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
    return Graph(n, tuple(pair for pair, bit in zip(_g6_pairs(n), bits) if bit == "1"))


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a single-line graph6 string (requires n <= 62)."""
    if g.n > 62:
        raise ValueError(f"graph6 single-byte encoding requires n <= 62, got {g.n}")
    present = set(g.edges)
    s = "".join("1" if pair in present else "0" for pair in _g6_pairs(g.n))
    s += "0" * (-len(s) % 6)
    out = [chr(g.n + 63)]
    for i in range(0, len(s), 6):
        out.append(chr(int(s[i : i + 6], 2) + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# free trees

_TREE_COUNT_MAX = 13


def _hang(adj: Sequence[Iterable[int]], marked: int
          ) -> tuple[list[int], list[str], list[list[int]]]:
    """A tree hung from its centroids, as (centroids, code, kids).

    The centroids are the one or two vertices whose largest branch is
    smallest, that is has at most n // 2 vertices; with two, each hangs from
    the other across the central edge.  code[u] is the AHU code of the
    subtree at u: "(", or "[" when u is in the bitmask `marked`, then its
    children's codes in order, then ")".  kids[u] lists the children of u in
    the order of their codes.  Equal codes mean isomorphic subtrees with the
    marks mapped onto marks (Aho, Hopcroft and Ullman, "The Design and
    Analysis of Computer Algorithms", 1974).
    """
    n = len(adj)
    order, parent = [0], [-1] * n
    for u in order:  # breadth-first from 0; order grows while it is read
        for w in adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    size, heaviest = [1] * n, [0] * n
    for u in reversed(order[1:]):
        p = parent[u]
        size[p] += size[u]
        if size[u] > heaviest[p]:
            heaviest[p] = size[u]
    cents = [u for u in range(n) if heaviest[u] <= n // 2 and n - size[u] <= n // 2]
    if len(cents) == 2:
        parent[cents[0]], parent[cents[1]] = cents[1], cents[0]
    else:
        parent[cents[0]] = -1
    order, kids = list(cents), [None] * n
    for u in order:  # breadth-first from the centroids
        kids[u] = below = [w for w in adj[u] if w != parent[u]]
        for w in below:
            parent[w] = u
        order += below
    code = [""] * n
    for u in reversed(order):
        below = kids[u]
        below.sort(key=code.__getitem__)
        code[u] = ("[" if marked >> u & 1 else "(") + "".join([code[w] for w in below]) + ")"
    return cents, code, kids


def _canonical(adj: Sequence[Iterable[int]]) -> tuple[str, list[int]]:
    """The canonical form of a tree and its canonical labels.

    The form is the least code (`_hang`) of the tree rooted at a centroid, so
    equal forms mean isomorphic trees.  The labels number the vertices in
    preorder from that centroid, children in code order.  Subtrees with equal
    codes are equal once ordered that way, so equal forms give identical
    labelled trees.
    """
    cents, code, kids = _hang(adj, 0)
    root = cents[0]
    if len(cents) == 2:
        # each centroid's code leaves out the other's half: put it back
        whole = []
        for c, other in (cents, cents[::-1]):
            below = sorted(kids[c] + [other], key=code.__getitem__)
            whole.append(("(" + "".join([code[w] for w in below]) + ")", c, below))
        form, root, below = min(whole)
        code[root], kids[root] = form, below
    label, stack = [0] * len(adj), [root]
    for i in range(len(adj)):
        u = stack.pop()
        label[u] = i
        stack += reversed(kids[u])
    return code[root], label


def tree_canonical_form(g: Graph) -> str:
    """Isomorphism-invariant string for a tree (rooted AHU at the centroid)."""
    if not g.is_tree():
        raise ValueError("tree_canonical_form requires a tree")
    return _canonical(g.adjacency)[0]


def tree_automorphism_generators(g: Graph, marked: int = 0) -> list[tuple[int, ...]]:
    """Involutions, as vertex maps, that generate the automorphisms of a tree
    that map the vertex set with bitmask `marked` onto itself.

    Hung from its centroids (`_hang`), the group is generated by swapping
    each two consecutive children of equal code at every vertex, pairing their
    children in code order, and the two centroids' halves when their codes
    agree.  Every automorphism fixes the centroid set, and the marked codes
    are equal exactly on subtrees that an automorphism keeping the marks can
    exchange, so the same argument holds with marks (Aho, Hopcroft and
    Ullman, 1974, on rooted trees with labelled vertices).
    """
    if not g.is_tree():
        raise ValueError("tree_automorphism_generators requires a tree")
    cents, code, kids = _hang(g.adjacency, marked)

    def swap(a: int, b: int) -> tuple[int, ...]:
        perm, stack = list(range(g.n)), [(a, b)]
        while stack:
            a, b = stack.pop()
            perm[a], perm[b] = b, a
            stack += zip(kids[a], kids[b])
        return tuple(perm)

    gens = [swap(*cents)] if len(cents) == 2 and code[cents[0]] == code[cents[1]] else []
    for below in kids:
        gens += [swap(c, d) for c, d in zip(below, below[1:]) if code[c] == code[d]]
    return gens


def orbit_firsts(points: Iterable[int], maps: Sequence[Sequence[int]]) -> list[int]:
    """The points that no earlier point's orbit reached, in order: the first
    point of each orbit under the group the maps generate.

    Each map is a list of positions: `table[x]` is the image of x, which may
    lie outside `points`.  The points the maps reach from x are exactly its
    orbit: the group is finite, so each map's inverse is a power of that map.
    """
    seen: set[int] = set()
    firsts = []
    for x in points:
        if x in seen:
            continue
        firsts.append(x)
        seen.add(x)
        todo = [x]
        while todo:
            y = todo.pop()
            for table in maps:
                z = table[y]
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
    return firsts


def enumerate_trees(n: int) -> list[Graph]:
    """All free trees on n vertices, one canonical representative per class.

    Listed straight from their canonical forms (`_tree_level`), in form
    order, with the canonical labels of `_canonical`.  Each level is built
    once per process.
    """
    if not 1 <= n <= _TREE_COUNT_MAX:
        raise ValueError(f"enumerate_trees supports 1 <= n <= {_TREE_COUNT_MAX}, got {n}")
    return list(_tree_level(n).values())


@cache
def _tree_level(size: int) -> dict[str, Graph]:
    """One canonically labelled tree per class on `size` vertices, keyed by
    canonical form (`_canonical`), in key order; read-only.

    Every free tree is one of two kinds (Wright, Richmond, Odlyzko and
    McKay, "Constant time generation of free trees", SIAM J. Comput. 15,
    1986).  With one centroid, every branch at it has at most (size-1)//2
    vertices, so its form is "(" + the sorted codes of a multiset of rooted
    trees of at most that size and size-1 vertices in all + ")", and every
    such multiset is one tree.  With two, size is even and the central edge
    joins two rooted halves of size/2 vertices; an unordered pair of halves
    is one tree, and its form is the smaller of the two codes that hang one
    half below the other's root.  So each form is listed once and nothing is
    canonicalised or deduplicated, and `_tree_of_code` reads the tree off
    its form with the labels `_canonical` gives.
    """
    forms = ["(" + "".join(branches) + ")" for branches in _forests(size - 1, (size - 1) // 2)]
    if size % 2 == 0:
        for (a, a_kids), (b, b_kids) in combinations_with_replacement(_rooted(size // 2), 2):
            forms.append(min("(" + "".join(sorted(a_kids + (b,))) + ")",
                             "(" + "".join(sorted(b_kids + (a,))) + ")"))
    return {form: _tree_of_code(form) for form in sorted(forms)}


@cache
def _rooted(size: int) -> list[tuple[str, tuple[str, ...]]]:
    """Every rooted tree on `size` vertices, as its AHU code and its root's
    children's codes in sorted order."""
    return [("(" + "".join(kids) + ")", kids) for kids in _forests(size - 1, size - 1)]


@cache
def _forests(total: int, cap: int) -> list[tuple[str, ...]]:
    """Every multiset of rooted trees with at most `cap` vertices each and
    `total` in all, as their sorted AHU codes: those with no tree of `cap`
    vertices, then those with j >= 1 of them."""
    if total == 0:
        return [()]
    if cap == 0:
        return []
    out = list(_forests(total, cap - 1))
    codes = [code for code, _ in _rooted(cap)]
    for j in range(1, total // cap + 1):
        for rest in _forests(total - j * cap, cap - 1):
            out += [tuple(sorted(rest + top)) for top in combinations_with_replacement(codes, j)]
    return out


def _tree_of_code(code: str) -> Graph:
    """The tree of an AHU code: its vertices are the code's opening brackets,
    numbered in order, each joined to the vertex whose brackets enclose it,
    which numbers the vertices in preorder with children in code order."""
    edges, enclosing, count = [], [], 0
    for ch in code:
        if ch == "(":
            if enclosing:
                edges.append((enclosing[-1], count))
            enclosing.append(count)
            count += 1
        else:
            enclosing.pop()
    return Graph(count, tuple(edges))


# ---------------------------------------------------------------------------
# small generators

def bridged_cliques(m: int) -> Graph:
    """Two disjoint m-cliques joined by a single edge between vertices 0 and m."""
    if m < 2:
        raise ValueError("cliques need at least 2 vertices")
    edges: list[tuple[int, int]] = list(combinations(range(m), 2))
    edges += [(u + m, v + m) for u, v in combinations(range(m), 2)]
    edges.append((0, m))
    return Graph(2 * m, tuple(edges))
