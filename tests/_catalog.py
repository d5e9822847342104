"""Connected graphs of girth at least five, enumerated up to isomorphism.

Attaching a new vertex to a nonempty set of vertices that are pairwise at
distance three or more cannot create a cycle shorter than five.  Conversely,
deleting a non-cut vertex of a connected graph with girth >= 5 leaves another
one in which the deleted vertex's neighbours are pairwise that far apart, so
every such graph on n vertices is an extension of one on n - 1 and growing
from a single vertex reaches the whole catalogue.
"""

from itertools import combinations

import networkx as nx

from tokengraphs.graphs import Graph


def _nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _distances(g: Graph) -> list[list[int]]:
    big = g.n + 5
    table = [[big] * g.n for _ in range(g.n)]
    for s in range(g.n):
        table[s][s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in g.adjacency[u]:
                    if table[s][w] > d:
                        table[s][w] = d
                        nxt.append(w)
            frontier = nxt
    return table


def _extensions(g: Graph):
    dist = _distances(g)
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            if all(dist[u][w] >= 3 for u, w in combinations(combo, 2)):
                yield Graph(g.n + 1, g.edges + tuple((u, g.n) for u in combo))


def _dedup(graphs) -> list[Graph]:
    buckets: dict = {}
    for g in graphs:
        h = _nx(g)
        key = (g.edge_count, nx.weisfeiler_lehman_graph_hash(h))
        buckets.setdefault(key, []).append((g, h))
    out = []
    for group in buckets.values():
        kept = []
        for g, h in group:
            if not any(nx.is_isomorphic(h, seen) for _, seen in kept):
                kept.append((g, h))
        out.extend(g for g, _ in kept)
    return out


def girth5_catalog(n_max: int) -> list[Graph]:
    """All connected graphs with 1 <= n <= n_max vertices and no cycle below five."""
    level = [Graph(1, ())]
    out = list(level)
    for _ in range(2, n_max + 1):
        level = _dedup(g for base in level for g in _extensions(base))
        out.extend(level)
    return out
