"""Flow-based and brute-force connectivity oracles for small graphs.

The oracles read a graph through `n`, `neighbor_masks`, `min_degree()`,
`cut_flags` and `orbits_fixing`, which a `Graph` and a `TokenGraph` both
provide, so a token graph is measured straight from its masks.

Before any flow, one low-point DFS finds whether the graph is connected and
whether it has a cut vertex or a bridge.  The DFS (`graphs.mask_cut_flags`,
with its proof) is cached on the graph, so `Graph.is_connected`,
`vertex_connectivity` and `edge_connectivity` share one run per graph.  It
settles kappa and lambda at 0 and 1, and at 2 when the minimum degree is 2.
Only graphs left over, with minimum degree at least 3, run flows.

All flows run on one unit-capacity augmenting-path kernel over the
neighbour bitmasks.  Vertex connectivity uses the standard vertex-splitting
reduction, with the in and out copies of each vertex kept implicit; each BFS
level is one mask.  The global values take the minimum of local flows over a
pair set that is exact for every graph and far smaller than all vertex
pairs:

- kappa: flows from one minimum-degree vertex v to each non-neighbour, then
  between each non-adjacent pair of neighbours of v (Esfahanian and Hakimi,
  "On computing the connectivities of graphs and digraphs", Networks 14,
  1984);
- lambda: flows from the first vertex of a dominating set to each other
  member (Matula, "Determining edge connectivity in O(nm)", FOCS 1987).

Both scans fix a source: v for kappa's first phase and D[0] for lambda.
Each runs one flow per orbit of its sinks under the automorphisms the graph
knows to fix that source (`orbits_fixing`): none for a `Graph`, and for a
`TokenGraph` those of its base tree that map the source configuration onto
itself, checked where they are derived (`TokenGraph.symmetries`).  Orbit
exactness: an automorphism sigma maps the s-t paths onto the
sigma(s)-sigma(t) paths, keeping them internally vertex (or edge) disjoint,
so kappa(sigma s, sigma t) = kappa(s, t) and likewise lambda.  A sink t is
skipped only when an earlier sink t' of the same scan has its label, and
then some sigma fixing the source s maps t' to t, so (s, t) has the value of
(s, t').  That flow, capped at the best value c so far, left the best at
min(c, kappa(s, t')) <= kappa(s, t), so the flow of (s, t) could not have
lowered it: the minimum, and the point where the scan stops, are unchanged.

Complementing c (when 2k = n) is left out of the stabilisers, since it maps
each configuration to one that shares no token with it, so it fixes no
source.  Nor would it fold a scan on any base with n > 4 by mapping one pair
of the scan onto another.  A neighbour x of v, with X_x = X_v - a + b, goes
to a configuration that shares only the token a with v, while neighbours
share k - 1 >= 2 tokens; and c v, sharing none, is neither v nor a
neighbour of v.  So c maps no pair of neighbours of v onto a scan pair, and
a pair (s, t) holding the source goes to a pair holding s only when
c t = s, which makes it the pair itself.

The proofs of the pair sets sit in the docstrings of `vertex_connectivity`
and `edge_connectivity`.  The subset-removal oracle checks both
independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .graphs import Graph
from .tokens import TokenGraph

__all__ = [
    "ConnectivityReport",
    "local_vertex_connectivity",
    "vertex_connectivity",
    "edge_connectivity",
    "brute_force_connectivity",
]

_BRUTE_LIMIT = 16


@dataclass(frozen=True)
class ConnectivityReport:
    """Connectivity numbers with optional cut witnesses."""

    kappa: int
    lambda_: int
    delta: int
    vertex_cut: tuple[int, ...] | None
    edge_cut: tuple[tuple[int, int], ...] | None


def _unit_flow(
    masks: Sequence[int], s: int, t: int, limit: int, split: bool
) -> tuple[int, list[int]]:
    """Unit s-t flow up to `limit`, augmented along shortest residual paths.

    Every edge carries one unit in either direction.  With `split` every
    vertex other than s and t carries one unit too (the vertex-splitting
    reduction): v has an in copy and an out copy joined by one arc, edge uw
    becomes the arcs u_out -> w_in and w_out -> u_in, and the flow runs from
    s_out to t_in.  The copies stay implicit: `out[u]` has bit w when a unit
    flows from u to w, `into[w]` then has bit u, and `used` has bit v when
    flow passes through v.  The residual arcs are

    - u_out -> w_in for each edge uw without flow u -> w;
    - u_out -> u_in when u is used (undoing the pass through u);
    - w_in -> w_out when w is unused;
    - w_in -> u_out when a unit flows u -> w (undoing it).

    Every residual arc joins an out copy to an in copy or the reverse, so
    the BFS levels alternate out, in, out, ... from s_out, each level one
    mask.  Without `split` a
    vertex is one node and each level a vertex mask; an augmentation against
    the flow on an edge cancels it, so flow never runs both ways.  The path
    is recovered by walking back from t through the levels, each step taking
    the lowest vertex of the previous level with a residual arc into the
    current node.  Returns the flow value and `out`.
    """
    n = len(masks)
    out = [0] * n
    into = [0] * n
    used = 0
    t_bit = 1 << t
    flow = 0
    while flow < limit:
        # levels[i] is an out-copy level for even i and an in-copy level for
        # odd i with `split`; s's in copy is never entered
        levels = [1 << s]
        seen_in = seen_out = frontier = 1 << s
        while True:
            reach = frontier & used
            m = frontier
            while m:
                low = m & -m
                m ^= low
                u = low.bit_length() - 1
                reach |= masks[u] & ~out[u]
            reach &= ~seen_in
            if not reach or reach & t_bit:
                break
            seen_in |= reach
            levels.append(reach)
            if not split:
                frontier = reach
                continue
            frontier = reach & ~used
            m = reach & used
            while m:
                low = m & -m
                m ^= low
                frontier |= into[low.bit_length() - 1]
            frontier &= ~seen_out
            if not frontier:
                break
            seen_out |= frontier
            levels.append(frontier)
        if not reach & t_bit:
            break
        path = [t]
        cur = t
        for i in range(len(levels) - 1, -1, -1):
            if not split:
                pred = masks[cur] & ~into[cur]
            elif i % 2 == 0:
                # out copies at level i with an arc into cur_in
                pred = (masks[cur] & ~into[cur]) | ((1 << cur) & used)
            else:
                # in copies at level i with an arc into cur_out
                pred = ((1 << cur) & ~used) | out[cur]
            pred &= levels[i]
            cur = (pred & -pred).bit_length() - 1
            path.append(cur)
        path.reverse()
        for i in range(len(path) - 1):
            u, w = path[i], path[i + 1]
            if not split:
                if into[u] >> w & 1:
                    out[w] ^= 1 << u
                    into[u] ^= 1 << w
                else:
                    out[u] |= 1 << w
                    into[w] |= 1 << u
            elif u == w:
                # the internal arc: forward (odd i) marks u used, backward
                # (even i) frees it
                used ^= 1 << u
            elif i % 2 == 0:
                out[u] |= 1 << w
                into[w] |= 1 << u
            else:
                out[w] ^= 1 << u
                into[u] ^= 1 << w
        flow += 1
    return flow, out


def _flow_routes(out: list[int], s: int, t: int) -> tuple[tuple[int, ...], ...]:
    # every vertex inside a route carries one unit, so its out mask has one bit
    routes = []
    first = out[s]
    while first:
        low = first & -first
        first ^= low
        route = [s]
        v = low.bit_length() - 1
        while v != t:
            route.append(v)
            v = out[v].bit_length() - 1
        route.append(t)
        routes.append(tuple(route))
    return tuple(routes)


def _dfs_settled(g: Graph | TokenGraph, flag: int) -> int:
    """kappa (flag 1, the cut-vertex entry of `cut_flags`) or lambda (flag 2,
    the bridge entry) when at most 2, else the minimum degree."""
    if g.n <= 1:
        return 0
    flags = g.cut_flags
    if not flags[0]:
        return 0
    delta = g.min_degree()
    if delta == 1 or flags[flag]:
        return 1
    return delta


def _first_per_orbit(points: list[int], labels: Sequence[int]) -> list[int]:
    """The points whose orbit label no earlier point carries, in order."""
    first: dict[int, int] = {}
    for p in points:
        first.setdefault(labels[p], p)
    return list(first.values())


def local_vertex_connectivity(
    g: Graph, s: int, t: int, limit: int | None = None
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Maximum number of internally disjoint s-t paths, with a path witness.

    Requires s != t non-adjacent vertices of g.  With `limit` the flow stops
    early at that value and the witness holds `limit` paths (used to cap
    minimum scans).
    """
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"endpoints {s},{t} out of range for n={g.n}")
    if s == t:
        raise ValueError("endpoints must differ")
    if g.has_edge(s, t):
        raise ValueError(f"endpoints {s},{t} are adjacent; local connectivity undefined")
    cap = min(g.degree(s), g.degree(t))
    if limit is not None:
        cap = min(cap, limit)
    value, out = _unit_flow(g.neighbor_masks, s, t, cap, split=True)
    return value, _flow_routes(out, s, t)


def vertex_connectivity(g: Graph | TokenGraph) -> int:
    """Vertex connectivity: a DFS decides kappa <= 2, flows the rest.

    Disconnected graphs and graphs with n <= 1 return 0, and a connected
    graph with minimum degree delta = 1 returns 1.  Otherwise the cached DFS
    on `g` (`cut_flags`) says whether there is a cut vertex.

    DFS exactness: the graph is connected with delta >= 2, so n >= 3, and
    kappa >= 2 exactly when no single vertex separates it, that is when it
    has no cut vertex.  So a cut vertex gives kappa = 1, and without one
    2 <= kappa <= delta, which settles kappa = 2 when delta = 2.

    When delta >= 3 and there is no cut vertex, let v be the lowest-index
    vertex of minimum degree; flows run from v to every non-neighbour, then
    between every non-adjacent pair in N(v), each capped at the best value so
    far (kappa <= delta), and the scan stops once it reaches 2, which the DFS
    proved is a lower bound.  A complete graph has no such pair and returns
    delta = n - 1.

    Flow exactness: each flow is a local connectivity, so at least kappa.
    Let S be a minimum separator.  If v is not in S, the component of G - S
    holding v contains all of N(v) - S, so any vertex w of another component
    is a non-neighbour of v and S separates v from w.  If v is in S,
    minimality gives v a neighbour in every component of G - S (otherwise
    S - v would still separate), so two neighbours x, y of v in different
    components are non-adjacent and separated by S.  Either way some flow in
    the scan is at most |S| = kappa.

    The first phase runs only the first non-neighbour w of each orbit under
    the automorphisms known to fix v (`g.orbits_fixing(v)`); the module
    docstring proves this exact.  The second phase, with at most
    C(delta, 2) pairs, runs them all.
    """
    best = _dfs_settled(g, 1)
    if best <= 2:
        return best
    masks = g.neighbor_masks
    v = next(u for u in range(g.n) if masks[u].bit_count() == best)
    sinks = [w for w in range(g.n) if w != v and not masks[v] >> w & 1]
    pairs = [(v, w) for w in _first_per_orbit(sinks, g.orbits_fixing(v))]
    nbrs = [w for w in range(g.n) if masks[v] >> w & 1]
    pairs += [(x, y) for x, y in combinations(nbrs, 2) if not masks[x] >> y & 1]
    for s, t in pairs:
        flow, _ = _unit_flow(masks, s, t, best, split=True)
        if flow < best:
            best = flow
            if best == 2:
                break
    return best


def edge_connectivity(g: Graph | TokenGraph) -> int:
    """Edge connectivity: a DFS decides lambda <= 2, flows the rest.

    Disconnected graphs and graphs with n <= 1 return 0, and a connected
    graph with minimum degree delta = 1 returns 1.  Otherwise the cached DFS
    on `g` (`cut_flags`) says whether there is a bridge.

    DFS exactness: the graph is connected, so lambda >= 2 exactly when no
    single edge disconnects it, that is when it has no bridge.  So a bridge
    gives lambda = 1, and without one 2 <= lambda <= delta, which settles
    lambda = 2 when delta = 2.

    When delta >= 3 and there is no bridge, take a greedy dominating set D
    (each vertex not yet dominated, in index order) and run flows from D[0]
    to every other member, each capped at the best value so far
    (lambda <= delta); the scan stops once it reaches 2, which the DFS
    proved is a lower bound.

    Flow exactness: each flow is a local edge connectivity, so at least
    lambda.  Suppose lambda < delta and let (A, B) be a minimum edge cut.  A
    side with a vertices sends at least a * delta - a * (a - 1) =
    a * (delta - a + 1) edges across, which is at least delta when
    1 <= a <= delta, so both sides have more than delta vertices.  If a side
    missed D, each of its vertices would have a neighbour in D on the other
    side, giving more than delta crossing edges.  So D meets both sides, and
    the flow from D[0] to a member of D on the other side is at most lambda.

    Only the first member t of each orbit under the automorphisms known to
    fix D[0] (`g.orbits_fixing(D[0])`) runs a flow; the module docstring
    proves this exact.
    """
    best = _dfs_settled(g, 2)
    if best <= 2:
        return best
    masks = g.neighbor_masks
    dominating, dominated = [], 0
    for v in range(g.n):
        if not dominated >> v & 1:
            dominating.append(v)
            dominated |= 1 << v | masks[v]
    source, *sinks = dominating
    for t in _first_per_orbit(sinks, g.orbits_fixing(source)):
        flow, _ = _unit_flow(masks, source, t, best, split=False)
        if flow < best:
            best = flow
            if best == 2:
                break
    return best


def _mask_connected(masks: list[int], alive: int) -> bool:
    if alive == 0:
        return True
    start = (alive & -alive).bit_length() - 1
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nxt |= masks[v] & alive
        nxt &= ~seen
        seen |= nxt
        frontier = nxt
    return seen == alive


def brute_force_connectivity(g: Graph) -> ConnectivityReport:
    """Independent subset-removal oracle for kappa and lambda (n <= 16)."""
    if g.n > _BRUTE_LIMIT:
        raise ValueError(f"brute force limited to n <= {_BRUTE_LIMIT}, got {g.n}")
    if g.n == 0:
        raise ValueError("empty graph")
    masks = g.neighbor_masks
    full = (1 << g.n) - 1
    delta = g.min_degree()
    connected = _mask_connected(masks, full)

    kappa = 0
    vertex_cut: tuple[int, ...] | None = None
    if not connected:
        vertex_cut = ()
    elif g.is_complete():
        kappa = g.n - 1
    else:
        for size in range(1, g.n - 1):
            for cut in combinations(range(g.n), size):
                alive = full
                for v in cut:
                    alive &= ~(1 << v)
                if not _mask_connected(masks, alive):
                    vertex_cut = cut
                    break
            if vertex_cut is not None:
                break
        assert vertex_cut is not None
        kappa = len(vertex_cut)

    lam = 0
    edge_cut: tuple[tuple[int, int], ...] | None = None
    if not connected:
        edge_cut = ()
    else:
        for size in range(1, delta + 1):
            for cut_edges in combinations(g.edges, size):
                trimmed = list(masks)
                for u, v in cut_edges:
                    trimmed[u] &= ~(1 << v)
                    trimmed[v] &= ~(1 << u)
                if not _mask_connected(trimmed, full):
                    edge_cut = cut_edges
                    break
            if edge_cut is not None:
                break
        if edge_cut is None:
            # removing all edges at a minimum-degree vertex always disconnects,
            # so only edgeless single-vertex graphs get here
            edge_cut = ()
        lam = len(edge_cut)

    return ConnectivityReport(kappa, lam, delta, vertex_cut, edge_cut)
