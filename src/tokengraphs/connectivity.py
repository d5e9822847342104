"""Flow-based and brute-force connectivity oracles for small graphs.

Local vertex connectivity uses the standard vertex-splitting reduction to
unit-capacity max flow.  The global values take the minimum of local flows
over a pair set that is exact for every graph and far smaller than all
vertex pairs:

- kappa: flows from one minimum-degree vertex v to each non-neighbour, then
  between each non-adjacent pair of neighbours of v (Esfahanian and Hakimi,
  "On computing the connectivities of graphs and digraphs", Networks 14,
  1984);
- lambda: flows from the first vertex of a dominating set to each other
  member (Matula, "Determining edge connectivity in O(nm)", FOCS 1987).

The proofs sit in the docstrings of `vertex_connectivity` and
`edge_connectivity`.  The subset-removal oracle checks both independently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph

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


class _UnitFlowNet:
    """Unit-capacity directed network with array-based residual arcs."""

    def __init__(self, nodes: int):
        self.head: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int) -> int:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(1)
        self.head[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(idx + 1)
        return idx

    def snapshot(self) -> list[int]:
        return list(self.cap)

    def restore(self, caps: list[int]) -> None:
        self.cap[:] = caps

    def _augment(self, s: int, t: int) -> bool:
        head, to, cap = self.head, self.to, self.cap
        parent_arc = [-1] * len(head)
        parent_arc[s] = -2
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in head[u]:
                if cap[a] and parent_arc[to[a]] == -1:
                    w = to[a]
                    parent_arc[w] = a
                    if w == t:
                        while w != s:
                            a = parent_arc[w]
                            cap[a] -= 1
                            cap[a ^ 1] += 1
                            w = to[a ^ 1]
                        return True
                    queue.append(w)
        return False

    def max_flow(self, s: int, t: int, limit: int) -> int:
        flow = 0
        while flow < limit and self._augment(s, t):
            flow += 1
        return flow


def _split_net(g: Graph) -> _UnitFlowNet:
    # node 2i = "in" copy, 2i+1 = "out" copy of vertex i
    net = _UnitFlowNet(2 * g.n)
    for v in range(g.n):
        net.add_arc(2 * v, 2 * v + 1)
    for u, v in g.edges:
        net.add_arc(2 * u + 1, 2 * v)
        net.add_arc(2 * v + 1, 2 * u)
    return net


def _extract_vertex_paths(
    net: _UnitFlowNet, g: Graph, s: int, t: int
) -> tuple[tuple[int, ...], ...]:
    # follow saturated forward arcs from s's out-copy; unit node capacities
    # make every trace a simple s..t path and keep traces disjoint
    used = set()
    paths = []
    for a in net.head[2 * s + 1]:
        if a % 2 == 0 and net.cap[a] == 0 and a not in used:
            used.add(a)
            route = [s]
            node = net.to[a]
            while True:
                vert = node // 2
                route.append(vert)
                if vert == t:
                    break
                out = 2 * vert + 1
                step = next(
                    b
                    for b in net.head[out]
                    if b % 2 == 0 and net.cap[b] == 0 and b not in used
                )
                used.add(step)
                node = net.to[step]
            paths.append(tuple(route))
    return tuple(paths)


def local_vertex_connectivity(
    g: Graph, s: int, t: int, limit: int | None = None
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Maximum number of internally disjoint s-t paths, with a path witness.

    Requires s != t non-adjacent.  With `limit` the flow stops early at that
    value and the witness holds `limit` paths (used to cap minimum scans).
    """
    if s == t:
        raise ValueError("endpoints must differ")
    if g.has_edge(s, t):
        raise ValueError(f"endpoints {s},{t} are adjacent; local connectivity undefined")
    cap = min(g.degree(s), g.degree(t))
    if limit is not None:
        cap = min(cap, limit)
    net = _split_net(g)
    value = net.max_flow(2 * s + 1, 2 * t, cap)
    return value, _extract_vertex_paths(net, g, s, t)


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity via unit flows over the Esfahanian-Hakimi pairs.

    Complete graphs return n-1, disconnected graphs 0.  Otherwise let v be the
    lowest-index vertex of minimum degree delta; the flows run from v to every
    non-neighbour, then between every non-adjacent pair in N(v), each capped
    at the best value so far (kappa <= delta).

    Exactness: each flow is a local connectivity, so at least kappa.  Let S be
    a minimum separator.  If v is not in S, the component of G - S holding v
    contains all of N(v) - S, so any vertex w of another component is a
    non-neighbour of v and S separates v from w.  If v is in S, minimality
    gives v a neighbour in every component of G - S (otherwise S - v would
    still separate), so two neighbours x, y of v in different components are
    non-adjacent and separated by S.  Either way some flow in the scan is at
    most |S| = kappa.
    """
    if g.n <= 1:
        return 0
    if not g.is_connected():
        return 0
    if g.is_complete():
        return g.n - 1
    best = g.min_degree()
    if best == 1:
        return 1
    adj = g.adjacency
    v = next(u for u in range(g.n) if len(adj[u]) == best)
    pairs = [(v, w) for w in range(g.n) if w != v and w not in adj[v]]
    nbrs = sorted(adj[v])
    pairs += [(x, y) for x, y in combinations(nbrs, 2) if y not in adj[x]]
    net = _split_net(g)
    base = net.snapshot()
    for s, t in pairs:
        net.restore(base)
        flow = net.max_flow(2 * s + 1, 2 * t, best)
        if flow < best:
            best = flow
            if best == 1:
                break
    return best


def _dominating_set(g: Graph) -> list[int]:
    """Greedy dominating set: take each vertex not yet dominated, in order."""
    dominated = [False] * g.n
    chosen = []
    for v in range(g.n):
        if not dominated[v]:
            chosen.append(v)
            dominated[v] = True
            for w in g.adjacency[v]:
                dominated[w] = True
    return chosen


def edge_connectivity(g: Graph) -> int:
    """Edge connectivity via unit flows between dominating-set members.

    Disconnected graphs and graphs with n <= 1 return 0.  Otherwise take a
    greedy dominating set D in index order and run flows from D[0] to every
    other member, each capped at the best value so far (lambda <= delta).

    Exactness: each flow is a local edge connectivity, so at least lambda.
    Suppose lambda < delta and let (A, B) be a minimum edge cut.  A side with
    a vertices sends at least a * delta - a * (a - 1) = a * (delta - a + 1)
    edges across, which is at least delta when 1 <= a <= delta, so both sides
    have more than delta vertices.  If a side missed D, each of its vertices
    would have a neighbour in D on the other side, giving more than delta
    crossing edges.  So D meets both sides, and the flow from D[0] to a member
    of D on the other side is at most lambda.
    """
    if g.n <= 1:
        return 0
    if not g.is_connected():
        return 0
    best = g.min_degree()
    if best == 1:
        return 1
    net = _UnitFlowNet(g.n)
    for u, v in g.edges:
        net.add_arc(u, v)
        net.add_arc(v, u)
    base = net.snapshot()
    source, *sinks = _dominating_set(g)
    for t in sinks:
        net.restore(base)
        flow = net.max_flow(source, t, best)
        if flow < best:
            best = flow
            if best == 1:
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
    if g.n == 1:
        lam = 0
        edge_cut = ()

    return ConnectivityReport(kappa, lam, delta, vertex_cut, edge_cut)
