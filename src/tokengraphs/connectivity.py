"""Flow-based and brute-force connectivity oracles for small graphs.

The oracles read a `graphs.MaskGraph`: `n` and `neighbor_masks`, and the
`min_degree()`, `connected`, `cut_flags` and `symmetries` built on them.  A
`Graph` and a `TokenGraph` are both one, so a token graph is measured
straight from its masks.

Before any flow, each oracle runs the one search that settles it.  When the
minimum degree delta <= 1, a bitset BFS (`graphs.mask_connected`, cached
as `connected`) gives kappa = lambda = 0 if disconnected, and else 1
exactly, since 1 <= kappa <= lambda <= delta.  When delta >= 2, no BFS
runs: one DFS on subtree masks (`graphs.mask_cut_flags`, with its proof,
cached as `cut_flags`) says whether the graph is connected and has a cut
vertex or a bridge; both oracles share that run.  It settles kappa and
lambda at 0, at 1, and at 2 when delta = 2.  Only graphs with delta >= 3
run flows.

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
Each runs one flow per orbit of its sinks (`graphs.orbit_firsts`) under the
automorphisms the graph knows to fix that source (`symmetries(source)`):
none for a `Graph`, and for a `TokenGraph` those of its base tree that map
the source configuration onto itself, checked where they are derived.  Orbit
exactness: an automorphism sigma maps the s-t paths onto the
sigma(s)-sigma(t) paths, keeping them internally vertex (or edge) disjoint,
so kappa(sigma s, sigma t) = kappa(s, t) and likewise lambda.  A sink t is
skipped only when the orbit of an earlier sink t' of the same scan reached
it, and then some sigma fixing the source s maps t' to t, so (s, t) has the
value of (s, t').  That flow, capped at the best value c so far, left the best at
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

from itertools import combinations
from typing import Iterable, Sequence

from .graphs import Graph, MaskGraph, orbit_firsts

__all__ = [
    "vertex_connectivity",
    "edge_connectivity",
    "brute_force_connectivity",
]

_BRUTE_LIMIT = 16


def _unit_flow(masks: Sequence[int], s: int, t: int, limit: int, split: bool) -> int:
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
    mask.  Without `split` a vertex is one node and each level a vertex mask;
    an augmentation against the flow on an edge cancels it, so flow never
    runs both ways.  The path is recovered by walking back from t through the
    levels, each step taking the lowest vertex of the previous level with a
    residual arc into the current node.  Returns the flow value alone, at
    most `limit`; below it, that is the local vertex (with `split`, for
    non-adjacent s and t) or edge connectivity of s and t.
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
    return flow


def _least_flow(masks: Sequence[int], pairs: Iterable[tuple[int, int]], best: int,
                split: bool) -> int:
    """The least local flow over `pairs`, each capped at the best value so far,
    starting from `best`; the scan stops once it reaches 2, the lower bound
    that the DFS proved (`_dfs_settled`).  A capped flow never exceeds its
    cap, so each flow leaves the best at min(best, that local value)."""
    for s, t in pairs:
        best = _unit_flow(masks, s, t, best, split)
        if best == 2:
            break
    return best


def _dfs_settled(g: MaskGraph, flag: int) -> int:
    """kappa (flag 1, the cut-vertex entry of `cut_flags`) or lambda (flag 2,
    the bridge entry) when at most 2, else the minimum degree.

    The BFS (`connected`) decides when delta <= 1; otherwise the DFS
    (`cut_flags`, whose first entry is connectivity) decides, with no BFS.
    """
    if g.n <= 1:
        return 0
    delta = g.min_degree()
    if delta <= 1:
        return delta if g.connected else 0
    flags = g.cut_flags
    return 0 if not flags[0] else 1 if flags[flag] else delta


def vertex_connectivity(g: MaskGraph) -> int:
    """Vertex connectivity: a BFS or a DFS decides kappa <= 2, flows the rest.

    Graphs with n <= 1 return 0.  When the minimum degree delta <= 1 the
    cached BFS (`connected`) gives 0 if disconnected, else 1, exact since
    1 <= kappa <= delta.  Otherwise the cached DFS on `g` (`cut_flags`) alone
    says whether the graph is connected (else 0) and has a cut vertex.

    DFS exactness: the graph is connected with delta >= 2, so n >= 3, and
    kappa >= 2 exactly when no single vertex separates it, that is when it
    has no cut vertex.  So a cut vertex gives kappa = 1, and without one
    2 <= kappa <= delta, which settles kappa = 2 when delta = 2.

    When delta >= 3 and there is no cut vertex, let v be the lowest-index
    vertex of minimum degree; flows run from v to every non-neighbour, then
    between every non-adjacent pair in N(v), in the one capped scan
    `_least_flow` that both oracles share: each flow is capped at the best
    value so far (kappa <= delta), and the scan stops once it reaches 2, which
    the DFS proved is a lower bound.  A complete graph has no such pair and
    returns delta = n - 1.

    Flow exactness: each flow is a local connectivity, so at least kappa.
    Let S be a minimum separator.  If v is not in S, the component of G - S
    holding v contains all of N(v) - S, so any vertex w of another component
    is a non-neighbour of v and S separates v from w.  If v is in S,
    minimality gives v a neighbour in every component of G - S (otherwise
    S - v would still separate), so two neighbours x, y of v in different
    components are non-adjacent and separated by S.  Either way some flow in
    the scan is at most |S| = kappa.

    The first phase runs only the first non-neighbour w of each orbit under
    the automorphisms known to fix v (`g.symmetries(v)`); the module
    docstring proves this exact.  The second phase, with at most
    C(delta, 2) pairs, runs them all.
    """
    best = _dfs_settled(g, 1)
    if best <= 2:
        return best
    masks = g.neighbor_masks
    v = next(u for u in range(g.n) if masks[u].bit_count() == best)
    sinks = [w for w in range(g.n) if w != v and not masks[v] >> w & 1]
    pairs = [(v, w) for w in orbit_firsts(sinks, g.symmetries(v))]
    nbrs = [w for w in range(g.n) if masks[v] >> w & 1]
    pairs += [(x, y) for x, y in combinations(nbrs, 2) if not masks[x] >> y & 1]
    return _least_flow(masks, pairs, best, split=True)


def edge_connectivity(g: MaskGraph) -> int:
    """Edge connectivity: a BFS or a DFS decides lambda <= 2, flows the rest.

    Graphs with n <= 1 return 0.  When the minimum degree delta <= 1 the
    cached BFS (`connected`) gives 0 if disconnected, else 1, exact since
    1 <= lambda <= delta.  Otherwise the cached DFS on `g` (`cut_flags`) alone
    says whether the graph is connected (else 0) and has a bridge.

    DFS exactness: the graph is connected, so lambda >= 2 exactly when no
    single edge disconnects it, that is when it has no bridge.  So a bridge
    gives lambda = 1, and without one 2 <= lambda <= delta, which settles
    lambda = 2 when delta = 2.

    When delta >= 3 and there is no bridge, take a greedy dominating set D
    (each vertex not yet dominated, in index order) and run flows from D[0]
    to every other member, in the one capped scan `_least_flow` that both
    oracles share: each flow is capped at the best value so far
    (lambda <= delta), and the scan stops once it reaches 2, which the DFS
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
    fix D[0] (`g.symmetries(D[0])`) runs a flow; the module docstring
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
    pairs = [(source, t) for t in orbit_firsts(sinks, g.symmetries(source))]
    return _least_flow(masks, pairs, best, split=False)


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


def brute_force_connectivity(g: Graph) -> tuple[int, int]:
    """(kappa, lambda) by removing vertex and edge sets in increasing size,
    independent of the flows (n <= 16); kappa is n - 1 when g is complete."""
    if g.n > _BRUTE_LIMIT:
        raise ValueError(f"brute force limited to n <= {_BRUTE_LIMIT}, got {g.n}")
    if g.n == 0:
        raise ValueError("empty graph")
    masks = g.neighbor_masks
    full = (1 << g.n) - 1
    if not _mask_connected(masks, full):
        return 0, 0

    kappa = g.n - 1
    if not g.is_complete():
        kappa = next(
            size
            for size in range(1, g.n - 1)
            for cut in combinations(range(g.n), size)
            if not _mask_connected(masks, full & ~sum(1 << v for v in cut))
        )

    # removing all edges at a minimum-degree vertex always disconnects, so
    # only the edgeless single-vertex graph finds no cut and has lambda 0
    lam = 0
    for size in range(1, g.min_degree() + 1):
        for cut_edges in combinations(g.edges, size):
            trimmed = list(masks)
            for u, v in cut_edges:
                trimmed[u] &= ~(1 << v)
                trimmed[v] &= ~(1 << u)
            if not _mask_connected(trimmed, full):
                lam = size
                break
        if lam:
            break
    return kappa, lam
