"""k-token configurations of a base graph and their slide adjacency.

A configuration is a sorted tuple of k distinct vertices (the occupied set).
Two configurations are adjacent when their symmetric difference is an edge of
the base graph, i.e. one token slides along an edge to a free vertex.
Sorted tuples appear only at entry points and in records; inside, F_k is
read by vertex index alone, reached from occupancy bitmasks through one index.
A configuration is checked where it enters, by `checked_mask`: one pass over
its entries both checks them and builds the occupancy bitmask.  A `TokenGraph`
is a `graphs.MaskGraph`, so the connectivity oracles read it as a `Graph`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .graphs import Graph, MaskGraph, emit_graph6, tree_automorphism_generators

__all__ = [
    "Config",
    "MATERIALIZE_LIMIT",
    "token_degree",
    "min_token_degree",
    "TokenGraph",
    "build_token_graph",
]

Config = tuple[int, ...]

# refuse to materialise token graphs beyond this many configurations
MATERIALIZE_LIMIT = 500_000


def _check_config(n: int, cfg: Config) -> ValueError:
    """The error for a configuration `checked_mask` rejected, worded by its first broken rule."""
    if not all(isinstance(v, int) for v in cfg):
        return ValueError(f"configuration {cfg!r} holds entries that are not vertex ints")
    if tuple(sorted(set(cfg))) != cfg:
        return ValueError(f"configuration {cfg} is not a sorted duplicate-free tuple")
    if not 1 <= len(cfg) <= n - 1:
        return ValueError(f"need 1 <= k <= n-1 tokens, got k={len(cfg)} with n={n}")
    return ValueError(f"configuration {cfg} out of range for n={n}")


def checked_mask(g: Graph, cfg: Config) -> int:
    """The occupancy mask of cfg, built in the one pass that checks it;
    ValueError unless cfg is a sorted duplicate-free tuple of 1 <= k <= n-1
    vertices of g."""
    n = g.n
    if isinstance(cfg, tuple) and 0 < len(cfg) < n:
        mask, last = 0, -1
        for v in cfg:
            # an int above the entry before it and below n: no shift is ever negative or huge
            if not (isinstance(v, int) and last < v < n):
                break
            mask |= 1 << v
            last = v
        else:
            return mask
    raise _check_config(n, cfg)


def config_mask(cfg: Iterable[int]) -> int:
    """Occupancy bitmask of a configuration: bit v is set when v holds a token."""
    mask = 0
    for v in cfg:
        mask |= 1 << v
    return mask


# configurations are immutable, so one tuple per mask can be shared
@lru_cache(maxsize=4096)
def mask_config(mask: int) -> Config:
    """The sorted configuration whose occupancy bitmask is mask."""
    cfg = []
    while mask:
        low = mask & -mask
        cfg.append(low.bit_length() - 1)
        mask ^= low
    return tuple(cfg)


def mask_degree(g: Graph, mask: int) -> int:
    """Token degree of the configuration with occupancy bitmask mask."""
    nbrs, free, degree = g.neighbor_masks, ~mask, 0
    for v in mask_config(mask):
        degree += (nbrs[v] & free).bit_count()
    return degree


def token_degree(g: Graph, cfg: Config) -> int:
    """Number of base edges with exactly one endpoint occupied by cfg."""
    return mask_degree(g, checked_mask(g, cfg))


def _check_k(g: Graph, k: int) -> None:
    """ValueError unless k is an int token count with 1 <= k <= n-1."""
    if not (isinstance(k, int) and 1 <= k <= g.n - 1):
        raise ValueError(f"need an int 1 <= k <= n-1, got k={k!r} with n={g.n}")


def min_token_degree(g: Graph, k: int) -> int:
    """Minimum token degree over all k-configurations, by direct scan."""
    _check_k(g, k)
    return min(mask_degree(g, config_mask(cfg)) for cfg in combinations(range(g.n), k))


class TokenGraph(MaskGraph):
    """A materialised k-token graph: one neighbour-index bitmask per configuration.

    `vertices` lists the configurations in lexicographic order, `occupancy`
    their occupancy bitmasks, `index` maps those back to vertex indices, and
    bit j of `neighbor_masks[i]` is set when vertices[i] and vertices[j] are
    adjacent, so the neighbours of the configuration with occupancy mask occ
    are the bits of `neighbor_masks[index[occ]]`.  As a `MaskGraph` over the
    indices, with the automorphisms its base tree gives (`symmetries`), it
    is what the connectivity oracles read.
    """

    def __init__(self, base: Graph, k: int, vertices: tuple[Config, ...],
                 occupancy: list[int], index: dict[int, int], neighbor_masks: list[int]):
        self.base = base
        self.k = k
        self.vertices = vertices
        self.occupancy = occupancy
        self.index = index
        self.neighbor_masks = neighbor_masks

    @property
    def n(self) -> int:
        return len(self.vertices)

    def symmetries(self, fixing: int | None = None) -> list[list[int]]:
        """Generators of automorphisms of F_k that fix the vertex index `fixing`
        (with None, of all those known), as permutations of the vertex indices.

        An automorphism of the base maps k-configurations onto k-configurations
        and keeps slides along edges, so it acts on F_k, and it fixes the
        configuration X exactly when it maps X onto itself.  When the base is
        a tree these come from `tree_automorphism_generators` with X marked,
        each first checked to map the base edges onto the base edges and X
        onto X: folding by a map that is not such an automorphism would skip
        pairs whose values differ, so such a map raises instead.  When nothing
        is fixed and 2k = n, complementing maps F_k onto itself for any base;
        it never fixes a configuration, so it joins no stabiliser.
        """
        g, index = self.base, self.index
        marked = 0 if fixing is None else self.occupancy[fixing]
        perms = tree_automorphism_generators(g, marked) if g.is_tree() else []
        gens = []
        for perm in perms:
            image = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges}
            if sorted(perm) != list(range(g.n)) or image != set(g.edges):
                raise ValueError(
                    f"{list(perm)} is not an automorphism of the tree {emit_graph6(g)}")
            # the images of the configurations, in the order of `vertices`
            images = map(sum, combinations([1 << w for w in perm], self.k))
            gens.append(list(map(index.__getitem__, images)))
            if fixing is not None and gens[-1][fixing] != fixing:
                raise ValueError(f"{list(perm)} moves {self.vertices[fixing]}")
        if fixing is None and 2 * self.k == g.n:
            full = (1 << g.n) - 1
            gens.append([index[full ^ occ] for occ in self.occupancy])
        return gens

    def distance2_pairs(self) -> Iterator[tuple[int, int]]:
        """Vertex-index pairs i < j at distance exactly 2, in lexicographic order."""
        masks = self.neighbor_masks
        for i, direct in enumerate(masks):
            m, second = direct, 0
            while m:
                low = m & -m
                m ^= low
                second |= masks[low.bit_length() - 1]
            # keep the vertices after i: the pair (i, j) is unordered
            second &= ~direct & -(2 << i)
            while second:
                low = second & -second
                second ^= low
                yield i, low.bit_length() - 1

    def as_graph(self) -> Graph:
        """Flatten to a plain Graph over configuration indices (a test reference)."""
        edges = []
        for i, m in enumerate(self.neighbor_masks):
            m &= -(2 << i)  # each edge once, from its lower end
            while m:
                low = m & -m
                m ^= low
                edges.append((i, low.bit_length() - 1))
        return Graph(len(self.vertices), tuple(edges))


def build_token_graph(g: Graph, k: int) -> TokenGraph:
    """Materialise the k-token graph of g (guarded by MATERIALIZE_LIMIT).

    Each configuration is keyed by its occupancy mask, so sliding a token
    from u to a free neighbour w gives the mask occ ^ (1 << u | 1 << w).  An
    edge {S + u, S + w} with u < w is found once, from S + u, whose token
    slides up: only upward slides are followed, and each sets both ends' bits.
    """
    _check_k(g, k)
    size = comb(g.n, k)
    if size > MATERIALIZE_LIMIT:
        raise ValueError(
            f"token graph would have {size} configurations, over the limit {MATERIALIZE_LIMIT}"
        )
    vertices = tuple(combinations(range(g.n), k))
    occs = list(map(sum, combinations([1 << v for v in range(g.n)], k)))
    index = {occ: i for i, occ in enumerate(occs)}
    # upper[u]: the neighbours of u above it; bits[i]: vertex index i as a bit
    upper = [m & -(2 << u) for u, m in enumerate(g.neighbor_masks)]
    bits = [1 << i for i in range(size)]
    masks = [0] * size
    for i, occ in enumerate(occs):
        bit, adj, free = bits[i], 0, ~occ
        for u in vertices[i]:
            up = upper[u] & free
            if up:
                rest = occ ^ (1 << u)
                while up:
                    w = up & -up
                    up ^= w
                    j = index[rest | w]
                    adj |= bits[j]
                    masks[j] |= bit
        masks[i] |= adj
    return TokenGraph(g, k, vertices, occs, index, masks)


def classify_masks(g: Graph, a_mask: int, b_mask: int) -> tuple[int, ...]:
    """Classify the occupancy masks of two configurations at distance exactly 2.

    Pairs sharing k-1 tokens need the leftover vertices x (of a) and y (of b)
    to be non-adjacent with a common neighbour v, and give (x, y, v) for the
    smallest such v, occupied or not.  Pairs sharing k-2 tokens need a perfect
    matching of base edges x1-y1, x2-y2 between the leftover pairs, and give
    (x1, y1, x2, y2) with x1 < x2.  Anything else raises ValueError.
    """
    if a_mask.bit_count() != b_mask.bit_count():
        raise ValueError(
            f"configurations have different sizes: {a_mask.bit_count()} vs {b_mask.bit_count()}"
        )
    only_a, only_b = a_mask & ~b_mask, b_mask & ~a_mask
    if not only_a:
        raise ValueError("identical configurations are at distance 0")
    nbrs = g.neighbor_masks
    moved = only_a.bit_count()
    if moved == 1:
        x, y = only_a.bit_length() - 1, only_b.bit_length() - 1
        if nbrs[x] >> y & 1:
            raise ValueError(f"configurations are adjacent (token slide {x}->{y})")
        common = nbrs[x] & nbrs[y]
        if not common:
            raise ValueError(f"distance exceeds 2: vertices {x},{y} share no neighbour")
        return x, y, (common & -common).bit_length() - 1
    if moved == 2:
        x1, r = (only_a & -only_a).bit_length() - 1, (only_b & -only_b).bit_length() - 1
        x2, s = only_a.bit_length() - 1, only_b.bit_length() - 1
        if nbrs[x1] >> r & 1 and nbrs[x2] >> s & 1:
            return x1, r, x2, s
        if nbrs[x1] >> s & 1 and nbrs[x2] >> r & 1:
            return x1, s, x2, r
        raise ValueError(
            f"distance exceeds 2: no matching of edges between {[x1, x2]} and {[r, s]}"
        )
    raise ValueError("distance exceeds 2: symmetric difference larger than 4")
