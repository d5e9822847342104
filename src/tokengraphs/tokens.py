"""k-token configurations of a base graph and their slide adjacency.

A configuration is a sorted tuple of k distinct vertices (the occupied set).
Two configurations are adjacent when their symmetric difference is an edge of
the base graph, i.e. one token slides along an edge to a free vertex.
Sorted tuples appear only at entry points and in records; inside, F_k is
read by vertex index alone, reached from occupancy bitmasks through one index.
A configuration is checked where it enters, by `checked_mask`: one pass over
its entries both checks them and builds the occupancy bitmask.  A `TokenGraph`
is a `graphs.MaskGraph`, so the connectivity oracles read it as a `Graph`.

F_k lists its configurations in colex order (Knuth, TAOCP 4A, 7.2.1.3), by
largest vertex first; a colex rank does not depend on n, so one index per k
serves every graph.  Peel identity: F_j(G[0..m-1]) is F_j(G[0..m-2]), then
F_{j-1}(G[0..m-2]) shifted up by C(m-1, j), plus the slides of the token on
v = m-1 to its free lower neighbours.  Proof: colex order lists the j-sets
without v, then the (j-1)-sets plus v, each in colex order, and a slide keeps
v empty, keeps v occupied, or moves the token on v to a neighbour u < v.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .graphs import Graph, MaskGraph, emit_graph6, tree_automorphism_generators

__all__ = [
    "Config",
    "MATERIALIZE_LIMIT",
    "min_token_degree",
    "TokenGraph",
    "build_token_graph",
]

Config = tuple[int, ...]

# refuse to materialise token graphs beyond this many configurations
MATERIALIZE_LIMIT = 500_000


def _check_config(n: int, cfg: Config) -> ValueError:
    """The error for a configuration `checked_mask` rejected, worded by its first broken rule."""
    if isinstance(cfg, tuple) and not all(isinstance(v, int) for v in cfg):
        return ValueError(f"configuration {cfg!r} holds entries that are not vertex ints")
    if not isinstance(cfg, tuple) or tuple(sorted(set(cfg))) != cfg:
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

    `occupancy` lists the configurations' occupancy bitmasks in colex order,
    `vertices` their sorted tuples, built on first read, and `index` maps the
    masks back to vertex indices (one map per k, shared).  Bit j of
    `neighbor_masks[i]` is set when configurations i and j are adjacent, so
    the neighbours of the configuration with occupancy mask occ are the bits
    of `neighbor_masks[index[occ]]`.  As a `MaskGraph` over the indices, with
    the automorphisms its base tree gives (`symmetries`), it is what the
    connectivity oracles read.
    """

    def __init__(self, base: Graph, k: int, occupancy: list[int], index: dict[int, int],
                 neighbor_masks: list[int]):
        self.base = base
        self.k = k
        self.occupancy = occupancy
        self.index = index
        self.neighbor_masks = neighbor_masks

    @property
    def n(self) -> int:
        return len(self.occupancy)

    @cached_property
    def vertices(self) -> tuple[Config, ...]:
        return tuple(map(mask_config, self.occupancy))

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
            # the images of the configurations, in colex order like `occupancy`
            images = _colex_sums([1 << w for w in perm], self.k)
            gens.append(list(map(index.__getitem__, images)))
            if fixing is not None and gens[-1][fixing] != fixing:
                raise ValueError(f"{list(perm)} moves {self.vertices[fixing]}")
        if fixing is None and 2 * self.k == g.n:
            full = (1 << g.n) - 1
            gens.append([index[full ^ occ] for occ in self.occupancy])
        return gens

    def distance2_pairs(self) -> Iterator[tuple[int, int]]:
        """Vertex-index pairs i < j at distance exactly 2, in index order (by i, then j)."""
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
        return Graph(self.n, tuple(edges))


# `_OCCUPANCY[j]` lists j-sets as occupancy masks in colex order, holding every
# j-subset of 0..m-1 first for each m it reaches, and `_INDEX[j]` ranks them;
# `_memo[nbrs][m, j]` holds F_j(G[0..m-1]) for the last graph built only.
_OCCUPANCY: defaultdict[int, list[int]] = defaultdict(list)
_INDEX: defaultdict[int, dict[int, int]] = defaultdict(dict)
_memo: dict[tuple[int, ...], dict[tuple[int, int], list[int]]] = {}


def _colex_sums(bits: list[int], k: int) -> list[int]:
    """The sums of the k-subsets of `bits` in colex order of their positions:
    `combinations` over the reversed list yields that order reversed."""
    return list(map(sum, combinations(bits[::-1], k)))[::-1]


def _prefix_masks(memo: dict, nbrs: tuple[int, ...], m: int, j: int) -> list[int]:
    """The neighbour masks of F_j(G[0..m-1]) in colex order, kept in `memo`."""
    if (m, j) not in memo:
        if j == 1 or j == m:  # F_1 of a prefix is the prefix; F_m has one vertex
            masks = [w & ((1 << m) - 1) for w in nbrs[:m]] if j == 1 else [0]
        else:
            v, shift = m - 1, comb(m - 1, j)
            masks = _prefix_masks(memo, nbrs, v, j) + [
                w << shift for w in _prefix_masks(memo, nbrs, v, j - 1)]
            lower, index = nbrs[v] & ((1 << v) - 1), _INDEX[j]
            # S + v, at index s, slides its token on v to each free lower neighbour u
            for s, occ in enumerate(_OCCUPANCY[j - 1][:comb(v, j - 1)], shift):
                free = lower & ~occ
                while free:
                    u = free & -free
                    free ^= u
                    r = index[occ | u]
                    masks[s] |= 1 << r
                    masks[r] |= 1 << s
        memo[m, j] = masks
    return memo[m, j]


def build_token_graph(g: Graph, k: int) -> TokenGraph:
    """Materialise the k-token graph of g (guarded by MATERIALIZE_LIMIT).

    It recurses by the peel identity (module docstring) down to F_1 of a
    prefix, which is the prefix, and F_m of m vertices, which has one vertex.
    Each (m, j) is built once per graph, until a build for another graph.  On
    a tree under preorder labels v = m-1 is a leaf of G[0..m-1], so the
    slides from v form a matching.
    """
    _check_k(g, k)
    size = comb(g.n, k)
    if size > MATERIALIZE_LIMIT:
        raise ValueError(
            f"token graph would have {size} configurations, over the limit {MATERIALIZE_LIMIT}"
        )
    nbrs = tuple(g.neighbor_masks)
    if nbrs not in _memo:
        _memo.clear()
        _memo[nbrs] = {}
    # a peel drops one vertex and at most one token: F_j is read on at most n - k + j vertices
    for j in range(1, k + 1):
        have = len(_OCCUPANCY[j])
        if have < comb(g.n - k + j, j):  # a colex list on fewer vertices is a prefix
            occs = _colex_sums([1 << v for v in range(g.n - k + j)], j)
            _INDEX[j].update(zip(occs[have:], range(have, len(occs))))
            _OCCUPANCY[j] = occs  # only once every entry is indexed
    masks = _prefix_masks(_memo[nbrs], nbrs, g.n, k)
    return TokenGraph(g, k, _OCCUPANCY[k][:size], _INDEX[k], list(masks))


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
