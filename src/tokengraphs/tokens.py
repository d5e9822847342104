"""k-token configurations of a base graph and their slide adjacency.

A configuration is a sorted tuple of k distinct vertices (the occupied set).
Two configurations are adjacent when their symmetric difference is an edge of
the base graph, i.e. one token slides along an edge to a free vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, inf
from typing import Iterable, Iterator

from .graphs import Graph, PairOrbits, emit_graph6, mask_cut_flags, tree_automorphism_generators

__all__ = [
    "Config",
    "MATERIALIZE_LIMIT",
    "make_config",
    "check_config",
    "complement_iso",
    "token_degree",
    "min_token_degree",
    "TokenGraph",
    "build_token_graph",
    "Case1Pair",
    "Case2Pair",
    "classify_distance2",
]

Config = tuple[int, ...]

# refuse to materialise token graphs beyond this many configurations
MATERIALIZE_LIMIT = 500_000

# map images that closing pair orbits may take, per configuration of F_k
ORBIT_WORK = 2048


def make_config(vertices: Iterable[int]) -> Config:
    cfg = tuple(sorted(vertices))
    if len(set(cfg)) != len(cfg):
        raise ValueError(f"repeated vertices in configuration {cfg}")
    return cfg


def check_config(g: Graph, cfg: Config) -> None:
    """Validate cfg as a k-token configuration of g (1 <= k <= n-1)."""
    _check_config(g.n, cfg)


def _check_config(n: int, cfg: Config) -> None:
    if tuple(sorted(set(cfg))) != cfg:
        raise ValueError(f"configuration {cfg} is not a sorted duplicate-free tuple")
    if not 1 <= len(cfg) <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1 tokens, got k={len(cfg)} with n={n}")
    if cfg and not (0 <= cfg[0] and cfg[-1] < n):
        raise ValueError(f"configuration {cfg} out of range for n={n}")


def checked_mask(g: Graph, cfg: Config) -> int:
    """check_config, then the occupancy mask of cfg."""
    if type(cfg) is not tuple:
        check_config(g, cfg)  # raises: a configuration is a tuple
    return _checked_mask(g.n, cfg)


# both steps are pure in (n, cfg), so a configuration seen before costs one lookup
@lru_cache(maxsize=1024)
def _checked_mask(n: int, cfg: Config) -> int:
    _check_config(n, cfg)
    return config_mask(cfg)


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


def complement_iso(cfg: Config, n: int) -> Config:
    """Image of a configuration under occupied/free exchange on n vertices."""
    return tuple(sorted(set(range(n)) - set(cfg)))


def token_degree(g: Graph, cfg: Config) -> int:
    """Number of base edges with exactly one endpoint occupied by cfg."""
    return mask_degree(g, checked_mask(g, cfg))


def min_token_degree(g: Graph, k: int) -> int:
    """Minimum token degree over all k-configurations, by direct scan."""
    if not 1 <= k <= g.n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k} with n={g.n}")
    return min(mask_degree(g, config_mask(cfg)) for cfg in combinations(range(g.n), k))


class TokenGraph:
    """A materialised k-token graph: one neighbour-index bitmask per configuration.

    `vertices` lists the configurations in lexicographic order, `occupancy`
    their occupancy bitmasks, and bit j of `neighbor_masks[i]` is set when
    vertices[i] and vertices[j] are adjacent.  `n`, `neighbor_masks`,
    `min_degree`, `cut_flags` and `pair_orbits` read as on a `Graph` over the
    indices, so the connectivity oracles take a token graph as it is.
    """

    def __init__(self, base: Graph, k: int, vertices: tuple[Config, ...],
                 occupancy: list[int], neighbor_masks: list[int]):
        self.base = base
        self.k = k
        self.vertices = vertices
        self.occupancy = occupancy
        self.neighbor_masks = neighbor_masks

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.neighbor_masks) // 2

    def min_degree(self) -> int:
        return min(m.bit_count() for m in self.neighbor_masks)

    @cached_property
    def cut_flags(self) -> tuple[bool, bool, bool]:
        """(connected, has a cut vertex, has a bridge): `mask_cut_flags` on F_k."""
        return mask_cut_flags(self.neighbor_masks)

    @cached_property
    def automorphisms(self) -> list[list[int]]:
        """Generators of automorphisms of F_k, as permutations of the vertex indices.

        An automorphism of the base maps k-configurations onto k-configurations
        and keeps slides along edges, so it acts on F_k.  When the base is a
        tree these come from `tree_automorphism_generators`, each first checked
        to map the base edges onto the base edges: folding by a map that is
        not an automorphism would skip pairs whose values differ, so such a
        map raises instead.  When 2k = n, complementing maps F_k onto itself
        for any base.
        """
        g = self.base
        index = {occ: i for i, occ in enumerate(self.occupancy)}
        gens = []
        for perm in tree_automorphism_generators(g) if g.is_tree() else ():
            image = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges}
            if sorted(perm) != list(range(g.n)) or image != set(g.edges):
                raise ValueError(
                    f"{list(perm)} is not an automorphism of the tree {emit_graph6(g)}")
            bits = [1 << w for w in perm]
            gens.append([index[sum(bits[v] for v in cfg)] for cfg in self.vertices])
        if 2 * self.k == g.n:
            full = (1 << g.n) - 1
            gens.append([index[full ^ occ] for occ in self.occupancy])
        return gens

    @cached_property
    def pair_orbits(self) -> PairOrbits:
        """Orbits of vertex pairs under `automorphisms`, shared by every scan on F_k.

        Closing them takes at most ORBIT_WORK map images per configuration,
        so a large group, whose orbits dwarf the pairs a scan tries, costs
        time and memory in proportion to F_k, not to its pairs.
        """
        return PairOrbits(self.automorphisms, ORBIT_WORK * self.n)

    # the tuple index serves the reference methods below and the paths orbit walk
    @cached_property
    def index(self) -> dict[Config, int]:
        return {cfg: i for i, cfg in enumerate(self.vertices)}

    def degree(self, cfg: Config) -> int:
        return self.neighbor_masks[self.index[cfg]].bit_count()

    def neighbors(self, cfg: Config) -> tuple[Config, ...]:
        m = self.neighbor_masks[self.index[cfg]]
        return tuple(self.vertices[j] for j in range(m.bit_length()) if m >> j & 1)

    def distance(self, a: Config, b: Config) -> int | float:
        goal = 1 << self.index[b]
        seen = frontier = 1 << self.index[a]
        dist = 0
        while frontier and not frontier & goal:
            nxt = 0
            for j in range(frontier.bit_length()):
                if frontier >> j & 1:
                    nxt |= self.neighbor_masks[j]
            frontier = nxt & ~seen
            seen |= frontier
            dist += 1
        return dist if frontier else inf

    def distance2_pairs(self) -> Iterator[tuple[Config, Config]]:
        """Unordered pairs at distance exactly 2, in lexicographic order."""
        masks, vertices = self.neighbor_masks, self.vertices
        for i, cfg in enumerate(vertices):
            direct = m = masks[i]
            second = 0
            while m:
                low = m & -m
                m ^= low
                second |= masks[low.bit_length() - 1]
            # keep the vertices after i: the pair (cfg, later) is unordered
            second &= ~direct & -(2 << i)
            while second:
                low = second & -second
                second ^= low
                yield cfg, vertices[low.bit_length() - 1]

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
    from u to a free neighbour w gives the mask occ ^ (1 << u | 1 << w).
    """
    if not 1 <= k <= g.n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k} with n={g.n}")
    size = comb(g.n, k)
    if size > MATERIALIZE_LIMIT:
        raise ValueError(
            f"token graph would have {size} configurations, over the limit {MATERIALIZE_LIMIT}"
        )
    vertices = tuple(combinations(range(g.n), k))
    occs = [config_mask(cfg) for cfg in vertices]
    index = {occ: i for i, occ in enumerate(occs)}
    nbrs = g.neighbor_masks
    masks = []
    for i, occ in enumerate(occs):
        adj = 0
        for u in vertices[i]:
            free = nbrs[u] & ~occ
            while free:
                w = free & -free
                free ^= w
                adj |= 1 << index[occ ^ (1 << u | w)]
        masks.append(adj)
    return TokenGraph(g, k, vertices, occs, masks)


@dataclass(frozen=True)
class Case1Pair:
    """Distance-2 pair differing in one token: x -> v -> y through a common neighbour."""

    x: int
    y: int
    v: int


@dataclass(frozen=True)
class Case2Pair:
    """Distance-2 pair differing in two tokens along independent edges x_i y_i."""

    x1: int
    y1: int
    x2: int
    y2: int


def classify_distance2(g: Graph, a: Config, b: Config) -> Case1Pair | Case2Pair:
    """Classify an unordered configuration pair at distance exactly 2.

    Pairs sharing k-1 tokens need the two leftover vertices to be
    non-adjacent with a common neighbour (smallest such neighbour is
    reported, whether or not it is occupied).  Pairs sharing k-2 tokens need
    a perfect matching of base edges between the leftover pairs.  Anything
    else is not at distance 2 and raises ValueError.
    """
    return classify_masks(g, checked_mask(g, a), checked_mask(g, b))


def classify_masks(g: Graph, a_mask: int, b_mask: int) -> Case1Pair | Case2Pair:
    """classify_distance2 on the occupancy masks of two valid configurations."""
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
        return Case1Pair(x, y, (common & -common).bit_length() - 1)
    if moved == 2:
        x1, r = (only_a & -only_a).bit_length() - 1, (only_b & -only_b).bit_length() - 1
        x2, s = only_a.bit_length() - 1, only_b.bit_length() - 1
        if nbrs[x1] >> r & 1 and nbrs[x2] >> s & 1:
            return Case2Pair(x1, r, x2, s)
        if nbrs[x1] >> s & 1 and nbrs[x2] >> r & 1:
            return Case2Pair(x1, s, x2, r)
        raise ValueError(
            f"distance exceeds 2: no matching of edges between {[x1, x2]} and {[r, s]}"
        )
    raise ValueError("distance exceeds 2: symmetric difference larger than 4")
