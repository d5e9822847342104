"""Test-side readers of token graphs and families by configuration.

A `TokenGraph` is read by vertex index; these helpers reach a configuration
through its occupancy mask and `index`, audit a family on its paths'
configurations without the engine's own checks, and replay a verified family
in the normalised frame, where its trace certificates speak.  `double_star`
builds the symmetric base trees that the seeded checks past the exhaustive
sweeps share, and `generated_group` lists every automorphism that a set of
generators reaches.  `path_graph`, `cycle_graph`, `complete_graph` and
`star_graph` build the small base graphs the tests share.
"""

from itertools import combinations

import networkx as nx

from tokengraphs.families import plan_family
from tokengraphs.graphs import Graph
from tokengraphs.moves import TokenPath
from tokengraphs.tokens import config_mask


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


def double_star(a: int, b: int) -> Graph:
    """Adjacent centres 0 and 1 with a and b leaves."""
    leaves = [(0, v) for v in range(2, a + 2)] + [(1, v) for v in range(a + 2, a + b + 2)]
    return Graph(a + b + 2, ((0, 1), *leaves))


def generated_group(gens, n):
    """Every composition of the given vertex maps, the identity included."""
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(g[v] for v in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def fk_neighbors(tg, cfg):
    """The configurations adjacent to cfg in F_k, in the vertex order of F_k:
    colex order, by largest vertex first."""
    m = tg.neighbor_masks[tg.index[config_mask(cfg)]]
    return tuple(tg.vertices[j] for j in range(m.bit_length()) if m >> j & 1)


def fk_distances(tg):
    """Per vertex index, the networkx BFS distances in F_k (unreachable indices absent)."""
    h = nx.Graph(tg.as_graph().edges)
    h.add_nodes_from(range(tg.n))
    return dict(nx.all_pairs_shortest_path_length(h))


def family_faults(paths, x_cfg, y_cfg):
    """What keeps paths from being internally disjoint x_cfg-y_cfg paths, found
    by set arithmetic over each path's configurations (empty when nothing does)."""
    faults, owner = [], {}
    for i, path in enumerate(paths):
        configs = path.configs
        if configs[0] != x_cfg or configs[-1] != y_cfg:
            faults.append(f"path {i} runs {configs[0]} -> {configs[-1]}")
        if len(set(configs)) != len(configs):
            faults.append(f"path {i} repeats a configuration")
        for cfg in configs[1:-1]:
            first = owner.setdefault(cfg, i)
            if first != i:
                faults.append(f"paths {first} and {i} share {cfg}")
    return faults


def planned_moves(result):
    """Each path's moves in the normalised frame, as `build_family` planned them."""
    return [moves for _, moves, _ in plan_family(result.context, result.delta)]


def normalized_paths(result):
    """The paths of a verified family in the normalised frame, replayed from
    the context's X."""
    ctx = result.context
    return [TokenPath(ctx.tree, ctx.x_cfg, moves) for moves in planned_moves(result)]
