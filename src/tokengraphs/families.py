"""Constructive disjoint path families between distance-2 token configurations.

For a tree T and configurations X, Y at distance 2 in the k-token graph, this
module builds at least min-token-degree many pairwise internally disjoint
X-Y token paths.  `normalize` brings each instance into one of two fixed
shapes (complementing tokens with free vertices, swapping endpoint roles,
relabelling the two moved-token indices) on int occupancy masks.  A context
is a function of (tree, labels, Z, W): it derives the neighbour sets as
occupancy masks, the counts as ints and the Z-W edges from them, and each
reduction rebuilds it from the relabelled labels and swapped Z and W.
Sorted tuples appear only at the entry points and in what callers read out
(`x_cfg`, `y_cfg`, the paths).
Every path the paper names (T1-T4, P and P' for one moved token; L1-L4*,
P1-P4 for two) is one row of `_TEMPLATES`: a label, moves over slot names
and trace-condition ids; each id is one row of `_TRACE_CONDITIONS`, whose
slot names are the condition's slots, and a `TraceCondition` checks itself.
`plan_family` binds the slots from the context and its neighbour sets and
emits each path's plan in the normalised frame.  `build_family` verifies
each guarantee once, in the original frame and on occupancy masks: it
folds the reductions into two flags (reverse each move list, flip each
move), maps every plan with them, replays it once from X's mask with
`moves.replay`, checks its end and its trace conditions on that walk, then
checks the walks' disjointness and the family's size.  The verified family
is a `FamilyResult` of plans, moves and walks; its TokenPath objects are
built only when `family` is read.  Both configurations enter as sorted
tuples, checked once by `tokens.checked_mask` in `normalize`, and the family
size delta is a required int, checked there too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from typing import Iterable

from .graphs import Graph
from .moves import TokenPath, pairwise_internally_disjoint, replay
from .tokens import Config, checked_mask, classify_masks, config_mask, mask_config, mask_degree

__all__ = [
    "FamilyConstructionError",
    "Case1Context",
    "Case2Context",
    "FamilyResult",
    "normalize",
    "TraceCondition",
    "check_trace",
    "plan_family",
    "build_family",
]


class FamilyConstructionError(RuntimeError):
    """A constructed family violates an invariant the construction guarantees."""


# the instance transformations normalisation applies, named by these strings:
#   complement              exchange tokens and free vertices (k -> n-k)
#   swap_xy                 exchange the roles of X and Y
#   swap_indices_12         exchange the labels of the two moved-token pairs
#   complement_with_relabel complement plus the induced role relabelling


def _zw_edges(nbrs: tuple[int, ...], z: int, w: int) -> tuple[tuple[int, int], ...]:
    """Edges from a shared token to a free vertex, as sorted (z, w) pairs."""
    return tuple((u, t) for u in mask_config(z) for t in mask_config(nbrs[u] & w))


@dataclass(slots=True)
class Case1Context:
    """Normalised instance where X and Y differ in a single token x vs y.

    A function of (tree, x, y, v, Z, W): every other field is derived from
    these.  The shared tokens are Z, the free vertices W; v is the common
    neighbour of x and y and is free.  side_masks holds the neighbours of x
    in W - v, of y in Z, of x in Z and of y in W - v (region_mask); their
    sizes are the counts a, b, c, d, with deg(X) = a + b + eta + 1 and
    deg(Y) = c + d + eta + 1 for eta = len(zw_edges).
    """

    tree: Graph
    x: int
    y: int
    v: int
    z_mask: int
    w_mask: int
    side_masks: tuple[int, int, int, int] = field(init=False)
    a: int = field(init=False)
    b: int = field(init=False)
    c: int = field(init=False)
    d: int = field(init=False)
    zw_edges: tuple[tuple[int, int], ...] = field(init=False)
    m: int = field(init=False)
    region_mask: int = field(init=False)

    def __post_init__(self):
        nbrs, x, y, z = self.tree.neighbor_masks, self.x, self.y, self.z_mask
        self.region_mask = region = self.w_mask & ~(1 << self.v)
        self.side_masks = (nbrs[x] & region, nbrs[y] & z, nbrs[x] & z, nbrs[y] & region)
        self.a, self.b, self.c, self.d = map(int.bit_count, self.side_masks)
        self.zw_edges = _zw_edges(nbrs, z, self.w_mask)
        self.m = min(self.a, self.c) + min(self.b, self.d) + len(self.zw_edges) + 1

    x_cfg = property(lambda self: mask_config(self.z_mask | 1 << self.x))
    y_cfg = property(lambda self: mask_config(self.z_mask | 1 << self.y))


@dataclass(slots=True)
class Case2Context:
    """Normalised instance where X and Y differ in two tokens x_i -> y_i.

    A function of (tree, x1, y1, x2, y2, Z, W): every other field is derived
    from these.  The slide edges x1-y1 and x2-y2 are independent; cross is
    the unique further edge between {x1, y1} and {x2, y2} if one exists,
    oriented as (endpoint among x1/y1, endpoint among x2/y2).  side_masks
    holds the neighbour sets wx1 wx2 zy1 zy2 zx1 zx2 wy1 wy2 (neighbours of
    x_i or y_i in W or Z); their sizes are the counts a1 a2 b1 b2 c1 c2 d1 d2,
    with deg(X) = a1 + a2 + b1 + b2 + eta + 2 (+1 with an x-to-y cross edge)
    for eta = len(zw_edges).  region_mask is all of W.
    """

    tree: Graph
    x1: int
    y1: int
    x2: int
    y2: int
    z_mask: int
    w_mask: int
    side_masks: tuple[int, ...] = field(init=False)
    a1: int = field(init=False)
    a2: int = field(init=False)
    b1: int = field(init=False)
    b2: int = field(init=False)
    c1: int = field(init=False)
    c2: int = field(init=False)
    d1: int = field(init=False)
    d2: int = field(init=False)
    zw_edges: tuple[tuple[int, int], ...] = field(init=False)
    cross: tuple[int, int] | None = field(init=False)
    m: int = field(init=False)
    case_number: int = field(init=False)
    region_mask: int = field(init=False)

    def __post_init__(self):
        nbrs, z, w = self.tree.neighbor_masks, self.z_mask, self.w_mask
        x1, y1, x2, y2 = self.x1, self.y1, self.x2, self.y2
        self.region_mask = w
        self.side_masks = (nbrs[x1] & w, nbrs[x2] & w, nbrs[y1] & z, nbrs[y2] & z,
                           nbrs[x1] & z, nbrs[x2] & z, nbrs[y1] & w, nbrs[y2] & w)
        a1, a2, b1, b2, c1, c2, d1, d2 = counts = tuple(map(int.bit_count, self.side_masks))
        self.a1, self.a2, self.b1, self.b2, self.c1, self.c2, self.d1, self.d2 = counts
        self.zw_edges = _zw_edges(nbrs, z, w)
        # a tree has at most one: two cross edges close a cycle with x1-y1 and x2-y2
        self.cross = next(((p, q) for p in (x1, y1) for q in (x2, y2) if nbrs[p] >> q & 1), None)
        self.m = min(a1, c1) + min(a2, c2) + min(b1, d1) + min(b2, d2) + len(self.zw_edges) + 2
        self.case_number = _case_index(a1 > c1, a2 > c2, b1 > d1, b2 > d2)

    x_cfg = property(lambda self: mask_config(self.z_mask | 1 << self.x1 | 1 << self.x2))
    y_cfg = property(lambda self: mask_config(self.z_mask | 1 << self.y1 | 1 << self.y2))

    @property
    def cross_kind(self) -> str | None:
        if self.cross is None:
            return None
        p, q = self.cross
        first = "x1" if p == self.x1 else "y1"
        second = "x2" if q == self.x2 else "y2"
        return first + second


def _case_index(a1_gt: bool, a2_gt: bool, b1_gt: bool, b2_gt: bool) -> int:
    """Map the four strict count comparisons to the 1..16 dispatch index."""
    return 1 + 8 * (not a1_gt) + 4 * (not a2_gt) + 2 * (not b1_gt) + (not b2_gt)


# dispatch table: which reduction each non-terminal case applies
_CASE_REDUCTIONS: dict[int, str] = {
    **dict.fromkeys((3, 9, 10, 11, 12, 15), "swap_indices_12"),
    **dict.fromkeys((5, 13, 14), "complement_with_relabel"),
}
_TERMINAL_CASES = frozenset({2, 4, 6, 7, 8, 16})


def _relabelled(ctx: Case2Context, kind: str) -> Case2Context:
    """The context after a case-2 relabelling: swapping the indices exchanges
    the 1 and 2 labels; complementing trades Z and W and each x_i with y_i,
    so x_i's neighbours in W become y_i's in Z (a_i <-> b_i) and x_i's in Z
    become y_i's in W (c_i <-> d_i)."""
    if kind == "swap_indices_12":
        return Case2Context(ctx.tree, ctx.x2, ctx.y2, ctx.x1, ctx.y1, ctx.z_mask, ctx.w_mask)
    return Case2Context(ctx.tree, ctx.y1, ctx.x1, ctx.y2, ctx.x2, ctx.w_mask, ctx.z_mask)


def normalize(
    tree: Graph, x_cfg: Config, y_cfg: Config, delta: int
) -> tuple[Case1Context | Case2Context, tuple[str, ...]]:
    """Classify and normalise a distance-2 instance over a tree.

    x_cfg and y_cfg must be configurations (sorted duplicate-free tuples of
    vertex ints, see `tokens.checked_mask`) and delta an int; anything else
    raises ValueError.  Returns the construction-ready context together with
    the reductions applied, by the names listed above, in application order.
    Case-1 instances are complemented until the middle vertex is free, then
    endpoint-swapped so X has the smaller token degree.  Case-2 instances are
    endpoint-swapped the same way, then run through the count-comparison
    dispatch until a terminal case is reached (at most two reductions); a
    case-16 instance whose family of delta paths needs the supplemental x1-y2
    paths is also relabelled so the cross edge lies on that diagonal, which
    touches neither X, Y nor any path.  Each reduction rebuilds the context
    from the relabelled labels and the swapped Z and W.  Complementing keeps
    token degrees, so both are computed once.
    """
    if not isinstance(delta, int):
        raise ValueError(f"family size delta must be an int, got {delta!r}")
    if not tree.is_tree():
        raise ValueError("base graph must be a tree")
    x_mask, y_mask = checked_mask(tree, x_cfg), checked_mask(tree, y_cfg)
    pair = classify_masks(tree, x_mask, y_mask)
    deg_x, deg_y = mask_degree(tree, x_mask), mask_degree(tree, y_mask)
    z, w = x_mask & y_mask, (1 << tree.n) - 1 & ~(x_mask | y_mask)
    reductions: list[str] = []

    if len(pair) == 3:
        x, y, v = pair
        if z >> v & 1:
            x, y, z, w = y, x, w, z
            reductions.append("complement")
        if deg_x > deg_y:
            x, y, deg_x, deg_y = y, x, deg_y, deg_x
            reductions.append("swap_xy")
        ctx = Case1Context(tree, x, y, v, z, w)
        if ctx.a + ctx.b + len(ctx.zw_edges) + 1 != deg_x:
            raise FamilyConstructionError("case-1 degree bookkeeping failed for X")
        if ctx.c + ctx.d + len(ctx.zw_edges) + 1 != deg_y:
            raise FamilyConstructionError("case-1 degree bookkeeping failed for Y")
        return ctx, tuple(reductions)

    x1, y1, x2, y2 = pair
    if deg_x > deg_y:
        x1, y1, x2, y2, deg_x, deg_y = y1, x1, y2, x2, deg_y, deg_x
        reductions.append("swap_xy")
    ctx = Case2Context(tree, x1, y1, x2, y2, z, w)
    for _ in range(2):
        if ctx.case_number == 1:
            raise FamilyConstructionError("case 1 of the dispatch contradicts deg(X) <= deg(Y)")
        kind = _CASE_REDUCTIONS.get(ctx.case_number)
        if kind is None:
            break
        ctx = _relabelled(ctx, kind)
        reductions.append(kind)
    if ctx.case_number not in _TERMINAL_CASES:
        raise FamilyConstructionError(
            f"dispatch failed to reach a terminal case (stuck at {ctx.case_number})"
        )
    if delta == ctx.m + 1 and ctx.case_number == 16 and ctx.cross_kind == "y1x2":
        ctx = _relabelled(ctx, "swap_indices_12")
        reductions.append("swap_indices_12")
    # a relabelling keeps the cross-edge bonus
    bonus = 1 if ctx.cross_kind in ("x1y2", "y1x2") else 0
    eta = len(ctx.zw_edges)
    if ctx.a1 + ctx.a2 + ctx.b1 + ctx.b2 + eta + 2 + bonus != deg_x:
        raise FamilyConstructionError("case-2 degree bookkeeping failed for X")
    if ctx.c1 + ctx.c2 + ctx.d1 + ctx.d2 + eta + 2 + bonus != deg_y:
        raise FamilyConstructionError("case-2 degree bookkeeping failed for Y")
    return ctx, tuple(reductions)


# ---------------------------------------------------------------------------
# trace conditions
#
# A condition constrains each configuration A strictly inside a path.  A row
# is (z_drops, w_vals, forbid_trivial): the allowed values of Z - A and of
# A & W-region, as alternatives over slot names (None: unconstrained), and
# whether the undisturbed state (nothing dropped, W empty) is forbidden.

_EXCHANGE = (((), ("z",)), ((), ("w",)), True)

_TRACE_CONDITIONS: dict[str, tuple] = {
    "C1": (((),), ((),), False),
    "C2": ((("z",),), None, False),
    "C2.1": (None, (("w",),), False),
    "C2.2": (None, ((),), False),
    "C3": _EXCHANGE,
    "C4": _EXCHANGE,
    "C5": ((("z1",), ("z2",), ("z1", "z2")), ((),), False),
    "D1": (((),), ((),), False),
    "D2": ((("z",),), (("w",),), False),
    "D3": _EXCHANGE,
    "D4": _EXCHANGE,
    "D3*": _EXCHANGE,
    "D4*": _EXCHANGE,
    "E1": (((),), (("w1",), ("w2",), ("w1", "w2")), False),
    "E2": _EXCHANGE,
    "E3": (((), ("z",)), ((),), False),
    "E4": (((),), ((), ("w",)), False),
}
_SLOTS = {
    cid: tuple(sorted({slot for alts in (z_drops, w_vals) for alt in alts or () for slot in alt}))
    for cid, (z_drops, w_vals, _) in _TRACE_CONDITIONS.items()
}


@dataclass(frozen=True)
class TraceCondition:
    """One named trace predicate with its slots bound to vertices, in slot-name order.

    Construction raises ValueError unless id names a known condition and
    bound pairs each of its slots, in name order, with a vertex int.
    """

    id: str
    bound: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not isinstance(self.id, str) or self.id not in _SLOTS:
            raise ValueError(f"unknown trace condition {self.id!r}")
        try:
            slots = tuple(slot for slot, _ in self.bound)
        except (TypeError, ValueError):
            slots = None
        if slots != _SLOTS[self.id]:
            raise ValueError(f"condition {self.id} needs slots {_SLOTS[self.id]}, got {slots}")
        for slot, vert in self.bound:
            if not (isinstance(vert, int) and vert >= 0):
                raise ValueError(
                    f"condition {self.id} slot {slot!r} is {vert!r}, not a vertex int"
                )

    @cached_property
    def _allowed(self) -> tuple[frozenset[int] | None, frozenset[int] | None, bool]:
        """The condition's allowed Z-drop and W-region values as bound masks."""
        z_drops, w_vals, forbid_trivial = _TRACE_CONDITIONS[self.id]
        vertex = dict(self.bound)

        def masks(alternatives):
            if alternatives is None:
                return None
            return frozenset(config_mask(vertex[slot] for slot in alt) for alt in alternatives)

        return masks(z_drops), masks(w_vals), forbid_trivial


def check_trace(inner: Iterable[int], cond: TraceCondition, ctx) -> bool:
    """Evaluate cond on every configuration strictly inside a path.

    inner holds the occupancy masks of those configurations, in any order:
    each predicate looks at one configuration at a time.  ctx gives the
    masks of Z and of the W region as `z_mask` and `region_mask`.
    """
    drops_allowed, w_allowed, forbid_trivial = cond._allowed
    z, region = ctx.z_mask, ctx.region_mask
    for occupied in inner:
        dropped = z & ~occupied
        present = occupied & region
        if drops_allowed is not None and dropped not in drops_allowed:
            return False
        if w_allowed is not None and present not in w_allowed:
            return False
        if forbid_trivial and not dropped and not present:
            return False
    return True


# ---------------------------------------------------------------------------
# families


Moves = tuple[tuple[int, int], ...]
# a planned path: label, moves in the normalised frame, trace conditions
PathPlan = tuple[str, Moves, tuple[TraceCondition, ...]]

# Every path of both schemes as (label, moves, trace-condition ids).  A move
# "a>b" slides the token on slot a to slot b.  The context fills the slots
# x, y, v (one moved token) or x1, y1, x2, y2 (two); each path fills the rest
# from a Z-W edge or from neighbour sets.  A condition's slots take the
# path's values of the same names.
_TEMPLATES: dict[str, tuple[str, str, str]] = {
    "T1": ("T1", "x>v v>y", "C1"),
    "T2": ("T2", "z>w x>v v>y w>z", "C2 C2.1"),
    "T2v": ("T2", "z>v v>y x>v v>z", "C2 C2.2"),  # the Z-W edge ends at v
    "T3": ("T3", "x>w z>x x>v v>y w>x x>z", "C3"),
    "T4": ("T4", "z>y y>w x>v v>y y>z w>y", "C4"),
    "P": ("P", "z1>y x>v z2>x y>z1 v>y x>z2", "C5"),
    "P'": ("P'", "z1>y x>v z2>x y>z1 v>y x>z2", "C5"),
    "L1": ("L1", "x1>y1 x2>y2", "D1"),
    "L1'": ("L1", "x2>y2 x1>y1", "D1"),
    "L2": ("L2", "z>w x1>y1 x2>y2 w>z", "D2"),
    "L3": ("L3", "x1>w z>x1 x1>y1 x2>y2 w>x1 x1>z", "D3"),
    "L4": ("L4", "z>y1 y1>w x2>y2 x1>y1 y1>z w>y1", "D4"),
    "L3*": ("L3*", "x2>w z>x2 x2>y2 x1>y1 w>x2 x2>z", "D3*"),
    "L4*": ("L4*", "z>y2 y2>w x1>y1 x2>y2 y2>z w>y2", "D4*"),
    "P1": ("P1", "x1>w1 x2>y2 y2>w2 w1>x1 x1>y1 w2>y2", "E1"),
    "P2": ("P2", "x1>w x2>y2 z>x2 w>x1 x1>y1 x2>z", "E2"),
    "P3": ("P3", "x1>y2 z>x1 x1>y1 y2>x1 x2>y2 x1>z", "E3"),
    "P4": ("P4", "x1>y2 y2>w x2>y2 y2>x1 x1>y1 w>y2", "E4"),
}
_CONTEXT_SLOTS = (("x", "y", "v"), ("x1", "y1", "x2", "y2"))
# the templates with one path per pair of a W-neighbour and a Z-neighbour, as
# (key, index of the W set, index of the Z set) into side_masks, which holds
# (wx, zy, zx, wy) or (wx1, wx2, zy1, zy2, zx1, zx2, wy1, wy2)
_SIDE_ROWS = (
    (("T3", 0, 2), ("T4", 3, 1)),
    (("L3", 0, 4), ("L4", 6, 2), ("L3*", 1, 5), ("L4*", 7, 3)),
)

# the supplemental two-token path of delta = m + 1: its guard on the counts,
# the guard's wording, and the indices into side_masks of the neighbour sets
# whose highest vertices fill its slots (wx1 = 0, zx1 = 4, zx2 = 5, wy2 = 7)
_SUPPLEMENTS = {
    "P1": (lambda c: c.a1 > c.c1 and c.d2 > c.b2, "a1 > c1 and d2 > b2", (0, 7)),
    "P2": (lambda c: c.a1 > c.c1 and c.c2 > c.a2, "a1 > c1 and c2 > a2", (0, 5)),
    "P3": (lambda c: c.c1 > c.a1 and c.cross_kind == "x1y2",
           "c1 > a1 and a cross edge x1-y2", (4,)),
    "P4": (lambda c: c.d2 > c.b2 and c.cross_kind == "x1y2",
           "d2 > b2 and a cross edge x1-y2", (7,)),
}


def _compile(label: str, moves: str, conds: str) -> tuple:
    """A template with each slot name replaced by its index in the slot values:
    the context's slots first, then the path's own in name order (w before z)."""
    names = set(moves.replace(">", " ").split())
    context = _CONTEXT_SLOTS["x1" in names]
    index = {name: i for i, name in enumerate(context + tuple(sorted(names - set(context))))}
    steps = tuple((index[a], index[b]) for a, b in (m.split(">") for m in moves.split()))
    # each condition's slots in name order, the order `TraceCondition.bound` keeps
    checks = tuple((cid, tuple((slot, index[slot]) for slot in _SLOTS[cid]))
                   for cid in conds.split())
    return label, steps, checks


_COMPILED = {key: _compile(*row) for key, row in _TEMPLATES.items()}

# equal conditions share one object and so compute their masks once: the plans
# of `paths --n-max 8` bind 2,874 conditions, 211 of them distinct
_condition = cache(TraceCondition)


# a plan is pure in its template and slot values, and the families of one
# tree repeat them, so most paths cost one lookup
@lru_cache(maxsize=4096)
def _bind(key: str, values: tuple[int, ...]) -> PathPlan:
    label, steps, checks = _COMPILED[key]
    moves = tuple([(values[i], values[j]) for i, j in steps])
    conds = tuple([_condition(cid, tuple([(slot, values[i]) for slot, i in slots]))
                   for cid, slots in checks])
    return label, moves, conds


def plan_family(ctx: Case1Context | Case2Context, delta: int) -> list[PathPlan]:
    """Plan the guaranteed family of size m, then the paths delta - m asks for.

    One moved token: T1, a T2 per Z-W edge, min(a, c) T3 and min(b, d) T4,
    then up to two of P, P'.  Two moved tokens: L1 both ways, an L2 per Z-W
    edge, then L3, L4, L3*, L4* from the neighbour sets, and at most one of
    P1-P4.
    """
    one_token = isinstance(ctx, Case1Context)
    if one_token:
        base, v = (ctx.x, ctx.y, ctx.v), ctx.v
        plans = [_bind("T1", base)]
        plans += [_bind("T2", base + (w, z)) if w != v else _bind("T2v", base + (z,))
                  for z, w in ctx.zw_edges]
    else:
        base = (ctx.x1, ctx.y1, ctx.x2, ctx.y2)
        plans = [_bind("L1", base), _bind("L1'", base)]
        plans += [_bind("L2", base + (w, z)) for z, w in ctx.zw_edges]
    sides = ctx.side_masks
    for key, w_side, z_side in _SIDE_ROWS[not one_token]:
        if sides[w_side] and sides[z_side]:  # zip stops at the smaller count
            pairs = zip(mask_config(sides[w_side]), mask_config(sides[z_side]))
            plans += [_bind(key, base + wz) for wz in pairs]
    if len(plans) != ctx.m:
        raise FamilyConstructionError(f"step-1 family has {len(plans)} paths, expected {ctx.m}")
    extra = delta - ctx.m
    if extra > 0:
        rows = _extension(ctx, extra) if one_token else [_supplement(ctx, extra)]
        plans += [_bind(key, base + values) for key, values in rows]
    return plans


def _extension(ctx: Case1Context, extra: int) -> list[tuple[str, tuple[int, ...]]]:
    """The P and P' rows when delta exceeds m by one or two."""
    if extra > 2:
        raise FamilyConstructionError(f"delta - m = {extra} exceeds the case-1 bound 2")
    a, b, c, d = ctx.a, ctx.b, ctx.c, ctx.d
    if not (b >= d + 1 and c >= a + 1):
        raise FamilyConstructionError(
            f"delta > m requires b > d and c > a, got a={a} b={b} c={c} d={d}"
        )
    if extra == 2 and not (b >= d + 2 and c >= a + 2):
        raise FamilyConstructionError(
            f"delta = m + 2 requires b >= d+2 and c >= a+2, got a={a} b={b} c={c} d={d}"
        )
    zy, zx = mask_config(ctx.side_masks[1]), mask_config(ctx.side_masks[2])
    return [(key, (zy[-1 - step], zx[-1 - step])) for step, key in zip(range(extra), ("P", "P'"))]


def _supplement(ctx: Case2Context, extra: int) -> tuple[str, tuple[int, ...]]:
    """The one extra row available when delta = m + 1."""
    if extra > 1:
        raise FamilyConstructionError(f"delta - m = {extra} exceeds the case-2 bound 1")
    case = ctx.case_number
    if case == 16:
        if ctx.cross_kind != "x1y2":
            raise FamilyConstructionError(
                "case 16 needs the cross edge oriented x1-y2; apply the index swap first"
            )
        key = "P3" if ctx.c1 > ctx.a1 else "P4"
    elif case == 6 and ctx.c2 > ctx.a2:
        key = "P2"
    elif case in (2, 6, 8):
        key = "P1"
    else:
        raise FamilyConstructionError(f"no supplemental path exists in terminal case {case}")
    holds, needs, sides = _SUPPLEMENTS[key]
    if not holds(ctx):
        raise FamilyConstructionError(f"{key} needs {needs} in case {case}")
    return key, tuple(ctx.side_masks[i].bit_length() - 1 for i in sides)


# ---------------------------------------------------------------------------
# verification


# a complement or an endpoint swap turns each move (src, dst) into (dst, src);
# plans repeat across the families of a tree, so each orientation of one is built once
@lru_cache(maxsize=4096)
def _orient(moves: Moves, reverse: bool, flip: bool) -> Moves:
    if reverse:
        moves = moves[::-1]
    if flip:
        moves = tuple([(dst, src) for src, dst in moves])
    return moves


@dataclass(slots=True)
class FamilyResult:
    """A verified family plus the normalisation data that produced it.

    The family was verified on occupancy masks: `moves` holds each path's
    moves in the original frame, from x_cfg, and `walks` the masks they
    visit.  `family`, the TokenPath objects, is built on first read.  Each
    path's label and trace certificates are in `plans`, as planned in the
    normalised frame; the guaranteed size m is `context.m`.
    """

    context: Case1Context | Case2Context
    reductions: tuple[str, ...]
    delta: int
    x_cfg: Config
    y_cfg: Config
    plans: list[PathPlan]
    moves: tuple[Moves, ...]
    walks: tuple[tuple[int, ...], ...]
    _family: tuple[TokenPath, ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def case(self) -> int:
        return 1 if isinstance(self.context, Case1Context) else 2

    @property
    def size(self) -> int:
        return len(self.walks)

    @property
    def family(self) -> tuple[TokenPath, ...]:
        """The verified paths as TokenPath objects, built on the first read."""
        if self._family is None:
            tree = self.context.tree
            self._family = tuple(TokenPath(tree, self.x_cfg, moves) for moves in self.moves)
        return self._family


def build_family(tree: Graph, x_cfg: Config, y_cfg: Config, delta: int) -> FamilyResult:
    """Construct and fully verify a disjoint family of at least delta paths.

    x_cfg and y_cfg are sorted tuples and delta an int, checked by `normalize`.
    """
    ctx, reductions = normalize(tree, x_cfg, y_cfg, delta)
    plans = plan_family(ctx, delta)

    # map the plans back through the reductions in one step: every swap_xy
    # reverses a move list, and every swap_xy or complement flips each move
    reverse = flip = complemented = False
    for red in reductions:
        if red == "swap_xy":
            reverse, flip = not reverse, not flip
        elif red != "swap_indices_12":
            flip, complemented = not flip, not complemented
    # XOR with this mask takes an original-frame configuration to the normalised one
    to_normalized = (1 << tree.n) - 1 if complemented else 0
    # normalize has checked both configurations
    x_mask, y_mask = config_mask(x_cfg), config_mask(y_cfg)
    oriented, walks = [], []
    for label, moves, conds in plans:
        if reverse or flip:
            moves = _orient(moves, reverse, flip)
        try:
            walk = replay(tree, x_mask, moves)
        except ValueError as exc:
            raise FamilyConstructionError(f"path {label} does not replay: {exc}") from exc
        if walk[-1] != y_mask:
            end = mask_config(walk[-1])
            raise FamilyConstructionError(f"path {label} ends at {end}, not {y_cfg}")
        inner = walk[1:-1]
        if to_normalized:
            inner = [m ^ to_normalized for m in inner]
        for cond in conds:
            if not check_trace(inner, cond, ctx):
                raise FamilyConstructionError(f"path {label} violates trace condition {cond.id}")
        oriented.append(moves)
        walks.append(walk)

    ok, clash = pairwise_internally_disjoint(walks)
    if not ok:
        i, j = clash
        raise FamilyConstructionError(
            f"paths {plans[i][0]} and {plans[j][0]} share an inner configuration"
        )
    if len(walks) < delta:
        raise FamilyConstructionError(
            f"family of {len(walks)} paths is below delta = {delta}"
        )
    return FamilyResult(ctx, reductions, delta, x_cfg, y_cfg, plans,
                        tuple(oriented), tuple(walks))
