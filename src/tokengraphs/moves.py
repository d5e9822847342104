"""Token paths as move sequences, with validity enforced at construction.

A move slides one token along a base edge to a free vertex.  A TokenPath
replays its moves from the start configuration when built, so any admissible
TokenPath is a simple path in the token graph by construction.  The replay,
the disjointness check and the trace conditions work on int occupancy masks
(bit v set when v holds a token; a move XORs two bits), and the sorted-tuple
views of a path's configurations are built only when read.  Construction
still validates every start and coerces every move, through two bounded
memos: the start check keyed on the vertex count and the start, the move
conversion keyed on the move.  `check_trace` reads the Z and W-region masks
a family context carries, or builds them from frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Protocol, Sequence

from .graphs import Graph
from .tokens import Config, checked_mask, config_mask, mask_config

__all__ = [
    "TokenMove",
    "TokenPath",
    "pairwise_internally_disjoint",
    "TraceCondition",
    "CONDITION_IDS",
    "trace_condition",
    "check_trace",
]


class TokenMove(NamedTuple):
    """One token slide from src to dst along a base edge."""

    src: int
    dst: int


MoveLike = TokenMove | tuple[int, int]


def _as_moves(moves: Iterable[MoveLike]) -> tuple[TokenMove, ...]:
    moves = tuple(moves)
    try:
        return tuple(map(_as_move, moves))
    except TypeError:  # an unhashable move, such as a list, skips the memo
        return tuple(TokenMove(int(s), int(d)) for s, d in moves)


# equal moves convert to equal int moves, so one TokenMove per pair is shared
@lru_cache(maxsize=4096)
def _as_move(move: MoveLike) -> TokenMove:
    src, dst = move
    return TokenMove(int(src), int(dst))


@dataclass(frozen=True)
class TokenPath:
    """A simple path in the token graph of `graph`, stored as moves.

    Construction replays every move and raises ValueError on an inadmissible
    move or a repeated configuration, so instances are always valid.
    `masks` holds the occupancy mask of every visited configuration.
    """

    graph: Graph
    start: Config
    moves: tuple[TokenMove, ...]

    def __post_init__(self):
        moves = _as_moves(self.moves)
        object.__setattr__(self, "moves", moves)
        nbrs = self.graph.neighbor_masks
        occupied = checked_mask(self.graph, self.start)
        masks = [occupied]
        seen = {occupied}
        for src, dst in moves:
            # one test admits a move: a token at src, and dst a free base neighbour of src
            if (src | dst) < 0 or not occupied >> src & 1 or (occupied | ~nbrs[src]) >> dst & 1:
                raise _inadmissible(len(masks) - 1, src, dst, occupied)
            occupied ^= 1 << src | 1 << dst
            if occupied in seen:
                cfg = mask_config(occupied)
                step = len(masks) - 1
                raise ValueError(f"move {step}: configuration {cfg} repeats, path not simple")
            seen.add(occupied)
            masks.append(occupied)
        object.__setattr__(self, "masks", tuple(masks))

    @cached_property
    def configs(self) -> tuple[Config, ...]:
        return tuple(mask_config(m) for m in self.masks)

    @property
    def end(self) -> Config:
        return mask_config(self.masks[-1])

    @property
    def inner(self) -> tuple[Config, ...]:
        return self.configs[1:-1]

    @property
    def length(self) -> int:
        return len(self.moves)

    @property
    def k(self) -> int:
        return len(self.start)


def _inadmissible(step: int, src: int, dst: int, occupied: int) -> ValueError:
    """The error for a move that failed the admission test, worded by its first failed check."""
    if src < 0 or not occupied >> src & 1:
        return ValueError(f"move {step}: no token at {src} in {mask_config(occupied)}")
    if dst >= 0 and occupied >> dst & 1:
        return ValueError(f"move {step}: target {dst} occupied in {mask_config(occupied)}")
    return ValueError(f"move {step}: {src}-{dst} is not a base edge")


def pairwise_internally_disjoint(
    paths: Sequence[TokenPath],
) -> tuple[bool, tuple[int, int] | None]:
    """Check that no configuration other than the shared endpoints repeats.

    All paths must run between the same two configurations; returns
    (True, None) or (False, (i, j)) for the first offending pair.
    """
    if not paths:
        return True, None
    first = paths[0].masks
    for p in paths[1:]:
        if p.masks[0] != first[0] or p.masks[-1] != first[-1]:
            raise ValueError(
                f"endpoint mismatch: expected {paths[0].start}->{paths[0].end}, "
                f"got {p.start}->{p.end}"
            )
    inners = [p.masks[1:-1] for p in paths]
    # no inner mask repeats anywhere: disjoint without a pairwise scan
    if len(set().union(*inners)) == sum(map(len, inners)):
        return True, None
    inners = [frozenset(inner) for inner in inners]
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if not inners[i].isdisjoint(inners[j]):
                return False, (i, j)
    return True, None


# ---------------------------------------------------------------------------
# trace conditions
#
# Each condition constrains, for every configuration strictly inside a path,
# which shared tokens may be displaced (Z side) and which free vertices may be
# occupied (W side).  Conditions are data: a table keyed by id, with slot
# names resolved against per-path vertex bindings.


class _TraceContext(Protocol):
    # a family context also carries these as z_mask and region_mask
    z: frozenset[int]
    w_region: frozenset[int]


@dataclass(frozen=True)
class _ConditionShape:
    slots: tuple[str, ...]
    # allowed values of Z - A, as tuples of slot names; None = unconstrained
    z_drops: tuple[tuple[str, ...], ...] | None
    # allowed values of A & W-region, as tuples of slot names; None = unconstrained
    w_vals: tuple[tuple[str, ...], ...] | None
    # additionally forbid the fully undisturbed state (nothing dropped, W empty)
    forbid_trivial: bool = False


_EXCHANGE = _ConditionShape(
    slots=("z", "w"),
    z_drops=((), ("z",)),
    w_vals=((), ("w",)),
    forbid_trivial=True,
)

_SHAPES: dict[str, _ConditionShape] = {
    "C1": _ConditionShape(slots=(), z_drops=((),), w_vals=((),)),
    "C2": _ConditionShape(slots=("z",), z_drops=(("z",),), w_vals=None),
    "C2.1": _ConditionShape(slots=("w",), z_drops=None, w_vals=(("w",),)),
    "C2.2": _ConditionShape(slots=(), z_drops=None, w_vals=((),)),
    "C3": _EXCHANGE,
    "C4": _EXCHANGE,
    "C5": _ConditionShape(
        slots=("z1", "z2"),
        z_drops=(("z1",), ("z2",), ("z1", "z2")),
        w_vals=((),),
    ),
    "D1": _ConditionShape(slots=(), z_drops=((),), w_vals=((),)),
    "D2": _ConditionShape(slots=("z", "w"), z_drops=(("z",),), w_vals=(("w",),)),
    "D3": _EXCHANGE,
    "D4": _EXCHANGE,
    "D3*": _EXCHANGE,
    "D4*": _EXCHANGE,
    "E1": _ConditionShape(
        slots=("w1", "w2"),
        z_drops=((),),
        w_vals=(("w1",), ("w2",), ("w1", "w2")),
    ),
    "E2": _EXCHANGE,
    "E3": _ConditionShape(slots=("z",), z_drops=((), ("z",)), w_vals=((),)),
    "E4": _ConditionShape(slots=("w",), z_drops=((),), w_vals=((), ("w",))),
}

CONDITION_IDS: tuple[str, ...] = tuple(_SHAPES)


@dataclass(frozen=True)
class TraceCondition:
    """One named trace predicate with its slot-to-vertex bindings."""

    id: str
    bound: tuple[tuple[str, int], ...]

    def vertex(self, slot: str) -> int:
        for name, vert in self.bound:
            if name == slot:
                return vert
        raise KeyError(f"condition {self.id} binds no slot {slot!r}")

    @cached_property
    def _allowed(self) -> tuple[frozenset[int] | None, frozenset[int] | None, bool]:
        """The shape's allowed Z-drop and W-region values as bound masks."""
        shape = _SHAPES[self.id]

        def masks(alternatives):
            if alternatives is None:
                return None
            return frozenset(config_mask(map(self.vertex, alt)) for alt in alternatives)

        return masks(shape.z_drops), masks(shape.w_vals), shape.forbid_trivial


# conditions are immutable, so equal requests share one object and its masks
@lru_cache(maxsize=4096)
def trace_condition(cond_id: str, **bindings: int) -> TraceCondition:
    if cond_id not in _SHAPES:
        raise ValueError(f"unknown trace condition {cond_id!r}")
    shape = _SHAPES[cond_id]
    if set(bindings) != set(shape.slots):
        raise ValueError(
            f"condition {cond_id} needs slots {shape.slots}, got {tuple(sorted(bindings))}"
        )
    return TraceCondition(cond_id, tuple(sorted(bindings.items())))


def check_trace(
    p: TokenPath | Iterable[int], cond: TraceCondition, ctx: _TraceContext
) -> bool:
    """Evaluate cond on every configuration strictly inside p.

    p is a path, or the occupancy masks of the configurations strictly inside
    one, in any order: each predicate looks at one configuration at a time.
    """
    drops_allowed, w_allowed, forbid_trivial = cond._allowed
    try:
        z, region = ctx.z_mask, ctx.region_mask
    except AttributeError:
        z, region = config_mask(ctx.z), config_mask(ctx.w_region)
    for occupied in p.masks[1:-1] if isinstance(p, TokenPath) else p:
        dropped = z & ~occupied
        present = occupied & region
        if drops_allowed is not None and dropped not in drops_allowed:
            return False
        if w_allowed is not None and present not in w_allowed:
            return False
        if forbid_trivial and not dropped and not present:
            return False
    return True
