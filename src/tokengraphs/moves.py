"""Token paths as move sequences, with validity enforced at construction.

A move slides one token along a base edge to a free vertex, and is a pair
(src, dst) of vertex ints.  `replay` walks a move sequence from a start
occupancy mask (bit v set when v holds a token; a move XORs two bits) and
returns the mask of every configuration it visits, admitting each move with
one test; it is the one replay, run by the family engine on planned moves
and by TokenPath.  A TokenPath checks each value where it enters
(`checked_mask` the start, one pass each move's two ends) and then replays,
so any TokenPath is a simple path in the token graph; its sorted-tuple
configurations are built only when read.  The disjointness check takes the
mask walks of paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .graphs import Graph
from .tokens import Config, checked_mask, mask_config

__all__ = ["TokenPath", "replay", "pairwise_internally_disjoint"]


@dataclass(frozen=True)
class TokenPath:
    """A simple path in the token graph of `graph`, stored as moves.

    Construction replays every move and raises ValueError on an inadmissible
    move or a repeated configuration, so instances are always valid.
    `masks` holds the occupancy mask of every visited configuration.
    """

    graph: Graph
    start: Config
    moves: tuple[tuple[int, int], ...]

    def __post_init__(self):
        graph = self.graph
        occupied = checked_mask(graph, self.start)
        try:
            entries = iter(self.moves)
        except TypeError:
            raise ValueError(f"moves {self.moves!r} is not a collection of moves") from None
        moves = []
        for step, move in enumerate(entries):
            try:
                src, dst = move
            except (TypeError, ValueError):
                problem = f"{move!r} is not a pair of vertex ints"
            else:
                if isinstance(src, int) and isinstance(dst, int):
                    moves.append((src, dst))
                    continue
                problem = f"ends {src!r}, {dst!r} are not both vertex ints"
            replay(graph, occupied, moves)  # an earlier bad move is named first
            raise ValueError(f"move {step}: {problem}")
        object.__setattr__(self, "moves", tuple(moves))
        object.__setattr__(self, "masks", replay(graph, occupied, moves))

    @cached_property
    def configs(self) -> tuple[Config, ...]:
        return tuple(mask_config(m) for m in self.masks)


def replay(graph: Graph, start: int, moves: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The occupancy masks of the walk that moves takes from the start mask.

    The start mask and the int type of each move's ends are the caller's to
    check.  A move is admitted only when a token sits at src and dst is a
    free base neighbour of src; ValueError names the first move that fails,
    or that repeats a configuration.
    """
    nbrs = graph.neighbor_masks
    occupied = start
    masks = [occupied]
    seen = {occupied}
    for step, (src, dst) in enumerate(moves):
        # one test admits a move: a token at src, and dst a free base neighbour of src
        if (src | dst) < 0 or not occupied >> src & 1 or (occupied | ~nbrs[src]) >> dst & 1:
            raise _inadmissible(step, src, dst, occupied)
        occupied ^= 1 << src | 1 << dst
        if occupied in seen:
            raise ValueError(
                f"move {step}: configuration {mask_config(occupied)} repeats, path not simple"
            )
        seen.add(occupied)
        masks.append(occupied)
    return tuple(masks)


def _inadmissible(step: int, src: int, dst: int, occupied: int) -> ValueError:
    """The error for a move that failed the admission test, worded by its first failed check."""
    if src < 0 or not occupied >> src & 1:
        return ValueError(f"move {step}: no token at {src} in {mask_config(occupied)}")
    if dst >= 0 and occupied >> dst & 1:
        return ValueError(f"move {step}: target {dst} occupied in {mask_config(occupied)}")
    return ValueError(f"move {step}: {src}-{dst} is not a base edge")


def pairwise_internally_disjoint(
    walks: Sequence[Sequence[int]],
) -> tuple[bool, tuple[int, int] | None]:
    """Check that no configuration other than the shared endpoints repeats.

    Each walk holds the occupancy masks of one path, start and end included.
    All walks must run between the same two configurations; returns
    (True, None) or (False, (i, j)) for the first offending pair.
    """
    if not walks:
        return True, None
    start, end = walks[0][0], walks[0][-1]
    for walk in walks[1:]:
        if walk[0] != start or walk[-1] != end:
            raise ValueError(
                f"endpoint mismatch: expected {mask_config(start)}->{mask_config(end)}, "
                f"got {mask_config(walk[0])}->{mask_config(walk[-1])}"
            )
    # every walk holds both endpoints; when nothing else repeats anywhere the
    # walks are disjoint without a pairwise scan
    if len(set().union(*walks)) == sum(map(len, walks)) - 2 * (len(walks) - 1):
        return True, None
    inners = [frozenset(walk[1:-1]) for walk in walks]
    for i in range(len(walks)):
        for j in range(i + 1, len(walks)):
            if not inners[i].isdisjoint(inners[j]):
                return False, (i, j)
    return True, None

