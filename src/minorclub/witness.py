"""Witness structures: bag partitions realizing a graph as minor, induced
minor, or contraction of a host graph.

A witness maps each target vertex to a nonempty bag of host vertices.  The
conditions checked are: (i) each bag induces a connected subgraph, (ii) bags
of target edges are adjacent, (iii) bags of target non-edges are not adjacent
(induced-minor and contraction modes), (iv) the bags cover every host vertex
(contraction mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InvalidStructureError
from .graph import Edge, Graph, _iter_bits, _mask_connected

MODES = ("minor", "induced-minor", "contraction")


@dataclass(frozen=True)
class WitnessStructure:
    """Bags keyed by target vertex id, plus the mode they are meant to satisfy."""

    bags: Mapping[int, frozenset[int]]
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidStructureError(f"unknown witness mode {self.mode!r}")
        object.__setattr__(
            self, "bags", {x: frozenset(B) for x, B in dict(self.bags).items()}
        )


def verify_witness(G: Graph, target_n: int, target_edges: Iterable[Edge],
                   W: WitnessStructure) -> bool:
    """Check whether W realizes the target graph in G under W.mode.

    Structural defects (bad bag ids, empty or overlapping bags, uncovered
    vertices in contraction mode) raise InvalidStructureError; failures of
    the adjacency and connectivity conditions return False.
    """
    bags = W.bags
    if sorted(bags) != list(range(target_n)):
        raise InvalidStructureError(
            f"bag ids {sorted(bags)} do not match target vertices 0..{target_n - 1}"
        )
    masks = {}
    covered = 0
    for x, B in bags.items():
        if not B:
            raise InvalidStructureError(f"bag {x} is empty")
        mask = 0
        for v in B:
            if not 0 <= v < G.n:
                raise InvalidStructureError(f"bag {x} contains foreign vertex {v}")
            mask |= 1 << v
        if mask & covered:
            raise InvalidStructureError("bags overlap")
        covered |= mask
        masks[x] = mask
    if W.mode == "contraction" and covered != (1 << G.n) - 1:
        raise InvalidStructureError("contraction-mode bags must cover every vertex")

    for mask in masks.values():
        if not _mask_connected(G, mask):
            return False

    nbr = {x: _neighborhood(G, mask) for x, mask in masks.items()}
    edge_set = {(min(u, v), max(u, v)) for u, v in target_edges}
    for x in range(target_n):
        for y in range(x + 1, target_n):
            adjacent = bool(nbr[x] & masks[y])
            if (x, y) in edge_set:
                if not adjacent:
                    return False
            elif W.mode in ("induced-minor", "contraction") and adjacent:
                return False
    return True


def _neighborhood(G: Graph, mask: int) -> int:
    acc = 0
    for v in _iter_bits(mask):
        acc |= G.rows[v]
    return acc & ~mask
