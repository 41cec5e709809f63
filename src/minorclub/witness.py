"""The certification layer.

Each solver re-checks its output before returning it, a witness (bags of a
complete minor, a clique-matching, a contraction set) or a constructed
graph's class, and passes the outcome to ``certify(ok, what)``, which raises
``InvalidStructureError`` when the check fails.  It is a plain call, not an
``assert``, so the checks still run under ``python -O``; ``assert`` is kept
for the solvers' internal invariants.  A certificate that more than one
solver returns is checked by one function here: ``certify_minor`` for the
bags of a complete minor, ``certify_contraction`` for a contraction set.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InvalidStructureError
from .graph import Graph, _iter_bits, _mask_connected, diameter_at_most


def certify(ok: bool, what: str) -> None:
    """Raise InvalidStructureError(what) unless ``ok``: a solver's output
    failed its certificate check."""
    if not ok:
        raise InvalidStructureError(what)


def certify_minor(G: Graph, h: int, bags) -> None:
    """Certify that ``bags`` are h bags witnessing a complete minor of G."""
    certify(len(bags) == h and verify_witness(G, bags),
            f"bags {bags} are not a complete minor of size {h}")


def certify_contraction(G: Graph, s: int, S, k) -> None:
    """Certify that S has at most k edges and that contracting them leaves
    diameter at most s."""
    certify(len(S) <= k and diameter_at_most(G, s, S),
            f"contracting {S} does not reach diameter {s} within {k} edges")


def verify_witness(G: Graph, bags: Iterable[Iterable[int]]) -> bool:
    """Whether ``bags`` witness a complete minor of G: every bag is a
    non-empty set of vertices of G that induces a connected subgraph, the
    bags are disjoint, and every two bags are joined by an edge."""
    masks = []
    covered = 0
    for bag in bags:
        mask = 0
        for v in bag:
            if not 0 <= v < G.n:
                return False
            mask |= 1 << v
        if not mask or mask & covered or not _mask_connected(G, mask):
            return False
        covered |= mask
        masks.append(mask)
    for i, mask in enumerate(masks):
        nbr = 0
        for v in _iter_bits(mask):
            nbr |= G.rows[v]
        if any(not nbr & other for other in masks[i + 1:]):
            return False
    return True
