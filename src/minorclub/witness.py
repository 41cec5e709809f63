"""The certification layer.

Each solver re-checks its output before returning it, a witness (bags of a
complete minor, a clique-matching, a contraction set) or a constructed
graph's class, and passes the outcome to ``certify(ok, what)``, which raises
``InvalidStructureError`` when the check fails.  It is a plain call, not an
``assert``, so the checks still run under ``python -O``; ``assert`` is kept
for the solvers' internal invariants.  ``verify_witness`` is the
complete-minor check that the Hadwiger solvers' bags must pass, among them
``oracle.hadwiger_oracle``'s, which also answer `oracle club-minor` at s = 1.

A contraction set is checked by ``graph.diameter_at_most`` at one exit per
club solver: both AT-free entries, ``s_club_contract_decide`` and
``minimum_contraction``, leave through ``club_contraction._ladder``'s one
``certify``, the subset oracle ``oracle.min_club_contraction_set`` certifies
its set, and the class-free bound ``club_contraction.tight_contraction``
re-checks what ``_tight_from`` proposes and answers no set when that fails.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InvalidStructureError
from .graph import Graph, _iter_bits, _mask_connected


def certify(ok: bool, what: str) -> None:
    """Raise InvalidStructureError(what) unless ``ok``: a solver's output
    failed its certificate check."""
    if not ok:
        raise InvalidStructureError(what)


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
