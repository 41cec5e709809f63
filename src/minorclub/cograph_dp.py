"""Exact clique-minor size of a cograph by dynamic programming over its
cotree.

The table c_r of a graph holds, for each r, the largest number of pairwise
adjacent disjoint bags achievable when exactly r bags are edges and the rest
are single vertices (0 when no such family exists).  c_0 is the clique
number.  Leaves and unions are immediate; joins combine the two children's
tables by choosing how many bags straddle the two sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import DomainError
from .graph import Graph
from .recognition import Cotree, recognize_cograph


@dataclass(frozen=True)
class CrTable:
    """Per-r maxima for one cotree node's subgraph; values has length n+1."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        assert len(self.values) == self.n + 1

    def get(self, r: int) -> int:
        return self.values[r] if 0 <= r <= self.n else 0

    @property
    def best(self) -> int:
        return max(self.values)


def cr_leaf() -> CrTable:
    """Single vertex: one singleton bag, nothing with edge bags."""
    return CrTable(1, (1, 0))


def cr_union(t1: CrTable, t2: CrTable) -> CrTable:
    """Disjoint union: bags cannot straddle sides or see across, so the best
    family lives entirely in one side; pointwise maximum."""
    n = t1.n + t2.n
    return CrTable(n, tuple(max(t1.get(r), t2.get(r)) for r in range(n + 1)))


def cr_join(t1: CrTable, t2: CrTable) -> CrTable:
    """Join: for each r, maximize over the number s of bags straddling the
    sides and over which side carries the remaining r-s edge bags.

    With side i holding them, the candidate value is
        s + min(c_{r-s}(side i), n_i - r) + min(n_other - s, c_0(other)),
    admissible when n_i - 2r + s >= 0.  A candidate with r-s > 0 but
    c_{r-s}(side i) = 0 is discarded: it cannot be realized with exactly r
    edge bags (only with s), and counting it would overstate c_r even though
    it never changes the overall maximum.
    """
    n1, n2 = t1.n, t2.n
    n = n1 + n2
    values = []
    for r in range(n + 1):
        best = 0
        for s in range(min(n1, n2, r) + 1):
            for ti, ni, tother, nother in ((t1, n1, t2, n2), (t2, n2, t1, n1)):
                if ni - 2 * r + s < 0:
                    continue
                inner = ti.get(r - s)
                if r - s > 0 and inner == 0:
                    continue
                val = s + min(inner, ni - r) + min(nother - s, tother.get(0))
                best = max(best, val)
        values.append(best)
    return CrTable(n, tuple(values))


def cotree_cr_table(tree: Cotree) -> CrTable:
    """Fold the table bottom-up; multi-child nodes fold left to right."""
    return tree.fold(lambda v: cr_leaf(), lambda kind, tables: reduce(
        cr_union if kind == "union" else cr_join, tables))


def cograph_cr_table(G: Graph) -> CrTable:
    """CrTable of a cograph; raises DomainError with the induced P4 otherwise."""
    result = recognize_cograph(G)
    if not isinstance(result, Cotree):
        raise DomainError("graph is not a cograph", certificate=result)
    return cotree_cr_table(result)


def hadwiger_cograph(G: Graph) -> int:
    """Largest complete minor of a cograph: best entry of the root table.

    Disconnected inputs are covered by the union rule, which already takes
    the per-component maximum.
    """
    return cograph_cr_table(G).best
