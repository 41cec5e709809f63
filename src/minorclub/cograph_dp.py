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
    short, longer = sorted((t1.values, t2.values), key=len)
    values = tuple(map(max, short, longer)) + longer[len(short):]
    return CrTable(n, values + (0,) * (n + 1 - len(values)))


def cr_join(t1: CrTable, t2: CrTable) -> CrTable:
    """Join: for each r, maximize over the number s of bags straddling the
    sides and over which side carries the remaining r-s edge bags.

    With side i holding them, the candidate value is
        s + min(c_{r-s}(side i), n_i - r) + min(n_other - s, c_0(other)),
    admissible when n_i - 2r + s >= 0.  A candidate with r-s > 0 but
    c_{r-s}(side i) = 0 is discarded: it cannot be realized with exactly r
    edge bags (only with s), and counting it would overstate c_r even though
    it never changes the overall maximum.

    The loop runs over k = r-s, the edge bags inside side i (k = 0 or
    c_k(side i) > 0), then over s <= min(n_1, n_2, n_i - 2k), which is the
    admissibility condition.  So 2r = 2k + 2s <= n_i + s <= n: entries past
    n/2 are never reached and stay 0.
    """
    n1, n2 = t1.n, t2.n
    cross = min(n1, n2)
    values = [0] * (n1 + n2 + 1)
    for ci, ni, nother, c0other in ((t1.values, n1, n2, t2.values[0]),
                                    (t2.values, n2, n1, t1.values[0])):
        for k in range(ni // 2 + 1):
            inner = ci[k]
            if k and not inner:
                continue
            room = ni - k
            for s in range(min(cross, room - k) + 1):
                # the two min() terms, spelled out: this is the DP's hot loop
                free, rest = room - s, nother - s
                val = (s + (inner if inner < free else free)
                       + (c0other if c0other < rest else rest))
                if val > values[k + s]:
                    values[k + s] = val
    return CrTable(n1 + n2, tuple(values))


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
