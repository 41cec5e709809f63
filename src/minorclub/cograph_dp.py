"""Exact clique-minor size of a cograph by dynamic programming over its
cotree.

The table c_r of a graph holds, for each r, the largest number of pairwise
adjacent disjoint bags achievable when exactly r bags are edges and the rest
are single vertices (0 when no such family exists).  c_0 is the clique
number.  Leaves and unions are immediate; joins combine the two children's
tables by choosing how many bags straddle the two sides.

The nonzero entries of a table form a prefix: dropping one edge bag from a
family with r edge bags leaves a family with r - 1 (c_0 >= 1 covers a lone
edge bag).  So the fold, which ``recognition.cotree_fold`` runs while it
splits the cotree, carries each node's table cut after its last nonzero
entry, with n beside it since the cut hides n: a node's stack frame collects
its children's ``(n, values)`` pairs and hands its own to its parent's
frame, and the root's is padded into the tuple of n + 1 entries that every
public function returns.  The cut loses nothing: a zero adds nothing to the
union's maximum, and the join skips zero entries.

The join skips candidates that cannot win.  Write V(k, s) for the value of
s straddling bags and k edge bags inside side i (see ``_join``).  For
s < cross, (k - 1, s + 1) fills the same entry r = k + s and is admissible,
and with N = n_i - k - s,
    V(k, s) - V(k - 1, s + 1) = -1 + [min(c_k, N) - min(c_{k-1}, N)]
                              + [n_other - s <= c_0(other)].
The first bracket is at most 0 when c_k <= c_{k-1} and at most 1 when
c_k = c_{k-1} + 1, so when k - 1 is usable (k = 1 or c_{k-1} > 0),
(k, s) is no better than (k - 1, s + 1) unless c_k = c_{k-1} + 1 and
n_other - s <= c_0(other).  By induction on k, every skipped candidate is
matched at its r by one that is kept.  The argument uses nothing about the
tables, so it holds for arbitrary ones.

A union or join node folds its children smallest table first: a table is a
graph invariant, and both operations are associative and commutative, so
any order gives the same table, and small siblings then meet each other
before they meet the big one.

One fold meets the same pair of tables again and again: two leaves under a
join, two edges under a union, one small subtree shape repeated across the
cotree.  Each fold therefore carries a memo of the unions and joins it has
computed, keyed on the two argument tables.  This is exact because both
operations are pure functions of their two tables.  The memo is made when
a fold starts and dropped when it returns, so it holds at most one entry
per distinct pair of that graph's fold and nothing outlives the call.  On
the benchmark's random cographs with n = 200 it cuts about 100 joins and
99 unions per graph to about 40 and 39 distinct pairs.  On a deep
threshold cotree no pair repeats, and the memo only adds the hashing of
its keys: 2-4% of ``cograph_cr_table`` at n = 4000, or 5-11% of the time
it spends outside the split.
"""

from __future__ import annotations

from .graph import Graph
from .recognition import Cotree, cotree_fold


def _padded(table: tuple[int, tuple[int, ...]]) -> tuple[int, ...]:
    """The public table of n + 1 entries padded from the fold's (n, cut
    values) pair: n is len(table) - 1 and the best entry is max(table)."""
    n, values = table
    return values + (0,) * (n + 1 - len(values))


def _union(t1, t2):
    """Disjoint union: bags cannot straddle sides or see across, so the best
    family lives entirely in one side; pointwise maximum."""
    (n1, v1), (n2, v2) = t1, t2
    short, longer = (v1, v2) if len(v1) <= len(v2) else (v2, v1)
    return n1 + n2, tuple(map(max, short, longer)) + longer[len(short):]


def _join(t1, t2):
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
    n/2 are never reached, and the result is cut after its last nonzero
    entry.

    When k - 1 is usable, the s loop starts where (k, s) can beat
    (k - 1, s + 1) (see the module docstring): at ``cross`` when
    c_k <= c_{k-1}, at ``climb`` = max(0, min(cross, n_other - c_0(other)))
    when c_k = c_{k-1} + 1, and at 0 otherwise.
    """
    (n1, v1), (n2, v2) = t1, t2
    cross = min(n1, n2)
    values = [0] * ((n1 + n2) // 2 + 1)
    for ci, ni, nother, c0other in ((v1, n1, n2, v2[0]), (v2, n2, n1, v1[0])):
        climb = max(0, min(cross, nother - c0other))
        prev = None  # c_{k-1} while k - 1 is usable
        for k, inner in enumerate(ci):
            if k and not inner:
                prev = None
                continue
            start = (0 if prev is None or inner > prev + 1
                     else cross if inner <= prev else climb)
            prev = inner
            room = ni - k
            for s in range(start, min(cross, room - k) + 1):
                # the two min() terms, spelled out: this is the DP's hot loop
                free, rest = room - s, nother - s
                val = (s + (inner if inner < free else free)
                       + (c0other if c0other < rest else rest))
                if val > values[k + s]:
                    values[k + s] = val
    while not values[-1]:
        values.pop()
    return n1 + n2, tuple(values)


def _fold_node():
    """A fresh node function for one fold.  A union or join node's table is
    its children's tables folded smallest first, and every ``_union`` and
    ``_join`` result is kept in a memo keyed on its two argument tables, so
    a pair the fold has already combined costs one lookup (see the module
    docstring).  The memo lives as long as the node function."""
    memo: dict = {}

    def node(kind, tables):
        op = _union if kind == "union" else _join
        tables = sorted(tables)
        value = tables[0]
        for table in tables[1:]:
            key = op, value, table
            found = memo.get(key)
            if found is None:
                found = memo[key] = op(value, table)
            value = found
        return value

    return node


def cr_union(t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[int, ...]:
    """Disjoint union of two tables (see ``_union``)."""
    return _padded(_union((len(t1) - 1, t1), (len(t2) - 1, t2)))


def cr_join(t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[int, ...]:
    """Join of two tables (see ``_join``)."""
    return _padded(_join((len(t1) - 1, t1), (len(t2) - 1, t2)))


def cotree_cr_table(tree: Cotree) -> tuple[int, ...]:
    """Fold the table bottom-up over a cotree already built."""
    return _padded(tree.fold(lambda v: (1, (1,)), _fold_node()))


def cograph_cr_table(G: Graph) -> tuple[int, ...]:
    """The table c_0, ..., c_n of a cograph (see the module docstring),
    folded while its cotree is split; raises DomainError with the induced
    P4 otherwise.

    The fold keeps its own memo of the unions and joins it has computed,
    keyed on the two argument tables (see ``_fold_node``).  The memo is
    made here and dropped on return, so nothing is kept between calls, and
    a graph rejected at the cotree root never fills it."""
    return _padded(cotree_fold(G, lambda v: (1, (1,)), _fold_node()))


def hadwiger_cograph(G: Graph) -> int:
    """Largest complete minor of a cograph: best entry of the root table.

    Disconnected inputs are covered by the union rule, which already takes
    the per-component maximum.
    """
    return max(cograph_cr_table(G))
