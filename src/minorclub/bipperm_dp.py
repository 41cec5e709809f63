"""Maximum clique-matching on bipartite permutation graphs, and the largest
complete minor obtained from it.

A clique-matching is a matching in which every two edges have some pair of
adjacent end-vertices.  The solver fixes an anchor edge (u, v) in turn,
assuming v is the smallest vertex of the ordered side saturated by an
optimal matching.  After deleting the order prefix before v, renaming v to
rank 1 and writing r for u's rightmost neighbor, the other usable vertices
of u's side split into three groups:

  * vertices whose neighborhood covers [1, r]: a greedy pass matches a
    maximal chain of them to ranks above r (the forced pairs S) and removes
    them;
  * the x-list: neighborhoods containing [1, 2], ordered by decreasing
    rightmost neighbor;
  * the y-list: neighborhoods missing 1 but reaching r, ordered by
    increasing leftmost neighbor.

The table c(i, j, l) is the best matching size using the anchor plus edges
at x_1..x_i and y_1..y_j with at most l saturated ranks inside the common
interval of those neighborhoods.  Matched ranks inside an interval are
interchangeable, which keeps the state space to interval counts only.  One
walk down the back pointers gives each matched vertex an interval of ranks
that keeps every cross pair adjacent, and an earliest-deadline sweep
(Glover, Naval Res. Logist. Q. 1967) gives each vertex a distinct rank
inside its interval.  Every returned matching is re-verified from scratch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import DomainError
from .graph import Edge, Graph, components, induced_subgraph
from .recognition import (StrongOrdering, restrict_ordering, strong_ordering,
                          verify_ordering)

NEG = -(1 << 30)


@dataclass(frozen=True)
class CliqueMatching:
    """A verified clique-matching, edges as (u, v) pairs with u < v."""

    edges: tuple[Edge, ...]

    @property
    def size(self) -> int:
        return len(self.edges)


def is_clique_matching(G: Graph, edges) -> bool:
    """Disjoint edges of G such that every pair has adjacent end-vertices."""
    used: set[int] = set()
    es = list(edges)
    for u, v in es:
        if u in used or v in used or not G.has_edge(u, v):
            return False
        used.update((u, v))
    for i in range(len(es)):
        a, b = es[i]
        for j in range(i + 1, len(es)):
            c, d = es[j]
            if not (G.has_edge(a, c) or G.has_edge(a, d)
                    or G.has_edge(b, c) or G.has_edge(b, d)):
                return False
    return True


def max_clique_matching(G: Graph, ordering: StrongOrdering | None = None
                        ) -> tuple[int, CliqueMatching]:
    """Size and witness of a maximum clique-matching.

    Requires a strong ordering; one is computed (and always verified) when
    not supplied.  Anchors are solved independently and merged by a
    deterministic maximum.
    """
    if ordering is None:
        ordering = strong_ordering(G)
        if ordering is None:
            raise DomainError("graph is not a bipartite permutation graph")
    elif not verify_ordering(G, ordering):
        raise DomainError("supplied ordering violates the adjacency/enclosure properties")

    rank = {v: i + 1 for i, v in enumerate(ordering.order2)}  # ranks 1..n2
    intervals: dict[int, tuple[int, int]] = {}
    for w in ordering.side1:
        ranks = sorted(rank[x] for x in G.neighbors(w))
        if ranks:
            intervals[w] = (ranks[0], ranks[-1])

    anchors = []
    for a, b in G.edges():
        u, v = (a, b) if a in intervals else (b, a)
        anchors.append((rank[v], u))
    anchors.sort()

    best = 0
    best_pairs: tuple[tuple[int, int], ...] = ()
    for v_rank, u in anchors:
        size, pairs = _solve_anchor(G, intervals, u, v_rank, best)
        if size > best:
            best = size
            best_pairs = pairs
    order2 = ordering.order2
    edges = tuple(sorted(tuple(sorted((w, order2[r - 1]))) for w, r in best_pairs))
    matching = CliqueMatching(edges)
    assert len(edges) == best and is_clique_matching(G, edges)
    return best, matching


def _solve_anchor(G: Graph, intervals, u: int, v_rank: int, beat: int):
    """Best matching containing the anchor, assuming no rank below v_rank is
    saturated.  Returns (size, pairs) with pairs in global (vertex, rank)
    form including the anchor and the forced pairs; pairs is None, and no
    witness is replayed, when size does not exceed beat."""
    shift = v_rank - 1
    r = intervals[u][1] - shift

    act: dict[int, tuple[int, int]] = {}
    for w, (lo, hi) in intervals.items():
        if w != u and hi > shift:
            act[w] = (max(lo - shift, 1), hi - shift)

    # Forced pairs: vertices covering [1, r] grab ranks above r, rightmost
    # first, scanning by decreasing rightmost neighbor.
    vcands = sorted((w for w, (lo, hi) in act.items() if lo == 1 and hi >= r),
                    key=lambda w: (-act[w][1], w))
    used: set[int] = set()
    forced: list[tuple[int, int]] = []
    deleted: set[int] = set()
    for w in vcands:
        cand = next((j for j in range(act[w][1], r, -1) if j not in used), None)
        if cand is None:
            break
        used.add(cand)
        forced.append((w, cand))
        deleted.add(w)

    xs = sorted((w for w, (lo, hi) in act.items()
                 if w not in deleted and lo == 1 and hi >= 2),
                key=lambda w: (-act[w][1], w))
    ys = sorted((w for w, (lo, hi) in act.items()
                 if w not in deleted and lo >= 2 and hi >= r),
                key=lambda w: (act[w][0], w))
    R = [min(act[w][1], r) for w in xs]  # x intervals are [1, R[i-1]]
    L = [act[w][0] for w in ys]          # y intervals are [L[j-1], r]
    s_len, t_len = len(xs), len(ys)

    def bounds(i: int, j: int) -> tuple[int, int, int]:
        a = L[j - 1] if j else 1
        b = R[i - 1] if i else r
        return a, b, max(0, b - a + 1)

    c = [[None] * (t_len + 1) for _ in range(s_len + 1)]
    bp = [[None] * (t_len + 1) for _ in range(s_len + 1)]

    _, _, len00 = bounds(0, 0)
    c[0][0] = [NEG] + [1] * len00
    bp[0][0] = [("one",)] * (len00 + 1)

    for i in range(1, s_len + 1):
        _, _, ln = bounds(i, 0)
        c[i][0] = [_greedy_x(R, i, ell) if ell else NEG for ell in range(ln + 1)]
        bp[i][0] = [("base_x",)] * (ln + 1)
    for j in range(1, t_len + 1):
        _, _, ln = bounds(0, j)
        c[0][j] = [_greedy_y(L, r, j, ell) for ell in range(ln + 1)]
        bp[0][j] = [("base_y",)] * (ln + 1)

    for i in range(1, s_len + 1):
        for j in range(1, t_len + 1):
            a_ij, b_ij, ln = bounds(i, j)
            _, _, ln_up = bounds(i - 1, j)
            vals = []
            ptrs = []
            # Case 3 greedy data depends on p only; compute once per p.
            jumps = []
            for p in range(2, min(R[i - 1], a_ij - 1) + 1):
                jp = _max_y_below(L, j, p)
                jumps.append((jp, _greedy_jump(L, jp, j, p, b_ij, a_ij)))
            for ell in range(ln + 1):
                best = c[i - 1][j][ell + ln_up - ln]
                ptr = ("skip", ell + ln_up - ln)
                if ell >= 1 and ln >= 1:
                    sub = c[i - 1][j][ell - 1 + ln_up - ln]
                    if sub > NEG and sub + 1 > best:
                        best = sub + 1
                        ptr = ("core", ell - 1 + ln_up - ln)
                for jp, cum in jumps:
                    q = 0
                    while q + 1 < len(cum) and cum[q + 1] <= ell:
                        q += 1
                    _, _, ln_ch = bounds(i - 1, jp)
                    ell2 = (ln_ch - ln) + ell - (q + 1)
                    if ell2 < 0:
                        continue
                    sub = c[i - 1][jp][ell2]
                    if sub > NEG and sub + q + 1 > best:
                        best = sub + q + 1
                        ptr = ("jump", jp, q, ell2)
                vals.append(best)
                ptrs.append(ptr)
            assert all(x <= y for x, y in zip(vals, vals[1:])), \
                "table must be non-decreasing in the interval budget"
            c[i][j] = vals
            bp[i][j] = ptrs

    _, _, ln_final = bounds(s_len, t_len)
    value = c[s_len][t_len][ln_final]
    assert value >= 1
    if len(forced) + value <= beat:
        return len(forced) + value, None
    pairs = _replay(bp, R, L, r, xs, ys, s_len, t_len, ln_final)
    assert len(pairs) + 1 == value
    all_pairs = [(u, 1 + shift)] + [(w, j + shift) for w, j in forced] \
        + [(w, j + shift) for w, j in pairs]
    return len(forced) + value, tuple(all_pairs)


def _greedy_x(R, i, budget):
    """Size (anchor included) of the matching of a prefix x_1..x_k to ranks
    below their right ends, rightmost available first, keeping at most budget
    saturated ranks in [1, R[i-1]] (rank 1, the anchor's, always counts)."""
    used = {1}
    core_hi = R[i - 1]
    incore = 1
    for f in range(1, i + 1):
        cand = next((jv for jv in range(R[f - 1], 1, -1) if jv not in used), None)
        if cand is None:
            break
        if cand <= core_hi:
            if incore >= budget:
                break
            incore += 1
        used.add(cand)
    return len(used)


def _greedy_y(L, r, j, budget):
    """Size (anchor included) of the matching of a prefix y_1..y_k,
    leftmost-first, with at most budget saturated ranks in [L[j-1], r]."""
    used: set[int] = set()
    core_lo = L[j - 1]
    incore = 0
    for f in range(1, j + 1):
        cand = next((jv for jv in range(L[f - 1], r + 1) if jv not in used), None)
        if cand is None:
            break
        if cand >= core_lo:
            if incore >= budget:
                break
            incore += 1
        used.add(cand)
    return len(used) + 1


def _max_y_below(L, j, p):
    """Largest f in [0, j] whose y-interval still contains rank p."""
    jp = 0
    for f in range(1, j + 1):
        if L[f - 1] <= p:
            jp = f
    return jp


def _greedy_jump(L, jp, j, p, b_ij, a_ij):
    """Unbounded greedy for the y vertices newly matched when x_i takes a
    rank p left of the interval: y_{jp+1}.. pick the leftmost available rank
    in (p, b_ij].  Returns the cumulative counts of picks inside
    [a_ij, b_ij], so cum[q] is the budget the first q picks use."""
    used: set[int] = set()
    cum = [0]
    for f in range(jp + 1, j + 1):
        cand = next((jv for jv in range(max(L[f - 1], p + 1), b_ij + 1)
                     if jv not in used), None)
        if cand is None:
            break
        used.add(cand)
        cum.append(cum[-1] + (1 if cand >= a_ij else 0))
    return cum


def _replay(bp, R, L, r, xs, ys, i, j, ell):
    """One optimal matching as (vertex, rank) pairs, anchor excluded.

    The walk down the back pointers gives each matched vertex a rank
    interval (L_0 = 2 here, since rank 1 is the anchor's; skip adds none):
      * base_x with k matched: x_f gets [2, R_f] for f = 1..k;
      * base_y with k matched: y_f gets [L_f, r];
      * core at (i, j): x_i gets [L_j, R_i];
      * jump from (i, j) to (i-1, jp) with q new y's: x_i gets [L_jp, R_i]
        and y_{jp+1}..y_{jp+q} each get [L_f, R_i].
    Any distinct ranks in these intervals form a clique-matching.  An x
    recorded at a state gets a rank of at least the L of every y matched at
    or below it; a y added by a jump at x_i gets a rank of at most R_i, at
    most the R of every earlier x; two x's share their lower end, two y's
    their upper end r; the anchor and the forced pairs see all of [1, r].
    The DP's choices put distinct ranks in these intervals, so an
    earliest-deadline sweep (each rank, ascending, to the open interval
    with the smallest right end) matches all of them; the caller checks.
    """
    want: list[tuple[int, int, int]] = []  # (lo, hi, vertex)
    kind, *rest = bp[i][j][ell]
    while kind in ("skip", "core", "jump"):
        if kind == "jump":
            jp, q, ell = rest
            want.append((L[jp - 1] if jp else 2, R[i - 1], xs[i - 1]))
            want += [(L[f], R[i - 1], ys[f]) for f in range(jp, jp + q)]
            j = jp
        else:
            if kind == "core":
                want.append((L[j - 1] if j else 2, R[i - 1], xs[i - 1]))
            ell = rest[0]
        i -= 1
        kind, *rest = bp[i][j][ell]
    if kind == "base_x":
        want += [(2, R[f], xs[f]) for f in range(_greedy_x(R, i, ell) - 1)]
    elif kind == "base_y":
        want += [(L[f], r, ys[f]) for f in range(_greedy_y(L, r, j, ell) - 1)]

    want.sort(reverse=True)
    open_: list[tuple[int, int]] = []  # (hi, vertex)
    pairs = []
    for rank in range(2, r + 1):
        while want and want[-1][0] <= rank:
            _, hi, w = want.pop()
            heapq.heappush(open_, (hi, w))
        while open_ and open_[0][0] < rank:
            heapq.heappop(open_)  # unmatched: the caller's count check fails
        if open_:
            pairs.append((heapq.heappop(open_)[1], rank))
    return pairs


@dataclass(frozen=True)
class BippermHadwiger:
    """Winning decomposition: h bags total, `case` of them singletons."""

    h: int
    case: int
    singletons: tuple[int, ...]
    matching: tuple[Edge, ...]

    def bags(self) -> tuple[tuple[int, ...], ...]:
        return tuple((v,) for v in self.singletons) + tuple(self.matching)


def hadwiger_bipperm(G: Graph, with_details: bool = False):
    """Largest complete minor of a bipartite permutation graph.

    Per connected component the answer is the best of: a clique-matching
    (no singleton bags); one singleton u plus a clique-matching of the
    subgraph on (u's side minus u) together with u's neighbors; two adjacent
    singletons u, v plus a clique-matching among their other neighbors.
    The winning bag family is verified as a complete-minor witness.
    """
    ordering = strong_ordering(G)
    if ordering is None:
        raise DomainError("graph is not a bipartite permutation graph")
    best = BippermHadwiger(0, 0, (), ())
    for comp in components(G):
        if len(comp) == 1:
            cand = BippermHadwiger(1, 1, (comp[0],), ())
            if cand.h > best.h:
                best = cand
            continue
        H = induced_subgraph(G, comp)
        ordH = restrict_ordering(ordering, comp)
        size, M = max_clique_matching(H, ordH)
        cand = BippermHadwiger(size, 0, (), _map_edges(M.edges, comp))
        comp_side1 = set(ordH.side1)
        for u in range(H.n):
            mine = comp_side1 if u in comp_side1 else set(range(H.n)) - comp_side1
            keep = sorted((mine - {u}) | set(H.neighbors(u)))
            sz, edges = _sub_matching(H, ordH, keep)
            if 1 + sz > cand.h:
                cand = BippermHadwiger(1 + sz, 1, (comp[u],), _map_edges(edges, comp))
        for a, b in H.edges():
            keep = sorted((set(H.neighbors(a)) - {b}) | (set(H.neighbors(b)) - {a}))
            sz, edges = _sub_matching(H, ordH, keep)
            if 2 + sz > cand.h:
                cand = BippermHadwiger(2 + sz, 2, (comp[a], comp[b]),
                                       _map_edges(edges, comp))
        if cand.h > best.h:
            best = cand
    if G.n:
        from .witness import WitnessStructure, verify_witness
        bags = best.bags()
        W = WitnessStructure({i: frozenset(b) for i, b in enumerate(bags)}, "minor")
        target_edges = [(i, j) for i in range(best.h) for j in range(i + 1, best.h)]
        assert verify_witness(G, best.h, target_edges, W)
    return best if with_details else best.h


def _map_edges(edges, labels) -> tuple[Edge, ...]:
    return tuple(tuple(sorted((labels[a], labels[b]))) for a, b in edges)


def _sub_matching(H: Graph, ordH: StrongOrdering, keep: list[int]):
    """Clique-matching of the induced subgraph, edges in H's labels."""
    if not keep:
        return 0, ()
    sub = induced_subgraph(H, keep)
    sub_ord = restrict_ordering(ordH, keep)
    size, M = max_clique_matching(sub, sub_ord)
    return size, _map_edges(M.edges, sorted(keep))
