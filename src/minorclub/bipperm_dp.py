"""Maximum clique-matching on bipartite permutation graphs, and the largest
complete minor obtained from it.

A clique-matching is a matching in which every two edges have some pair of
adjacent end-vertices, that is, a complete minor whose bags are edges.  Each
call computes one strong ordering and reads it as an interval table, the
rank spans that come with the ordering strong_ordering returns
(``StrongOrdering.spans``): with the ordered side ranked 1, 2, ... in
order, every vertex of the other side maps to the (lo, hi) rank interval of
its neighborhood.  Every sub-problem, a connected component or
a keep set of the Hadwiger cases, runs on this table clipped to the kept
vertices: a kept vertex keeps the kept ranks of its interval, renumbered in
order.  Clipping is sound because strong
orderings are hereditary (Spinrad, Brandstaedt & Stewart, Discrete Appl.
Math. 1987): the kept part of an interval is again an interval once
renumbered, and two clipped intervals that nest share an endpoint, as the
enclosure property asks.  So the clipped table is the table of the induced
subgraph under the inherited ordering, and since every tie below is broken
on labels, which clipping leaves in order, no subgraph is built.

The solver fixes an anchor edge (u, v) in turn, assuming v is the smallest
vertex of the ordered side saturated by an optimal matching.  After
deleting the order prefix before v, renaming v to rank 1 and writing r for
u's rightmost neighbor, the other usable vertices of u's side split into
three groups:

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
inside its interval.  Each public exit re-verifies its answer from scratch.

Every greedy pass above, the forced pairs, the rows c(i, 0) and c(0, j),
and the y's matched when x_i jumps left of the interval, is one greedy:
vertices with non-decreasing lower ends each take the smallest free rank up
to a cap (the largest free rank, on negated ranks, for the x-side passes).
The picks of a prefix of the list are a prefix of the picks, and picks
inside the current interval come last, so one run per starting vertex
serves every prefix and every budget.

Four cuts skip work that cannot beat the best candidate so far, and each
Hadwiger case starts from the best case before it.  A case whose keep set
has too few vertices on one side to improve on the best case is not
solved.  A case that is solved gets a bar, the size its clique-matching
must exceed to win, and its anchor loop starts at that bar instead of 0,
so an anchor that only matches it builds no table or witness, and a case
that never beats it returns nothing.  The anchor loop stops once too few
ranks remain from the anchor's rank up, or too few vertices have an
interval that reaches it; both counts fall as the rank grows.  An anchor
is skipped before any list is built when counting spans already bounds
it: the x's and y's are vertices other than u whose interval reaches
past v and take distinct ranks in [2, r], and the forced pairs are
vertices whose interval starts at or before v and ends past r, and take
distinct ranks above r.  Two bisections on the sorted lower and upper
ends give both counts, since sorting the spans by (lo, hi) leaves the
upper ends in order (enclosure, which clipping keeps).  An anchor that is
solved stops after its forced pairs when the x's and y's are too few.
Each cut compares an upper bound on what it skips with the best so far,
and a candidate replaces the best only when strictly larger, so no value,
tie-break or witness changes.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right

from .errors import DomainError
from .graph import Edge, Graph, _iter_bits, _mask_components
from .recognition import StrongOrdering, strong_ordering
from .witness import certify, certify_minor, verify_witness

NEG = -(1 << 30)


def is_clique_matching(G: Graph, edges) -> bool:
    """Disjoint edges of G such that every pair has adjacent end-vertices:
    a complete minor whose bags are edges."""
    es = list(edges)
    return all(len(set(e)) == 2 for e in es) and verify_witness(G, es)


def max_clique_matching(G: Graph) -> tuple[int, tuple[Edge, ...]]:
    """Size and edges of a maximum clique-matching, as sorted (u, v) pairs
    with u < v.

    Anchors are solved independently and merged by a deterministic maximum.
    """
    ordering = _ordering(G)
    size, edges = _solve(ordering.order2, ordering.spans)
    certify(len(edges) == size and is_clique_matching(G, edges),
            f"matching of size {size} is not a clique-matching")
    return size, edges


def _ordering(G: Graph) -> StrongOrdering:
    """A verified strong ordering, its rank intervals in ``spans``."""
    ordering = strong_ordering(G)
    if ordering is None:
        raise DomainError("graph is not a bipartite permutation graph")
    return ordering


def _clip(order2, table, keep: int):
    """Ordered side and interval table of the subgraph induced by the vertex
    bitmask ``keep``, its ranks renumbered 1, 2, ... over the kept side."""
    below = [0]  # below[k]: kept vertices among ranks 1..k
    for v in order2:
        below.append(below[-1] + (keep >> v & 1))
    clipped = {w: (below[lo - 1] + 1, below[hi]) for w, (lo, hi) in table.items()
               if keep >> w & 1 and below[hi] > below[lo - 1]}
    return [v for v in order2 if keep >> v & 1], clipped


def _solve(order2, table, beat: int = 0) -> tuple[int, tuple[Edge, ...]] | None:
    """Maximum clique-matching of the subgraph described by an interval
    table over the ordered side ``order2``, as (size, edges in G's labels);
    None when ``beat`` > 0 and no clique-matching is larger than ``beat``.

    Anchors run by increasing rank v_rank of their ordered-side vertex, and
    the loop stops once a matching saturating no rank below v_rank cannot
    beat the best so far: it uses at most the len(order2) - v_rank + 1
    ranks from v_rank up, and only vertices whose interval reaches v_rank.

    An anchor (u, v_rank) is skipped, unsolved, when its count bound
    1 + min(hi_u - v_rank, inner) + min(len(order2) - hi_u, forced) does
    not beat the best so far.  The x's and y's of _solve_anchor are
    vertices w != u with hi_w > v_rank, ``inner`` of them, and take
    distinct ranks in [v_rank + 1, hi_u].  A forced pair w has
    lo_w <= v_rank and hi_w > hi_u, ``forced`` of them, and takes a
    distinct rank in (hi_u, len(order2)].  Sorting the spans by (lo, hi)
    leaves their hi values non-decreasing (enclosure, kept by _clip since
    both its rank maps are non-decreasing), so the spans with
    lo_w <= v_rank and those with hi_w <= hi_u are two prefixes of that
    order, and ``forced`` is the difference of their lengths when
    positive.  The bound is never below the anchor's value, and a
    candidate replaces the best only when strictly larger, so a skip
    changes nothing.
    """
    anchors = sorted((v_rank, u) for u, (lo, hi) in table.items()
                     for v_rank in range(lo, hi + 1))
    los = sorted(lo for lo, _ in table.values())
    his = sorted(hi for _, hi in table.values())
    best = beat
    best_pairs: tuple[tuple[int, int], ...] = ()
    for v_rank, u in anchors:
        if min(len(order2) - v_rank + 1, len(his) - bisect_left(his, v_rank)) <= best:
            break
        hi_u = table[u][1]
        inner = len(his) - bisect_right(his, v_rank) - (hi_u > v_rank)
        forced = max(0, bisect_right(los, v_rank) - bisect_right(his, hi_u))
        if 1 + min(hi_u - v_rank, inner) + min(len(order2) - hi_u, forced) <= best:
            continue
        size, pairs = _solve_anchor(table, u, v_rank, best)
        if size > best:
            best = size
            best_pairs = pairs
    if beat and best == beat:
        return None
    return best, tuple(sorted(tuple(sorted((w, order2[r - 1]))) for w, r in best_pairs))


def _greedy(starts, cap: int) -> list[int]:
    """Ranks picked when each vertex in turn, its lower end taken from the
    non-decreasing ``starts``, gets the smallest free rank in [start, cap];
    stops at the first vertex left without one.  The earlier picks fill the
    ranks from the previous start up to the last pick, so the smallest free
    rank is max(start, last pick + 1)."""
    picks: list[int] = []
    for s in starts:
        q = max(s, picks[-1] + 1) if picks else s
        if q > cap:
            break
        picks.append(q)
    return picks


def _solve_anchor(table, u: int, v_rank: int, beat: int):
    """Best matching containing the anchor, assuming no rank below v_rank is
    saturated.  Returns (size, pairs) with pairs in global (vertex, rank)
    form including the anchor and the forced pairs.  When size does not
    exceed beat, pairs is None and no witness is replayed; if a bound
    already shows that, no table is built and beat stands in for size."""
    shift = v_rank - 1
    r = table[u][1] - shift

    act: dict[int, tuple[int, int]] = {}
    for w, (lo, hi) in table.items():
        if w != u and hi > shift:
            act[w] = (max(lo - shift, 1), hi - shift)

    # Forced pairs: vertices covering [1, r] grab the largest free rank above
    # r, scanning by decreasing rightmost neighbor.
    vcands = sorted((w for w, (lo, hi) in act.items() if lo == 1 and hi >= r),
                    key=lambda w: (-act[w][1], w))
    grabs = _greedy([-act[w][1] for w in vcands], -r - 1)
    forced = [(w, -p) for w, p in zip(vcands, grabs)]
    deleted = set(vcands[:len(grabs)])

    xs = sorted((w for w, (lo, hi) in act.items()
                 if w not in deleted and lo == 1 and hi >= 2),
                key=lambda w: (-act[w][1], w))
    ys = sorted((w for w, (lo, hi) in act.items()
                 if w not in deleted and lo >= 2 and hi >= r),
                key=lambda w: (act[w][0], w))
    R = [min(act[w][1], r) for w in xs]  # x intervals are [1, R[i-1]]
    L = [act[w][0] for w in ys]          # y intervals are [L[j-1], r]
    s_len, t_len = len(xs), len(ys)
    if len(forced) + 1 + min(s_len + t_len, r - 1) <= beat:
        return beat, None  # every x and y takes a distinct rank in [2, r]

    def bounds(i: int, j: int) -> tuple[int, int, int]:
        a = L[j - 1] if j else 1
        b = R[i - 1] if i else r
        return a, b, max(0, b - a + 1)

    # x_1, x_2, ... each take the largest free rank in [2, R_f] (negated),
    # and y_{s+1}, y_{s+2}, ... the smallest free one in [L_f, r].
    xpicks = [-p for p in _greedy([-x for x in R], -2)]
    ypicks = [_greedy(L[s:], r) for s in range(t_len + 1)]

    c = [[None] * (t_len + 1) for _ in range(s_len + 1)]
    bp = [[None] * (t_len + 1) for _ in range(s_len + 1)]

    # Base rows: greedy prefixes.  The anchor uses one rank of [1, R_i], and
    # the budget cuts only the picks inside the interval, which come last.
    for i in range(s_len + 1):
        _, b, ln = bounds(i, 0)
        picks = xpicks[:i]
        out = sum(p > b for p in picks)
        c[i][0] = [NEG] + [1 + out + min(len(picks) - out, ell - 1)
                           for ell in range(1, ln + 1)]
    for j in range(1, t_len + 1):
        a, _, ln = bounds(0, j)
        picks = ypicks[0][:j]
        out = bisect_left(picks, a)
        c[0][j] = [1 + out + min(len(picks) - out, ell) for ell in range(ln + 1)]

    for i in range(1, s_len + 1):
        for j in range(1, t_len + 1):
            a_ij, b_ij, ln = bounds(i, j)
            _, _, ln_up = bounds(i - 1, j)
            # Jumps: x_i takes a rank p in [2, a_ij), which y_1..y_jp still
            # see, and y_{jp+1}..y_j greedily take ranks up to b_ij.  The
            # picks depend on jp only; the first `outside` fall left of the
            # interval, so a budget ell admits min(got, outside + ell).
            jumps = []
            for jp in sorted({bisect_right(L, p, 0, j)
                              for p in range(2, min(b_ij, a_ij - 1) + 1)}):
                picks = ypicks[jp][:j - jp]
                got = bisect_right(picks, b_ij)
                jumps.append((jp, got, bisect_left(picks, a_ij, 0, got),
                              bounds(i - 1, jp)[2]))
            vals = []
            ptrs = []
            for ell in range(ln + 1):
                best = c[i - 1][j][ell + ln_up - ln]
                ptr = ("skip", ell + ln_up - ln)
                if ell >= 1:
                    sub = c[i - 1][j][ell - 1 + ln_up - ln]
                    if sub > NEG and sub + 1 > best:
                        best = sub + 1
                        ptr = ("core", ell - 1 + ln_up - ln)
                for jp, got, outside, ln_ch in jumps:
                    q = min(got, outside + ell)
                    # ell2 >= 0: p and the `outside` picks are distinct
                    # ranks in [bounds(i - 1, jp)[0], a_ij), and that span
                    # also holds [a_ij, b_ij] since R does not increase, so
                    # outside + 1 <= ln_ch - ln, and q <= outside + ell.
                    ell2 = (ln_ch - ln) + ell - (q + 1)
                    sub = c[i - 1][jp][ell2]
                    if sub > NEG and sub + q + 1 > best:
                        best = sub + q + 1
                        ptr = ("jump", jp, q, ell2)
                vals.append(best)
                ptrs.append(ptr)
            assert vals == sorted(vals), \
                "table must be non-decreasing in the interval budget"
            c[i][j] = vals
            bp[i][j] = ptrs

    _, _, ln_final = bounds(s_len, t_len)
    value = c[s_len][t_len][ln_final]
    assert value >= 1
    if len(forced) + value <= beat:
        return len(forced) + value, None
    pairs = _replay(bp, c, R, L, r, xs, ys, s_len, t_len, ln_final)
    all_pairs = [(u, 1 + shift)] + [(w, j + shift) for w, j in forced] \
        + [(w, j + shift) for w, j in pairs]
    return len(forced) + value, tuple(all_pairs)


def _replay(bp, c, R, L, r, xs, ys, i, j, ell):
    """One optimal matching as (vertex, rank) pairs, anchor excluded.

    The walk down the back pointers gives each matched vertex a rank
    interval (L_0 = 2 here, since rank 1 is the anchor's; skip adds none):
      * a base state (i, 0) or (0, j) of value 1 + k: x_f gets [2, R_f],
        or y_f gets [L_f, r], for f = 1..k;
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
    with the smallest right end) matches all of them; public exits check.
    """
    want: list[tuple[int, int, int]] = []  # (lo, hi, vertex)
    while i and j:
        kind, *rest = bp[i][j][ell]
        if kind == "jump":
            jp, q, ell = rest
            want.append((L[jp - 1] if jp else 2, R[i - 1], xs[i - 1]))
            want += [(L[f], R[i - 1], ys[f]) for f in range(jp, jp + q)]
            j = jp
        else:
            if kind == "core":
                want.append((L[j - 1], R[i - 1], xs[i - 1]))
            ell = rest[0]
        i -= 1
    k = c[i][j][ell] - 1
    want += [(2, R[f], xs[f]) for f in range(k)] if i else \
        [(L[f], r, ys[f]) for f in range(k)]

    want.sort(reverse=True)
    open_: list[tuple[int, int]] = []  # (hi, vertex)
    pairs = []
    for rank in range(2, r + 1):
        while want and want[-1][0] <= rank:
            _, hi, w = want.pop()
            heapq.heappush(open_, (hi, w))
        while open_ and open_[0][0] < rank:
            heapq.heappop(open_)  # unmatched: a public exit's count check fails
        if open_:
            pairs.append((heapq.heappop(open_)[1], rank))
    return pairs


def hadwiger_bipperm(G: Graph, with_details: bool = False):
    """Largest complete minor of a bipartite permutation graph.

    Per connected component the answer is a set T of singleton bags (none,
    one vertex, or the two ends of an edge) plus a clique-matching among
    the component's vertices near every t in T, near(t) being t's side
    without t together with t's neighbors.  For an edge ab that leaves
    exactly the neighbors of a or b other than a and b.  One loop tries
    T = (), then each (u,), then each edge (a, b) with a < b, component by
    component, and keeps the first strictly larger candidate.  Each
    clique-matching is solved on G's interval table clipped to its vertex
    set, unless len(T) plus the smaller side of that set, which bounds the
    matching, cannot beat the best so far.  The solve starts at the bar
    best - len(T) and returns nothing when it cannot clear it, so a losing
    case replays and certifies no witness.  The winning bag family is
    verified as a complete-minor witness.  With ``with_details`` the
    answer is (h, bags): the winning T's singleton bags come first, then
    the clique-matching's edges.
    """
    ordering = _ordering(G)
    side1 = sum(1 << w for w in ordering.side1)

    def near(t: int) -> int:
        side = side1 if side1 >> t & 1 else ~side1
        return side & ~(1 << t) | G.rows[t]

    h, singles, matching = 0, (), ()
    for comp in _mask_components(G.rows, (1 << G.n) - 1):
        cases = [()] + [(u,) for u in _iter_bits(comp)] + [
            (a, b) for a in _iter_bits(comp) for b in _iter_bits(G.rows[a] >> a << a)]
        for T in cases:
            keep = comp
            for t in T:
                keep &= near(t)
            if len(T) + min((keep & side1).bit_count(),
                            (keep & ~side1).bit_count()) <= h:
                continue
            solved = _solve(*_clip(ordering.order2, ordering.spans, keep),
                            max(0, h - len(T)))
            if solved is not None and len(T) + solved[0] > h:
                h, singles, matching = len(T) + solved[0], T, solved[1]
    bags = tuple((v,) for v in singles) + matching
    certify_minor(G, h, bags)
    return (h, bags) if with_details else h
