"""Brute-force reference solvers for small graphs.

Every polynomial-time algorithm in this library is certified against these
oracles on small instances.  All enumeration orders are deterministic so
failures reproduce exactly.  Both s-club oracles, fewest contractions and
largest minor, read one edge-subset walk, except that the largest minor at
s = 1 reads the Hadwiger search through ``hadwiger_oracle``.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .errors import CapacityError, DomainError
from .graph import (Edge, Graph, _balls_within, _contract_rows,
                    _diametral_pairs, _iter_bits, _merge_step, components,
                    diameter_at_most, induced_subgraph, is_connected,
                    max_clique)
from .witness import certify_contraction, certify_minor

PARTITION_CAP = 12
MATCHING_CAP = 14
SUBSET_BUDGET = 5_000_000


def _cycle_bound(e: int) -> int:
    """Largest h with h(h-3)/2 <= e: minors never raise the cycle rank e + 1
    of a connected graph with m - n = e, and K_h has rank h(h-3)/2 + 1."""
    return (3 + math.isqrt(9 + 8 * e)) // 2


def hadwiger_oracle(G: Graph, cap: int = PARTITION_CAP,
                    with_witness: bool = False):
    """Largest p such that some component has p disjoint connected bags that
    are pairwise adjacent.  Searches all quotients reachable by contractions
    (equivalently, all full connected partitions per component) and takes the
    best clique over them, skipping by the cycle-rank bound (per quotient
    and per child), an elimination-width (treewidth) bound and the parent's
    clique number plus one only quotients that cannot beat the best so far,
    so the witness is the full search's.  It is the search's one entry, so
    every answer, (0, ()) on the empty graph too, passes ``certify_minor``.
    Its cap guards that search: CapacityError, before it, when some
    component has more than ``cap`` vertices.
    """
    comps = components(G)
    for comp in comps:
        if len(comp) > cap:
            raise CapacityError(
                f"component of size {len(comp)} exceeds oracle cap {cap}")
    best = 0
    best_bags = ()
    for comp in comps:
        value, bags = _component_hadwiger(induced_subgraph(G, comp))
        if value > best:
            best = value
            best_bags = tuple(tuple(comp[v] for v in bag) for bag in bags)
    certify_minor(G, best, best_bags)
    return (best, best_bags) if with_witness else best


def _component_hadwiger(H: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Depth-first search over the quotients of H for the largest clique.

    A stack entry (rows, bags, i, j, bound, e, tested) names a child: its
    parent's adjacency rows and, per parent vertex, the bitmask of the
    vertices of H it holds; the edge ij, i < j, read off the rows in
    ``Graph.edges()`` order, whose contraction makes the child (j = 0 names
    the root, H itself); a bound on its clique number; its excess e = m - n;
    and a cell that the parent's children share, holding the ``best`` at
    which the parent's width was last tested, or inf once that test
    eliminated every vertex.
    Contracting ij loses the vertex j, the edge ij and one edge per common
    neighbour of i and j, so the child has one vertex less than its parent
    and excess e - |N(i) & N(j)|, known without its rows.  Its rows, by
    ``_contract_rows``, are ``contract_edges``'s (vertices ordered by
    smallest member), so ``seen``, keyed on rows, holds one key per
    labelled quotient whatever order reached it.  A ``Graph`` is built only
    for ``max_clique``, and bags become sorted tuples only for the answer.

    A popped child is dropped, in this order: when n <= best; when
    ``_cycle_bound(e) <= best``; when its parent's width, tested again
    whenever ``best`` has risen since the cell's last test, passes
    ``_width_below(parent rows, best)``; once contracted, when it is in
    ``seen``; and, once added to ``seen``, when ``_width_below(rows,
    best)``; only then is bag j merged into bag i.  Minors never raise
    treewidth and tw(K_h) = h - 1, so h <= tw + 1 <= best (Bodlaender &
    Koster, "Treewidth computations I. Upper bounds", Inf. Comput. 2010);
    a parent that passes has treewidth at most best - 1, so none of its
    minors, the child and every later sibling among them, has h > best,
    and the cell drops those siblings with no test of their own.  The
    parent's own test ran before ``max_clique``; when that raises
    ``best``, the first child popped tests the parent again.  A child
    is pushed only when its excess passes the cycle-rank test, and
    ``max_clique`` runs only when ``bound > best``, the root's bound being n
    and a child's its parent's (exact once ``max_clique`` ran) plus one.
    Each cut skips only work that cannot beat ``best``, which only grows
    and changes only on a strict ``>``, so value and witness are the uncut
    search's.  Contracting at pop, after the size and cycle-rank cuts,
    expands the same states in the same order as contracting at push: n
    and e belong to the quotient and ``best`` only grows, so a quotient
    those cuts drop, and so keep out of ``seen``, fails them at every later
    pop too; and ``seen`` only grows, so testing it at pop drops every child
    a test at push would have.  A child the re-test drops stays out of
    ``seen``; ``seen`` only prunes, so that costs work, not answers.
    """
    best = 0
    best_bags: tuple[int, ...] = ()
    seen: set[tuple[int, ...]] = set()
    stack = [(H.rows, tuple(1 << v for v in range(H.n)), 0, 0, H.n, H.m - H.n,
              None)]
    while stack:
        rows, bags, i, j, bound, e, tested = stack.pop()
        n = len(rows) - (j > 0)
        if n <= best or _cycle_bound(e) <= best:
            continue
        if j:
            if tested[0] < best:
                tested[0] = math.inf if _width_below(rows, best) else best
            if tested[0] == math.inf:
                continue
            rows = _contract_rows(rows, i, j)
        if rows in seen:
            continue
        seen.add(rows)
        tested = [best]
        if _width_below(rows, best):
            continue
        if j:
            bags = bags[:i] + (bags[i] | bags[j],) + bags[i + 1:j] + bags[j + 1:]
        if bound > best:
            bound, wverts = max_clique(Graph(n, rows))
            if bound > best:
                best = bound
                best_bags = tuple(bags[v] for v in wverts)
        if n - 1 <= best:
            continue
        for i, row in enumerate(rows):
            for j in _iter_bits(row >> (i + 1) << (i + 1)):
                ce = e - (row & rows[j]).bit_count()
                if _cycle_bound(ce) > best:
                    stack.append((rows, bags, i, j, bound + 1, ce, tested))
    return best, tuple(tuple(_iter_bits(bag)) for bag in best_bags)


def _width_below(rows: tuple[int, ...], best: int) -> bool:
    """Whether repeatedly eliminating the first vertex, in label order, with
    fewer than ``best`` remaining neighbours, and making those neighbours a
    clique, eliminates every vertex.  If so, that order's chordal completion
    has clique number at most ``best``, so treewidth is at most best - 1 and
    every minor has Hadwiger number at most ``best``.  ``low`` holds the
    vertices left with fewer than ``best`` neighbours left, so its lowest
    bit is the vertex to eliminate.  Eliminating v changes only the rows of
    v's neighbours and the degree of no other vertex, so only their bits
    are recounted.  Once ``best`` vertices are left, each has fewer than
    ``best`` neighbours left, so all of them are eliminated."""
    rows = list(rows)
    left = (1 << len(rows)) - 1
    low = sum(1 << v for v, row in enumerate(rows) if row.bit_count() < best)
    for _ in range(len(rows) - best):
        if not low:
            return False
        b = low & -low
        left ^= b
        low ^= b
        nb = rows[b.bit_length() - 1] & left
        low &= ~nb
        for w in _iter_bits(nb):
            row = rows[w] = rows[w] | nb ^ 1 << w
            if (row & left).bit_count() < best:
                low |= 1 << w
    return True


def _needs_search(G: Graph, s: int) -> bool:
    """Whether a club question at s on G needs a search, all a cap refuses."""
    return s >= 1 and is_connected(G) and not diameter_at_most(G, s)


def max_s_club_minor_oracle(G: Graph, s: int, cap: int = PARTITION_CAP) -> int:
    """Most vertices of a quotient of G (a full connected partition's
    blocks) with diameter at most s; 0 when none has, as when s < 0.

    Contracting a spanning forest of the p blocks takes n - p edges, so this
    is n - |S| for ``min_club_contraction_set``'s smallest S, which a
    spanning tree bounds by n - 1 <= m edges.  At s = 1, where that walk is
    slow, it is the Hadwiger number, from ``hadwiger_oracle``: a K_h model
    in a connected graph extends to a full connected partition, each
    component of the leftover vertices joining a bag it touches, whose
    quotient is still complete.  Only a search (``_needs_search``) meets ``cap``.
    """
    if not is_connected(G):
        raise DomainError("disconnected graphs cannot be contracted to finite diameter")
    if _needs_search(G, s):
        if G.n > cap:
            raise CapacityError(f"graph of size {G.n} exceeds oracle cap {cap}")
        if s == 1:
            return hadwiger_oracle(G, cap)
    S = min_club_contraction_set(G, s, G.m)
    return 0 if S is None else G.n - len(S)


def min_club_contraction_oracle(G: Graph, s: int, k_max: int):
    """Smallest k <= k_max with some k-edge set S satisfying
    diam(G/S) <= s; None if no such set exists within the bound."""
    S = min_club_contraction_set(G, s, k_max)
    return None if S is None else len(S)


def min_club_contraction_set(G: Graph, s: int, k_max: int) -> tuple[Edge, ...] | None:
    """The first smallest edge set S, in ``combinations`` order over
    ``G.edges()``, with diam(G/S) <= s, by increasing-size subset
    enumeration: () when G is already within s, None if G is disconnected
    or no set of at most k_max edges works.  No set reaches s < 0, and at
    s = 0 the sets that work are the spanning trees, the bases of G's cycle
    matroid, whose first in that order is Kruskal's greedy tree; so s <= 0
    needs no walk.  Above, ``SUBSET_BUDGET`` caps the subsets of every size
    up to the one being tried, sizes below d - s included although
    ``_first_club_set`` rules those out at once, so the CapacityError fires
    on exactly the inputs where the unpruned walk would have raised it.
    A nonempty S is returned only once ``diameter_at_most``, which merges
    its bags by ``_merged_rows`` and not by the walk's ``_merge_step``, has
    certified it."""
    if k_max < 0:
        raise DomainError("contraction budget must be non-negative")
    if not is_connected(G):
        return None
    if diameter_at_most(G, s):
        return ()
    if s <= 0:
        S = None if s < 0 or k_max < G.n - 1 else _greedy_spanning_tree(G)
    else:
        S = None
        m = G.m
        total = 0
        for k in range(1, min(k_max, m) + 1):
            total += math.comb(m, k)
            if total > SUBSET_BUDGET:
                raise CapacityError(
                    f"subset enumeration up to size {k} needs {total} checks "
                    f"(budget {SUBSET_BUDGET})")
            S = _first_club_set(G, s, k)
            if S is not None:
                break
    if S is not None:
        certify_contraction(G, s, S, k_max)
    return S


def _greedy_spanning_tree(G: Graph) -> tuple[Edge, ...]:
    """Kruskal's pass: the edges of ``G.edges()``, in order, that join two
    of the trees chosen so far."""
    parent = list(range(G.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for e in G.edges():
        a, b = map(find, e)
        if a != b:
            parent[b] = a
            chosen.append(e)
    return tuple(chosen)


def _first_club_set(G: Graph, s: int, k: int) -> tuple[Edge, ...] | None:
    """The first k-subset of ``G.edges()``, in ``itertools.combinations``
    order, whose contraction has diameter at most s, or None.  G must be
    connected and non-empty, so that it has a diametral pair; every caller
    answers the other graphs before it walks.

    The subsets are walked depth first, and each prefix carries its
    quotient in ``_merged_rows``'s form: the rows with each bag merged into
    its lowest vertex, the mask of the vertices left, and per vertex a
    pointer toward its bag's lowest vertex.  One ``_merge_step`` per edge
    extends it, rewriting only the rows that name the merged vertex, with
    no relabelling.  The leaf checks (bound s) and the cut checks below
    (bound s + 1) read these rows through ``_balls_within``, the ball loop
    of ``diameter_at_most``.

    The walk skips only sets that cannot succeed, by the excess bound.  Let
    (u, v) be a diametral pair, d = diam(G) and t = k - (d - s) the slack.
    The excess of an edge ab is min(du[a] + dv[b], du[b] + dv[a]) + 1 - d,
    0 exactly on the edges of shortest (u, v)-paths.  A k-edge set S with
    diam(G/S) <= s has at most t edges of excess above t.  Proof: a
    shortest path between the bags of u and v in G/S has at most s edges;
    lifted to G, crossing each bag along the tree its S-edges span, it is a
    (u, v)-walk W of length at most s + w, where w <= k edges of S lie on
    W.  Its length is at least d, so w >= d - s, and an edge ab on W makes
    it at least d + excess(ab), so no edge on W has excess above t.  The
    edges of excess above t thus lie among the k - w <= t edges of S off W.
    Hence t < 0 needs no walk; t = 0 walks only the edges on a shortest path
    between every diametral pair; t >= 1 lets a prefix hold at most t edges
    of excess above t for the first diametral pair.

    At t = 0 the walk also skips every set whose edges do not lie on one
    shortest (u, v)-path, for the first diametral pair.  There W has length
    at most s + w <= s + k = d and at least d, so it is a shortest
    (u, v)-path and w = k: it holds every edge of S.  Each edge walked at
    t = 0 lies on such a path, so its ends lie on consecutive levels of u;
    orient it as ab with du[a] < du[b].  Along W, du rises by one per edge.
    So of two edges of S, the one W meets first, (a, b), ends no farther
    from u than the other, (a', b'), starts, and the stretch of W from b to
    a' is a shortest path: du[b] <= du[a'] and dist(b, a') = du[a'] - du[b].
    Two edges on one level never chain so.  A prefix is extended only by an
    edge that chains with each chosen edge, tested before its contraction;
    the test reads BFS rows that listing the diametral pairs has already
    read.

    At t >= 1 the walk also drops a prefix of k - 1 edges whose quotient P
    has diameter above s + 1, before it tries any last edge.  Contracting
    one edge shortens a distance by at most one, so diam(P/S') >=
    diam(P) - |S'| for any edge set S' of P, and no last edge brings P
    within s.  The cut runs only at the leaf's parent and only at t >= 1:
    at every depth (bound s + k - |prefix|), or at t = 0, where the chain
    test leaves it little to cut, it cost more than it saved.

    Every set that succeeds passes every test, so the first one found is
    the unpruned walk's.
    """
    pairs = _diametral_pairs(G)
    first = next(pairs)
    slack = k - (first[2] - s)
    if slack < 0:
        return None
    edges = G.edges()
    high = [_excess(G, first, e) > slack for e in edges]
    if slack == 0:
        edges = [e for e, h in zip(edges, high) if not h]
        for pair in pairs:
            if len(edges) < k:
                return None
            edges = [e for e in edges if not _excess(G, pair, e)]
        high = [False] * len(edges)
        du = G.dist[first[0]]
        ends = [(a, b) if du[a] < du[b] else (b, a) for a, b in edges]
    chosen: list[int] = []

    def chained(i: int, j: int) -> bool:
        (_, b), (a, _) = ends[i], ends[j]
        if du[b] > du[a]:
            (_, b), (a, _) = ends[j], ends[i]
        return du[b] <= du[a] and G.dist[b][a] == du[a] - du[b]

    def extend(start: int, rows: Sequence[int], alive: int, rep: list[int],
               spare: int) -> bool:
        if len(chosen) == k:
            return _balls_within(rows, alive, s)
        if (slack and len(chosen) == k - 1
                and not _balls_within(rows, alive, s + 1)):
            return False
        for i in range(start, len(edges) - k + len(chosen) + 1):
            if high[i] and not spare:
                continue
            if not slack and not all(chained(j, i) for j in chosen):
                continue
            chosen.append(i)
            if extend(i + 1, *_merge_step(rows, alive, rep, *edges[i]),
                      spare - high[i]):
                return True
            chosen.pop()
        return False

    found = extend(0, G.rows, (1 << G.n) - 1, list(range(G.n)), slack)
    return tuple(edges[i] for i in chosen) if found else None


def _excess(G: Graph, pair: tuple[int, int, int], e: Edge) -> int:
    """How much longer than d the shortest (u, v)-walk through the edge e
    is, for the pair (u, v, d); 0 iff e lies on a shortest (u, v)-path."""
    u, v, d = pair
    du, dv = G.dist[u], G.dist[v]
    a, b = e
    return min(du[a] + dv[b], du[b] + dv[a]) + 1 - d


def clique_matching_oracle(G: Graph, cap: int = MATCHING_CAP) -> int:
    """Maximum size of a matching whose edges pairwise have adjacent
    end-vertices: ``max_clique`` on the graph over G's edges in which two
    edges are adjacent when they are disjoint and an end of one sees the
    other.  Each edge keeps two masks, its ends and their neighbours."""
    if G.n > cap:
        raise CapacityError(f"graph of size {G.n} exceeds matching cap {cap}")
    edges = G.edges()
    ends = [1 << u | 1 << v for u, v in edges]
    seen = [G.rows[u] | G.rows[v] for u, v in edges]
    rows = tuple(sum(1 << j for j, f in enumerate(ends) if not e & f and s & f)
                 for e, s in zip(ends, seen))
    return max_clique(Graph(len(rows), rows))[0]


def enumerate_nice_structures(G: Graph) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All nonempty families of pairwise-adjacent disjoint bags where every
    bag is a single vertex or an edge, in deterministic order."""
    cands: list[tuple[tuple[int, ...], int, int]] = []
    for v in range(G.n):
        cands.append(((v,), 1 << v, G.rows[v]))
    for u, v in G.edges():
        cands.append(((u, v), (1 << u) | (1 << v), G.rows[u] | G.rows[v]))

    chosen: list[tuple[tuple[int, ...], int, int]] = []

    def dfs(start: int, used: int):
        for i in range(start, len(cands)):
            bag, mask, nbr = cands[i]
            if mask & used:
                continue
            if any(nbr & cmask == 0 for _, cmask, _ in chosen):
                continue
            chosen.append(cands[i])
            yield tuple(b for b, _, _ in chosen)
            yield from dfs(i + 1, used | mask)
            chosen.pop()

    yield from dfs(0, 0)


def nice_structure_oracle(G: Graph, cap: int = PARTITION_CAP) -> tuple[int, ...]:
    """The table c_0, ..., c_n of ``cograph_dp`` by enumeration, on any
    graph: c_r is the most bags in a pairwise-adjacent family of singleton
    and edge bags with exactly r edge bags (0 when none exists)."""
    if G.n > cap:
        raise CapacityError(f"graph of size {G.n} exceeds oracle cap {cap}")
    table = [0] * (G.n + 1)
    for bags in enumerate_nice_structures(G):
        r = sum(1 for b in bags if len(b) == 2)
        table[r] = max(table[r], len(bags))
    return tuple(table)
