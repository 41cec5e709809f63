"""Brute-force reference solvers for small graphs.

Every polynomial-time algorithm in this library is certified against these
oracles on small instances.  All enumeration orders are deterministic so
failures reproduce exactly.  Both s-club oracles, fewest contractions and
largest minor, read one edge-subset walk, except at s = 1 (Hadwiger).
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import CapacityError, DomainError
from .graph import (Edge, Graph, _contract_rows, _contract_step,
                    _diametral_pairs, _iter_bits, components,
                    diameter_at_most, induced_subgraph, is_connected,
                    max_clique)
from .witness import certify, verify_witness

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
    so the witness is the full search's.
    Raises CapacityError, before any search, when some component has more
    than ``cap`` vertices.
    """
    if G.n == 0:
        return (0, None) if with_witness else 0
    comps = components(G)
    for comp in comps:
        if len(comp) > cap:
            raise CapacityError(
                f"component of size {len(comp)} exceeds oracle cap {cap}")
    best = 0
    best_bags = None
    for comp in comps:
        value, bags = _component_hadwiger(induced_subgraph(G, comp))
        if value > best:
            best = value
            best_bags = tuple(tuple(comp[v] for v in bag) for bag in bags)
    certify(len(best_bags) == best and verify_witness(G, best_bags),
            f"bags {best_bags} are not a complete minor of size {best}")
    return (best, best_bags) if with_witness else best


def _component_hadwiger(H: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Depth-first search over the quotients of H for the largest clique.

    A state is (rows, bags, bound, e): the quotient's adjacency rows, per
    quotient vertex the bitmask of the vertices of H it holds, a bound on
    its clique number, and its excess e = m - n.  A child contracts one
    edge ij, i < j, in ``Graph.edges()`` order, read off the rows, by
    ``_contract_rows``, and bag j merges into bag i; it loses the edge ij,
    the vertex j and one edge per common neighbour of i and j, so its
    excess is e - |N(i) & N(j)|.  Its rows are those of ``contract_edges``
    (vertices ordered by smallest member), so ``seen``, keyed on rows,
    holds one key per labelled quotient whatever contraction order reached
    it.  A ``Graph`` is built only for ``max_clique``, and bags become
    sorted tuples only for the answer.  Four cuts skip only work that
    cannot beat ``best``, which only grows and changes only on a strict
    ``>``, so value and witness are the uncut search's: a quotient is
    dropped when ``_cycle_bound(e) <= best``; a quotient is dropped when
    ``_width_below(rows, best)``, since minors never raise treewidth and
    tw(K_h) = h - 1, so h <= tw + 1 <= best (Bodlaender & Koster,
    "Treewidth computations I. Upper bounds", Inf. Comput. 2010); edge ij
    is not contracted when the child's excess fails the cycle-rank test;
    ``max_clique`` runs only when ``bound > best``, the root's bound being
    n and a child's its parent's (exact once ``max_clique`` ran) plus one.
    """
    best = 0
    best_bags: tuple[int, ...] = ()
    seen: set[tuple[int, ...]] = set()
    stack = [(H.rows, tuple(1 << v for v in range(H.n)), H.n, H.m - H.n)]
    while stack:
        rows, bags, bound, e = stack.pop()
        n = len(rows)
        if n <= best or rows in seen:
            continue
        seen.add(rows)
        if _cycle_bound(e) <= best or _width_below(rows, best):
            continue
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
                    child = _contract_rows(rows, i, j)
                    if child not in seen:
                        stack.append((child, bags[:i] + (bags[i] | bags[j],)
                                      + bags[i + 1:j] + bags[j + 1:],
                                      bound + 1, ce))
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


def max_s_club_minor_oracle(G: Graph, s: int, cap: int = PARTITION_CAP) -> int:
    """Most vertices of a quotient of G (a full connected partition's
    blocks) with diameter at most s; 0 when none has, as when s < 0.

    Contracting a spanning forest of the p blocks takes n - p edges, so this
    is n - |S| for ``min_club_contraction_set``'s smallest S, which a
    spanning tree bounds by n - 1 <= m edges.  At s = 1, where that walk is
    slow, it is the Hadwiger number, from ``_component_hadwiger``: a K_h
    model in a connected graph extends to a full connected partition, each
    component of the leftover vertices joining a bag it touches, whose
    quotient is still complete.
    """
    if not is_connected(G):
        raise DomainError("disconnected graphs cannot be contracted to finite diameter")
    if G.n > cap:
        raise CapacityError(f"graph of size {G.n} exceeds oracle cap {cap}")
    if s == 1:
        return _component_hadwiger(G)[0]
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
    on exactly the inputs where the unpruned walk would have raised it."""
    if k_max < 0:
        raise DomainError("contraction budget must be non-negative")
    if not is_connected(G):
        return None
    if diameter_at_most(G, s):
        return ()
    if s <= 0:
        return None if s < 0 or k_max < G.n - 1 else _greedy_spanning_tree(G)
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
            return S
    return None


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
    quotient, ``contract_edges``'s rows and ``contraction_map``'s labels,
    extended by one ``_contract_step`` per edge.

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
    read.  Every set that succeeds passes both tests, so the first one
    found is the unpruned walk's.
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

    def extend(start: int, rows: tuple[int, ...], label: list[int],
               spare: int) -> bool:
        if len(chosen) == k:
            return diameter_at_most(Graph(len(rows), rows), s)
        for i in range(start, len(edges) - k + len(chosen) + 1):
            if high[i] and not spare:
                continue
            if not slack and not all(chained(j, i) for j in chosen):
                continue
            chosen.append(i)
            if extend(i + 1, *_contract_step(rows, label, *edges[i]),
                      spare - high[i]):
                return True
            chosen.pop()
        return False

    found = extend(0, G.rows, list(range(G.n)), slack)
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


def nice_structure_oracle(G: Graph, cap: int = PARTITION_CAP) -> tuple[int, tuple[int, ...]]:
    """Best pairwise-adjacent family of singleton and edge bags.

    Returns (max bag count, table) where table[r] is the maximum bag count
    over families with exactly r two-vertex bags (0 when none exists).
    """
    if G.n > cap:
        raise CapacityError(f"graph of size {G.n} exceeds oracle cap {cap}")
    table = [0] * (G.n + 1)
    for bags in enumerate_nice_structures(G):
        r = sum(1 for b in bags if len(b) == 2)
        table[r] = max(table[r], len(bags))
    return max(table, default=0), tuple(table)
