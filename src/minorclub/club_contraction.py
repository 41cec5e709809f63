"""Deciding how many edge contractions bring a graph to diameter at most s.

``solve_club`` answers each club question, a budget k or a smallest set.
At s >= 1 the class-free d - s bound ``tight_contraction`` answers first
(solver "bound"), at any size, when it finds d - s edges, d the diameter,
or k < d - s.  Then at s >= 2 the AT-free solver (solver "atfree") answers
unless it finds an asteroidal triple, the only error that passes the
question on.  The rest, s = 1 included, is NP-hard already on chordal
graphs: the subset walk ``oracle.min_club_contraction_set`` (solver
"oracle"), at s = 0 Kruskal's pass, answers, and ``cap`` refuses it only
where ``oracle._needs_search`` holds.

On an AT-free graph and s >= 2 the minimum number of contractions lies
in [d-s, d-s+2].  The lower end holds on every connected graph, AT-free or
not: contracting one edge shortens each distance by at most 1.  So a set of
exactly d-s edges whose contraction is re-checked to reach diameter s is
optimal on any graph, and ``tight_contraction`` looks for one with the path
scan below before anything asks whether the graph is AT-free.  A double BFS
sweep gives a pair at distance d' <= d (on AT-free graphs such sweeps fall
short by at most 1; Corneil, Dragan and Koehler, Networks 2003), the scan
grows balls of radius at most s around its candidate end edges, and a set
of d' - s edges that passes the re-check, which grows radius-s balls in the
rows with the set's edges merged, proves d' = d.  So such an answer reads
only the BFS rows of vertex 0 and of the pair from the graph's memo
``G.dist``, and so does a budget below d' - s, which the bound refutes.
Otherwise the bound reads every row for the first diametral pair.

``_tight_from`` is the one step that proposes a set for the tight budget
d - s from a pair (u, v, d): d <= s needs no contraction, d - s of 1 or 2 is
answered by the subset walk, exact on any graph, and a larger d - s by the
scan.  ``tight_contraction`` calls it with the sweep's and the first
diametral pair; the AT-free ladder ``_ladder``, on G and on its guessed
quotients with d - s >= 3, with a diameter dominating pair, where a pinned
scan falls back to the pinned attempts.

The AT-free entries leave through ``witness.certify_contraction``, and
the bound counts a set that fails ``diameter_at_most`` as a miss; the steps
below them only propose.

The decision procedure is driven by paths between a diameter dominating
pair (u, v): a path Q = x_0..x_k is *satisfying* when it extends to a
(u,v)-path of length d and its end segments stay close to the far vertex
sets X_v, Y_v, X_u, Y_u (vertices at distance d and d-1 from v and u).
Every step passes its pair as the tuple (u, v, d), and ``_scan_paths``
reads the four far sets as bitmasks off the BFS rows of u and v.
Contracting an interior satisfying path of length d-s is enough; when every
satisfying path starts at u or ends at v, the near-end edges of the unique
shortest chain are forced and only two edges remain to guess.  The subset
walk, ``oracle._first_club_set``, also decides budgets k <= 2; its
docstring proves the excess and chain bounds it prunes by.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import DomainError
from .graph import (Edge, Graph, _diametral_pairs, _grow, _iter_bits,
                    _layers, _quotient, diameter, diameter_at_most,
                    is_connected, shortest_path)
from .oracle import _first_club_set, _needs_search, min_club_contraction_set
from .recognition import AvoidingComponents, _dominating_diametral_pair
from .witness import certify_contraction


def distance_profile(G: Graph, u: int, v: int) -> tuple[int, int, int]:
    """The pair (u, v, d) that ``_scan_paths`` reads, with d = dist(u, v);
    errors when G is disconnected or d != diam(G)."""
    d = diameter(G)
    if d == math.inf:
        raise DomainError("graph must be connected")
    if G.dist[u][v] != d:
        raise DomainError(f"({u},{v}) is not a diameter pair")
    return u, v, d


def _scan_paths(G: Graph, pair, k: int):
    """Search for a satisfying path of length k >= 3 between the pair
    (u, v, d), d = dist(u, v), by trying all ordered choices of the first
    and last edge, each in lexicographic order.  Only the BFS rows of u and
    v are read; one pass over them builds the far masks X_u, Y_u, X_v, Y_v
    (the vertices at distance exactly d and d-1 from u and from v).

    Every vertex of a satisfying path lies on a shortest (u, v)-path, so
    edges are taken from the u-layers cut to those vertices; an edge off
    them closes no path, and skipping it changes no result.  A first edge
    needs du[x0] + k <= d and a last edge dv[x_k] <= d - k, so none is
    found when k > d, and each end condition compares distances of at most
    r = d - k.  It reads balls of radius at most r around the edge's two
    ends, grown once per vertex as bitmasks, instead of BFS rows.  All of X
    lies at distance ref from x0 iff X lies in ball(x0, ref): x0 is at
    distance d - ref from v, and X at distance d, so no vertex of X is
    nearer to x0 (the same holds at x_k).  All of Y lies within ref of x0
    or x1 iff it lies in the union of their radius-ref balls.

    Each first edge (x0, x1) grows its reach once, one u-layer per step, up
    to x_{k-1}'s layer; every last edge (x_{k-1}, x_k) whose x_{k-1} is
    reached closes a path, traced back through the smallest reached
    neighbour per layer.  Returns (first path with x_0 != u and x_k != v,
    first path found before it, or in the whole scan when there is none,
    that starts at u or ends at v); each is None when there is none."""
    assert k >= 3
    u, v, d = pair
    rows, du, full = G.rows, G.dist[u], (1 << G.n) - 1
    # The u-layers, cut to the vertices on shortest (u, v)-paths, and the
    # far masks; dv may exceed d when (u, v) is not diametral.
    layers = [0] * (d + 1)
    X_u = Y_u = X_v = Y_v = 0
    for x, (a, b) in enumerate(zip(du, G.dist[v])):
        bit = 1 << x
        if a + b == d:
            layers[a] |= bit
        if a == d:
            X_u |= bit
        elif a == d - 1:
            Y_u |= bit
        if b == d:
            X_v |= bit
        elif b == d - 1:
            Y_v |= bit
    balls: dict[int, list[int]] = {}

    def ball(x: int, t: int) -> int:
        """The vertices within distance t of x, grown[0] = 0 seeding the
        first frontier."""
        grown = balls.get(x)
        if grown is None:
            grown = balls[x] = [0, 1 << x]
        while len(grown) < t + 2:
            grown.append(grown[-1] | _grow(rows, grown[-1] ^ grown[-2],
                                           full ^ grown[-1]))
        return grown[t + 1]

    def ends_ok(x0: int, x1: int, ref: int, X: int, Y: int) -> bool:
        near = ball(x0, ref)
        far = Y & ~near
        return not X & ~near and (not far or not far & ~ball(x1, ref))

    # Last edges by x_k's u-layer t >= k, each list in (x_{k-1}, x_k) order.
    lasts: dict[int, list[Edge]] = {}
    for t in range(k, d + 1):
        for xk1 in _iter_bits(layers[t - 1]):
            for xk in _iter_bits(rows[xk1] & layers[t]):
                if ends_ok(xk, xk1, d - t, X_u, Y_u):
                    lasts.setdefault(t, []).append((xk1, xk))
    pinned_example = None
    for x0 in _iter_bits(sum(layers[t - k] for t in lasts)):
        for x1 in _iter_bits(rows[x0] & layers[du[x0] + 1]):
            if not ends_ok(x0, x1, du[x0], X_v, Y_v):
                continue
            reach = [1 << x1]
            for layer in layers[du[x1] + 1:du[x1] + k - 1]:
                reach.append(_grow(rows, reach[-1], layer))
            for xk1, xk in lasts[du[x0] + k]:
                if not reach[-1] >> xk1 & 1:
                    continue
                path = [xk, xk1]
                for t in range(k - 3, -1, -1):
                    back = rows[path[-1]] & reach[t]
                    path.append((back & -back).bit_length() - 1)
                path.append(x0)
                path.reverse()
                if x0 != u and xk != v:
                    return path, pinned_example
                if pinned_example is None:
                    pinned_example = path
    return None, pinned_example


# Decision procedure ------------------------------------------------------

def sweep_pair(G: Graph):
    """The double sweep's pair (u, v, d'): u is the lowest-labelled vertex
    farthest from vertex 0, d' = ecc(u) <= diam(G) and v is the lowest-labelled
    vertex at distance d' from u.  Only the BFS rows of 0 and u are read.
    None when G is empty or disconnected."""
    if G.n == 0 or -1 in G.dist[0]:
        return None
    u = G.dist[0].index(max(G.dist[0]))
    d = max(G.dist[u])
    return u, G.dist[u].index(d), d


def tight_contraction(G: Graph, s: int, k: float = math.inf
                      ) -> tuple[float, tuple[Edge, ...] | None]:
    """(b, S) without recognizing any graph class: no set of fewer than b
    edges contracts G to diameter at most s, and S is a set of exactly b
    edges that does, or None when none was found.

    No connected graph reaches diameter s with fewer than diam(G) - s
    contractions, and none joins two components, so b = inf on a
    disconnected graph.  It reads ``sweep_pair``, two BFS runs, and asks
    ``_tight_from`` about it when d' - s >= 3; on a miss it reads the first
    diametral pair (every BFS row), and asks ``_tight_from`` about that
    pair.  Every nonempty set ``_tight_from`` proposes, walked or scanned,
    is re-checked by ``diameter_at_most`` here, and one that fails is a
    miss, so no set leaves the bound unchecked.  It stops, with S None, as
    soon as b exceeds the budget k, before any scan or walk.
    """
    sweep = sweep_pair(G)
    if sweep is None:
        return (math.inf, None) if G.n else (0, ())
    bound = max(0, sweep[2] - s)
    if k < bound:
        return bound, None
    S = _tight_from(G, s, sweep) if bound >= 3 else None
    if S is not None and diameter_at_most(G, s, S):
        return bound, S
    first = next(_diametral_pairs(G))
    bound = max(0, first[2] - s)
    if k < bound or bound >= 3 and first == sweep:
        return bound, None
    S = _tight_from(G, s, first)
    return bound, S if not S or diameter_at_most(G, s, S) else None


def _tight_from(G: Graph, s: int, pair, dominating: bool = False
                ) -> tuple[Edge, ...] | None:
    """A set of exactly d - s edges, from the pair (u, v, d), proposed to
    contract G to diameter s, or None; the module docstring lists its
    cases.  It checks nothing: its callers re-check what it proposes.  The
    walk's set is the one that the oracle's ``min_club_contraction_set``
    finds first, and a scanned path comes as its d - s edges, sorted.
    With ``dominating``, (u, v) is a diameter dominating pair of an AT-free
    G, and when every satisfying path is pinned, the pinned attempts from u
    and then v propose the set."""
    u, v, d = pair
    k = d - s
    if k <= 0:
        return ()
    if k <= 2:
        return _first_club_set(G, s, k)
    path, pinned = _scan_paths(G, pair, k)
    if path is not None:
        return tuple(sorted(_path_edges(path, k)))
    if dominating and pinned is not None:
        return _pinned_attempt(G, s, k, u) or _pinned_attempt(G, s, k, v)
    return None


def s_club_contract_decide(G: Graph, s: int, k: int) -> tuple[Edge, ...] | None:
    """Can at most k edge contractions bring diam(G) down to s or less?

    Yes is a set of at most k edges whose contraction has been re-verified
    to reach diameter s, () when G is already within s; no is None.
    """
    if k < 0:
        raise DomainError("contraction budget must be non-negative")
    return _ladder(G, s, k)


def minimum_contraction(G: Graph, s: int) -> tuple[int, tuple[Edge, ...]]:
    """Smallest k with diam(G/S) <= s for some k-edge set S, plus a witness."""
    S = _ladder(G, s, None)
    return len(S), S


def solve_club(G: Graph, s: int, k: int | None, cap: int
               ) -> tuple[str, tuple[Edge, ...] | None]:
    """(solver, S): S a set of at most k edges whose contraction leaves
    diameter at most s, or None when there is none; k None asks for a
    smallest set, and a disconnected G is then an error.  A negative k, and
    then a negative s, is an error; the module docstring orders the solvers."""
    if k is None and not is_connected(G):
        raise DomainError("disconnected graphs cannot be contracted to finite diameter")
    if k is not None and k < 0:
        raise DomainError("contraction budget must be non-negative")
    if s < 0:
        raise DomainError("diameter bound --s must be non-negative")
    if s >= 1:
        bound, S = tight_contraction(G, s, math.inf if k is None else k)
        if S is not None or k is not None and k < bound:
            return "bound", S
    if s >= 2:
        try:
            return "atfree", (minimum_contraction(G, s)[1] if k is None
                              else s_club_contract_decide(G, s, k))
        except DomainError as exc:
            if exc.certificate is None:
                raise
    if G.n > cap and _needs_search(G, s):
        raise DomainError("no polynomial method applies (s < 2, or the graph has an "
                          "asteroidal triple) and the graph exceeds the brute-force cap")
    return "oracle", min_club_contraction_set(G, s, G.m if k is None else k)


def _ladder(G: Graph, s: int, k: int | None) -> tuple[Edge, ...] | None:
    """Decide budget k, or find a smallest set when k is None, after checking
    that s >= 2 and that G's AvoidingComponents table shows no asteroidal
    triple.  Budget d-s+2 always suffices: contracting d-s+2 edges of a
    shortest path between a diameter dominating pair leaves a path of length
    s-2 that still dominates.  Below it try the tight budget d-s from that
    pair, then with one spare contraction the subset walk (d-s+1 <= 2) or
    guess the extra contractions.  Whichever proposes S, it leaves through
    ``certify_contraction`` with the budget k (with k None, d-s+2 from the
    path, else d-s+1)."""
    if s <= 1:
        raise DomainError("only s >= 2 is supported on AT-free graphs; use the "
                          "brute-force oracle for s = 1")
    table = AvoidingComponents(G)
    at = table.asteroidal_triple()
    if at is not None:
        raise DomainError("graph has an asteroidal triple", certificate=at)
    d = diameter(G)
    if d == math.inf and k is None:
        raise DomainError("disconnected graphs cannot be contracted to finite diameter")
    if d <= s:
        return ()
    tight = d - s
    if k is not None and k < tight:
        return None
    pair = _dominating_diametral_pair(G, table)
    budget = tight + 1 if k is None else k
    S = _tight_from(G, s, pair, dominating=True) if budget <= tight + 1 else None
    if S is None and budget == tight + 1:
        S = (_first_club_set(G, s, tight + 1) if tight < 2
             else _one_extra_contraction(G, s, d))
    if S is None and (k is None or budget > tight + 1):
        budget = max(budget, tight + 2)
        S = _path_edges(shortest_path(G, pair[0], pair[1]), tight + 2)
    if S is None:
        return None
    certify_contraction(G, s, S, budget)
    return S


def _one_extra_contraction(G: Graph, s: int, d: int):
    """Budget d - s + 1 >= 3 after the tight budget failed: some set of at
    most two contractions must leave the diameter at exactly one above the
    new tight bound; guess it and solve the quotient tightly.  A quotient's
    AvoidingComponents table is built only when its d - s >= 3: below that
    the subset walk decides and reads no pair."""
    for size in (1, 2):
        for Sp in combinations(G.edges(), size):
            Gq, label = _quotient(G, Sp)
            dq = d - size + 1
            if diameter(Gq) != dq:
                continue
            rec = (_first_club_set(Gq, s, dq - s) if dq - s <= 2 else
                   _tight_from(Gq, s, _dominating_diametral_pair(Gq, AvoidingComponents(Gq)),
                               dominating=True))
            if rec is not None:
                return _lift_edges(G, label, Sp, rec)
    return None


def _path_edges(P, k: int) -> tuple[Edge, ...]:
    """The first k edges of the path P, each as a sorted pair."""
    return tuple(tuple(sorted(e)) for e in zip(P, P[1:k + 1]))


def _pinned_attempt(G: Graph, s: int, k: int, anchor: int):
    """All satisfying paths start at this anchor: the vertex at each distance
    0..k-2 from it must be unique, those chain edges are forced, and two
    more contractions are guessed by the subset walk.  Consecutive chain
    vertices are always adjacent: chain[i+1] is the only vertex at distance
    i + 1, so its BFS parent is the only vertex at distance i, chain[i].
    The quotient's diameter may exceed s + 2, and then the walk returns
    None before it starts."""
    layers = _layers(G, anchor)[:k - 1]
    if any(layer & (layer - 1) for layer in layers):
        return None
    chain = [layer.bit_length() - 1 for layer in layers]
    forced = _path_edges(chain, k - 2)
    Gq, label = _quotient(G, forced)
    S = _first_club_set(Gq, s, 2)
    return None if S is None else _lift_edges(G, label, forced, S)


def _lift_edges(G: Graph, label, contracted, quotient_edges) -> tuple[Edge, ...]:
    """The edges ``contracted`` of G and each edge of the quotient G /
    contracted mapped back to its smallest preimage in G, all sorted;
    ``label`` is the quotient vertex of each vertex of G."""
    lifts = list(contracted)
    for a, b in quotient_edges:
        lifts.append(min((u, v) for u, v in G.edges() if {label[u], label[v]} == {a, b}))
    return tuple(sorted(lifts))
