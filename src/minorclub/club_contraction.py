"""Deciding how many edge contractions bring an AT-free graph to diameter
at most s (s >= 2).

Writing d for the diameter, the minimum number of contractions always lies
in [d-s, d-s+2].  The lower end holds on every connected graph, AT-free or
not: contracting one edge shortens each distance by at most 1.  So a set of
exactly d-s edges whose contraction is re-checked to reach diameter s is
optimal on any graph, and ``tight_contraction`` looks for one with the path
scan below before anything asks whether the graph is AT-free.  It needs no
distance matrix: a double BFS sweep gives a pair at distance d' <= d (on
AT-free graphs such sweeps fall short by at most 1; Corneil, Dragan and
Koehler, Networks 2003), the scan computes the few other BFS rows it reads
on first use, and a set of d' - s edges that passes the re-check proves
d' = d.  Callers holding the matrix can rerun the scan from its first
diametral pair.

The decision procedure is driven by paths between a diameter dominating
pair (u, v): a path Q = x_0..x_k is *satisfying* when it extends to a
(u,v)-path of length d and its end segments stay close to the far vertex
sets X_v, Y_v, X_u, Y_u (vertices at distance d and d-1 from v and u).
Contracting an interior satisfying path of length d-s is enough; when every
satisfying path starts at u or ends at v, the near-end edges of the unique
shortest chain are forced and only two edges remain to guess.

``is_satisfying_path`` states the definition directly; the tests hold the
path scan of the decision procedure to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError
from .graph import (Edge, Graph, _bfs, _iter_bits, _layers,
                    _matrix_diameter, all_pairs_distances, contract_edges,
                    contraction_map, diameter_at_most, shortest_path)
from .oracle import _first_club_set
from .recognition import AvoidingComponents, _dominating_diametral_pair
from .witness import certify


@dataclass(frozen=True)
class DistanceProfile:
    """Distance data of a diameter pair: d = dist(u, v) = diam(G), the far
    sets X/Y at distance d and d-1 from each endpoint, and both BFS rows."""

    u: int
    v: int
    d: int
    X_u: frozenset[int]
    Y_u: frozenset[int]
    X_v: frozenset[int]
    Y_v: frozenset[int]
    dist_u: tuple[int, ...]
    dist_v: tuple[int, ...]


@dataclass(frozen=True)
class ClubDecision:
    yes: bool
    witness: tuple[Edge, ...] | None = None


def distance_profile(G: Graph, u: int, v: int) -> DistanceProfile:
    """Profile for a diameter pair; errors when dist(u, v) != diam(G)."""
    dist = all_pairs_distances(G)
    d = _matrix_diameter(dist)
    if d == math.inf:
        raise DomainError("graph must be connected")
    if dist[u][v] != d:
        raise DomainError(f"({u},{v}) is not a diameter pair")
    return _profile(dist, u, v)


def _profile(dist, u: int, v: int) -> DistanceProfile:
    """The profile of the pair (u, v), with d = dist(u, v), read off
    ``dist``, BFS rows indexed by vertex; only the rows of u and v are read."""
    du, dv = dist[u], dist[v]
    d = du[v]
    return DistanceProfile(
        u, v, d,
        frozenset(x for x, t in enumerate(du) if t == d),
        frozenset(x for x, t in enumerate(du) if t == d - 1),
        frozenset(x for x, t in enumerate(dv) if t == d),
        frozenset(x for x, t in enumerate(dv) if t == d - 1),
        tuple(du), tuple(dv),
    )


def is_satisfying_path(G: Graph, prof: DistanceProfile, Q) -> bool:
    """Definition check of conditions i) through iii) for the path Q.

    i) holds iff Q climbs one breadth-first layer from u per step and its
    end distances sum with its length to d; any such path extends to a
    (u, v)-path of length d, every one of which is a shortest path.
    """
    Q = list(Q)
    if len(Q) < 2 or len(set(Q)) != len(Q):
        raise DomainError("Q must be a path on at least two distinct vertices")
    for a, b in zip(Q, Q[1:]):
        if not G.has_edge(a, b):
            raise DomainError("Q must be a path in the graph")
    k = len(Q) - 1
    du, dv = prof.dist_u, prof.dist_v
    base = du[Q[0]]
    if any(du[x] != base + i for i, x in enumerate(Q)):
        return False
    if base + k + dv[Q[-1]] != prof.d:
        return False
    return (_end_conditions_ok(_bfs(G, Q[0]), _bfs(G, Q[1]), du[Q[0]],
                               prof.X_v, prof.Y_v)
            and _end_conditions_ok(_bfs(G, Q[-1]), _bfs(G, Q[-2]), dv[Q[-1]],
                                   prof.X_u, prof.Y_u))


def _end_conditions_ok(d0, d1, ref: int, X, Y) -> bool:
    """End conditions at a path end x0 with next vertex x1, given their BFS
    rows d0 and d1: all of X lies at distance ref from x0 and all of Y
    within ref of x0 or x1."""
    if any(d0[z] != ref for z in X):
        return False
    return all(d0[z] <= ref or d1[z] <= ref for z in Y)


def _scan_paths(G: Graph, prof: DistanceProfile, k: int, dist):
    """Search for a satisfying path of length k >= 3 by trying all ordered
    choices of the first and last edge; ``dist`` is BFS rows indexed by
    vertex, and only rows of candidate first and last edges are read.

    Each first edge (x0, x1) grows its reach once, one u-layer per step, up
    to x_{k-1}'s layer; every last edge (x_{k-1}, x_k) whose x_{k-1} is
    reached closes a path, traced back through the smallest reached
    neighbour per layer.  Returns (first path with x_0 != u and x_k != v,
    whether any path was found, first path found that starts at u or ends
    at v)."""
    assert k >= 3
    du, dv = prof.dist_u, prof.dist_v
    d = prof.d
    layers = _layers(G, prof.u)
    layered = [(a, b) for a in range(G.n) for b in _iter_bits(G.rows[a])
               if du[b] == du[a] + 1]
    # Last edges by x_k's u-layer: x_k must lie on a shortest (u, v)-path,
    # and only layers >= k are ever looked up.
    lasts: dict[int, list[Edge]] = {}
    for xk1, xk in layered:
        if du[xk] >= k and du[xk] + dv[xk] == d and _end_conditions_ok(
                dist[xk], dist[xk1], dv[xk], prof.X_u, prof.Y_u):
            lasts.setdefault(du[xk], []).append((xk1, xk))
    pinned_example = None
    for x0, x1 in layered:
        if du[x0] + k not in lasts or not _end_conditions_ok(
                dist[x0], dist[x1], du[x0], prof.X_v, prof.Y_v):
            continue
        reach = [1 << x1]
        for layer in layers[du[x1] + 1:du[x1] + k - 1]:
            nxt = 0
            for w in _iter_bits(reach[-1]):
                nxt |= G.rows[w]
            reach.append(nxt & layer)
        for xk1, xk in lasts[du[x0] + k]:
            if not reach[-1] >> xk1 & 1:
                continue
            path = [xk, xk1]
            for t in range(k - 3, -1, -1):
                path.append(min(_iter_bits(G.rows[path[-1]] & reach[t])))
            path.append(x0)
            path.reverse()
            if x0 != prof.u and xk != prof.v:
                return path, True, pinned_example
            if pinned_example is None:
                pinned_example = path
    return None, pinned_example is not None, pinned_example


# Decision procedure ------------------------------------------------------

class _BFSRows(dict):
    """BFS rows of G indexed by vertex, each computed on first use."""

    def __init__(self, G: Graph):
        super().__init__()
        self.G = G

    def __missing__(self, x: int) -> list[int]:
        row = self[x] = _bfs(self.G, x)
        return row


def sweep_pair(dist):
    """The double sweep's pair (u, v, d'): u is the lowest-labelled vertex
    farthest from vertex 0, d' = ecc(u) <= diam(G) and v is the lowest-labelled
    vertex at distance d' from u.  ``dist`` is BFS rows indexed by vertex, of
    which only the rows of 0 and u are read.  None when G is disconnected."""
    first = dist[0]
    if -1 in first:
        return None
    u = first.index(max(first))
    d = max(dist[u])
    return u, dist[u].index(d), d


def diametral_pair(dist: list[list[int]]):
    """The first diametral pair (u, v, d) of the distance matrix: u is the
    lowest-labelled vertex of eccentricity d = diam(G) and v the
    lowest-labelled vertex at distance d from u.  None when G is empty or
    disconnected."""
    d = _matrix_diameter(dist)
    if not dist or d == math.inf:
        return None
    u = next(x for x, row in enumerate(dist) if d in row)
    return u, dist[u].index(d), d


def tight_contraction(G: Graph, s: int, dist=None) -> tuple[Edge, ...] | None:
    """A set of exactly d - s edges whose contraction leaves diameter at
    most s, found without recognizing any graph class; None decides nothing.

    The pair (u, v) and d' <= diam(G) come from ``sweep_pair``, two BFS
    runs, with every other BFS row computed on first use; given G's distance
    matrix ``dist``, they are its first diametral pair and d = diam(G)
    instead.  When d' - s >= 3 the path scan runs for k = d' - s from that
    pair, and the unpinned path it returns is contracted and re-checked.
    No connected graph reaches diameter s with fewer than diam(G) - s
    contractions, so a set that passes proves d' = diam(G) and is optimal.
    None means d' - s <= 2, G is empty or disconnected, the scan found no
    unpinned path or the re-check failed.
    """
    if G.n == 0:
        return None
    if dist is None:
        dist = _BFSRows(G)
        pair = sweep_pair(dist)
    else:
        pair = diametral_pair(dist)
    if pair is None or pair[2] - s < 3:
        return None
    u, v, d = pair
    path, _, _ = _scan_paths(G, _profile(dist, u, v), d - s, dist)
    if path is None:
        return None
    S = tuple(sorted(_path_edges(path, d - s)))
    return S if diameter_at_most(contract_edges(G, S), s) else None


def s_club_contract_decide(G: Graph, k: int, s: int, dist=None) -> ClubDecision:
    """Can at most k edge contractions bring diam(G) down to s or less?

    Every yes comes with a witness edge set that has been re-verified by
    contracting it and measuring the diameter.  ``dist`` is G's distance
    matrix, computed when not given.
    """
    if k < 0:
        raise DomainError("contraction budget must be non-negative")
    d, dist, table = _checked_diameter(G, s, dist)
    if d <= s:
        return ClubDecision(True, ())
    if k < d - s:
        return ClubDecision(False)
    return _ladder(G, s, d, k, dist, table)


def minimum_contraction(G: Graph, s: int, dist=None) -> tuple[int, tuple[Edge, ...]]:
    """Smallest k with diam(G/S) <= s for some k-edge set S, plus a witness;
    ``dist`` is G's distance matrix, computed when not given."""
    d, dist, table = _checked_diameter(G, s, dist)
    if d == math.inf:
        raise DomainError("disconnected graphs cannot reach finite diameter")
    if d <= s:
        return 0, ()
    dec = _ladder(G, s, d, d - s + 1, dist, table)
    if dec.yes:
        return len(dec.witness), dec.witness
    return d - s + 2, _dominating_path_witness(G, s, d, dist, table)


def _checked_diameter(G: Graph, s: int, dist):
    """(diam(G), its BFS distance matrix, its AvoidingComponents table),
    the diameter infinite when G is disconnected, after checking that
    s >= 2 and that the table shows no asteroidal triple; the matrix is
    computed when ``dist`` is None."""
    if s <= 1:
        raise DomainError(
            "only s >= 2 is supported on AT-free graphs; use the brute-force "
            "oracle for s = 1")
    table = AvoidingComponents(G)
    at = table.asteroidal_triple()
    if at is not None:
        raise DomainError("graph has an asteroidal triple", certificate=at)
    if dist is None:
        dist = all_pairs_distances(G)
    return _matrix_diameter(dist), dist, table


def _ladder(G: Graph, s: int, d: int, k: int, dist, table) -> ClubDecision:
    """Decide budget k >= d - s on G with s < d = diam(G), given G's
    distance matrix and AvoidingComponents table.  Budget d-s+2 always
    suffices; otherwise try the tight budget d-s, then with one spare
    contraction brute force (k <= 2) or guess the extra contractions."""
    if k >= d - s + 2:
        return ClubDecision(True, _dominating_path_witness(G, s, d, dist, table))
    tight = _decide_tight(G, s, d, dist, table)
    if tight.yes or k == d - s:
        return tight
    if k <= 2:
        return _brute_force(G, k, s)
    S = _one_extra_contraction(G, s, d)
    return ClubDecision(False) if S is None else _verified_yes(G, S, k, s)


def _one_extra_contraction(G: Graph, s: int, d: int):
    """Budget d - s + 1 >= 3 after the tight budget failed: some set of at
    most two contractions must leave the diameter at exactly one above the
    new tight bound; guess it and solve the quotient tightly."""
    for size in (1, 2):
        for Sp in combinations(G.edges(), size):
            Gq = contract_edges(G, Sp)
            dist = all_pairs_distances(Gq)
            if _matrix_diameter(dist) != d - size + 1:
                continue
            rec = _decide_tight(Gq, s, d - size + 1, dist)
            if rec.yes:
                return Sp + _lift_edges(G, Sp, rec.witness)
    return None


def _verified_yes(G: Graph, S, k: int, s: int) -> ClubDecision:
    S = tuple(sorted(set(tuple(sorted(e)) for e in S)))
    certify(len(S) <= k and diameter_at_most(contract_edges(G, S), s),
            f"contracting {S} does not reach diameter {s} within {k} edges")
    return ClubDecision(True, S)


def _dominating_path_witness(G: Graph, s: int, d: int, dist, table) -> tuple[Edge, ...]:
    """Contract d-s+2 edges of a shortest path between a diameter dominating
    pair; what remains of the path still dominates and has length s-2."""
    u, v = _dominating_diametral_pair(dist, table)
    P = shortest_path(G, u, v)
    S = _path_edges(P, d - s + 2)
    certify(diameter_at_most(contract_edges(G, S), s),
            f"contracting {S} does not reach diameter {s}")
    return S


def _brute_force(G: Graph, k: int, s: int) -> ClubDecision:
    """The first k-edge set, in ``combinations`` order over ``G.edges()``,
    whose contraction leaves diameter at most s, found by the oracle's
    walk over the subsets and their quotients.  Only sets of exactly k
    edges are tried: every caller passes k = d - s, or d - s + 1 after d - s
    failed, and one contraction shortens a distance by at most 1, so no
    smaller set can succeed."""
    S = _first_club_set(G.edges(), G.rows, s, k)
    return ClubDecision(S is not None, S)


def _path_edges(P, k: int) -> tuple[Edge, ...]:
    """The first k edges of the path P, each as a sorted pair."""
    return tuple(tuple(sorted(e)) for e in zip(P, P[1:k + 1]))


def _decide_tight(G: Graph, s: int, d: int, dist, table=None) -> ClubDecision:
    """Budget exactly k = d - s >= 1, where d = diam(G) and ``dist`` is G's
    distance matrix; G's AvoidingComponents ``table`` is built here when
    the budget needs a dominating pair and none is given."""
    k = d - s
    if k <= 2:
        return _brute_force(G, k, s)
    u, v = _dominating_diametral_pair(dist, table or AvoidingComponents(G))
    prof = _profile(dist, u, v)
    unpinned, found_any, _ = _scan_paths(G, prof, k, dist)
    if unpinned is not None:
        return _verified_yes(G, _path_edges(unpinned, k), k, s)
    if not found_any:
        return ClubDecision(False)
    for dist_row in (prof.dist_u, prof.dist_v):
        S = _pinned_attempt(G, s, k, dist_row)
        if S is not None:
            return _verified_yes(G, S, k, s)
    return ClubDecision(False)


def _pinned_attempt(G: Graph, s: int, k: int, dist_from):
    """All satisfying paths start at this anchor: the vertex at each distance
    0..k-2 from it must be unique, those chain edges are forced, and two
    more contractions are guessed exhaustively."""
    chain = []
    for i in range(k - 1):
        layer = [w for w in range(G.n) if dist_from[w] == i]
        if len(layer) != 1:
            return None
        chain.append(layer[0])
    if any(not G.has_edge(a, b) for a, b in zip(chain, chain[1:])):
        return None
    forced = [tuple(sorted((chain[i], chain[i + 1]))) for i in range(k - 2)]
    dec = _brute_force(contract_edges(G, forced), 2, s)
    return tuple(forced) + _lift_edges(G, forced, dec.witness) if dec.yes else None


def _lift_edges(G: Graph, contracted, quotient_edges) -> tuple[Edge, ...]:
    """Map quotient edges back to concrete edges of G (smallest preimage)."""
    vmap = contraction_map(G, contracted)
    lifts = []
    for a, b in quotient_edges:
        pick = min((u, v) for u, v in G.edges()
                   if {vmap[u], vmap[v]} == {a, b})
        lifts.append(pick)
    return tuple(lifts)
