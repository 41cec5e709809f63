"""Test-support generators and independent brute-force helpers.

Everything here is deliberately separate from the library so that oracle
cross-checks do not share code with the implementations they certify.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterator

from minorclub.errors import CapacityError, DomainError
from minorclub.graph import (Graph, _iter_bits, _mask_component,
                             _mask_connected, contract_edges,
                             diameter_at_most, disjoint_union, is_connected,
                             join)
from minorclub.reductions import HittingSetInstance, NaeFormula

# Canonical forms and isomorph-free enumeration ---------------------------


def refined_colors(G: Graph) -> list[int]:
    colors = [G.degree(v) for v in range(G.n)]
    while True:
        combined = [(colors[v], tuple(sorted(colors[w] for w in G.neighbors(v))))
                    for v in range(G.n)]
        ranks = {c: i for i, c in enumerate(sorted(set(combined)))}
        new = [ranks[combined[v]] for v in range(G.n)]
        if new == colors:
            return colors
        colors = new


def canonical_key(G: Graph) -> tuple[int, int]:
    """Isomorphism-invariant key: minimum edge bitmask over all vertex
    orderings consistent with the refined color classes."""
    n = G.n
    if n == 0:
        return (0, 0)
    colors = refined_colors(G)
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    ordered_cells = [cells[c] for c in sorted(cells)]
    edges = G.edges()
    best = None
    for perm_parts in product(*(permutations(cell) for cell in ordered_cells)):
        pos = {}
        base = 0
        for part in perm_parts:
            for offset, v in enumerate(part):
                pos[v] = base + offset
            base += len(part)
        mask = 0
        for u, v in edges:
            i, j = pos[u], pos[v]
            if i > j:
                i, j = j, i
            mask |= 1 << (i * n + j)
        if best is None or mask < best:
            best = mask
    return (n, best)


def isomorphic(G: Graph, H: Graph) -> bool:
    return canonical_key(G) == canonical_key(H)


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All unlabeled graphs on n vertices (one representative each), built
    by vertex extension with canonical deduplication."""
    if n == 0:
        return (Graph.empty(0),)
    if n == 1:
        return (Graph.empty(1),)
    seen: dict[tuple[int, int], Graph] = {}
    for H in all_graphs(n - 1):
        base_edges = H.edges()
        for nb in range(1 << (n - 1)):
            edges = base_edges + [(w, n - 1) for w in _iter_bits(nb)]
            G = Graph.from_edges(n, edges)
            key = canonical_key(G)
            if key not in seen:
                seen[key] = G
    return tuple(seen[k] for k in sorted(seen))


def connected_graphs(n: int) -> list[Graph]:
    return [G for G in all_graphs(n) if is_connected(G)]


# Random structured families ----------------------------------------------


def random_cograph(leaves: int, rng: random.Random) -> Graph:
    """Graph of a random cotree with the given number of leaves."""

    def build(k: int, kind: str) -> Graph:
        if k == 1:
            return Graph.empty(1)
        parts = []
        remaining = k
        want = rng.randint(2, min(k, 4))
        for i in range(want - 1):
            take = rng.randint(1, remaining - (want - 1 - i))
            parts.append(take)
            remaining -= take
        parts.append(remaining)
        other = "join" if kind == "union" else "union"
        acc = build(parts[0], other)
        for p in parts[1:]:
            child = build(p, other)
            acc = disjoint_union(acc, child) if kind == "union" else join(acc, child)
        return acc

    return build(leaves, rng.choice(["union", "join"]))


def random_bipperm(n: int, rng: random.Random) -> Graph:
    """Monotone interval staircase over one side; always admits a strong
    ordering with the natural orders."""
    n1 = rng.randint(1, n - 1)
    n2 = n - n1
    lo = hi = 1
    edges = []
    for u in range(n1):
        lo = min(rng.randint(lo, n2), n2)
        hi = max(hi, rng.randint(lo, n2))
        edges += [(u, n1 + v - 1) for v in range(lo, hi + 1)]
        if rng.random() < 0.6:
            lo = min(lo + rng.randint(0, 2), n2)
            hi = min(max(hi + rng.randint(0, 2), lo), n2)
    return Graph.from_edges(n, edges)


def random_staircase(n: int, rng: random.Random, dense: bool = False) -> Graph:
    """Monotone interval staircase with its vertices relabelled at random.

    Each of n1 first-side vertices sees an interval of the n2 second-side
    positions, and both interval ends never move left, so the graph is a
    bipartite permutation graph (possibly with several components and
    isolated vertices).  Sparse intervals are at most 3 wide, dense ones up
    to n2/2.
    """
    n1 = rng.randint(1, n - 1)
    n2 = n - n1
    width = max(1, n2 // 2) if dense else 3
    lo = hi = 0
    intervals = []
    for _ in range(n1):
        lo = min(lo + rng.randint(0, 2), n2 - 1)
        hi = min(max(hi, lo + rng.randint(0, width - 1)), n2 - 1)
        intervals.append((lo, hi))
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges(n, [(label[u], label[n1 + v])
                                for u, (a, b) in enumerate(intervals)
                                for v in range(a, b + 1)])


def random_interval_graph(n: int, rng: random.Random, spread: float = 0.8) -> Graph:
    xs = []
    x = 0.0
    for _ in range(n):
        x += rng.random() * spread
        xs.append((x, x + 0.5 + rng.random()))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if xs[i][0] <= xs[j][1] and xs[j][0] <= xs[i][1]]
    return Graph.from_edges(n, edges)


def random_permutation_graph(n: int, rng: random.Random) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if perm[i] > perm[j]]
    return Graph.from_edges(n, edges)


def random_caterpillar(n: int, rng: random.Random) -> Graph:
    spine = rng.randint(max(3, n // 2), n - 1) if n > 3 else n - 1
    edges = [(i, i + 1) for i in range(spine - 1)]
    for extra in range(spine, n):
        edges.append((rng.randrange(spine), extra))
    return Graph.from_edges(n, edges)


def random_chordal(n: int, rng: random.Random, attach_max: int = 4) -> Graph:
    """Grow by attaching each new vertex to a clique of the current graph,
    so the reverse insertion order is a perfect elimination ordering."""
    adj: list[set[int]] = [set()]
    for v in range(1, n):
        anchor = rng.randrange(v)
        clique = {anchor}
        cands = list(adj[anchor])
        rng.shuffle(cands)
        for w in cands:
            if len(clique) >= attach_max:
                break
            if clique <= adj[w] and rng.random() < 0.7:
                clique.add(w)
        adj.append(set(clique))
        for w in clique:
            adj[w].add(v)
    return Graph.from_edges(n, [(min(u, v), max(u, v))
                                for u in range(n) for v in adj[u] if u < v])


def is_chordal_peo(G: Graph) -> bool:
    """Independent chordality test via simplicial elimination."""
    alive = set(range(G.n))
    for _ in range(G.n):
        pick = None
        for v in sorted(alive):
            nb = [w for w in G.neighbors(v) if w in alive]
            if all(G.has_edge(a, b) for a, b in combinations(nb, 2)):
                pick = v
                break
        if pick is None:
            return False
        alive.discard(pick)
    return True


# Independent brute-force routes -------------------------------------------

DEFAULT_CHORDALITY_CAP = 16


def connected_partitions(G: Graph) -> Iterator[list[tuple[int, ...]]]:
    """All partitions of V(G) into blocks inducing connected subgraphs.

    Vertices are assigned in label order (restricted-growth style); a branch
    is abandoned as soon as some block can no longer be reconnected through
    unassigned vertices.
    """
    n = G.n
    if n == 0:
        yield []
        return

    def reconnectable(mask: int, future: int) -> bool:
        return _mask_component(G.rows, mask | future) & mask == mask

    blocks: list[int] = []

    def assign(v: int):
        if v == n:
            if all(_mask_connected(G, b) for b in blocks):
                yield [tuple(_iter_bits(b)) for b in blocks]
            return
        future = ((1 << n) - 1) & ~((1 << (v + 1)) - 1)
        for i in range(len(blocks)):
            blocks[i] |= 1 << v
            if all(reconnectable(b, future) for b in blocks):
                yield from assign(v + 1)
            blocks[i] &= ~(1 << v)
        blocks.append(1 << v)
        yield from assign(v + 1)
        blocks.pop()

    yield from assign(0)


def chordality(G: Graph) -> int:
    """Length of a longest induced cycle; 0 if the graph is acyclic.

    Exponential search over induced paths, for n <= DEFAULT_CHORDALITY_CAP.
    """
    if G.n > DEFAULT_CHORDALITY_CAP:
        raise CapacityError(f"chordality supports at most "
                            f"{DEFAULT_CHORDALITY_CAP} vertices, got {G.n}")
    best = 0
    for s in range(G.n):
        # Search induced cycles whose minimum vertex is s.  A path
        # s, p1, ..., pk is grown keeping it induced; closing back to s is
        # allowed once it has length >= 2.
        start_nbrs = [v for v in _iter_bits(G.rows[s]) if v > s]
        for p1 in start_nbrs:
            stack = [([s, p1], 1 << s | 1 << p1)]
            while stack:
                path, used = stack.pop()
                last = path[-1]
                closing = G.rows[last] >> s & 1 and len(path) >= 3
                if closing and path[1] < path[-1]:
                    best = max(best, len(path))
                if closing:
                    continue  # a chord to s forbids any longer induced cycle
                forbidden = 0
                for w in path[:-1]:
                    if w != s:
                        forbidden |= G.rows[w]
                cand = G.rows[last] & ~used & ~forbidden & ~(1 << s)
                for w in _iter_bits(cand):
                    if w > s:
                        stack.append((path + [w], used | 1 << w))
    return best


def brute_minor_bags(G: Graph) -> int:
    """Maximum number of disjoint connected pairwise-adjacent bags where
    bags need not cover the graph (partial route, vs. the oracle's full
    quotient route)."""
    subsets = []
    for mask in range(1, 1 << G.n):
        if _mask_connected(G, mask):
            nbr = 0
            for v in _iter_bits(mask):
                nbr |= G.rows[v]
            subsets.append((mask, nbr))
    subsets.sort(key=lambda t: (t[0] & -t[0], t[0]))
    best = 0

    def dfs(start: int, used: int, chosen: list[tuple[int, int]]):
        nonlocal best
        best = max(best, len(chosen))
        for i in range(start, len(subsets)):
            mask, nbr = subsets[i]
            if mask & used:
                continue
            if any(nbr & cm == 0 for cm, _ in chosen):
                continue
            chosen.append(subsets[i])
            dfs(i + 1, used | mask, chosen)
            chosen.pop()

    dfs(0, 0, [])
    return best


def complete_after_contractions(G: Graph, k: int) -> bool:
    """Is G k-contractible to a complete graph?  Branches on the first
    non-adjacent pair: one of its vertices must be merged along an incident
    edge.  Equivalent to searching all edge subsets of size <= k."""
    nonedge = next(((a, b) for a in range(G.n) for b in range(a + 1, G.n)
                    if not G.has_edge(a, b)), None)
    if nonedge is None:
        return True
    if k == 0:
        return False
    a, b = nonedge
    for v in (a, b):
        for w in sorted(G.neighbors(v)):
            e = (min(v, w), max(v, w))
            if complete_after_contractions(contract_edges(G, [e]), k - 1):
                return True
    return False


def reference_club_set(G: Graph, s: int, k_max: int):
    """The first smallest edge set of at most k_max edges, in
    ``combinations`` order over ``G.edges()``, whose simultaneous
    contraction has diameter at most s; every subset is tried."""
    if diameter_at_most(G, s):
        return ()
    for k in range(1, min(k_max, G.m) + 1):
        S = reference_first_club_set(G, s, k)
        if S is not None:
            return S
    return None


def reference_first_club_set(G: Graph, s: int, k: int):
    """The first k-subset of ``G.edges()``, in ``combinations`` order, whose
    contraction has diameter at most s, or None; every subset is tried."""
    for S in combinations(G.edges(), k):
        if diameter_at_most(contract_edges(G, S), s):
            return S
    return None


def reference_width_below(rows, best: int) -> bool:
    """Whether eliminating, again and again, the first vertex in label order
    with fewer than ``best`` neighbours left, and making those neighbours a
    clique, eliminates every vertex; every step rescans the vertices left."""
    rows = list(rows)
    left = (1 << len(rows)) - 1
    while left:
        for v in _iter_bits(left):
            nb = rows[v] & left
            if nb.bit_count() < best:
                break
        else:
            return False
        left ^= 1 << v
        for w in _iter_bits(nb):
            rows[w] |= nb ^ 1 << w
    return True


def is_satisfying_path(G: Graph, pair, Q) -> bool:
    """Definition check of conditions i) through iii) for the path Q between
    the pair (u, v, d), d = dist(u, v); the far sets X and Y of u and v are
    read off their BFS rows as the vertices at distance d and d - 1.

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
    u, v, d = pair
    dist = G.dist
    du, dv = dist[u], dist[v]
    base = du[Q[0]]
    if any(du[x] != base + i for i, x in enumerate(Q)):
        return False
    if base + k + dv[Q[-1]] != d:
        return False
    X_u, Y_u, X_v, Y_v = ([z for z, t in enumerate(row) if t == r]
                          for row in (du, dv) for r in (d, d - 1))
    return (_end_conditions_ok(dist[Q[0]], dist[Q[1]], du[Q[0]], X_v, Y_v)
            and _end_conditions_ok(dist[Q[-1]], dist[Q[-2]], dv[Q[-1]],
                                   X_u, Y_u))


def _end_conditions_ok(d0, d1, ref: int, X, Y) -> bool:
    """End conditions at a path end x0 with next vertex x1, given their BFS
    rows d0 and d1: all of X lies at distance ref from x0 and all of Y
    within ref of x0 or x1."""
    if any(d0[z] != ref for z in X):
        return False
    return all(d0[z] <= ref or d1[z] <= ref for z in Y)

def all_matchings(G: Graph):
    edges = G.edges()

    def rec(i, used, cur):
        yield tuple(cur)
        for j in range(i, len(edges)):
            u, v = edges[j]
            if used & (1 << u) or used & (1 << v):
                continue
            cur.append(edges[j])
            yield from rec(j + 1, used | 1 << u | 1 << v, cur)
            cur.pop()

    yield from rec(0, 0, [])


def reference_is_clique_matching(G: Graph, edges) -> bool:
    """Disjoint edges of G such that every pair has adjacent end-vertices,
    checked pair by pair.  Expects pairs of vertices of G."""
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


def reference_verify_ordering(G: Graph, ordering) -> bool:
    """Direct definition check of the adjacency and enclosure properties on
    neighborhood sets, raising the DomainErrors of verify_ordering."""
    side1 = list(ordering.side1)
    order2 = list(ordering.order2)
    if sorted(side1 + order2) != list(range(G.n)):
        raise DomainError("ordering sides do not partition the vertex set")
    for side in (side1, order2):
        sset = set(side)
        for u in side:
            if any(v in sset for v in G.neighbors(u)):
                raise DomainError("ordering sides are not a bipartition")
    pos = {v: i for i, v in enumerate(order2)}
    nbrs = {u: sorted(pos[v] for v in G.neighbors(u)) for u in side1}
    for u in side1:
        ps = nbrs[u]
        if ps and ps[-1] - ps[0] + 1 != len(ps):
            return False
    for u in side1:
        for v in side1:
            if u == v:
                continue
            su, sv = set(nbrs[u]), set(nbrs[v])
            if su <= sv:
                diff = sorted(sv - su)
                if diff and diff[-1] - diff[0] + 1 != len(diff):
                    return False
    return True


def reference_strong_ordering(G: Graph):
    """strong_ordering's layer-by-layer construction with each layer sorted
    on its own: (smallest position of a neighbor in the previous layer,
    degree, label) per vertex, an odd cycle checked over the whole layer,
    and None unless the set-definition check passes; spans ranked from a
    dict, in side1 order."""
    from minorclub.recognition import StrongOrdering

    def layers_from(source: int) -> list[int]:
        layers, seen = [1 << source], 1 << source
        while layers[-1]:
            grown = 0
            for v in _iter_bits(layers[-1]):
                grown |= G.rows[v]
            layers.append(grown & ~seen)
            seen |= grown
        return layers[:-1]

    side1: list[int] = []
    order2: list[int] = []
    isolated: list[int] = []
    seen = 0
    for start in range(G.n):
        if seen >> start & 1:
            continue
        if not G.rows[start]:
            isolated.append(start)
            continue
        end = min(_iter_bits(layers_from(start)[-1]), key=lambda v: (G.degree(v), v))
        layers = layers_from(end)
        for mask in layers:
            seen |= mask
        pos = {end: 0}
        side1.append(end)
        for depth in range(1, len(layers)):
            prev, here = layers[depth - 1], layers[depth]
            if any(G.rows[v] & here for v in _iter_bits(here)):
                return None
            layer = sorted(_iter_bits(here), key=lambda v: (
                min(pos[w] for w in _iter_bits(G.rows[v] & prev)), G.degree(v), v))
            pos.update((v, i) for i, v in enumerate(layer))
            (order2 if depth % 2 else side1).extend(layer)
    ordering = StrongOrdering(tuple(side1), tuple(order2 + isolated))
    if not reference_verify_ordering(G, ordering):
        return None
    rank = {v: i for i, v in enumerate(ordering.order2, 1)}
    spans = {u: (min(rank[v] for v in G.neighbors(u)),
                 max(rank[v] for v in G.neighbors(u)))
             for u in ordering.side1 if G.degree(u)}
    return StrongOrdering(ordering.side1, ordering.order2, spans)


def maximum_clique_matchings(G: Graph):
    """All maximum clique-matchings, by exhaustive matching enumeration."""
    best = 0
    out = []
    for M in all_matchings(G):
        if not reference_is_clique_matching(G, M):
            continue
        if len(M) > best:
            best = len(M)
            out = [M]
        elif len(M) == best:
            out.append(M)
    return best, out


def ordering_exists_exhaustive(G: Graph) -> bool:
    """Does some bipartition-plus-order satisfy both ordering properties?
    Tries every order of the smaller side; independent of the constructor."""
    from minorclub.graph import is_bipartite
    from minorclub.recognition import StrongOrdering

    bip = is_bipartite(G)
    if bip is None:
        return False
    for v1, v2 in ((bip[0], bip[1]), (bip[1], bip[0])):
        if len(v2) > 8:
            continue
        for perm in permutations(v2):
            if reference_verify_ordering(G, StrongOrdering(tuple(v1), tuple(perm))):
                return True
    return False


def restrict_ordering(ordering, keep):
    """The ordering a strong ordering induces on the subgraph over ``keep``,
    in induced_subgraph's labels (``keep`` renumbered in sorted order)."""
    from minorclub.recognition import StrongOrdering

    pos = {v: i for i, v in enumerate(sorted(set(keep)))}
    return StrongOrdering(tuple(pos[v] for v in ordering.side1 if v in pos),
                          tuple(pos[v] for v in ordering.order2 if v in pos))


def induced_p4_exists(G: Graph) -> bool:
    for quad in combinations(range(G.n), 4):
        H = [[G.has_edge(a, b) for b in quad] for a in quad]
        degs = sorted(sum(row) for row in H)
        if degs == [1, 1, 2, 2] and is_connected(Graph.from_edges(
                4, [(i, j) for i in range(4) for j in range(i + 1, 4)
                    if H[i][j]])):
            return True
    return False


# Source-problem solvers for the hardness reductions -----------------------

SOLVER_CAP = 20


def nae3sat_solve(phi: NaeFormula):
    """First assignment (as a bool tuple) giving every clause at least one
    true and one false literal, else None.  Exhaustive, n <= SOLVER_CAP."""
    if phi.n > SOLVER_CAP:
        raise CapacityError(f"solver capped at {SOLVER_CAP} variables")
    for bits in range(1 << phi.n):
        assign = [(bits >> i) & 1 == 1 for i in range(phi.n)]
        ok = True
        for clause in phi.clauses:
            vals = [assign[abs(l) - 1] == (l > 0) for l in clause]
            if all(vals) or not any(vals):
                ok = False
                break
        if ok:
            return tuple(assign)
    return None


def hitting_set_solve(inst: HittingSetInstance):
    """Smallest hitting set within the budget, else None.  Exhaustive,
    n <= SOLVER_CAP."""
    if inst.n > SOLVER_CAP:
        raise CapacityError(f"solver capped at {SOLVER_CAP} universe elements")
    for size in range(0, inst.k + 1):
        for U in combinations(range(inst.n), size):
            chosen = set(U)
            if all(chosen & S for S in inst.sets):
                return tuple(U)
    return None
