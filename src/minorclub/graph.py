"""Simple undirected graphs on vertices 0..n-1 with bitset adjacency rows.

Every algorithm in this library works on small dense graphs, so adjacency is
stored as one Python int per vertex (bit v of ``rows[u]`` set iff uv is an
edge).  Graphs are immutable; all operations return fresh graphs.

So BFS distances are a memo on the graph that every reader shares:
``G.dist[u]`` computes u's BFS row on first use and keeps it.  The memo holds
the adjacency rows, not the graph, so it makes no reference cycle, and a
graph whose distances are never read allocates nothing.

Every relabelled quotient comes from one step, ``_contract_step``, which
contracts one edge by O(n) row shifts and moves each vertex's label along;
``contract_edges`` folds it over S and the club subset walk takes it per
edge.  The diameter re-checks read ``_merged_rows`` instead, which merges
each bag into its lowest vertex without relabelling: distances need no
labels, and a long contracted path costs one merge per bag, not O(n) row
shifts per edge.

Every breadth-first walk over the rows but ``_bfs`` grows its set one
frontier at a time through ``_grow``, where the frontier switch lives: the
balls of ``diameter_at_most`` and of the path scan, ``_mask_component`` and
``_layers``.  ``_bfs`` keeps its own loop, which writes each distance as it
passes: distance rows built from ``_layers`` made the AT-free plan's passes
25-30% slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DomainError

Edge = tuple[int, int]


def _iter_bits(x: int) -> Iterator[int]:
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    Invariants: no loops, no parallel edges, symmetric adjacency, vertex
    labels are exactly 0..n-1.
    """

    n: int
    rows: tuple[int, ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[Edge]) -> "Graph":
        if n < 0:
            raise DomainError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph.from_edges(n, [])

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise DomainError("a cycle needs at least 3 vertices")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def complete_bipartite(a: int, b: int) -> "Graph":
        return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, u: int) -> Iterator[int]:
        return _iter_bits(self.rows[u])

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def edges(self) -> list[Edge]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            for v in _iter_bits(row):
                out.append((u, v))
        return out

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    @cached_property
    def dist(self) -> "_BFSRows":
        """BFS rows by source vertex (-1 marks unreachable), each computed on
        first read and kept; callers must not mutate a row."""
        return _BFSRows(self.rows)


class _BFSRows(dict):
    """BFS rows over adjacency ``rows`` by vertex, computed on first use."""

    def __init__(self, rows: tuple[int, ...]):
        super().__init__()
        self.rows = rows

    def __missing__(self, x: int) -> list[int]:
        row = self[x] = _bfs(self.rows, x)
        return row


def complement(G: Graph) -> Graph:
    full = (1 << G.n) - 1
    return Graph(G.n, tuple((full ^ r) & ~(1 << v) for v, r in enumerate(G.rows)))


def disjoint_union(G1: Graph, G2: Graph) -> Graph:
    """Disjoint union; G2's labels are shifted up by G1.n."""
    rows = list(G1.rows) + [r << G1.n for r in G2.rows]
    return Graph(G1.n + G2.n, tuple(rows))


def join(G1: Graph, G2: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    n1, n2 = G1.n, G2.n
    mask1 = (1 << n1) - 1
    mask2 = ((1 << n2) - 1) << n1
    rows = [r | mask2 for r in G1.rows] + [(r << n1) | mask1 for r in G2.rows]
    return Graph(n1 + n2, tuple(rows))


def induced_subgraph(G: Graph, U: Iterable[int]) -> Graph:
    """Subgraph induced by U, relabeled 0..|U|-1 in increasing label order."""
    keep = sorted(set(U))
    for u in keep:
        if not 0 <= u < G.n:
            raise DomainError(f"vertex {u} not in graph of order {G.n}")
    pos = {u: i for i, u in enumerate(keep)}
    rows = [0] * len(keep)
    for u in keep:
        for v in _iter_bits(G.rows[u]):
            if v in pos:
                rows[pos[u]] |= 1 << pos[v]
    return Graph(len(keep), tuple(rows))


def _bfs(rows: Sequence[int], source: int) -> list[int]:
    """Hop distances from source over adjacency ``rows``; -1 if unreachable."""
    dist = [-1] * len(rows)
    seen = frontier = 1 << source
    d = 0
    while frontier:
        reach = 0
        for u in _iter_bits(frontier):
            dist[u] = d
            reach |= rows[u]
        frontier = reach & ~seen
        seen |= frontier
        d += 1
    return dist


def _grow(rows: Sequence[int], frontier: int, missing: int) -> int:
    """The vertices of ``missing`` with a neighbour on ``frontier``, over
    the symmetric adjacency ``rows``.  When fewer vertices are missing than
    on the frontier it tests the missing ones' rows, so a hub's ball or
    component does not cost a pass over the graph; otherwise it ORs the
    frontier's rows."""
    reach = 0
    if missing.bit_count() < frontier.bit_count():
        for w in _iter_bits(missing):
            if rows[w] & frontier:
                reach |= 1 << w
        return reach
    for u in _iter_bits(frontier):
        reach |= rows[u]
    return reach & missing


def _layers(G: Graph, source: int) -> list[int]:
    """Breadth-first layers from source as vertex masks: layer t holds the
    vertices at distance t."""
    layers = []
    frontier = 1 << source
    missing = ((1 << G.n) - 1) ^ frontier
    while frontier:
        layers.append(frontier)
        frontier = _grow(G.rows, frontier, missing)
        missing ^= frontier
    return layers


def diameter(G: Graph) -> int | float:
    """Largest hop distance over all vertex pairs; inf iff disconnected (n >= 2)."""
    dist = all_pairs_distances(G)
    if any(-1 in row for row in dist):
        return math.inf
    return max(map(max, dist), default=0)


def _diametral_pairs(G: Graph) -> Iterator[tuple[int, int, int]]:
    """The pairs u <= v at distance d = diam(G), as (u, v, d) in lexicographic
    order: (0, 0, 0) on one vertex, none when G is empty or disconnected.  The
    first is (lowest vertex of eccentricity d, lowest vertex at distance d
    from it): no lower vertex reaches distance d."""
    d = diameter(G)
    if d == math.inf:
        return
    for u, row in enumerate(all_pairs_distances(G)):
        if d in row:
            yield from ((u, v, d) for v in range(u, G.n) if row[v] == d)


def diameter_at_most(G: Graph, s: int, S: Iterable[Edge] = ()) -> bool:
    """diameter(contract_edges(G, S)) <= s; DomainError when a pair of S is
    not an edge.  The quotient is not built: ``_merged_rows`` merges each
    bag into its lowest vertex without relabelling, which leaves every
    distance as it is.  The radius-s ball of each vertex left is grown as a
    bitset from its row by ``_grow``, stopping at the first ball that
    misses one.  A vertex whose ball is full by radius s - 1 is a hub, and
    the ball of a vertex next to a hub is full by radius s, so it is not
    grown; the bag of a contracted path is often a hub."""
    rows, alive = _merged_rows(G, S) if S else (G.rows, (1 << G.n) - 1)
    if s <= 0:
        return s == 0 and not alive & (alive - 1)
    hubs = 0
    for v in _iter_bits(alive):
        frontier = rows[v]
        ball = frontier | 1 << v
        if ball & hubs:
            continue
        for _ in range(s - 1):
            if ball == alive:
                hubs |= 1 << v
                break
            frontier = _grow(rows, frontier, alive & ~ball)
            ball |= frontier
            if not frontier:
                break
        if ball != alive:
            return False
    return True


def _merged_rows(G: Graph, S: Iterable[Edge]) -> tuple[Sequence[int], int]:
    """(rows, alive): G's adjacency rows with each component of the spanning
    subgraph (V, S) merged into its lowest vertex, and the mask of the
    vertices left, those lowest ones and every vertex S does not touch.
    Rows of merged-away vertices are stale, and no row left names them."""
    srows = [0] * G.n
    touched = 0
    for u, v in S:
        _check_edge(G, u, v)
        srows[u] |= 1 << v
        srows[v] |= 1 << u
        touched |= 1 << u | 1 << v
    alive = (1 << G.n) - 1
    rows = list(G.rows)
    for bag in _mask_components(srows, touched):
        low = bag & -bag
        rest = bag ^ low
        alive ^= rest
        far = 0
        for b in _iter_bits(rest):
            far |= rows[b]
        root = low.bit_length() - 1
        rows[root] = (rows[root] | far) & ~bag
        for w in _iter_bits(far & ~bag):
            rows[w] = rows[w] & ~rest | low
    return rows, alive


def _mask_component(rows: Sequence[int], mask: int) -> int:
    """Connected component, as a bitmask, of the lowest vertex of ``mask`` in
    the subgraph that the adjacency ``rows`` induce on ``mask`` (0 if empty).
    The first step reads the lowest vertex's row alone, so a vertex with no
    neighbour in ``mask`` is returned at once.  Each later step is one
    ``_grow``, and it stops as soon as nothing in ``mask`` is missing."""
    if not mask:
        return 0
    low = mask & -mask
    missing = mask ^ low
    frontier = rows[low.bit_length() - 1] & missing
    if not frontier:
        return low
    comp = low | frontier
    missing ^= frontier
    while frontier and missing:
        frontier = _grow(rows, frontier, missing)
        comp |= frontier
        missing ^= frontier
    return comp


def _mask_components(rows: Sequence[int], mask: int) -> list[int]:
    """Connected components of the subgraph that the adjacency ``rows``
    induce on ``mask``, as bitmasks ordered by minimum vertex."""
    comps = []
    while mask:
        comp = _mask_component(rows, mask)
        comps.append(comp)
        mask ^= comp
    return comps


def components(G: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by minimum vertex."""
    return [list(_iter_bits(c)) for c in _mask_components(G.rows, (1 << G.n) - 1)]


def is_connected(G: Graph) -> bool:
    """Is G connected?  The graph with no vertex counts as connected."""
    return _mask_connected(G, (1 << G.n) - 1)


def _mask_connected(G: Graph, mask: int) -> bool:
    """Is the subgraph induced by the vertex bitmask connected?"""
    return _mask_component(G.rows, mask) == mask


def _check_edge(G: Graph, u: int, v: int) -> None:
    if not (0 <= u < G.n and 0 <= v < G.n and G.rows[u] >> v & 1):
        raise DomainError(f"({u},{v}) is not an edge of the graph")


def contract_edges(G: Graph, S: Iterable[Edge]) -> Graph:
    """Contract every edge in S simultaneously.

    The result is the quotient of G by the connected components of the
    spanning subgraph (V, S); it is independent of any contraction order.
    Each component keeps the smallest label among its members, and labels are
    then compressed to 0..n'-1 preserving order.
    """
    return _quotient(G, S)[0]


def contraction_map(G: Graph, S: Iterable[Edge]) -> list[int]:
    """For each original vertex, the label of its bag in contract_edges(G, S)."""
    return _quotient(G, S)[1]


def _quotient(G: Graph, S: Iterable[Edge]) -> tuple[Graph, list[int]]:
    """``_contract_step`` folded over S from G's rows and the identity
    labels.  Each step merges two bags, keeps the smaller one's label and
    leaves the bags ordered by smallest member, so the result does not
    depend on the order of S."""
    rows, label = G.rows, list(range(G.n))
    for u, v in S:
        _check_edge(G, u, v)
        rows, label = _contract_step(rows, label, u, v)
    return Graph(len(rows), rows), label


def _contract_step(rows: tuple[int, ...], label: list[int], u: int,
                   v: int) -> tuple[tuple[int, ...], list[int]]:
    """(rows, label) after contracting the quotient vertices label[u] and
    label[v] of the original vertices u and v by ``_contract_rows``, where
    label[x] is the quotient vertex that holds x; the inputs themselves
    when u and v already share a bag."""
    a, b = label[u], label[v]
    if a == b:
        return rows, label
    if a > b:
        a, b = b, a
    return (_contract_rows(rows, a, b),
            [a if x == b else x - (x > b) for x in label])


def _contract_rows(rows: Sequence[int], i: int, j: int) -> tuple[int, ...]:
    """Adjacency rows after contracting the edge ij, i < j: j merges into i,
    every row that had bit j gains bit i, the loop bit is cleared, and every
    label above j moves down by one, all in O(n) int operations.  So the
    merged vertex keeps the smaller label, and the others keep their order."""
    low = (1 << j) - 1
    out = [(x | (x >> j & 1) << i) & low | x >> (j + 1) << j for x in rows]
    out[i] = (out[i] | out[j]) & ~(1 << i)
    del out[j]
    return tuple(out)


def max_clique(G: Graph) -> tuple[int, list[int]]:
    """Maximum clique size and its lexicographically smallest witness.

    Branch and bound over candidate masks: ``grow`` first takes the lowest
    candidate v into the clique, recursing on v's candidate neighbours, then
    drops v and loops on the rest, until the chosen vertices and the
    candidates left cannot beat the best clique so far.  So the recursion is
    as deep as the clique, not as the graph."""
    best = 0
    best_set: list[int] = []

    def grow(chosen: list[int], cand: int):
        nonlocal best, best_set
        while len(chosen) + cand.bit_count() > best:
            if cand == 0:
                best = len(chosen)
                best_set = list(chosen)
                return
            v = (cand & -cand).bit_length() - 1
            grow(chosen + [v], cand & G.rows[v])
            cand ^= 1 << v

    grow([], (1 << G.n) - 1)
    return best, best_set


def is_bipartite(G: Graph) -> tuple[list[int], list[int]] | None:
    """A bipartition (sides sorted, first side holds the smaller-labelled
    vertex of each component) if G is bipartite, else None.  Isolated
    vertices are placed in the second side.

    Each component is layered breadth-first from its smallest vertex; the
    even layers go to the first side and the odd layers to the second, and
    G is bipartite iff no layer holds an edge."""
    sides = [0, 0]
    for start in range(G.n):
        if (sides[0] | sides[1]) >> start & 1:
            continue
        if not G.rows[start]:
            sides[1] |= 1 << start
            continue
        for depth, layer in enumerate(_layers(G, start)):
            if any(G.rows[u] & layer for u in _iter_bits(layer)):
                return None
            sides[depth % 2] |= layer
    return list(_iter_bits(sides[0])), list(_iter_bits(sides[1]))


def shortest_path(G: Graph, u: int, v: int) -> list[int] | None:
    """A lexicographically smallest shortest (u, v)-path, or None: back from
    v through the breadth-first layers from u, taking the lowest neighbour in
    each previous layer."""
    layers = _layers(G, u)
    depth = next((t for t, layer in enumerate(layers) if layer >> v & 1), None)
    if depth is None:
        return None
    path = [v]
    for layer in reversed(layers[:depth]):
        back = G.rows[path[-1]] & layer
        path.append((back & -back).bit_length() - 1)
    return path[::-1]


def all_pairs_distances(G: Graph) -> list[list[int]]:
    """BFS distance matrix with -1 for unreachable pairs; its rows are G.dist's."""
    return [G.dist[u] for u in range(G.n)]
