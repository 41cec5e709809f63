"""Recognition of the structured graph classes used by the solvers.

Each recognizer either certifies membership with a structural object the
solvers consume (cotree, strong ordering, dominating pair) or exhibits a
small obstruction (an induced P4, an asteroidal triple).  The two class
recognizers are direct polynomial constructions with no search and no size
cap: the cotree splits vertex masks into components or co-components until
a mask splits neither way, which happens exactly at an induced P4.  Only the
root tries both splits: the parts of a union are connected and those of a
join co-connected, so every other cotree node tests the one split its
parent's kind leaves open.  One such split pass folds any bottom-up value
over the cotree as it finds it (``cotree_fold``, one stack frame per cotree
node), and recognize_cograph is the fold that builds the Cotree itself.
The strong ordering is read off BFS layers and returned only when
verify_ordering accepts it.  Both read an ordering as rank spans
(``_rank_intervals``): ranking the ordered side 1, 2, ..., each vertex of
the other side maps to the (lo, hi) span of its neighborhood.  The ordering
is strong when every span is exactly its neighborhood and any two nested
spans share an end, and an accepted ordering keeps its spans for the
solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .errors import DomainError
from .graph import (Graph, _diametral_pairs, _iter_bits, _layers,
                    _mask_components, complement, is_bipartite, is_connected)


# Cotrees ----------------------------------------------------------------

@dataclass(frozen=True)
class Cotree:
    """Rooted cotree: leaves carry vertex labels, internal nodes are typed
    union or join, have at least two children, and never repeat the type of
    their parent (canonical form)."""

    kind: str  # "leaf" | "union" | "join"
    children: tuple["Cotree", ...] = ()
    vertex: int | None = None

    def fold(self, leaf, node):
        """Bottom-up value of the tree without recursion: ``leaf(vertex)``
        for a leaf, ``node(kind, child_values)`` for an internal node, with
        child values in child order."""
        values: list = []
        stack: list[tuple[Cotree, bool]] = [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if t.kind == "leaf":
                values.append(leaf(t.vertex))
            elif not expanded:
                stack.append((t, True))
                stack.extend((c, False) for c in reversed(t.children))
            else:
                k = len(t.children)
                kids = values[-k:]
                del values[-k:]
                values.append(node(t.kind, kids))
        return values[0]

    def to_graph(self, n: int) -> Graph:
        """Rebuild the graph on n vertices encoded by this cotree (lowest
        common ancestor of two leaves is a join node iff the vertices are
        adjacent)."""
        rows = [0] * n

        def node(kind: str, masks: list[int]) -> int:
            union = reduce(int.__or__, masks)
            if kind == "join":
                for mask in masks:
                    for u in _iter_bits(mask):
                        rows[u] |= union & ~mask
            return union

        self.fold(lambda v: 1 << v, node)
        return Graph(n, tuple(rows))

    def to_text(self) -> str:
        def node(kind: str, kids: list[str]) -> str:
            return "(" + ("U" if kind == "union" else "J") + " " + " ".join(kids) + ")"

        return self.fold(str, node)


def cotree_fold(G: Graph, leaf, node):
    """Bottom-up value of G's canonical cotree, computed while the cotree is
    found, without building it: ``leaf(vertex)`` for a leaf and
    ``node(kind, child_values)`` for a union or join node, with child values
    in child order.  Raises DomainError with the four vertices of an induced
    P4 as its certificate when G is not a cograph.

    Works on vertex masks of G with an explicit stack: a mask whose induced
    subgraph is disconnected is a union over its components, one whose
    complement is disconnected is a join over its co-components, and one
    where both are connected contains an induced P4 (located by direct
    search).  Only the root tries both splits, union first.  A union's parts
    are connected and a join's co-connected, so every other mask is tested
    for the one split its parent's kind leaves open, and a mask that does
    not split that way is the one whose P4 is reported, also in the error
    message.  Children are ordered by their smallest vertex.

    Each split node is one frame on the stack: its kind, an iterator over
    the parts its split found, and its children's values so far.  The top
    frame folds its singleton parts with ``leaf`` at once and stops at the
    next larger part, which is split into a child frame; a frame whose parts
    are used up hands ``node(kind, kids)`` to the frame below.  The bottom
    frame, of kind "", holds the whole vertex mask as its one part.
    """
    if G.n == 0:
        raise DomainError("cograph recognition needs at least one vertex")
    co_rows = complement(G).rows
    stack = [("", iter(((1 << G.n) - 1,)), [])]
    while True:
        parent, parts, kids = stack[-1]
        for mask in parts:
            if mask & (mask - 1):
                break
            kids.append(leaf(mask.bit_length() - 1))
        else:
            if not parent:
                return kids[0]
            stack.pop()
            stack[-1][2].append(node(parent, kids))
            continue
        if parent == "union":
            kind, parts = "join", _mask_components(co_rows, mask)
        else:
            kind, parts = "union", _mask_components(G.rows, mask)
            if not parent and len(parts) == 1:  # the root may be a join
                kind, parts = "join", _mask_components(co_rows, mask)
        if len(parts) == 1:
            a, b, c, d = p4 = find_induced_p4(G, mask)
            raise DomainError(f"graph is not a cograph (induced P4: {a} {b} {c} {d})",
                              certificate=p4)
        stack.append((kind, iter(parts), []))


def recognize_cograph(G: Graph):
    """A canonical cotree for G, or the four vertices of an induced P4: the
    fold of ``cotree_fold`` that builds Cotree nodes."""
    try:
        return cotree_fold(G, lambda v: Cotree("leaf", vertex=v),
                           lambda kind, kids: Cotree(kind, tuple(kids)))
    except DomainError as exc:
        if exc.certificate is None:
            raise
        return exc.certificate


def find_induced_p4(G: Graph, mask: int | None = None):
    """Four vertices of ``mask`` (default: all of G) inducing a path
    a-b-c-d, the first in deterministic scan order, or None when the
    subgraph induced on ``mask`` is a cograph.  The scan order is that of
    the induced subgraph, whose relabelling keeps the vertex order."""
    rows = G.rows
    if mask is None:
        mask = (1 << G.n) - 1
    for b in _iter_bits(mask):
        row_b = rows[b] & mask
        for c in _iter_bits(row_b):
            row_c = rows[c] & mask
            a_cands = row_b & ~row_c & ~(1 << c)
            d_cands = row_c & ~row_b & ~(1 << b)
            for a in _iter_bits(a_cands):
                picks = d_cands & ~rows[a] & ~(1 << a)
                if picks:
                    d = (picks & -picks).bit_length() - 1
                    return (a, b, c, d)
    return None


# Strong orderings -------------------------------------------------------

@dataclass(frozen=True)
class StrongOrdering:
    """Bipartition with a total order on the second side.

    Adjacency property: every first-side neighborhood occupies consecutive
    positions of ``order2``.  Enclosure property: whenever one first-side
    neighborhood contains another, their difference is consecutive too.
    ``spans`` holds the rank spans of the graph the ordering last passed
    verify_ordering on, so that a solver reads them without ranking again;
    it takes no part in comparison or repr.
    """

    side1: tuple[int, ...]
    order2: tuple[int, ...]
    spans: dict[int, tuple[int, int]] | None = field(
        default=None, init=False, compare=False, repr=False)


def _rank_intervals(G: Graph, ordering: StrongOrdering) -> dict[int, tuple[int, int]]:
    """The (lo, hi) rank span of every first-side vertex with a neighbor, in
    ``side1`` order, ranking ``order2`` from 1.  Raises DomainError when the
    sides do not partition the vertex set or are not a bipartition."""
    side1, order2 = ordering.side1, ordering.order2
    if sorted((*side1, *order2)) != list(range(G.n)):
        raise DomainError("ordering sides do not partition the vertex set")
    mask1 = sum(1 << u for u in side1)
    if any(G.rows[u] & mask1 for u in side1) or any(G.rows[v] & ~mask1 for v in order2):
        raise DomainError("ordering sides are not a bipartition")
    rank = {v: i for i, v in enumerate(order2, 1)}
    spans = {}
    for u in side1:
        if G.rows[u]:
            ranks = [rank[v] for v in _iter_bits(G.rows[u])]
            spans[u] = (min(ranks), max(ranks))
    return spans


def verify_ordering(G: Graph, ordering: StrongOrdering) -> bool:
    """The adjacency and enclosure properties, read off the rank spans.

    Adjacency holds when every span is as long as its vertex's degree.  The
    neighborhoods are then the spans, and one contains another exactly when
    the spans nest, [a, b] inside [c, d]; their difference [c, a) and (b, d]
    is consecutive exactly when the two share an end.  So enclosure fails
    exactly when some span starts further left than another and ends
    further right, that is, when sorting the spans by (lo, hi) leaves their
    right ends out of order.  An accepted ordering keeps its spans.
    """
    spans = _rank_intervals(G, ordering)
    if any(hi - lo + 1 != G.degree(u) for u, (lo, hi) in spans.items()):
        return False
    ends = [hi for _, hi in sorted(spans.values())]
    if ends != sorted(ends):
        return False
    object.__setattr__(ordering, "spans", spans)
    return True


def strong_ordering(G: Graph) -> StrongOrdering | None:
    """A verified strong ordering if G is a bipartite permutation graph,
    else None.

    Each component with an edge is ordered by breadth-first layers from an
    end vertex, found by one sweep: layer the component from its smallest
    vertex, then take the minimum-degree vertex of the last layer (lower
    label on ties).  Read a strong ordering as a staircase, in which the
    neighborhood intervals move monotonically along both sides.  From an end
    vertex of a staircase, the layers are consecutive blocks that alternate
    between the sides.  Inside a block the staircase order follows the first
    neighbor in the previous block, and vertices with the same first
    neighbor differ only in how far their interval reaches, so they follow
    degree.  Hence each layer is sorted by (position of its first neighbor
    in the previous layer, degree, label); the even layers form ``side1``
    and the odd layers ``order2``.  Isolated vertices go last in ``order2``.
    A layer that holds an edge shows an odd cycle, and the result is None.

    There is no search and no size cap: a single verify_ordering call on
    the whole graph decides the result, so a returned ordering is always
    valid.  By the layering argument the check fails only off the class;
    the tests confirm this against exhaustive search on every graph with at
    most 7 vertices and against bipartite AT-freeness on larger ones.
    """
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
        end = min(_iter_bits(_layers(G, start)[-1]), key=lambda v: (G.degree(v), v))
        layers = _layers(G, end)
        seen |= reduce(int.__or__, layers)
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
    return ordering if verify_ordering(G, ordering) else None


# AT-freeness and dominating pairs ---------------------------------------

class AvoidingComponents:
    """The components of G - N[w] for every vertex w, indexed for
    whole-int set operations.

    ``comps[w]`` lists the component masks of G - N[w], largest first (so
    most vertices get id 0, which sets no plane bit), and a vertex x outside
    N[w] has component id i when ``comps[w][i]`` holds it.
    The ids are stored as bit planes: bit w of ``planes[j][x]`` is bit j of
    x's id for w (0 when x is in N[w]), so every vertex's ids over all w
    take one int per plane and there are ceil(log2(#components)) planes.
    Two vertices a, b then share a component of G - N[c] exactly for the
    c outside N[a] and N[b] at which no plane of a differs from that of b,
    which ``linking`` computes in O(log n) int operations.
    """

    def __init__(self, G: Graph):
        n = G.n
        self.full = (1 << n) - 1
        self.closed = [row | 1 << v for v, row in enumerate(G.rows)]
        self.comps: list[list[int]] = []
        self.planes: list[list[int]] = []
        for w in range(n):
            comps = sorted(_mask_components(G.rows, self.full & ~self.closed[w]),
                           key=int.bit_count, reverse=True)
            self.comps.append(comps)
            while len(comps) > 1 << len(self.planes):
                self.planes.append([0] * n)
            bit = 1 << w
            for i in range(1, len(comps)):
                for j, plane in enumerate(self.planes):
                    if i >> j & 1:
                        for x in _iter_bits(comps[i]):
                            plane[x] |= bit

    def linking(self, a: int, b: int) -> int:
        """C_ab: the mask of the c for which a and b lie in one component of
        G - N[c]."""
        differ = self.closed[a] | self.closed[b]
        for plane in self.planes:
            differ |= plane[a] ^ plane[b]
        return self.full & ~differ

    def component(self, w: int, x: int) -> int:
        """K_w(x): the mask of x's component in G - N[w], for x outside N[w]."""
        i = 0
        for j, plane in enumerate(self.planes):
            i |= (plane[x] >> w & 1) << j
        return self.comps[w][i]

    def asteroidal_triple(self):
        """The lexicographically first asteroidal triple, or None.

        For non-adjacent a < b, c > b completes an asteroidal triple iff c
        is in C_ab (a, b linked avoiding N[c]), in K_b(a) (a, c linked
        avoiding N[b]) and in K_a(b) (b, c linked avoiding N[a]).
        """
        for a, closed_a in enumerate(self.closed):
            above_a = self.full >> (a + 1) << (a + 1)
            for b in _iter_bits(above_a & ~closed_a):
                cands = self.linking(a, b) >> (b + 1) << (b + 1)
                if cands:
                    cands &= self.component(b, a) & self.component(a, b)
                    if cands:
                        return (a, b, (cands & -cands).bit_length() - 1)
        return None


def is_at_free(G: Graph):
    """True, or the lexicographically first asteroidal triple.

    A triple of pairwise non-adjacent vertices is asteroidal when each pair
    lies in one component of the graph minus the third's closed neighborhood
    (Corneil, Olariu & Stewart 1997).  The test reads this off one
    AvoidingComponents table: for each non-adjacent pair a < b, the lowest
    c > b in C_ab & K_b(a) & K_a(b), so the pairs cost O(n^2 log n) whole-int
    operations after the n component sweeps that build the table.
    """
    return AvoidingComponents(G).asteroidal_triple() or True


def is_dominating_pair(G: Graph, u: int, v: int) -> bool:
    """Does every (u, v)-path dominate the graph?  Equivalently, no third
    vertex z leaves u and v in one component of G minus N[z]: C_uv is empty."""
    return AvoidingComponents(G).linking(u, v) == 0


def diameter_dominating_pair(G: Graph) -> tuple[int, int]:
    """Lexicographically smallest pair at distance diam(G) whose every
    connecting path dominates G.  Exists on connected AT-free graphs.

    The graph's BFS rows give the diametral pairs and one AvoidingComponents
    table decides each of them, (u, v) being dominating iff C_uv is empty."""
    return _dominating_diametral_pair(G, AvoidingComponents(G))[:2]


def _dominating_diametral_pair(G: Graph, table: AvoidingComponents
                               ) -> tuple[int, int, int]:
    """The pair of diameter_dominating_pair as (u, v, d), d = diam(G), given
    G's AvoidingComponents table: the first pair that ``_diametral_pairs``
    yields with C_uv empty."""
    if G.n == 0:
        raise DomainError("a diameter dominating pair needs at least one vertex")
    if not is_connected(G):
        raise DomainError("graph must be connected")
    for u, v, d in _diametral_pairs(G):
        if table.linking(u, v) == 0:
            return u, v, d
    raise DomainError("no diameter dominating pair exists; is the graph AT-free?")


# Simple class predicates -------------------------------------------------

def is_split(G: Graph) -> bool:
    """Degree-sequence characterization of split graphs."""
    degs = sorted((G.degree(v) for v in range(G.n)), reverse=True)
    m = 0
    for i, dv in enumerate(degs, start=1):
        if dv >= i - 1:
            m = i
    lhs = sum(degs[:m])
    rhs = m * (m - 1) + sum(degs[m:])
    return lhs == rhs


def is_cobipartite(G: Graph) -> bool:
    return is_bipartite(complement(G)) is not None


def is_chordal_bipartite(G: Graph) -> bool:
    """Bipartite with no induced cycle of length 6 or more.

    Bisimplicial-edge elimination (Golumbic & Goss, J. Graph Theory 1978):
    an edge uv is bisimplicial when every neighbor of u is adjacent to every
    neighbor of v.  Every chordal bipartite graph with an edge has one, and
    deleting it (the edge only) creates no long induced cycle: such a cycle
    would have uv as its only chord, yet a cycle neighbor of u would also be
    adjacent to both cycle neighbors of v.  No edge of an intact induced
    cycle of length 6 or more is bisimplicial.  So deleting bisimplicial
    edges in any order removes every edge exactly when G is chordal
    bipartite.  Deleting uv can make an edge bisimplicial only if it shares
    u or v, so only those edges are checked again.
    """
    if is_bipartite(G) is None:
        return False
    rows = list(G.rows)
    todo = G.edges()
    while todo:
        u, v = todo.pop()
        nv = rows[v]
        if rows[u] >> v & 1 and all(rows[w] & nv == nv for w in _iter_bits(rows[u])):
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            todo += [(u, w) for w in _iter_bits(rows[u])]
            todo += [(v, w) for w in _iter_bits(rows[v])]
    return not any(rows)
