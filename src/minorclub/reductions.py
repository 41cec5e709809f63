"""Generators for the hard-instance constructions.

Constructions: not-all-equal 3-SAT to clique contraction on a co-bipartite
graph; hitting set to diameter-2 contraction on a split graph and to
diameter-3 contraction on a chordal graph; the pendant lift raising the
diameter target by two; and the one-subdivision making any graph bipartite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .graph import Graph, _iter_bits
from .recognition import is_cobipartite, is_split
from .witness import certify

@dataclass(frozen=True)
class NaeFormula:
    """3-CNF formula for the not-all-equal interpretation.

    Clauses are triples of nonzero signed 1-based variable indexes, DIMACS
    style: literal 3 is variable 3 positive, -3 its negation.
    """

    n: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if len(clause) != 3:
                raise DomainError("clauses must have exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n:
                    raise DomainError(f"literal {lit} out of range")

    @property
    def m(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class HittingSetInstance:
    """Universe 0..n-1, family of nonempty subsets, and a budget k."""

    n: int
    sets: tuple[frozenset[int], ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(S) for S in self.sets))
        for S in self.sets:
            if not S:
                raise DomainError("sets must be nonempty")
            if any(not 0 <= x < self.n for x in S):
                raise DomainError("set element outside the universe")
        if self.k < 0:
            raise DomainError("hitting-set budget k must be non-negative")


@dataclass(frozen=True)
class ReductionInstance:
    """A generated hard instance: the graph, the contraction budget, a
    human-readable target, and role labels for every constructed vertex."""

    graph: Graph
    k: int
    target: str
    labels: dict[str, int]


def _add_vertex(rows: list[int], labels: dict[str, int], label: str, nbrs: int) -> int:
    """Append a vertex named ``label`` adjacent to the earlier vertices in
    the mask ``nbrs``; returns its number."""
    v = len(rows)
    for w in _iter_bits(nbrs):
        rows[w] |= 1 << v
    rows.append(nbrs)
    labels[label] = v
    return v


def nae3sat_to_cobipartite(phi: NaeFormula) -> ReductionInstance:
    """Build the co-bipartite graph that is (2n-2)-contractible to a
    complete graph exactly when the formula has a not-all-equal assignment.

    Two adjacent literal vertices per variable form the clique X; each
    clause contributes 4n-3 copies adjacent to its literals, each variable
    4n-3 dummies adjacent to its two literals, and everything outside X is
    completed to a clique.
    """
    n, m = phi.n, phi.m
    if n < 1:
        raise DomainError("formula needs at least one variable")
    copies = 4 * n - 3
    N = copies * (n + m)
    block = (1 << copies) - 1
    X = (1 << 2 * n) - 1  # literal +i is vertex 2i - 2, literal -i is 2i - 1
    rest = ((1 << N) - 1) << 2 * n  # the clause copies and dummies, a clique
    rows = [X & ~(1 << v) for v in range(2 * n)]
    labels = {f"literal:{sign}{i}": 2 * i - 2 + (sign == "-")
              for i in range(1, n + 1) for sign in "+-"}
    groups = []  # (label prefix, literal mask) of each block of copies
    for j, clause in enumerate(phi.clauses):
        lits = 0
        for lit in clause:
            lits |= 1 << (2 * abs(lit) - 2 + (lit < 0))
        groups.append((f"clause:{j}", lits))
    groups += ((f"dummy:{i}", 3 << (2 * i - 2)) for i in range(1, n + 1))
    for name, lits in groups:
        start = len(rows)
        for v in _iter_bits(lits):
            rows[v] |= block << start
        rows += ((rest | lits) & ~(1 << w) for w in range(start, start + copies))
        labels.update((f"{name}:{p}", start + p) for p in range(copies))
    G = Graph(len(rows), tuple(rows))
    certify(is_cobipartite(G) and N == G.n - 2 * n,
            "NAE-3SAT reduction graph is not co-bipartite on 2n + N vertices")
    return ReductionInstance(G, 2 * n - 2, f"complete graph on {N + 2} vertices", labels)


def hitting_set_to_split(inst: HittingSetInstance) -> ReductionInstance:
    """Split graph that is k-contractible to diameter 2 exactly when the
    instance has a hitting set of size at most k.

    The universe becomes a clique, each set gets 2k+1 copy vertices adjacent
    to its members, a hub x sees the whole universe, and 2k+1 pendants hang
    off the hub."""
    G, labels = _hitting_core(inst)
    certify(is_split(G), "hitting-set reduction graph is not split")
    return ReductionInstance(G, inst.k, "diameter at most 2", labels)


def hitting_set_to_chordal(inst: HittingSetInstance) -> ReductionInstance:
    """Chordal variant for diameter 3: the pendants are pushed one level
    down behind a clique of 2k+1 middle vertices."""
    G, labels = _hitting_core(inst, chordal_variant=True)
    certify(_is_chordal(G), "hitting-set reduction graph is not chordal")
    return ReductionInstance(G, inst.k, "diameter at most 3", labels)


def _hitting_core(inst: HittingSetInstance, chordal_variant: bool = False):
    copies = 2 * inst.k + 1
    rows: list[int] = []
    labels: dict[str, int] = {}
    for i in range(inst.n):
        _add_vertex(rows, labels, f"universe:{i}", (1 << i) - 1)
    for j, S in enumerate(inst.sets):
        members = sum(1 << i for i in S)
        for p in range(copies):
            _add_vertex(rows, labels, f"set:{j}:{p}", members)
    hub = _add_vertex(rows, labels, "hub", (1 << inst.n) - 1)
    if not chordal_variant:
        for p in range(copies):
            _add_vertex(rows, labels, f"pendant:{p}", 1 << hub)
    else:
        mids = 1 << hub  # the middle vertices and the hub form a clique
        for p in range(copies):
            mids |= 1 << _add_vertex(rows, labels, f"mid:{p}", mids)
        for p in range(copies):
            _add_vertex(rows, labels, f"pendant:{p}", 1 << (hub + 1 + p))
    return Graph(len(rows), tuple(rows)), labels


def _is_chordal(G: Graph) -> bool:
    """Simplicial elimination from a worklist: deleting a vertex can make
    only its neighbours simplicial, so only they are checked again."""
    rows = G.rows
    alive = (1 << G.n) - 1
    work = list(range(G.n))
    while work:
        v = work.pop()
        nb = rows[v] & alive
        if alive >> v & 1 and all(nb & ~rows[a] == 1 << a for a in _iter_bits(nb)):
            alive &= ~(1 << v)
            work += _iter_bits(nb)
    return not alive


def pendant_lift(G: Graph, k: int) -> Graph:
    """Attach k+1 new degree-one vertices to every vertex; n(k+2) vertices
    total, chordality unchanged."""
    if k < 0:
        raise DomainError("lift size k must be non-negative")
    edges = list(G.edges())
    nv = G.n
    for v in range(G.n):
        for _ in range(k + 1):
            edges.append((v, nv))
            nv += 1
    return Graph.from_edges(nv, edges)


def subdivide_edges(G: Graph) -> Graph:
    """Replace every edge by a length-2 path; the result is bipartite on
    n + m vertices."""
    edges = []
    nv = G.n
    for u, v in G.edges():
        edges.append((u, nv))
        edges.append((v, nv))
        nv += 1
    return Graph.from_edges(nv, edges)
