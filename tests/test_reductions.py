from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from minorclub.errors import DomainError
from minorclub.graph import Graph, induced_subgraph, is_bipartite
from minorclub.oracle import min_club_contraction_oracle
from minorclub.reductions import (HittingSetInstance, NaeFormula, _is_chordal,
                                  hitting_set_to_chordal, hitting_set_to_split,
                                  nae3sat_to_cobipartite, pendant_lift,
                                  subdivide_edges)

from genutil import (all_graphs, chordality, complete_after_contractions,
                     hitting_set_solve, is_chordal_peo, nae3sat_solve,
                     random_chordal)


def _nx_graph(nx, G: Graph):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


def test_pendant_lift_adds_k_plus_one_leaves_per_vertex_and_keeps_chordality():
    graphs = [G for n in range(1, 6) for G in all_graphs(n)]
    rng = random.Random(31)
    graphs += [Graph.cycle(6), random_chordal(6, rng)]
    for G in graphs:
        for k in range(3):
            if G.n * (k + 2) > 16:
                continue
            H = pendant_lift(G, k)
            assert H.n == G.n * (k + 2)
            assert H.m == G.m + G.n * (k + 1)
            assert induced_subgraph(H, range(G.n)) == G
            assert all(H.degree(v) == 1 for v in range(G.n, H.n))
            assert all(H.degree(v) == G.degree(v) + k + 1 for v in range(G.n))
            assert chordality(H) == chordality(G), (G.edges(), k)


def test_subdivide_edges_is_bipartite_on_n_plus_m_vertices():
    rng = random.Random(32)
    graphs = [G for n in range(1, 6) for G in all_graphs(n)]
    graphs += [Graph.complete(7), random_chordal(12, rng)]
    for G in graphs:
        H = subdivide_edges(G)
        assert H.n == G.n + G.m and H.m == 2 * G.m
        assert is_bipartite(H) is not None
        for i, (u, v) in enumerate(G.edges()):
            assert set(H.neighbors(G.n + i)) == {u, v}
        assert induced_subgraph(H, range(G.n)).m == 0


def test_reduction_graphs_lie_in_their_classes():
    # networkx is the independent oracle: a split graph is a chordal graph
    # with a chordal complement (Foldes & Hammer 1977).
    nx = pytest.importorskip("networkx")

    rng = random.Random(33)
    for _ in range(100):
        n = rng.randint(3, 4)
        clauses = tuple(tuple(rng.choice((1, -1)) * v
                              for v in rng.sample(range(1, n + 1), 3))
                        for _ in range(rng.randint(1, 3)))
        H = _nx_graph(nx, nae3sat_to_cobipartite(NaeFormula(n, clauses)).graph)
        assert nx.is_bipartite(nx.complement(H)), clauses
        u = rng.randint(1, 6)
        hs = HittingSetInstance(
            u, tuple(rng.sample(range(u), rng.randint(1, u))
                     for _ in range(rng.randint(1, 4))), rng.randint(0, 3))
        H = _nx_graph(nx, hitting_set_to_split(hs).graph)
        assert nx.is_chordal(H) and nx.is_chordal(nx.complement(H)), hs
        assert nx.is_chordal(_nx_graph(nx, hitting_set_to_chordal(hs).graph)), hs


def test_hitting_set_reductions_preserve_the_answer():
    # Four seeded set systems per (universe size, set count, budget): a
    # hitting set of size <= k exists iff k contractions reach the target
    # diameter, on the split graph for s = 2 and the chordal graph for s = 3.
    rng = random.Random(34)
    for n, nsets, k in product(range(1, 6), range(1, 4), range(4)):
        for _ in range(4):
            inst = HittingSetInstance(
                n, tuple(rng.sample(range(n), rng.randint(1, n))
                         for _ in range(nsets)), k)
            want = hitting_set_solve(inst) is not None
            for build, s in ((hitting_set_to_split, 2), (hitting_set_to_chordal, 3)):
                got = min_club_contraction_oracle(build(inst).graph, s, k)
                assert (got is not None) == want, (inst, s)


def test_nae_reduction_preserves_the_answer():
    # Every formula over 2 variables with one or two clauses, each a sorted
    # triple of literals with repetition: 20 + 210 formulas.  k contractions
    # make the co-bipartite graph complete iff the formula is NAE-satisfiable.
    triples = list(combinations_with_replacement((-2, -1, 1, 2), 3))
    formulas = [(c,) for c in triples] + list(combinations_with_replacement(triples, 2))
    assert len(formulas) == 230
    satisfiable = 0
    for clauses in formulas:
        phi = NaeFormula(2, clauses)
        inst = nae3sat_to_cobipartite(phi)
        want = nae3sat_solve(phi) is not None
        assert complete_after_contractions(inst.graph, inst.k) == want, clauses
        satisfiable += want
    assert satisfiable == 136


def test_source_instances_reject_malformed_input():
    for clauses, message in ((((1, 2),), "exactly 3 literals"),
                             (((1, 0, 2),), "literal 0 out of range"),
                             (((1, 3, 2),), "literal 3 out of range")):
        with pytest.raises(DomainError, match=message):
            NaeFormula(2, clauses)
    with pytest.raises(DomainError, match="at least one variable"):
        nae3sat_to_cobipartite(NaeFormula(0, ()))
    for sets, message in ((({0}, set()), "nonempty"),
                          (({0, 4},), "outside the universe")):
        with pytest.raises(DomainError, match=message):
            HittingSetInstance(4, sets, 1)


def _reference_nae_graph(phi: NaeFormula):
    """The NAE-3SAT reduction graph and role labels built one vertex at a
    time, each new vertex adjacent to a mask of the earlier ones."""
    n = phi.n
    copies = 4 * n - 3
    rows: list[int] = []
    labels: dict[str, int] = {}

    def add(label: str, nbrs: int) -> int:
        v = len(rows)
        for w in range(v):
            if nbrs >> w & 1:
                rows[w] |= 1 << v
        rows.append(nbrs)
        labels[label] = v
        return v

    for i in range(1, n + 1):
        for sign in "+-":
            add(f"literal:{sign}{i}", (1 << len(rows)) - 1)
    rest = 0
    for j, clause in enumerate(phi.clauses):
        lits = 0
        for lit in clause:
            lits |= 1 << (2 * abs(lit) - 2 + (lit < 0))
        for p in range(copies):
            rest |= 1 << add(f"clause:{j}:{p}", lits | rest)
    for i in range(1, n + 1):
        for p in range(copies):
            rest |= 1 << add(f"dummy:{i}:{p}", 3 << (2 * i - 2) | rest)
    return Graph(len(rows), tuple(rows)), labels


def test_nae_reduction_matches_the_vertex_by_vertex_reference():
    # Literals are drawn with replacement, so a clause can repeat a literal
    # (1 1 2) or hold both signs of a variable (1 -1 2); 8 variables and 16
    # clauses make a 712-vertex graph.
    rng = random.Random(36)
    formulas = [NaeFormula(1, ((1, 1, 1),)), NaeFormula(2, ((1, 1, 2), (1, -1, 2))),
                NaeFormula(8, tuple(tuple(rng.choice((1, -1)) * rng.randint(1, 8)
                                          for _ in range(3)) for _ in range(16)))]
    for _ in range(60):
        n = rng.randint(1, 8)
        formulas.append(NaeFormula(n, tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
            for _ in range(rng.randint(0, 6)))))
    for phi in formulas:
        inst = nae3sat_to_cobipartite(phi)
        G, labels = _reference_nae_graph(phi)
        assert inst.graph == G, phi
        assert list(inst.labels.items()) == list(labels.items()), phi
    assert nae3sat_to_cobipartite(formulas[2]).graph.n == 712


def test_nae3sat_solve_finds_an_assignment_iff_one_exists():
    # Every formula with n <= 3 and 1-4 clauses over distinct variables.
    # Two clauses never rule out all assignments; four can, since each
    # clause forbids one complementary pair of the 8 assignments.
    def nae(assign, clause):
        return len({assign[abs(lit) - 1] == (lit > 0) for lit in clause}) == 2

    unsatisfiable = 0
    for n in range(1, 4):
        clauses = [tuple(sign * v for sign, v in zip(signs, vs))
                   for vs in combinations(range(1, n + 1), 3)
                   for signs in product((1, -1), repeat=3)]
        for m in range(1, 5):
            for cs in combinations_with_replacement(clauses, m):
                got = nae3sat_solve(NaeFormula(n, cs))
                exists = any(all(nae(a, c) for c in cs)
                             for a in product((False, True), repeat=n))
                assert (got is not None) == exists, cs
                if got is not None:
                    assert len(got) == n and all(nae(got, c) for c in cs)
                unsatisfiable += not exists
    assert unsatisfiable == 16


def test_is_chordal_matches_two_independent_tests():
    # Random chordal graphs, and G(n, p) graphs of which many are not.
    nx = pytest.importorskip("networkx")
    rng = random.Random(35)
    answers = []
    for _ in range(400):
        n = rng.randint(1, 12)
        if rng.random() < 0.3:
            G = random_chordal(n, rng)
        else:
            p = rng.random()
            G = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        want = is_chordal_peo(G)
        assert _is_chordal(G) == want == nx.is_chordal(_nx_graph(nx, G)), G.edges()
        answers.append(want)
    assert 50 < answers.count(False) < 350
