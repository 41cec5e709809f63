from __future__ import annotations

import random

from minorclub.graph import Graph, induced_subgraph, is_bipartite
from minorclub.oracle import chordality
from minorclub.reductions import pendant_lift, subdivide_edges

from genutil import all_graphs, random_chordal


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
