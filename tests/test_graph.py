from __future__ import annotations

import gc
import math
import random
import weakref
from collections import Counter, deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorclub.errors import DomainError
from minorclub.graph import (Graph, _contract_rows, _diametral_pairs,
                             _mask_component, _mask_components, _merge_step,
                             _merged_rows, _quotient,
                             complement, components, contract_edges,
                             contraction_map, diameter, diameter_at_most,
                             disjoint_union, induced_subgraph, is_bipartite,
                             is_connected, join, max_clique, shortest_path)

from genutil import all_graphs, canonical_key, connected_graphs


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph.from_edges(n, [pairs[i] for i in range(len(pairs))
                                if mask >> i & 1])


def test_from_edges_rejects_bad_input():
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(DomainError):
        Graph.from_edges(-1, [])


def test_cycle_needs_three_vertices():
    with pytest.raises(DomainError):
        Graph.cycle(2)
    assert Graph.cycle(3) == Graph.complete(3)


def test_basic_accessors():
    G = Graph.cycle(5)
    assert G.m == 5
    assert sorted(G.neighbors(0)) == [1, 4]
    assert G.degree(2) == 2
    assert G.has_edge(3, 4) and not G.has_edge(0, 2)
    assert G.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_contract_edge_examples():
    assert contract_edges(Graph.complete(3), [(0, 1)]) == Graph.complete(2)
    assert contract_edges(Graph.path(4), [(1, 2)]) == Graph.path(3)
    # one contraction turns the 4-cycle into a triangle
    assert contract_edges(Graph.cycle(4), [(0, 1)]) == Graph.complete(3)


def test_contract_edge_requires_edge():
    with pytest.raises(DomainError):
        contract_edges(Graph.path(3), [(0, 2)])


def test_contract_edge_label_rule():
    # new vertex keeps the smaller endpoint's label, higher labels shift down
    G = Graph.path(5)
    H = contract_edges(G, [(2, 3)])
    assert H == Graph.path(4)
    # neighbors of old vertex 4 became neighbors of new vertex 3
    assert H.has_edge(2, 3)


def test_quotient_moves_labels_and_leaves_a_shared_bag_alone():
    P4 = Graph.path(4)
    assert _quotient(P4, [(1, 2)]) == (Graph.path(3), [0, 1, 1, 2])
    assert _quotient(P4, [(1, 2), (1, 2)]) == (Graph.path(3), [0, 1, 1, 2])
    assert _quotient(Graph.cycle(4), [(0, 1), (1, 2), (0, 3), (2, 3)]) == (
        Graph.empty(1), [0, 0, 0, 0])


def test_contract_edges_examples():
    P5 = Graph.path(5)
    assert contract_edges(P5, [(0, 1), (3, 4)]) == Graph.path(3)
    G = Graph.cycle(6)
    assert contract_edges(G, []) == G
    assert contract_edges(G, [(0, 1), (3, 4)]) == Graph.cycle(4)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_contract_edges_vertex_count_and_order_independence(G, rng):
    edges = G.edges()
    if not edges:
        return
    S = rng.sample(edges, rng.randint(1, len(edges)))
    merged = contract_edges(G, S)
    # vertex count drops by exactly the number of union-find merges
    parent = list(range(G.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    merges = 0
    for u, v in S:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            merges += 1
    assert merged.n == G.n - merges

    # contracting one edge at a time in random order gives an isomorphic graph
    seq = list(S)
    rng.shuffle(seq)
    H = G
    labels = list(range(G.n))  # current label of each original vertex
    for u, v in seq:
        a, b = labels[u], labels[v]
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        H = contract_edges(H, [(a, b)])
        labels = [lb - 1 if lb > b else (a if lb == b else lb) for lb in labels]
    assert canonical_key(H) == canonical_key(merged)


def _networkx_quotient(nx, H, blocks):
    """networkx's quotient of H by the vertex blocks, blocks labelled by
    their smallest vertex in increasing order, and each vertex's label."""
    Q = nx.quotient_graph(H, blocks)
    label = {b: i for i, b in enumerate(sorted(Q.nodes, key=min))}
    want = Graph.from_edges(len(label), [(label[a], label[b]) for a, b in Q.edges])
    return want, [label[next(b for b in Q.nodes if v in b)] for v in H.nodes]


def test_contraction_matches_networkx_quotient_graph():
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 12)
        G = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if rng.random() < rng.choice((0.2, 0.4, 0.7))])
        edges = G.edges()
        S = rng.sample(edges, rng.randint(0, len(edges)))
        H, span = nx.empty_graph(n), nx.empty_graph(n)
        H.add_edges_from(edges)
        span.add_edges_from(S)
        want, label = _networkx_quotient(nx, H, list(nx.connected_components(span)))
        assert contract_edges(G, S) == want, (G.edges(), S)
        assert contraction_map(G, S) == label
        if edges:
            # The one-edge kernel alone, held to networkx, not to the fold
            # that calls it.
            a, b = rng.choice(edges)
            blocks = [{a, b}] + [{v} for v in range(n) if v not in (a, b)]
            want = _networkx_quotient(nx, H, blocks)[0]
            assert _contract_rows(G.rows, a, b) == want.rows, (G.edges(), a, b)


def test_forest_contraction_loses_one_vertex_per_edge():
    G = Graph.path(7)
    S = [(1, 2), (4, 5), (5, 6)]
    assert contract_edges(G, S).n == G.n - len(S)


def test_distances_and_diameter():
    assert Graph.path(4).dist[0] == [0, 1, 2, 3]
    assert Graph.complete(5).dist[2] == [1, 1, 0, 1, 1]
    assert Graph.empty(2).dist[0] == [0, -1]
    assert diameter(Graph.cycle(6)) == 3
    assert diameter(Graph.empty(1)) == 0
    assert diameter(Graph.path(9)) == 8
    assert diameter(Graph.empty(2)) == math.inf


def test_distance_memo_fills_on_demand_and_frees_with_the_graph():
    """Reading G.dist keeps the rows on G but no reference cycle: with the
    cycle collector off, the graph is freed once its last reference goes."""
    G = Graph.path(6)
    assert len(G.dist) == 0
    assert G.dist[2] == [2, 1, 0, 1, 2, 3]
    assert G.dist[5] == [5, 4, 3, 2, 1, 0]
    assert sorted(G.dist) == [2, 5]
    assert diameter(G) == 5 and len(G.dist) == 6
    gc.disable()
    try:
        H = Graph.cycle(7)
        H.dist[0]
        diameter(H)
        gone = weakref.ref(H)
        del H
        assert gone() is None
    finally:
        gc.enable()


def test_distance_memo_leaves_equality_and_hash_alone():
    read, fresh = Graph.cycle(6), Graph.cycle(6)
    diameter(read)
    assert len(read.dist) == 6 and "dist" not in vars(fresh)
    assert read == fresh and hash(read) == hash(fresh)
    assert read != Graph.path(6)


def test_diametral_pairs_are_every_pair_at_the_diameter_in_order():
    for n in range(7):
        for G in all_graphs(n):
            d = diameter(G)
            want = [(u, v, d) for u in range(n) for v in range(u, n)
                    if d < math.inf and G.dist[u][v] == d]
            assert list(_diametral_pairs(G)) == want, G.rows


def test_diameter_at_most_matches_diameter():
    rng = random.Random(19)
    graphs = [G for n in range(8) for G in all_graphs(n)]
    for _ in range(300):
        n = rng.randint(0, 30)
        p = rng.random()
        graphs.append(Graph.from_edges(n, [(u, v) for u in range(n)
                                           for v in range(u + 1, n) if rng.random() < p]))
    graphs += [Graph.path(40), disjoint_union(Graph.path(3), Graph.empty(1))]
    for G in graphs:
        d = diameter(G)
        for s in range(-1, G.n + 2):
            assert diameter_at_most(G, s) == (d <= s), (G.rows, s)


def test_diameter_at_most_after_contracting_matches_the_quotient():
    """Merging the bags of S in the rows decides what building the quotient
    decides, on seeded connected graphs whose S spans several bags."""
    rng = random.Random(29)
    several = 0
    for _ in range(800):
        n = rng.randint(1, 12)
        p = rng.choice((0.2, 0.35, 0.6))
        G = Graph.from_edges(n, [(u, v) for u in range(n)
                                 for v in range(u + 1, n) if rng.random() < p])
        if not is_connected(G):
            continue
        edges = G.edges()
        S = rng.sample(edges, rng.randint(0, min(len(edges), n // 2 + 1)))
        Q = contract_edges(G, S)
        sizes = Counter(contraction_map(G, S)).values()
        several += sum(size > 1 for size in sizes) >= 2
        for s in range(5):
            assert diameter_at_most(G, s, S) == diameter_at_most(Q, s) \
                == (diameter(Q) <= s), (G.rows, S, s)
    assert several > 100
    P4 = Graph.path(4)
    for S in ([(0, 1), (0, 2)], [(3, 4)], [(-1, 0)], [(1, 1)]):
        with pytest.raises(DomainError):
            diameter_at_most(P4, 2, S)


def _same_merged_rows(G, seq):
    state = (G.rows, (1 << G.n) - 1, list(range(G.n)))
    for u, v in seq:
        state = _merge_step(*state, u, v)
    rows, alive, _ = state
    want, want_alive = _merged_rows(G, seq)
    return alive == want_alive and all(
        rows[v] == want[v] for v in range(G.n) if alive >> v & 1)


def test_merge_steps_fold_to_the_merged_rows():
    """One merge step per edge, in any order, gives ``_merged_rows``'s alive
    mask and its rows on the vertices left: on every connected graph with
    n <= 6, every prefix of the edges in order and reversed, and on seeded
    random graphs with random edge sequences that repeat edges."""
    for n in range(1, 7):
        for G in connected_graphs(n):
            edges = G.edges()
            for seq in (edges, edges[::-1]):
                for k in range(len(seq) + 1):
                    assert _same_merged_rows(G, seq[:k]), (G.rows, seq[:k])
    rng = random.Random(39)
    for _ in range(400):
        n = rng.randint(2, 14)
        p = rng.choice((0.2, 0.4, 0.7))
        G = Graph.from_edges(n, [(u, v) for u in range(n)
                                 for v in range(u + 1, n) if rng.random() < p])
        edges = G.edges()
        if edges:
            seq = [rng.choice(edges) for _ in range(rng.randint(1, n + 2))]
            assert _same_merged_rows(G, seq), (G.rows, seq)


def test_merge_step_leaves_its_inputs_and_a_shared_bag_alone():
    C4 = Graph.cycle(4)
    state = (C4.rows, 15, [0, 1, 2, 3])
    rows, alive, rep = step = _merge_step(*state, 2, 3)
    assert state == (C4.rows, 15, [0, 1, 2, 3])
    assert (alive, rep) == (0b0111, [0, 1, 2, 2]) and rows[:3] == [0b110, 0b101, 0b011]
    again = _merge_step(*step, 3, 2)
    assert all(x is y for x, y in zip(again, step))


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_diameter_never_grows_under_contraction(G):
    if not is_connected(G) or not G.edges():
        return
    d = diameter(G)
    for e in G.edges():
        assert diameter(contract_edges(G, [e])) <= d


def test_complement_and_join_duality_examples():
    assert join(Graph.empty(1), Graph.empty(1)) == Graph.complete(2)
    K22 = join(Graph.empty(2), Graph.empty(2))
    assert canonical_key(K22) == canonical_key(Graph.cycle(4))


@settings(max_examples=50, deadline=None)
@given(graphs(max_n=6), graphs(max_n=6))
def test_complement_involution_and_join_duality(G1, G2):
    assert complement(complement(G1)) == G1
    lhs = join(G1, G2)
    rhs = complement(disjoint_union(complement(G1), complement(G2)))
    assert lhs == rhs


def test_union_and_join_label_layout():
    G = disjoint_union(Graph.path(2), Graph.path(2))
    assert G.edges() == [(0, 1), (2, 3)]
    J = join(Graph.path(2), Graph.empty(1))
    assert J.edges() == [(0, 1), (0, 2), (1, 2)]


def test_induced_subgraph():
    G = Graph.cycle(5)
    H = induced_subgraph(G, [0, 1, 3])
    assert H.n == 3 and H.edges() == [(0, 1)]
    with pytest.raises(DomainError):
        induced_subgraph(G, [7])


def test_components_and_connectivity():
    G = disjoint_union(Graph.cycle(3), Graph.path(2))
    assert components(G) == [[0, 1, 2], [3, 4]]
    assert not is_connected(G)
    assert is_connected(Graph.complete(4))
    for n in range(6):
        for H in all_graphs(n):
            assert is_connected(H) == (len(components(H)) <= 1), H.rows


def _queue_component(rows, mask):
    """Component of mask's lowest vertex in the subgraph rows induce on
    mask, by a plain queue BFS over vertex numbers."""
    if not mask:
        return 0
    start = (mask & -mask).bit_length() - 1
    seen, queue = {start}, deque([start])
    while queue:
        u = queue.popleft()
        for v in range(len(rows)):
            if rows[u] >> v & 1 and mask >> v & 1 and v not in seen:
                seen.add(v)
                queue.append(v)
    return sum(1 << v for v in seen)


def test_mask_components_match_a_queue_bfs():
    """Random masks of seeded graphs and of their complements, whose hubs
    make the step that scans the missing vertices run."""
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(0, 30)
        p = rng.random()
        G = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < p])
        for rows in (G.rows, complement(G).rows):
            for _ in range(5):
                mask = rng.getrandbits(n) if rng.random() < 0.7 else (1 << n) - 1
                assert _mask_component(rows, mask) == _queue_component(rows, mask)
                comps, rest = [], mask
                while rest:
                    comps.append(_queue_component(rows, rest))
                    rest &= ~comps[-1]
                assert _mask_components(rows, mask) == comps, (rows, mask)


def test_mask_components_settle_isolated_vertices_across_the_word_boundary():
    """Sparse seeded graphs with some vertices cut loose, so masks hold
    isolated vertices, for n = 1..70: the lowest vertex's first step
    settles a singleton, and n > 64 crosses the 64-bit word boundary."""
    rng = random.Random(29)
    for n in range(1, 71):
        for _ in range(3):
            p = rng.choice((0.02, 0.05, 0.1, 0.3))
            loose = set(rng.sample(range(n), rng.randint(0, n // 3)))
            G = Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                                     if u not in loose and v not in loose
                                     and rng.random() < p])
            for mask in ((1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n)):
                comps, rest = [], mask
                while rest:
                    comps.append(_queue_component(G.rows, rest))
                    rest ^= comps[-1]
                assert _mask_components(G.rows, mask) == comps, (G.rows, mask)


def test_max_clique():
    size, members = max_clique(Graph.complete(5))
    assert size == 5 and members == [0, 1, 2, 3, 4]
    assert max_clique(Graph.cycle(6))[0] == 2
    assert max_clique(join(Graph.cycle(5), Graph.complete(2)))[0] == 4
    # dropping a vertex must not cost a stack frame
    assert max_clique(Graph.empty(1500)) == (1, [0])


def test_max_clique_is_the_first_largest_clique_by_subset_search():
    # the witness is the lexicographically first clique of the largest size
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(0, 10)
        p = rng.random()
        G = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                 if rng.random() < p])
        want = next(((k, list(c)) for k in range(n, 0, -1)
                     for c in combinations(range(n), k)
                     if all(G.has_edge(u, v) for u, v in combinations(c, 2))),
                    (0, []))
        assert max_clique(G) == want, G.edges()


def test_bipartition_sides():
    got = is_bipartite(Graph.complete_bipartite(2, 3))
    assert got == ([0, 1], [2, 3, 4])
    assert is_bipartite(Graph.cycle(5)) is None


def test_shortest_path():
    assert shortest_path(Graph.cycle(6), 0, 3) == [0, 1, 2, 3]
    assert shortest_path(Graph.empty(2), 0, 1) is None
