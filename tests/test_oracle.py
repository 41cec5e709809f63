from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from minorclub import oracle
from minorclub.errors import CapacityError, DomainError, InvalidStructureError
from minorclub.formats import parse_graph
from minorclub.graph import (Graph, _balls_within, _quotient, components,
                             contract_edges, diameter, diameter_at_most,
                             disjoint_union, induced_subgraph, is_connected,
                             max_clique)
from minorclub.oracle import (clique_matching_oracle,
                              enumerate_nice_structures, hadwiger_oracle,
                              max_s_club_minor_oracle,
                              min_club_contraction_oracle,
                              min_club_contraction_set,
                              nice_structure_oracle)
from minorclub.witness import verify_witness

from genutil import (all_graphs, brute_minor_bags, chordality,
                     connected_graphs, connected_partitions, is_chordal_peo,
                     maximum_clique_matchings, random_bipperm, random_chordal,
                     random_interval_graph, random_permutation_graph,
                     reference_club_set, reference_first_club_set,
                     reference_width_below)


def test_connected_partitions_counts():
    # a path's connected blocks are intervals: 2^(n-1) partitions
    assert len(list(connected_partitions(Graph.path(4)))) == 8
    # in a complete graph every partition qualifies (Bell numbers)
    assert len(list(connected_partitions(Graph.complete(4)))) == 15
    # every emitted block really is connected and they cover the graph
    G = Graph.cycle(5)
    for blocks in connected_partitions(G):
        assert sorted(v for b in blocks for v in b) == list(range(5))


def test_hadwiger_examples():
    assert hadwiger_oracle(Graph.complete(5)) == 5
    assert hadwiger_oracle(Graph.path(7)) == 2
    assert hadwiger_oracle(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])) == 2
    for n in (3, 5, 8):
        assert hadwiger_oracle(Graph.cycle(n)) == 3
    assert hadwiger_oracle(Graph.empty(4)) == 1
    assert hadwiger_oracle(Graph.empty(0)) == 0


def test_hadwiger_petersen():
    # 15 edges cannot host the 15 cross adjacencies of a 6-clique minor plus
    # any intra-bag edge, and the graph is triangle-free, so 5 is optimal
    # (contract the five spokes).
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    assert hadwiger_oracle(Graph.from_edges(10, edges)) == 5


def test_hadwiger_witness_verifies():
    G = disjoint_union(Graph.cycle(6), Graph.complete(4))
    value, bags = hadwiger_oracle(G, with_witness=True)
    assert value == 4 and len(bags) == value
    assert verify_witness(G, bags)


def test_hadwiger_cap(monkeypatch):
    with pytest.raises(CapacityError):
        hadwiger_oracle(Graph.complete(13))

    # Every component is held to the cap before any of them is searched.
    def search(H):
        raise AssertionError("searched a component before checking the cap")

    monkeypatch.setattr(oracle, "_component_hadwiger", search)
    with pytest.raises(CapacityError):
        hadwiger_oracle(disjoint_union(Graph.cycle(5), Graph.path(13)))


def test_full_vs_partial_partitions_agree():
    # contraction route (full partitions) equals minor route (partial bags)
    for G in connected_graphs(5):
        assert hadwiger_oracle(G) == brute_minor_bags(G)
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(4, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        G = Graph.from_edges(n, [p for p in pairs if rng.random() < 0.45])
        if is_connected(G):
            assert hadwiger_oracle(G) == brute_minor_bags(G)


def test_hadwiger_at_least_clique_number():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(2, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        G = Graph.from_edges(n, [p for p in pairs if rng.random() < 0.5])
        assert hadwiger_oracle(G) >= max_clique(G)[0]


def test_chordal_graphs_clique_equals_minor():
    rng = random.Random(9)
    for _ in range(15):
        G = random_chordal(rng.randint(3, 9), rng)
        assert is_chordal_peo(G)
        assert hadwiger_oracle(G) == max_clique(G)[0]


def test_cycle_bound_matches_its_definition():
    for e in range(-1, 201):
        assert oracle._cycle_bound(e) == max(
            h for h in range(40) if h * (h - 3) // 2 <= e), e
    # trees, cycles, K4, K5, K6
    assert [oracle._cycle_bound(e) for e in (-1, 0, 2, 5, 9)] == [2, 3, 4, 5, 6]


def test_cycle_bound_bounds_the_hadwiger_number():
    for n in range(1, 8):
        for G in connected_graphs(n):
            assert hadwiger_oracle(G) <= oracle._cycle_bound(G.m - G.n), G
    # it is tight on complete graphs, trees and cycles
    for h in range(2, 9):
        G = Graph.complete(h)
        assert hadwiger_oracle(G) == oracle._cycle_bound(G.m - G.n) == h
    rng = random.Random(24)
    for n in range(2, 11):
        tree = Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
        assert hadwiger_oracle(tree) == oracle._cycle_bound(tree.m - tree.n) == 2
    for n in range(3, 11):
        G = Graph.cycle(n)
        assert hadwiger_oracle(G) == oracle._cycle_bound(G.m - G.n) == 3


def test_hadwiger_search_work_at_the_cap(monkeypatch):
    # A seeded G(12, 1/2) with 36 edges, at the default cap.  Searching it
    # without the cycle-rank and clique-bound cuts took 11 368 clique
    # searches and 102 948 contractions; with them it took 1 811 and
    # 16 677, and with the elimination-width cut as well 7 and 309.
    # Contracting a child only once it has passed the size and cycle-rank
    # cuts at pop takes 7 and 280, with the same witness, and 222 width
    # tests.  Testing a parent's width again before contracting its
    # children, once the best has risen, takes 228 contractions and 180
    # width tests.
    calls = {"max_clique": 0, "_contract_rows": 0, "_width_below": 0}

    def counted(name):
        fn = getattr(oracle, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(oracle, name, wrapper)

    counted("max_clique")
    counted("_contract_rows")
    counted("_width_below")
    assert hadwiger_oracle(parse_graph(b"KnV@FQD~X_|u"), with_witness=True) == (
        6, ((0,), (1,), (2, 6, 8, 11), (3,), (4, 7), (5, 9, 10)))
    assert calls["max_clique"] <= 20 and calls["_contract_rows"] <= 228 \
        and calls["_width_below"] <= 180, calls


def test_width_below_bounds_the_hadwiger_number():
    for n in range(1, 8):
        for G in connected_graphs(n):
            h = hadwiger_oracle(G)
            for b in range(1, n + 1):
                assert not oracle._width_below(G.rows, b) or h <= b, (G.edges(), b)
    # it is tight on trees, cycles and complete graphs
    rng = random.Random(22)
    for n in range(2, 11):
        label = rng.sample(range(n), n)
        tree = Graph.from_edges(n, [tuple(sorted((label[rng.randrange(v)], label[v])))
                                    for v in range(1, n)])
        assert oracle._width_below(tree.rows, 2), tree.edges()
        assert not oracle._width_below(tree.rows, 1), tree.edges()
    for n in range(3, 11):
        rows = Graph.cycle(n).rows
        assert oracle._width_below(rows, 3) and not oracle._width_below(rows, 2)
    for n in range(2, 11):
        rows = Graph.complete(n).rows
        assert oracle._width_below(rows, n) and not oracle._width_below(rows, n - 1)


def test_width_below_matches_the_rescanning_reference():
    for n in range(1, 8):
        for G in all_graphs(n):
            for best in range(1, n + 1):
                assert oracle._width_below(G.rows, best) == reference_width_below(
                    G.rows, best), (G.edges(), best)


@pytest.mark.parametrize("g6, answer", [
    # Seeded G(n, 1/2), two for each n = 8..12 (Random(3131)).  The pins are
    # those of the search that rebuilt a Graph per quotient and rescanned
    # every vertex at each step of the width cut.
    (b"GMkA]{", (4, ((0,), (3,), (4,), (7,)))),
    (b"Gh}|hk", (5, ((2,), (3,), (5,), (6,), (7,)))),
    (b"Hyf}HJD", (5, ((0,), (1,), (2,), (5,), (7, 8)))),
    (b"HgOEbyx", (4, ((0,), (1,), (3, 6), (4, 5, 7, 8)))),
    (b"I|?CgUXRG", (5, ((0,), (1, 5, 9), (2, 3), (4, 7, 8), (6,)))),
    (b"IWHc{npS_", (5, ((1,), (2,), (4, 6, 9), (5,), (7, 8)))),
    (b"JnLOIqnyO}?", (6, ((0, 9), (1,), (2,), (3,), (4, 7, 10), (5, 6, 8)))),
    (b"JNa[duy@Ue_", (6, ((0,), (2, 8), (3,), (4, 5), (6, 9, 10), (7,)))),
    (b"KUmqLhz~agsW",
     (7, ((0,), (1, 5, 10), (2,), (3, 9), (4, 8), (6, 11), (7,)))),
    (b"KllSc?V@hnWj",
     (6, ((0,), (1, 5), (2, 10, 11), (3, 4), (6, 9), (7, 8)))),
])
def test_hadwiger_witness_on_seeded_gnp(g6, answer):
    assert hadwiger_oracle(parse_graph(g6), with_witness=True) == answer


def test_hadwiger_oracle_above_the_default_cap():
    # Two seeded connected G(14, 0.4); the pins are the search's without
    # the elimination-width cut, which took about 0.2 s on each.
    assert hadwiger_oracle(parse_graph(b"MBh\\SDNBBxw@OJcU?"), cap=14,
                           with_witness=True) == (
        7, ((0, 1, 11, 12), (2, 3), (4,), (5,), (6, 8), (7, 9, 13), (10,)))
    assert hadwiger_oracle(parse_graph(b"M]aVKGluUjOGO{N`_"), cap=14,
                           with_witness=True) == (
        8, ((0,), (1, 10), (2, 11, 13), (3, 9), (4, 8), (5,), (6, 12), (7,)))


def _reference_component_hadwiger(H):
    """Reference quotient search: every child is rebuilt from g by
    ``_quotient(g, [e])``, and its bags are merged as sorted vertex lists.
    ``_quotient`` contracts by the same step as the search, so this holds
    the search's bags, cuts and order, not the step; the contraction step
    itself is held to networkx's quotient in ``test_graph.py``."""
    best = 0
    best_bags = ()
    seen = set()
    stack = [(H, tuple((v,) for v in range(H.n)))]
    while stack:
        g, bags = stack.pop()
        if g.n <= best or g.rows in seen:
            continue
        seen.add(g.rows)
        w, wverts = max_clique(g)
        if w > best:
            best = w
            best_bags = tuple(bags[v] for v in wverts)
        if (1 + math.isqrt(1 + 8 * g.m)) // 2 <= best or g.n - 1 <= best:
            continue
        for e in g.edges():
            q, vmap = _quotient(g, [e])
            if q.n > best and q.rows not in seen:
                merged = [[] for _ in range(q.n)]
                for old, new in enumerate(vmap):
                    merged[new].extend(bags[old])
                stack.append((q, tuple(tuple(sorted(b)) for b in merged)))
    return best, best_bags


def _random_graphs(seed, sizes, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice(sizes)
        p = rng.choice((0.3, 0.5, 0.7))
        yield Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                   if rng.random() < p])


def test_hadwiger_search_matches_the_quotient_reference():
    graphs = [G for n in range(8) for G in all_graphs(n)]
    graphs += list(_random_graphs(21, (8, 9, 10), 40))
    # the size where the search's bounds cut most; the reference takes
    # 0.1-2 s on each of these
    graphs += list(_random_graphs(23, (11, 12), 10))
    for G in graphs:
        for comp in components(G):
            H = induced_subgraph(G, comp)
            assert oracle._component_hadwiger(H) == _reference_component_hadwiger(H), H


def test_club_search_matches_the_subset_reference():
    graphs = [G for n in range(1, 8) for G in connected_graphs(n)]
    graphs += [G for G in _random_graphs(22, (8, 9, 10), 60) if is_connected(G)]
    for G in graphs:
        for s in (1, 2, 3):
            for k_max in (1, 2, 3):
                assert (min_club_contraction_set(G, s, k_max)
                        == reference_club_set(G, s, k_max)), (G, s, k_max)


def _bfs_rows(G):
    """Hop distances between all pairs of a connected graph, by a plain
    breadth-first search kept apart from the library's."""
    rows = []
    for src in range(G.n):
        dist = [-1] * G.n
        dist[src] = 0
        queue = [src]
        for x in queue:
            for y in G.neighbors(x):
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        rows.append(dist)
    return rows


def _chain_sets(dist, u, edges, k):
    """How many k-sets of the edges pairwise lie on one shortest path from u:
    of two edges, the later one starts as far from the earlier one's end as
    their distances from u differ."""
    du = dist[u]
    ends = [(a, b) if du[a] < du[b] else (b, a) for a, b in edges]

    def chain(e, f):
        if du[e[0]] > du[f[0]]:
            e, f = f, e
        return du[e[1]] <= du[f[0]] and dist[e[1]][f[0]] == du[f[0]] - du[e[1]]

    return sum(all(chain(e, f) for e, f in combinations(S, 2))
               for S in combinations(ends, k))


def _excesses(dist, u, v, edges):
    """Per edge ab, how much longer than dist(u, v) the shortest
    (u, v)-walk through ab is."""
    d = dist[u][v]
    return [min(dist[u][a] + dist[v][b], dist[u][b] + dist[v][a]) + 1 - d
            for a, b in edges]


def test_excess_bound_holds_for_every_valid_set():
    # The bound the club walk prunes by: a k-edge set S with diam(G/S) <= s
    # has, for every diametral pair, at most t = k - (d - s) edges of excess
    # above t, and at t = 0 lies on shortest paths between every such pair.
    checked = tight = 0
    for n in range(2, 7):
        for G in connected_graphs(n):
            dist = _bfs_rows(G)
            d = max(map(max, dist))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if dist[u][v] == d]
            edges = G.edges()
            excess = [_excesses(dist, u, v, edges) for u, v in pairs]
            for s in (1, 2, 3):
                for k in range(max(1, d - s), d - s + 3):
                    t = k - (d - s)
                    for S in combinations(range(len(edges)), k):
                        if not diameter_at_most(
                                contract_edges(G, [edges[i] for i in S]), s):
                            continue
                        checked += 1
                        for ex in excess:
                            assert sum(ex[i] > t for i in S) <= t, (G, s, S)
                        if t == 0:
                            tight += 1
                            assert all(ex[i] == 0 for ex in excess for i in S)
    assert (checked, tight) == (19237, 435)


# (leaf re-checks, cut checks) of the walks below where the cut acts.
WALK_COUNTS = {None: {(2, 3): (288, 24)}, b"I?gQhAi@_": {(1, 4): (8, 110)}}


@pytest.mark.parametrize("g6, sizes, answers", [
    # random_permutation_graph(40, Random(40005)): 341 edges, d = 4.  The
    # unpruned walk checked 8 172 sets for s = 2, k = 2 and 6 550 610 for
    # s = 1, k = 3; the excess bound alone cut that to 25 and 8 436, and
    # with the chain test the walk checks 1 and 0.  At s = 2, k = 3 (slack
    # 1) the walk re-checked 7 832 leaves; the cut at the leaf's parent
    # leaves 288, for 24 checks of its own.
    (None, (1, 2, 3), {(2, 2): ((0, 30), (29, 30)),
                       (2, 3): ((0, 1), (0, 30), (29, 30)), (3, 1): ((0, 30),),
                       (3, 2): ((0, 1), (0, 30)),
                       (3, 3): ((0, 1), (0, 2), (0, 30))}),
    # 13 edges, d = 4: at s = 1, k = 4 (slack 1) no set works.  The walk
    # re-checked 155 of the 715 4-subsets; the cut at the leaf's parent
    # leaves 8, for 110 checks of its own.
    (b"I?gQhAi@_", (1, 2, 3, 4), {
        (2, 2): ((2, 7), (6, 8)), (2, 3): ((0, 4), (2, 7), (6, 8)),
        (2, 4): ((0, 4), (0, 8), (2, 4), (2, 7)), (3, 1): ((2, 7),),
        (3, 2): ((0, 4), (2, 7)), (3, 3): ((0, 4), (0, 8), (2, 4)),
        (3, 4): ((0, 4), (0, 8), (1, 6), (2, 4))}),
])
def test_club_walk_checks_only_sets_within_the_excess_bound(monkeypatch, g6,
                                                            sizes, answers):
    # Each leaf the walk re-checks (bound s) belongs to a k-set with at most
    # t edges of excess above t for the first diametral pair, and at t = 0
    # to a set of edges on shortest paths between every diametral pair that
    # pairwise chain along one shortest path from the first pair's u, so
    # the re-checks number at most the count of such sets.  The cut at the
    # leaf's parent (bound s + 1) runs only at t >= 1.  The answers are the
    # unpruned walk's, and WALK_COUNTS pins both counts where the cut acts.
    G = (parse_graph(g6) if g6 else
         random_permutation_graph(40, random.Random(40005)))
    dist = _bfs_rows(G)
    d = max(map(max, dist))
    assert d == 4
    pairs = [(u, v) for u in range(G.n) for v in range(u + 1, G.n)
             if dist[u][v] == d]
    excess = _excesses(dist, *pairs[0], G.edges())
    geodesic = [e for e in G.edges()
                if not any(_excesses(dist, u, v, [e])[0] for u, v in pairs)]
    bounds = []
    monkeypatch.setattr(oracle, "_balls_within", lambda rows, alive, b:
                        bounds.append(b) or _balls_within(rows, alive, b))
    for s in (1, 2, 3):
        for k in sizes:
            t = k - (d - s)
            high = sum(x > t for x in excess)
            allowed = sum(math.comb(high, j) * math.comb(G.m - high, k - j)
                          for j in range(t + 1))
            if t == 0:
                allowed = _chain_sets(dist, pairs[0][0], geodesic, k)
            bounds.clear()
            assert oracle._first_club_set(G, s, k) == answers.get((s, k)), (s, k)
            leaves, cuts = bounds.count(s), bounds.count(s + 1)
            assert leaves + cuts == len(bounds)
            assert leaves <= allowed, (s, k, leaves, allowed)
            assert t >= 1 or not cuts, (s, k, cuts)
            if (s, k) in WALK_COUNTS[g6]:
                assert (leaves, cuts) == WALK_COUNTS[g6][s, k], (s, k)


def test_club_walk_at_slack_0_matches_the_unpruned_walk():
    # At t = 0 the walk keeps only the edges on shortest paths between every
    # diametral pair, and only sets whose edges chain along one shortest
    # path of the first pair.
    for n in range(2, 8):
        for G in connected_graphs(n):
            d = diameter(G)
            for s in (1, 2, 3):
                if d >= s:
                    assert oracle._first_club_set(G, s, d - s) == (
                        reference_first_club_set(G, s, d - s)), (G, s)


def test_club_walk_at_slack_1_and_2_matches_the_unpruned_walk():
    # At t >= 1 the walk drops each prefix of k - 1 edges whose quotient has
    # diameter above s + 1.  min_club_contraction_set stops at the smallest
    # k, so it never reaches some of these walks.
    for n in range(2, 8):
        for G in connected_graphs(n):
            d = diameter(G)
            for s in (1, 2, 3):
                for k in (d - s + 1, d - s + 2):
                    if k >= 1:
                        assert oracle._first_club_set(G, s, k) == (
                            reference_first_club_set(G, s, k)), (G, s, k)


def test_club_set_is_certified_before_it_is_returned(monkeypatch):
    # C7 needs two contractions to reach diameter 2.  A walk that answers
    # with its first k edges, and a greedy pass that stops one edge short,
    # both hand back sets that fail the re-check through the merged rows,
    # which runs under python -O too.
    C7 = Graph.cycle(7)
    assert min_club_contraction_set(C7, 2, 2) == ((0, 1), (0, 6))
    monkeypatch.setattr(oracle, "_first_club_set",
                        lambda G, s, k: tuple(G.edges()[:k]))
    with pytest.raises(InvalidStructureError, match=r"\(\(0, 1\),\)"):
        min_club_contraction_set(C7, 2, 2)
    with pytest.raises(InvalidStructureError):
        max_s_club_minor_oracle(C7, 2)
    monkeypatch.setattr(oracle, "_greedy_spanning_tree",
                        lambda G: tuple(G.edges()[:G.n - 2]))
    with pytest.raises(InvalidStructureError):
        min_club_contraction_set(C7, 0, 6)


def test_club_budget_counts_sizes_the_walk_rules_out(monkeypatch):
    # P9 with s = 2 needs 6 contractions, so sizes 1..5 end before any walk,
    # yet the budget still counts their 8 + 28 + 56 + 70 subsets up to size
    # 4: the error fires where the unpruned walk raised it.
    monkeypatch.setattr(oracle, "SUBSET_BUDGET", 161)
    with pytest.raises(CapacityError, match="up to size 4 needs 162 checks"):
        min_club_contraction_set(Graph.path(9), 2, 6)
    monkeypatch.setattr(oracle, "SUBSET_BUDGET", 247)
    assert min_club_contraction_set(Graph.path(9), 2, 6) == tuple(
        (i, i + 1) for i in range(6))


def test_max_s_club_examples():
    G = Graph.cycle(6)
    assert max_s_club_minor_oracle(G, 3) == 6  # s >= diam keeps everything
    assert max_s_club_minor_oracle(Graph.path(5), 2) == 3
    assert max_s_club_minor_oracle(G, 2) == 5
    assert max_s_club_minor_oracle(G, -1) == 0
    with pytest.raises(DomainError):
        max_s_club_minor_oracle(Graph.empty(3), 2)
    # C12 and the 2 x 6 grid at s = 0..4, the slowest shapes for the subset
    # walk found at the cap; the values are a quotient walk's
    grid = Graph.from_edges(12, [(6 * r + c, 6 * r + c + 1) for r in (0, 1)
                                 for c in range(5)] + [(c, c + 6) for c in range(6)])
    for H, want in ((Graph.cycle(12), [1, 3, 5, 7, 9]), (grid, [1, 3, 7, 8, 9])):
        assert [max_s_club_minor_oracle(H, s) for s in range(5)] == want


def test_club_minor_at_s_0_and_1_at_the_cap():
    # the icosahedron and a seeded connected G(12, 1/2); a quotient walk
    # took 1-2.4 s on each at s = 0 and 1
    for g6, h in ((b"KhFJ{B`KWqph", 4), (b"Kbv|msH[GSJv", 7)):
        G = parse_graph(g6)
        assert max_s_club_minor_oracle(G, 0) == 1
        assert max_s_club_minor_oracle(G, 1) == hadwiger_oracle(G) == h


def _partition_club_minors(G: Graph, s_max: int) -> list[int]:
    """For each s = 0..s_max, the most blocks of a connected partition of G
    whose quotient, built here from G's edges, has diameter at most s."""
    best = [0] * (s_max + 1)
    for blocks in connected_partitions(G):
        label = {v: i for i, block in enumerate(blocks) for v in block}
        D = diameter(Graph.from_edges(len(blocks), {
            (min(label[a], label[b]), max(label[a], label[b]))
            for a, b in G.edges() if label[a] != label[b]}))
        for s in range(D, s_max + 1):
            best[s] = max(best[s], len(blocks))
    return best


def test_club_minor_search_matches_the_partition_reference():
    """The club-minor oracle, which reads the subset walk at s >= 2, against
    every connected partition, at s = 0..3, on all connected graphs with
    n <= 6 and on seeded connected G(n, p) with n = 8, 9 (n = 7
    exhaustively takes about 20 s)."""
    graphs = [G for n in range(1, 7) for G in connected_graphs(n)]
    rng = random.Random(21)
    for n in (8, 9):
        found = 0
        while found < 4:
            p = rng.uniform(0.25, 0.7)
            G = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                     if rng.random() < p])
            if is_connected(G):
                graphs.append(G)
                found += 1
    for G in graphs:
        assert [max_s_club_minor_oracle(G, s) for s in range(4)] == \
            _partition_club_minors(G, 3), G.edges()


def test_zero_club_set_is_the_first_spanning_tree():
    """At s = 0 the first working set, from Kruskal's pass, is the subset
    walk's; one edge short of n - 1, nothing works."""
    checked = 0
    for n in range(1, 7):
        for G in connected_graphs(n):
            want = reference_club_set(G, 0, n - 1)
            assert min_club_contraction_set(G, 0, n - 1) == want, G.edges()
            assert len(want) == n - 1
            if n > 1:
                assert min_club_contraction_set(G, 0, n - 2) is None
            assert min_club_contraction_set(G, -1, G.m) is None
            checked += 1
    assert checked == 143


def test_min_club_examples():
    assert min_club_contraction_oracle(Graph.cycle(6), 2, 5) == 1
    for n in (5, 7, 9):
        for s in range(2, n - 1):
            assert min_club_contraction_oracle(Graph.path(n), s, n) == (n - 1) - s
    assert min_club_contraction_oracle(Graph.complete(4), 2, 3) == 0
    assert min_club_contraction_oracle(Graph.path(9), 2, 3) is None
    assert min_club_contraction_oracle(Graph.empty(2), 2, 1) is None
    # the witness is the first smallest set in combinations order
    assert min_club_contraction_set(Graph.cycle(6), 2, 5) == ((0, 1),)
    assert min_club_contraction_set(Graph.path(5), 2, 4) == ((0, 1), (1, 2))
    assert min_club_contraction_set(Graph.complete(4), 2, 3) == ()
    assert min_club_contraction_set(Graph.path(9), 2, 3) is None
    # A triangle hanging off K4 by the edge 23.  The first 3-set is the
    # triangle, whose third edge joins vertices already in one bag; the
    # quotient must keep that bag, so the answer is the next set.
    G = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 3)]
                         + [(a, b) for a in range(3, 7) for b in range(a + 1, 7)])
    assert min_club_contraction_set(G, 1, 3) == ((0, 1), (0, 2), (2, 3))


def test_club_duality():
    # largest bounded-diameter minor = n minus fewest contractions
    rng = random.Random(6)
    for _ in range(20):
        G = random_interval_graph(rng.randint(3, 8), rng)
        if not is_connected(G):
            continue
        for s in (2, 3):
            kmin = min_club_contraction_oracle(G, s, G.n - 1)
            assert kmin is not None
            assert max_s_club_minor_oracle(G, s) == G.n - kmin


def test_clique_matching_examples():
    assert clique_matching_oracle(Graph.complete_bipartite(1, 3)) == 1
    assert clique_matching_oracle(Graph.path(4)) == 2
    assert clique_matching_oracle(Graph.empty(5)) == 0
    assert clique_matching_oracle(Graph.complete_bipartite(3, 3)) == 3
    assert clique_matching_oracle(Graph.complete(6)) == 3
    with pytest.raises(CapacityError):
        clique_matching_oracle(Graph.empty(15))
    # 1000 edges, no two of which see each other: the edge graph is empty,
    # and its clique search must not recurse once per vertex
    matching = Graph.from_edges(2000, [(2 * i, 2 * i + 1) for i in range(1000)])
    assert clique_matching_oracle(matching, cap=2000) == 1


def test_clique_matching_oracle_matches_matching_enumeration():
    # every graph with n <= 5, then seeded graphs with n <= 8
    graphs = [G for n in range(6) for G in all_graphs(n)]
    rng = random.Random(36)
    for _ in range(150):
        n = rng.randint(2, 8)
        p = rng.random()
        graphs.append(Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                           if rng.random() < p]))
    for G in graphs:
        assert clique_matching_oracle(G) == maximum_clique_matchings(G)[0], G.edges()


def test_nice_structure_examples():
    best, table = nice_structure_oracle(Graph.complete(2))
    assert (best, table) == (2, (2, 1, 0))
    best, table = nice_structure_oracle(Graph.cycle(4))
    assert best == 3 and table == (2, 3, 2, 0, 0)
    best, table = nice_structure_oracle(Graph.path(4))
    assert best == 2


def test_nice_structure_table_bounds():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randint(2, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        G = Graph.from_edges(n, [p for p in pairs if rng.random() < 0.5])
        best, table = nice_structure_oracle(G)
        assert table[0] == max_clique(G)[0]
        for r, val in enumerate(table):
            assert val <= max(0, n - r)
            if 2 * r > n:
                assert val == 0


def test_bipartite_nice_structures_have_at_most_two_singletons():
    rng = random.Random(13)
    for _ in range(10):
        G = random_bipperm(rng.randint(2, 7), rng)
        for bags in enumerate_nice_structures(G):
            singles = sum(1 for b in bags if len(b) == 1)
            assert singles <= 2


def test_chordal_bipartite_hadwiger_equals_best_nice_structure():
    from minorclub.recognition import is_chordal_bipartite

    for G in connected_graphs(6):
        if is_chordal_bipartite(G):
            assert hadwiger_oracle(G) == nice_structure_oracle(G)[0]


def test_minimal_structures_have_clique_bags_when_chordality_small():
    from minorclub.graph import _mask_connected
    from itertools import combinations

    def shrink_to_minimal(G, bags):
        bags = [set(b) for b in bags]
        changed = True
        while changed:
            changed = False
            for b in bags:
                if len(b) == 1:
                    continue
                for v in sorted(b):
                    trial = [set(x) for x in bags]
                    trial[bags.index(b)].discard(v)
                    if _valid(G, trial):
                        b.discard(v)
                        changed = True
                        break
                if changed:
                    break
        return bags

    def _valid(G, bags):
        masks = []
        for b in bags:
            if not b:
                return False
            m = 0
            for v in b:
                m |= 1 << v
            masks.append(m)
        if any(not _mask_connected(G, m) for m in masks):
            return False
        for i in range(len(masks)):
            nbr = 0
            for v in bags[i]:
                nbr |= G.rows[v]
            for j in range(len(masks)):
                if i != j and nbr & masks[j] == 0:
                    return False
        return True

    rng = random.Random(14)
    for G in connected_graphs(5):
        if chordality(G) > 4:
            continue
        value, bags = hadwiger_oracle(G, with_witness=True)
        minimal = shrink_to_minimal(G, bags)
        for b in minimal:
            assert all(G.has_edge(a, c) for a, c in combinations(sorted(b), 2))


def test_chordality_examples():
    assert chordality(Graph.cycle(7)) == 7
    assert chordality(Graph.path(6)) == 0
    assert chordality(Graph.complete(4)) == 3
    # 7-cycle plus a chord splitting it into a 4-cycle and a 5-cycle
    G = Graph.from_edges(7, Graph.cycle(7).edges() + [(0, 3)])
    assert chordality(G) == 5
    with pytest.raises(CapacityError):
        chordality(Graph.empty(20))
