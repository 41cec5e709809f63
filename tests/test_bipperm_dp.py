from __future__ import annotations

import random
from itertools import combinations

import pytest

from minorclub import bipperm_dp
from minorclub.bipperm_dp import (_clip, _ordering, _solve,
                                  _solve_anchor, hadwiger_bipperm,
                                  is_clique_matching, max_clique_matching)
from minorclub.cograph_dp import hadwiger_cograph
from minorclub.errors import DomainError
from minorclub.formats import parse_graph
from minorclub.graph import (Graph, _iter_bits, _mask_components,
                             disjoint_union, induced_subgraph)
from minorclub.oracle import clique_matching_oracle, hadwiger_oracle
from minorclub.recognition import strong_ordering, verify_ordering

from genutil import (all_graphs, connected_graphs, maximum_clique_matchings,
                     random_bipperm, random_staircase,
                     reference_is_clique_matching, restrict_ordering)


def test_examples():
    size, edges = max_clique_matching(Graph.path(4))
    assert size == 2 and is_clique_matching(Graph.path(4), edges)
    assert max_clique_matching(Graph.complete_bipartite(1, 3))[0] == 1
    assert max_clique_matching(Graph.complete_bipartite(3, 3))[0] == 3
    assert max_clique_matching(Graph.empty(4))[0] == 0


def test_is_clique_matching():
    G = Graph.path(5)
    assert is_clique_matching(G, [(0, 1), (2, 3)])
    assert not is_clique_matching(G, [(0, 1), (3, 4)])  # no cross adjacency
    assert not is_clique_matching(G, [(0, 1), (1, 2)])  # shares a vertex
    assert not is_clique_matching(G, [(0, 2)])          # not an edge
    # malformed pairs: a negative label, a label out of range, a loop and a
    # pair that is not two vertices
    assert not is_clique_matching(Graph.complete(3), [(-1, 0)])
    assert not is_clique_matching(Graph.complete(3), [(0, 3)])
    assert not is_clique_matching(Graph.cycle(4), [(0, 1), (-2, -1)])
    assert not is_clique_matching(G, [(1, 1)])
    assert not is_clique_matching(G, [(0, 1, 2)])


def _edge_subsets(G: Graph):
    edges = G.edges()
    for mask in range(1 << len(edges)):
        yield [e for i, e in enumerate(edges) if mask >> i & 1]


def test_is_clique_matching_matches_the_pairwise_reference():
    # every edge subset of every graph with n <= 5, then seeded graphs with
    # n <= 8, their edges in random order and orientation
    seen = set()
    for n in range(6):
        for G in all_graphs(n):
            for edges in _edge_subsets(G):
                want = reference_is_clique_matching(G, edges)
                assert is_clique_matching(G, edges) == want, (G.edges(), edges)
                seen.add(want)
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randint(2, 8)
        G = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                 if rng.random() < 0.5])
        for _ in range(10):
            edges = [e[::rng.choice((1, -1))] for e in G.edges()
                     if rng.random() < 0.4]
            rng.shuffle(edges)
            want = reference_is_clique_matching(G, edges)
            assert is_clique_matching(G, edges) == want, (G.edges(), edges)
            seen.add(want)
    assert seen == {True, False}


def test_rejects_non_bipartite_permutation_inputs():
    with pytest.raises(DomainError):
        max_clique_matching(Graph.cycle(6))
    with pytest.raises(DomainError):
        hadwiger_bipperm(Graph.cycle(5))


def test_hadwiger_examples():
    assert hadwiger_bipperm(Graph.path(6)) == 2
    assert hadwiger_bipperm(Graph.complete_bipartite(3, 3)) == 4
    # the case's singleton bags first, then the clique-matching's edges
    assert hadwiger_bipperm(Graph.cycle(4), with_details=True) == (
        3, ((0,), (1,), (2, 3)))
    assert hadwiger_bipperm(Graph.empty(3)) == 1


def test_exhaustive_small_graphs_match_oracle():
    for n in range(1, 8):
        for G in connected_graphs(n):
            if strong_ordering(G) is None:
                continue
            size, edges = max_clique_matching(G)
            assert is_clique_matching(G, edges)
            assert size == clique_matching_oracle(G), G.edges()
            assert hadwiger_bipperm(G) == hadwiger_oracle(G), G.edges()


def test_random_instances_match_oracle():
    rng = random.Random(20)
    for _ in range(60):
        G = random_bipperm(rng.randint(2, 10), rng)
        if rng.random() < 0.3:
            G = disjoint_union(G, random_bipperm(rng.randint(2, 4), rng))
        if G.n > 12:
            continue
        size, edges = max_clique_matching(G)
        assert is_clique_matching(G, edges) and len(edges) == size
        assert size == clique_matching_oracle(G)
        assert hadwiger_bipperm(G) == hadwiger_oracle(G)


@pytest.mark.parametrize("g6, cm, h", [
    ("G?zrb_", 4, 4),
    ("H?bfb_o", 4, 4),
    ("HFJd?~@", 4, 5),
    ("IFwN?Td?G", 4, 5),
])
def test_shrunk_witness_counterexamples(g6, cm, h):
    # each of these once crashed while the optimal value was turned into a
    # concrete matching; the values come from the brute-force oracles
    G = parse_graph(g6)
    size, edges = max_clique_matching(G)
    assert size == cm and is_clique_matching(G, edges)
    assert hadwiger_bipperm(G) == h
    assert clique_matching_oracle(G) == cm and hadwiger_oracle(G) == h


def test_relabelled_staircases_match_oracle():
    rng = random.Random(25)
    for k in range(120):
        G = random_staircase(rng.randint(2, 11), rng, dense=k % 2 == 1)
        size, edges = max_clique_matching(G)
        assert is_clique_matching(G, edges) and len(edges) == size
        assert size == clique_matching_oracle(G), G.edges()
        assert hadwiger_bipperm(G) == hadwiger_oracle(G), G.edges()


def test_large_relabelled_staircases_give_verified_witnesses():
    rng = random.Random(24)
    for k in range(80):
        n = (16, 24, 32, 40)[k % 4]
        G = random_staircase(n, rng, dense=k % 8 >= 4)
        size, edges = max_clique_matching(G)
        assert len(edges) == size and is_clique_matching(G, edges)
        if n <= 24:
            # a case-0 bag family is the matching itself, and every case
            # adds at most two singletons to a matching of a subgraph
            assert size <= hadwiger_bipperm(G) <= size + 2


def test_forced_pairs_extend_to_some_maximum_matching():
    # anchored preprocessing claim: with the anchor forced, the greedy pairs
    # (cover vertices matched to the rightmost ranks above the anchor's
    # reach) appear in some maximum clique-matching
    rng = random.Random(22)
    checked = 0
    for _ in range(80):
        G = random_bipperm(rng.randint(3, 8), rng)
        ordering = strong_ordering(G)
        best, all_max = maximum_clique_matchings(G)
        if best == 0:
            continue
        rank = {v: i + 1 for i, v in enumerate(ordering.order2)}
        side1 = set(ordering.side1)
        for M in all_max:
            ranks = sorted(rank[u] if u not in side1 else rank[v] for u, v in M)
            vmin = ranks[0]
            anchor = next((e for e in M
                           if rank[e[0] if e[0] not in side1 else e[1]] == vmin))
            u = anchor[0] if anchor[0] in side1 else anchor[1]
            v2 = anchor[1] if anchor[0] in side1 else anchor[0]
            forced = _forced_pairs(G, ordering, u, rank[v2])
            if not forced:
                continue
            target = {(w, j) for w, j in forced}
            ok = any(
                target <= {(a if a in side1 else b,
                            rank[b if a in side1 else a])
                           for a, b in Mx}
                for Mx in all_max
                if anchor in Mx or (u, v2) in Mx or (v2, u) in Mx
            )
            assert ok, (G.edges(), anchor, forced)
            checked += 1
    assert checked > 5


def _forced_pairs(G, ordering, u, v_rank):
    """Reimplementation of the forced-pair greedy, independent of the DP."""
    rank = {v: i + 1 for i, v in enumerate(ordering.order2)}
    side1 = list(ordering.side1)
    iv = {}
    for w in side1:
        rs = sorted(rank[x] for x in G.neighbors(w))
        if rs:
            iv[w] = (rs[0], rs[-1])
    if u not in iv:
        return []
    r = iv[u][1]
    cands = sorted((w for w in iv if w != u
                    and max(iv[w][0], v_rank) <= v_rank and iv[w][1] >= r),
                   key=lambda w: (-iv[w][1], w))
    used = set()
    out = []
    for w in cands:
        pick = next((j for j in range(iv[w][1], r, -1) if j not in used), None)
        if pick is None:
            break
        used.add(pick)
        out.append((w, pick))
    return out


def test_induced_subgraphs_inherit_valid_orderings():
    # the clipped interval tables rely on this heredity
    rng = random.Random(23)
    for _ in range(30):
        G = random_bipperm(rng.randint(3, 10), rng)
        full = strong_ordering(G)
        keep = sorted(rng.sample(range(G.n), rng.randint(1, G.n)))
        sub = induced_subgraph(G, keep)
        assert verify_ordering(sub, restrict_ordering(full, keep))


def test_clipped_tables_solve_induced_subgraphs():
    # a sub-problem runs on G's interval table clipped to its keep set: the
    # clipped table is the induced subgraph's table under the inherited
    # ordering, and its matching is a maximum one of the induced subgraph
    rng = random.Random(26)
    for k in range(300):
        G = random_staircase(rng.randint(2, 12), rng, dense=k % 2 == 1)
        ordering = _ordering(G)
        table = ordering.spans
        for _ in range(3):
            keep = sorted(rng.sample(range(G.n), rng.randint(1, G.n)))
            order2, clipped = _clip(ordering.order2, table,
                                    sum(1 << v for v in keep))
            sub = induced_subgraph(G, keep)
            sub_ord = restrict_ordering(ordering, keep)
            assert verify_ordering(sub, sub_ord)
            rank = {v: i for i, v in enumerate(sub_ord.order2, 1)}
            assert [keep[v] for v in sub_ord.order2] == order2
            assert clipped == {
                keep[w]: (min(rank[x] for x in sub.neighbors(w)),
                          max(rank[x] for x in sub.neighbors(w)))
                for w in sub_ord.side1 if sub.degree(w)}
            size, edges = _solve(order2, clipped)
            assert len(edges) == size and is_clique_matching(G, edges)
            assert {v for e in edges for v in e} <= set(keep)
            assert size == clique_matching_oracle(sub), (G.edges(), keep)


# The solver skips Hadwiger cases, anchors and anchor tables whose upper
# bound cannot beat the best so far.  Each test below holds one of those
# cuts to the uncut answer, witness included, on small staircases.


def _staircases(seed: int) -> list[Graph]:
    rng = random.Random(seed)
    return [random_staircase(rng.randint(2, 14), rng, dense=k % 2 == 1)
            for k in range(300)]


def _anchors(table) -> list[tuple[int, int]]:
    return sorted((v_rank, u) for u, (lo, hi) in table.items()
                  for v_rank in range(lo, hi + 1))


def test_anchor_bound_never_cuts_a_winning_anchor():
    # one below an anchor's uncut value the anchor still wins with the same
    # pairs; at its value it loses, with no pairs replayed
    for G in _staircases(27):
        table = _ordering(G).spans
        for v_rank, u in _anchors(table):
            value, pairs = _solve_anchor(table, u, v_rank, -1)
            assert pairs is not None and len(pairs) == value
            assert _solve_anchor(table, u, v_rank, value - 1) == (value, pairs)
            assert _solve_anchor(table, u, v_rank, value) == (value, None)


def test_anchor_loop_stop_keeps_the_first_best_anchor():
    for G in _staircases(28):
        ordering = _ordering(G)
        table = ordering.spans
        best, best_pairs = 0, ()
        for v_rank, u in _anchors(table):
            size, pairs = _solve_anchor(table, u, v_rank, -1)
            if size > best:
                best, best_pairs = size, pairs
        edges = tuple(sorted(tuple(sorted((w, ordering.order2[r - 1])))
                             for w, r in best_pairs))
        assert _solve(ordering.order2, table) == (best, edges), G.edges()


def _cases(G: Graph):
    """Every T of hadwiger_bipperm's docstring, in its order, with the
    clipped ordered side and interval table of its clique-matching."""
    ordering = _ordering(G)
    side1 = sum(1 << w for w in ordering.side1)
    for comp in _mask_components(G.rows, (1 << G.n) - 1):
        singles = [()] + [(u,) for u in _iter_bits(comp)] + [
            (a, b) for a in _iter_bits(comp) for b in _iter_bits(comp & G.rows[a])
            if a < b]
        for T in singles:
            keep = comp
            for t in T:
                side = side1 if side1 >> t & 1 else ~side1
                keep &= side & ~(1 << t) | G.rows[t]
            yield T, _clip(ordering.order2, ordering.spans, keep)


def test_case_bound_keeps_the_first_best_case():
    # every case solved, the first strictly larger one kept
    for G in _staircases(29):
        best = (0, ())
        for T, (order2, clipped) in _cases(G):
            size, edges = _solve(order2, clipped)
            if len(T) + size > best[0]:
                best = (len(T) + size, tuple((t,) for t in T) + edges)
        assert hadwiger_bipperm(G, with_details=True) == best, G.edges()


def test_case_bar_returns_nothing_exactly_when_it_cannot_be_beaten():
    # every case's clipped table, solved from each bar 0..size+1: nothing
    # when the bar is positive and the clique-matching cannot exceed it,
    # else the unbarred answer, witness included
    for G in _staircases(30):
        for T, (order2, clipped) in _cases(G):
            size, edges = _solve(order2, clipped)
            for beat in range(size + 2):
                want = None if 0 < beat >= size else (size, edges)
                assert _solve(order2, clipped, beat) == want, (G.edges(), T, beat)


def test_spans_sorted_by_lo_keep_their_upper_ends_in_order():
    # the precondition of the count cut: on the whole table and on every
    # case's clipped table the spans sorted by (lo, hi) have non-decreasing
    # upper ends
    for G in _staircases(31):
        tables = [_ordering(G).spans] + [clipped for _, (_, clipped) in _cases(G)]
        for table in tables:
            ends = [hi for _, hi in sorted(table.values())]
            assert ends == sorted(ends), (G.edges(), table)


def test_count_bound_never_cuts_below_an_anchors_value():
    # the count bound of every anchor of every case's clipped table, its
    # counts taken span by span, is at least the anchor's uncut value
    for G in _staircases(32):
        for T, (order2, clipped) in _cases(G):
            for v_rank, u in _anchors(clipped):
                hi_u = clipped[u][1]
                inner = sum(hi > v_rank for w, (_, hi) in clipped.items() if w != u)
                forced = sum(lo <= v_rank and hi > hi_u for lo, hi in clipped.values())
                bound = 1 + min(hi_u - v_rank, inner) + min(len(order2) - hi_u, forced)
                value = _solve_anchor(clipped, u, v_rank, -1)[0]
                assert value <= bound, (G.edges(), T, u, v_rank)


def test_hadwiger_anchor_work_on_a_dense_staircase(monkeypatch):
    # A seeded dense staircase with n = 40 and 140 edges, won by a case with
    # two singleton bags.  Solving every anchor that the loop stop and the
    # case bars leave took 305 anchor solves; skipping those whose span
    # counts cannot beat the best so far takes 28.
    calls = 0
    solve_anchor = bipperm_dp._solve_anchor

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve_anchor(*args)

    monkeypatch.setattr(bipperm_dp, "_solve_anchor", counted)
    G = random_staircase(40, random.Random(45), dense=True)
    h, bags = hadwiger_bipperm(G, with_details=True)
    assert (G.m, h, sum(len(b) == 1 for b in bags), len(bags)) == (140, 12, 2, 12)
    assert calls <= 28, calls


# Hadwiger numbers above the oracle's cap, from exact relations rather than
# the brute force.

@pytest.mark.parametrize("a, b", [(30, 30), (25, 60), (1, 100)])
def test_complete_bipartite_closed_form(a, b):
    """h(K_{a,b}) = a + 1 for 1 <= a <= b."""
    G = Graph.complete_bipartite(a, b)
    assert hadwiger_cograph(G) == hadwiger_bipperm(G) == a + 1


def _complete_bipartite_union(n: int, rng: random.Random) -> Graph:
    """A relabelled disjoint union of complete bipartite graphs K_{a,b}
    with 0 <= a <= b <= 12 (a = 0 gives isolated vertices) on n vertices."""
    G = Graph.empty(0)
    while G.n < n:
        b = rng.randint(1, min(12, n - G.n))
        a = rng.randint(0, min(b, n - G.n - b))
        G = disjoint_union(G, Graph.complete_bipartite(a, b))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in G.edges()])


@pytest.mark.parametrize("n", [40, 80, 160])
def test_bipartite_cographs_agree_across_solvers(n):
    """A bipartite cograph is a disjoint union of complete bipartite graphs,
    so both polynomial solvers apply to it and must agree."""
    rng = random.Random(n)
    for _ in range(5):
        G = _complete_bipartite_union(n, rng)
        assert hadwiger_cograph(G) == hadwiger_bipperm(G), G.edges()


# Dense staircases stop at n = 48: at n = 96, h(G) alone took 10-15 s before
# each case's solve started at the best case so far, and the whole check
# still takes 34-44 s after it.
@pytest.mark.parametrize("n, dense", [(24, False), (48, False), (96, False),
                                      (24, True), (48, True)])
def test_hadwiger_relations_on_staircases_above_the_oracle_cap(n, dense):
    """Exact relations on seeded staircases: h(G + H) = max(h(G), h(H)) and
    h(G) - 1 <= h(G - v) <= h(G); bipartite permutation graphs are closed
    under both."""
    rng = random.Random(73 + n)
    G = random_staircase(n, rng, dense)
    H = random_staircase(n // 2, rng, dense)
    h = hadwiger_bipperm(G)
    assert hadwiger_bipperm(disjoint_union(G, H)) == max(h, hadwiger_bipperm(H))
    for v in rng.sample(range(n), 3):
        rest = [w for w in range(n) if w != v]
        assert h - 1 <= hadwiger_bipperm(induced_subgraph(G, rest)) <= h, (G.rows, v)
