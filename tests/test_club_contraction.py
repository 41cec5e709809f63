from __future__ import annotations

import hashlib
import math
import random

import pytest

from minorclub import club_contraction, witness
from minorclub.club_contraction import (_one_extra_contraction, _scan_paths,
                                        _tight_from, distance_profile,
                                        minimum_contraction,
                                        s_club_contract_decide, solve_club,
                                        sweep_pair, tight_contraction)
from minorclub.errors import DomainError, InvalidStructureError
from minorclub.formats import parse_graph
from minorclub.graph import (Graph, _diametral_pairs, all_pairs_distances,
                             contract_edges, diameter, diameter_at_most,
                             disjoint_union, is_connected)
from minorclub.oracle import (_first_club_set, min_club_contraction_oracle,
                              min_club_contraction_set)
from minorclub.recognition import diameter_dominating_pair, is_at_free

from genutil import (connected_graphs, is_satisfying_path, random_caterpillar,
                     random_chordal, random_interval_graph,
                     random_permutation_graph, reference_club_set)


def _check_witness(G: Graph, S, k: int, s: int) -> None:
    """Independent re-check: S is a set of at most k edges of G whose
    contraction leaves diameter at most s."""
    assert S is not None
    assert len(set(S)) == len(S) <= k
    assert all(G.has_edge(a, b) for a, b in S)
    assert diameter(contract_edges(G, S)) <= s


def _atfree_connected(max_n: int):
    for n in range(2, max_n + 1):
        for G in connected_graphs(n):
            if is_at_free(G) is True:
                yield G


# SHA-256 of the repr of every answer below, in order: each
# minimum_contraction pair and each s_club_contract_decide set or None.  It
# pins the witnesses as well as the verdicts.
_SWEEP_ANSWERS_SHA256 = "95b912b72525882f594cc87607bad8f7bfcd80c3b4fac228b7c30e45b8b8747b"


def test_exhaustive_small_atfree_graphs_match_oracle():
    graphs = list(_atfree_connected(7))
    assert len(graphs) == 862
    decided = 0
    answers = []
    for G in graphs:
        d = diameter(G)
        for s in (2, 3):
            answers.append(minimum_contraction(G, s))
            k_min, S = answers[-1]
            assert k_min == min_club_contraction_oracle(G, s, G.n), (G.rows, s)
            _check_witness(G, S, k_min, s)
            assert len(S) == k_min
            for k in range(max(0, d - s - 1), d - s + 3):
                S = s_club_contract_decide(G, s, k)
                answers.append(S)
                if k >= k_min:
                    _check_witness(G, S, k, s)
                else:
                    assert S is None, (G.rows, s, k)
                decided += 1
    assert decided > 3000
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == _SWEEP_ANSWERS_SHA256


def _bound_graphs():
    """Connected seeded interval graphs and caterpillars with n = 20..160,
    then every AT-free graph of the exhaustive sweep."""
    rng = random.Random(47)
    for n in (20, 40, 80, 160):
        for make in (random_interval_graph, random_caterpillar):
            for _ in range(3):
                G = make(n, rng)
                if is_connected(G):
                    yield G
    yield from _atfree_connected(7)


def _tight_from_the_matrix(G: Graph, s: int):
    """The bound's set from the distance matrix's first diametral pair
    alone, not the double sweep's: what ``_tight_from`` proposes, kept only
    when it passes the bound's re-check."""
    first = next(_diametral_pairs(G), None)
    S = None if first is None else _tight_from(G, s, first)
    return S if not S or diameter_at_most(G, s, S) else None


def _tight_set(G: Graph, s: int):
    """The set of ``tight_contraction``, after checking that its bound is
    the set's size."""
    bound, S = tight_contraction(G, s)
    assert S is None or bound == len(S), (G.rows, s)
    return S


def _check_tight_meets_the_atfree_minimum(tight) -> None:
    """The bound answers 1 750 of the 1 758 (graph, s) pairs."""
    answered = 0
    for G in _bound_graphs():
        for s in (2, 3):
            S = tight(G, s)
            if S is None:
                continue
            k_min, _ = minimum_contraction(G, s)
            assert len(S) == k_min == max(0, diameter(G) - s), (G.rows, s)
            _check_witness(G, S, k_min, s)
            answered += 1
    assert answered >= 1750


def test_tight_contraction_meets_the_atfree_minimum():
    _check_tight_meets_the_atfree_minimum(_tight_set)


def test_tight_contraction_from_the_matrix_meets_the_atfree_minimum():
    _check_tight_meets_the_atfree_minimum(_tight_from_the_matrix)


def test_tight_contraction_meets_the_atfree_minimum_at_scale():
    """Seeded interval graphs (connected, as consecutive intervals overlap
    when spread <= 0.5) and caterpillars with n = 320 and 640."""
    rng = random.Random(59)
    for n in (320, 640):
        for G in (random_interval_graph(n, rng, spread=0.5), random_caterpillar(n, rng)):
            for s in (2, 3):
                S = _tight_set(G, s)
                assert S is not None and len(S) == minimum_contraction(G, s)[0], \
                    (n, s)


def test_brute_force_answers_match_the_unpruned_walk_at_scale():
    """Seeded permutation graphs with n = 16..40 and d - s in {1, 2}, where
    the AT-free solver's k <= 2 search decides: its witnesses at the tight
    budget and for the minimum are the first sets that the unpruned subset
    walk finds.  At n = 40 that walk takes 1-2.5 s on seeds 2 and 5, so two
    other seeds stand in for the larger size."""
    cases = [(n, seed) for n in (16, 24, 32) for seed in range(10)]
    cases += [(40, 3), (40, 4)]
    seen = set()
    for n, seed in cases:
        G = random_permutation_graph(n, random.Random(1000 * n + seed))
        if not is_connected(G):
            continue
        d = diameter(G)
        for s in (2, 3):
            if d - s not in (1, 2):
                continue
            ref = reference_club_set(G, s, d - s + 1)
            assert ref is not None and len(ref) <= 2, (n, seed, s)
            tight = ref if len(ref) == d - s else None
            assert s_club_contract_decide(G, s, d - s) == tight
            assert tight_contraction(G, s) == (d - s, tight), (n, seed, s)
            assert minimum_contraction(G, s) == (len(ref), ref), (n, seed, s)
            seen.add((d - s, len(ref)))
    assert seen == {(1, 1), (2, 2), (1, 2)}


def _sparse_connected(n: int, rng: random.Random) -> Graph:
    """A random spanning tree on n vertices plus up to three random edges."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
    return Graph.from_edges(n, [(min(e), max(e)) for e in edges])


def _check_tight_matches_the_oracle(tight) -> None:
    """Graphs of any class, AT-free or not: every connected graph with
    n <= 7 and 400 seeded sparse connected graphs with n = 8.  The bound
    answers 2 644 of the 2 790 (graph, s) pairs."""
    rng = random.Random(53)
    graphs = [G for n in range(2, 8) for G in connected_graphs(n)]
    graphs += [_sparse_connected(8, rng) for _ in range(400)]
    answered = 0
    for G in graphs:
        for s in (2, 3):
            S = tight(G, s)
            if S is None:
                continue
            assert len(S) == max(0, diameter(G) - s) \
                == min_club_contraction_oracle(G, s, G.n), (G.rows, s)
            _check_witness(G, S, len(S), s)
            answered += 1
    assert answered >= 2644


def test_tight_contraction_matches_the_oracle_on_any_small_graph():
    _check_tight_matches_the_oracle(_tight_set)


def test_tight_contraction_from_the_matrix_matches_the_oracle_on_any_small_graph():
    _check_tight_matches_the_oracle(_tight_from_the_matrix)


def test_solve_club_at_s1_agrees_with_the_subset_walk_on_any_small_graph():
    """At s = 1 the d - s bound answers before the subset walk.  On every
    connected graph with n <= 7 the answer has the walk's size, every set
    the bound gives certifies, and the bound says no only to k < d - 1.  It
    gives 77 smallest sets, 153 yeses and 1 641 noes."""
    answers = {"set": 0, "yes": 0, "no": 0}
    for n in range(1, 8):
        for G in connected_graphs(n):
            k_min, d = len(min_club_contraction_set(G, 1, G.m)), diameter(G)
            solver, S = solve_club(G, 1, None, G.n)
            assert len(S) == k_min, G.rows
            _check_witness(G, S, k_min, 1)
            answers["set"] += solver == "bound"
            for k in range(d + 1):
                solver, S = solve_club(G, 1, k, G.n)
                assert (S is not None) == (k >= k_min), (G.rows, k)
                if S is not None:
                    _check_witness(G, S, k, 1)
                if solver == "bound":
                    assert S is not None and diameter_at_most(G, 1, S) or k < d - 1
                    answers["yes" if S is not None else "no"] += 1
    assert answers == {"set": 77, "yes": 153, "no": 1641}


@pytest.mark.parametrize("G", [
    Graph.empty(0), Graph.empty(1), disjoint_union(Graph.path(2), Graph.path(2)),
    Graph.empty(2), disjoint_union(Graph.path(8), Graph.path(3)),
    disjoint_union(Graph.empty(1), Graph.path(8)),
])
def test_tight_contraction_decides_nothing_on_tiny_or_disconnected_graphs(G):
    """No set on a disconnected graph: its infinite bound refutes every
    budget.  Below two vertices the bound is 0 and its set (), as on any
    graph already within s; the matrix has a pair there only on K1."""
    for s in (2, 3):
        assert tight_contraction(G, s) == ((math.inf, None) if G.n > 1 else (0, ()))
        assert tight_contraction(G, s, 0) == tight_contraction(G, s)
        assert _tight_from_the_matrix(G, s) == (() if G.n == 1 else None)


def test_tight_contraction_needs_no_edge_within_s():
    """K2 and K3 have d = 1 <= s: the first diametral pair answers ()."""
    for G in (Graph.path(2), Graph.complete(3)):
        for s in (2, 3):
            assert tight_contraction(G, s) == (0, ())


def test_tight_contraction_stops_at_a_budget_below_the_bound(monkeypatch):
    """A budget below d' - s is refuted from the double sweep's two BFS
    rows, and one below d - s from the first diametral pair, before any
    scan or walk; the bound it returns is the pair's d - s."""
    for name in ("_scan_paths", "_first_club_set"):
        monkeypatch.setattr(club_contraction, name, None)
    G = random_interval_graph(320, random.Random(61), spread=0.5)
    u, v, d = sweep_pair(G)
    assert tight_contraction(G, 2, d - 3) == (d - 2, None)
    assert set(G.dist) <= {0, u}
    # d' = 4 < d = 5: budget 2 passes the sweep, and fails at the pair.
    H = parse_graph(b"HrO__OG", "graph6")
    assert tight_contraction(H, 2, 2) == (3, None)
    assert tight_contraction(H, 2, 1) == (2, None)


# Not AT-free, d = 5: the double sweep from vertex 0 reaches the pair (6, 7)
# at distance 4, so d' - s = 2 and nothing is scanned, while the matrix's
# first diametral pair (5, 7) yields 3 edges.
def test_tight_contraction_from_the_matrix_pair_when_the_sweep_falls_short(
        monkeypatch):
    G = parse_graph(b"HrO__OG", "graph6")
    assert G.n == 9 and is_at_free(G) is not True and diameter(G) == 5
    assert sweep_pair(G) == (6, 7, 4)
    assert next(_diametral_pairs(G), None) == (5, 7, 5)
    assert _tight_from(G, 2, sweep_pair(G)) is None
    S = _tight_from_the_matrix(G, 2)
    assert len(S) == 3 == min_club_contraction_oracle(G, 2, G.n)
    _check_witness(G, S, 3, 2)
    # The sweep's d' - s = 2 is below the scan's 3: tight_contraction goes
    # straight to the first diametral pair, scanning it alone and walking
    # no subsets, where _tight_from on the sweep pair would walk.
    scanned = []
    scan = club_contraction._scan_paths

    def spy_scan(H, pair, k):
        scanned.append((*pair[:2], k))
        return scan(H, pair, k)

    monkeypatch.setattr(club_contraction, "_scan_paths", spy_scan)
    walks = _spy(monkeypatch, "_first_club_set")
    assert tight_contraction(G, 2) == (3, S)
    assert scanned == [(5, 7, 3)] and walks == []


def test_tight_scan_reads_only_rows_near_the_ends():
    """An answer from the double sweep's pair computes the BFS rows of
    vertex 0, u and v alone: the scan reads balls around its candidate
    edges, and the re-check grows balls in the merged rows.  The scan finds
    the same path as from the full matrix."""
    G = random_interval_graph(320, random.Random(61), spread=0.5)
    pair = u, v, d = sweep_pair(G)
    paths = [_scan_paths(G, pair, d - s) for s in (2, 3)]
    assert set(G.dist) <= {0, u, v}
    assert all(path[0] is not None for path in paths)
    H = Graph(G.n, G.rows)
    all_pairs_distances(H)
    assert paths == [_scan_paths(H, pair, d - s) for s in (2, 3)]
    rng = random.Random(67)
    answered = 0
    for n in (200, 320):
        for _ in range(3):
            for G in (random_interval_graph(n, rng, spread=0.5),
                      random_caterpillar(n, rng)):
                u, v, _ = sweep_pair(Graph(G.n, G.rows))
                for s in (2, 3):
                    H = Graph(G.n, G.rows)
                    if tight_contraction(H, s)[1] is not None:
                        assert set(H.dist) <= {0, u, v}, (n, s)
                        answered += 1
    assert answered == 24


# Graphs with d = 5 whose first diametral pair's scanned path of length
# d - s = 3 fails the re-check (neither is AT-free); the oracle needs more
# than d - s contractions on both.
@pytest.mark.parametrize("g6, k_min", [("Il_OQP_?O", 4), ("HrGGWd?", 3)])
def test_tight_contraction_misses_when_the_recheck_fails(g6, k_min):
    G = parse_graph(g6.encode(), "graph6")
    s = 2
    assert diameter(G) == 5 and is_at_free(G) is not True
    u, v, _ = next(_diametral_pairs(G), None)
    pair = distance_profile(G, u, v)
    assert _scan_paths(G, pair, 3)[0] is not None
    # no path is longer than the diameter
    assert _scan_paths(G, pair, 6) == (None, None)
    assert tight_contraction(G, s) == (3, None)
    assert min_club_contraction_oracle(G, s, G.n) == k_min


def _spy(monkeypatch, name: str) -> list:
    """Record every result the named private step returns."""
    original = getattr(club_contraction, name)
    results = []

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(club_contraction, name, wrapper)
    return results


# The exact set that s_club_contract_decide answers at each budget k >= k_min
# (s = 2) on the graphs below; minimum_contraction answers the set at k_min.
_NAMED_WITNESSES = {
    "GQr@Og": {3: ((0, 2), (0, 4), (2, 6)), 4: ((0, 2), (0, 4), (1, 4), (1, 3)),
               5: ((0, 2), (0, 4), (1, 4), (1, 3))},
    "GUW?KG": {3: ((0, 7), (5, 6), (5, 7)), 4: ((0, 7), (5, 6), (5, 7)),
               5: ((1, 3), (0, 3), (0, 7), (5, 7), (5, 6))},
    "ItLwO?B?G": {4: ((0, 1), (2, 4), (4, 6), (6, 8)),
                  5: ((0, 2), (2, 4), (4, 6), (6, 8), (7, 8))},
    "IgKWWKA@W": {4: ((0, 1), (1, 2), (2, 4), (3, 4)),
                  5: ((0, 1), (1, 2), (2, 4), (4, 6), (6, 8))},
}


def test_minimum_contraction_needs_two_extra_edges_on_a_path_blow_up(monkeypatch):
    """GUWEGg with each vertex u replaced by the path 4u..4u+3, and two
    paths joined completely where their vertices are adjacent: AT-free, with
    d - s = 1 at s = 2, and no set of d - s + 1 = 2 edges works, so the
    ladder answers from its d - s + 2 step, from the one table and the one
    dominating pair that it built for the tight step."""
    H = parse_graph(b"GUWEGg", "graph6")
    c = 4
    G = Graph.from_edges(c * H.n, [(c * u + i, c * u + i + 1)
                                   for u in range(H.n) for i in range(c - 1)]
                         + [(c * u + i, c * v + j)
                            for u in range(H.n) for v in range(u + 1, H.n)
                            if H.has_edge(u, v)
                            for i in range(c) for j in range(c)])
    assert (G.n, G.m, diameter(G)) == (32, 184, 3) and is_at_free(G) is True
    assert tight_contraction(G, 2) == (1, None)
    assert min_club_contraction_set(G, 2, 2) is None
    assert s_club_contract_decide(G, 2, 2) is None
    pairs = _spy(monkeypatch, "_dominating_diametral_pair")
    tables = _spy(monkeypatch, "AvoidingComponents")
    k, S = minimum_contraction(G, 2)
    assert (k, S) == (3, ((0, 8), (0, 24), (20, 24)))
    assert (len(pairs), len(tables)) == (1, 1)
    assert diameter_at_most(G, 2, S)


@pytest.mark.parametrize("g6, step", [
    ("GQr@Og", "_one_extra_contraction"),
    ("GUW?KG", "_pinned_attempt"),
])
def test_pinned_branches_beyond_the_exhaustive_sweep(monkeypatch, g6, step):
    witnesses = _NAMED_WITNESSES[g6]
    G = parse_graph(g6.encode(), "graph6")
    s = 2
    assert is_at_free(G) is True and G.n == 8
    k_min = min_club_contraction_oracle(G, s, G.n)
    assert k_min == 3
    results = _spy(monkeypatch, step)
    got, S = minimum_contraction(G, s)
    assert got == k_min
    _check_witness(G, S, k_min, s)
    assert S == witnesses[k_min]
    assert any(r is not None for r in results)
    for k in range(0, 6):
        S = s_club_contract_decide(G, s, k)
        assert (S is not None) == (k >= k_min)
        assert S == witnesses.get(k)
        if S is not None:
            _check_witness(G, S, k, s)


# AT-free graphs with d = 5 whose tight budget d - s = 3 fails: the first
# has no satisfying path of length 3, the second has only pinned ones, and
# neither pinned attempt succeeds.  Budget 4 then succeeds through one
# guessed contraction.
@pytest.mark.parametrize("g6, found_any", [("ItLwO?B?G", False), ("IgKWWKA@W", True)])
def test_tight_no_answers_beyond_the_exhaustive_sweep(monkeypatch, g6, found_any):
    witnesses = _NAMED_WITNESSES[g6]
    G = parse_graph(g6.encode(), "graph6")
    s, d = 2, 5
    assert is_at_free(G) is True and G.n == 10 and diameter(G) == d
    k_min = min_club_contraction_oracle(G, s, G.n)
    assert k_min == 4
    assert minimum_contraction(G, s) == (k_min, witnesses[k_min])
    scans = _spy(monkeypatch, "_scan_paths")
    pinned = _spy(monkeypatch, "_pinned_attempt")
    extra = _spy(monkeypatch, "_one_extra_contraction")
    assert s_club_contract_decide(G, s, d - s) is None
    assert [(path, pinned is not None) for path, pinned in scans] \
        == [(None, found_any)]
    assert pinned == ([None, None] if found_any else [])
    assert extra == []
    for k in range(0, d - s + 3):
        S = s_club_contract_decide(G, s, k)
        assert (S is not None) == (k >= k_min)
        assert S == witnesses.get(k)
        if S is not None:
            _check_witness(G, S, k, s)
    assert len(extra) == 1 and extra[0] is not None


def _never(*args):
    return False


def test_tight_step_certifies_only_from_a_dominating_pair(monkeypatch):
    """P8 at s = 2 has d - s = 5 and an unpinned scanned path, which both
    modes of the tight step propose unchecked.  When its re-check fails,
    the ladder's exit, ``witness.certify_contraction``, raises, as a
    dominating pair's path must reach diameter s, and the bound counts a
    miss."""
    G = Graph.path(8)
    pair = (*diameter_dominating_pair(G), diameter(G))
    assert pair == (0, 7, 7)
    assert _tight_from(G, 2, pair) == _tight_from(G, 2, pair, dominating=True) \
        == ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6))
    monkeypatch.setattr(club_contraction, "diameter_at_most", _never)
    monkeypatch.setattr(witness, "diameter_at_most", _never)
    with pytest.raises(InvalidStructureError):
        s_club_contract_decide(G, 2, 5)
    assert tight_contraction(G, 2) == (5, None)


def test_one_extra_contraction_misses_when_no_quotient_is_tight():
    """C9 at s = 2 (d = 4): every guessed quotient has dq - s <= 2, so its
    walk decides with no dominating pair, and none reaches diameter 2 with
    the tight budget.  The oracle's minimum is d - s + 2."""
    G = Graph.cycle(9)
    assert diameter(G) == 4
    assert _one_extra_contraction(G, 2, 4) is None
    assert min_club_contraction_oracle(G, 2, G.n) == 4


def test_one_extra_contraction_misses_on_an_at_free_graph(monkeypatch):
    """H?`DA_{, two 5-cycles sharing a vertex, is AT-free with n = 9 and
    d = 4: at s = 2 no set of d - s + 1 = 3 edges works, so the ladder's
    guess of one extra contraction returns None, and the smallest set
    comes from its d - s + 2 step."""
    G = parse_graph(b"H?`DA_{", "graph6")
    assert (G.n, diameter(G), is_at_free(G)) == (9, 4, True)
    assert minimum_contraction(G, 2) == (4, ((0, 4), (4, 8), (5, 8), (1, 5)))
    assert _first_club_set(G, 2, 3) is None
    extra = _spy(monkeypatch, "_one_extra_contraction")
    assert s_club_contract_decide(G, 2, 3) is None
    assert extra == [None]


def test_tight_step_tries_the_pinned_attempts_only_from_a_dominating_pair(monkeypatch):
    """On GUW?KG (d = 5) every satisfying path of length 3 is pinned: the
    bound's call answers None without trying them, and the ladder's call
    finds the set from the pinned attempts."""
    G = parse_graph(b"GUW?KG", "graph6")
    pair = (*diameter_dominating_pair(G), diameter(G))
    pinned = _spy(monkeypatch, "_pinned_attempt")
    assert _tight_from(G, 2, pair) is None
    assert pinned == []
    assert _tight_from(G, 2, pair, dominating=True) == ((0, 7), (5, 6), (5, 7))
    assert pinned and pinned[-1] is not None


def test_pinned_instances_have_the_expected_diameters():
    assert diameter(parse_graph(b"GQr@Og", "graph6")) == 4
    assert diameter(parse_graph(b"GUW?KG", "graph6")) == 5


_SCAN_MAKERS = (random_interval_graph, random_caterpillar, random_permutation_graph)


def _scan_graphs():
    """Connected AT-free interval, caterpillar and permutation graphs with
    n = 12..40, three per family and size."""
    rng = random.Random(41)
    for n in range(12, 41, 4):
        for make in _SCAN_MAKERS:
            for _ in range(3):
                G = make(n, rng)
                if is_connected(G) and is_at_free(G) is True:
                    yield G


def _scan_setup(G: Graph):
    u, v = diameter_dominating_pair(G)
    return distance_profile(G, u, v), all_pairs_distances(G)


def test_scanned_paths_satisfy_the_definition():
    checked = 0
    for G in _scan_graphs():
        pair, _ = _scan_setup(G)
        u, v, d = pair
        for k in range(3, d + 1):
            unpinned, pinned = _scan_paths(G, pair, k)
            paths = [p for p in (unpinned, pinned) if p is not None]
            for Q in paths:
                assert len(Q) == k + 1
                assert is_satisfying_path(G, pair, Q)
                checked += 1
            if unpinned is not None:
                assert unpinned[0] != u and unpinned[-1] != v
            if pinned is not None:
                assert pinned[0] == u or pinned[-1] == v
    assert checked > 600


def _per_pair_scan(G: Graph, pair, k: int, dist):
    """Reference scan between the pair (u, v, d): for every ordered (first
    edge, last edge) pair that meets the end conditions, grow a layered
    reach from x1 from scratch and trace it back from x_{k-1} through the
    smallest reached neighbours.  The far sets are the vertices at distance
    d and d - 1 in the BFS rows of u and v."""
    u, v, d = pair
    du, dv = dist[u], dist[v]
    X_u, Y_u, X_v, Y_v = ([z for z, t in enumerate(row) if t == r]
                          for row in (du, dv) for r in (d, d - 1))

    def ends_ok(x0, x1, ref, X, Y):
        d0, d1 = dist[x0], dist[x1]
        return (all(d0[z] == ref for z in X)
                and all(d0[z] <= ref or d1[z] <= ref for z in Y))

    layered = [(a, b) for a in range(G.n) for b in G.neighbors(a)
               if du[b] == du[a] + 1]
    pinned = None
    for x0, x1 in layered:
        if du[x0] + k > d or not ends_ok(x0, x1, du[x0], X_v, Y_v):
            continue
        for xk1, xk in layered:
            if (du[xk1] != du[x0] + k - 1 or du[xk] != du[x0] + k
                    or du[x0] + k + dv[xk] != d
                    or not ends_ok(xk, xk1, dv[xk], X_u, Y_u)):
                continue
            reach = [{x1}]
            for _ in range(k - 2):
                reach.append({w for a in reach[-1] for w in G.neighbors(a)
                              if du[w] == du[a] + 1})
            if xk1 not in reach[-1]:
                continue
            interior = [xk1]
            for t in range(k - 3, -1, -1):
                interior.append(min(w for w in G.neighbors(interior[-1])
                                    if w in reach[t]))
            path = [x0] + interior[::-1] + [xk]
            if x0 != u and xk != v:
                return path, pinned
            if pinned is None:
                pinned = path
    return None, pinned


def test_path_scan_matches_the_per_pair_scan():
    """From a diameter dominating pair of AT-free graphs, and from the pairs
    that ``tight_contraction`` scans from, the double sweep's and the first
    diametral pair, of those graphs, of seeded chordal graphs and of every
    connected graph with n <= 7, most of them not AT-free."""
    graphs = list(_scan_graphs())
    rng = random.Random(43)
    for _ in range(100):
        for make in _SCAN_MAKERS:
            G = make(rng.randint(8, 40), rng)
            if is_connected(G) and is_at_free(G) is True:
                graphs.append(G)
    assert len(graphs) > 250
    for G in graphs:
        pair, dist = _scan_setup(G)
        for k in range(3, pair[2] + 1):
            assert _scan_paths(G, pair, k) == _per_pair_scan(G, pair, k, dist), \
                (G.rows, k)
    graphs += [random_chordal(rng.randint(8, 40), rng) for _ in range(100)]
    graphs += [G for n in range(4, 8) for G in connected_graphs(n)]
    scans = 0
    for G in graphs:
        dist = all_pairs_distances(G)
        for pair in {sweep_pair(G), next(_diametral_pairs(G), None)}:
            for k in range(3, pair[2] + 1):
                assert _scan_paths(G, pair, k) == _per_pair_scan(G, pair, k, dist), \
                    (G.rows, pair, k)
                scans += 1
    assert scans > 3000


def test_is_satisfying_path_rejects_non_paths():
    G = Graph.path(6)
    pair = distance_profile(G, 0, 5)
    assert pair == (0, 5, 5)
    assert is_satisfying_path(G, pair, [1, 2, 3, 4])
    assert not is_satisfying_path(G, pair, [4, 3, 2])
    with pytest.raises(DomainError):
        is_satisfying_path(G, pair, [1, 3])
    with pytest.raises(DomainError):
        is_satisfying_path(G, pair, [2])


def test_domain_errors():
    P5 = Graph.path(5)
    with pytest.raises(DomainError):
        s_club_contract_decide(P5, 1, 2)
    with pytest.raises(DomainError):
        minimum_contraction(P5, 1)
    with pytest.raises(DomainError):
        s_club_contract_decide(P5, 2, -1)
    for call in (lambda G: minimum_contraction(G, 2),
                 lambda G: s_club_contract_decide(G, 2, 3)):
        with pytest.raises(DomainError) as info:
            call(Graph.cycle(6))
        assert info.value.certificate == (0, 2, 4)
    split = disjoint_union(Graph.path(3), Graph.path(3))
    # the one message of club-minor and `oracle club-minor`
    with pytest.raises(DomainError, match="^disconnected graphs cannot be "
                       "contracted to finite diameter$"):
        minimum_contraction(split, 2)
    assert s_club_contract_decide(split, 2, 3) is None
    with pytest.raises(DomainError):
        distance_profile(split, 0, 2)
    with pytest.raises(DomainError):
        distance_profile(P5, 0, 3)

