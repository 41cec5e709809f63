from __future__ import annotations

import random

import pytest

from minorclub import club_contraction
from minorclub.club_contraction import (_scan_paths, distance_profile,
                                        is_satisfying_path,
                                        minimum_contraction,
                                        s_club_contract_decide)
from minorclub.errors import DomainError
from minorclub.formats import parse_graph
from minorclub.graph import (Graph, all_pairs_distances, contract_edges,
                             diameter, disjoint_union, is_connected)
from minorclub.oracle import min_club_contraction_oracle
from minorclub.recognition import diameter_dominating_pair, is_at_free

from genutil import (connected_graphs, random_caterpillar,
                     random_interval_graph, random_permutation_graph)


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


def test_exhaustive_small_atfree_graphs_match_oracle():
    graphs = list(_atfree_connected(7))
    assert len(graphs) == 862
    decided = 0
    for G in graphs:
        d = diameter(G)
        for s in (2, 3):
            k_min, S = minimum_contraction(G, s)
            assert k_min == min_club_contraction_oracle(G, s, G.n), (G.rows, s)
            _check_witness(G, S, k_min, s)
            assert len(S) == k_min
            for k in range(max(0, d - s - 1), d - s + 3):
                dec = s_club_contract_decide(G, k, s)
                assert dec.yes == (k >= k_min), (G.rows, s, k)
                if dec.yes:
                    _check_witness(G, dec.witness, k, s)
                else:
                    assert dec.witness is None
                decided += 1
    assert decided > 3000


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


@pytest.mark.parametrize("g6, step", [
    ("GQr@Og", "_one_extra_contraction"),
    ("GUW?KG", "_pinned_attempt"),
])
def test_pinned_branches_beyond_the_exhaustive_sweep(monkeypatch, g6, step):
    G = parse_graph(g6.encode(), "graph6")
    s = 2
    assert is_at_free(G) is True and G.n == 8
    k_min = min_club_contraction_oracle(G, s, G.n)
    assert k_min == 3
    results = _spy(monkeypatch, step)
    got, S = minimum_contraction(G, s)
    assert got == k_min
    _check_witness(G, S, k_min, s)
    assert any(r is not None for r in results)
    for k in range(0, 6):
        dec = s_club_contract_decide(G, k, s)
        assert dec.yes == (k >= k_min)
        if dec.yes:
            _check_witness(G, dec.witness, k, s)


def test_pinned_instances_have_the_expected_diameters():
    assert diameter(parse_graph(b"GQr@Og", "graph6")) == 4
    assert diameter(parse_graph(b"GUW?KG", "graph6")) == 5


def test_scanned_paths_satisfy_the_definition():
    rng = random.Random(41)
    makers = (random_interval_graph, random_caterpillar,
              random_permutation_graph)
    checked = 0
    for n in range(12, 41, 4):
        for make in makers:
            for _ in range(3):
                G = make(n, rng)
                if not is_connected(G) or is_at_free(G) is not True:
                    continue
                u, v = diameter_dominating_pair(G)
                prof = distance_profile(G, u, v)
                dist = all_pairs_distances(G)
                for k in range(3, prof.d + 1):
                    unpinned, found_any, pinned = _scan_paths(G, prof, k, dist)
                    paths = [p for p in (unpinned, pinned) if p is not None]
                    assert found_any == bool(paths)
                    for Q in paths:
                        assert len(Q) == k + 1
                        assert is_satisfying_path(G, prof, Q)
                        checked += 1
                    if unpinned is not None:
                        assert unpinned[0] != u and unpinned[-1] != v
    assert checked > 600


def test_is_satisfying_path_rejects_non_paths():
    G = Graph.path(6)
    prof = distance_profile(G, 0, 5)
    assert is_satisfying_path(G, prof, [1, 2, 3, 4])
    assert not is_satisfying_path(G, prof, [4, 3, 2])
    with pytest.raises(DomainError):
        is_satisfying_path(G, prof, [1, 3])
    with pytest.raises(DomainError):
        is_satisfying_path(G, prof, [2])


def test_domain_errors():
    P5 = Graph.path(5)
    with pytest.raises(DomainError):
        s_club_contract_decide(P5, 2, 1)
    with pytest.raises(DomainError):
        minimum_contraction(P5, 1)
    with pytest.raises(DomainError):
        s_club_contract_decide(P5, -1, 2)
    for call in (lambda G: minimum_contraction(G, 2),
                 lambda G: s_club_contract_decide(G, 3, 2)):
        with pytest.raises(DomainError) as info:
            call(Graph.cycle(6))
        assert info.value.certificate == (0, 2, 4)
    split = disjoint_union(Graph.path(3), Graph.path(3))
    with pytest.raises(DomainError):
        minimum_contraction(split, 2)
    assert s_club_contract_decide(split, 3, 2).yes is False
    with pytest.raises(DomainError):
        distance_profile(split, 0, 2)
    with pytest.raises(DomainError):
        distance_profile(P5, 0, 3)
