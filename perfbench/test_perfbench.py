"""Tests of the benchmark itself: run with

    python3 -m pytest -q perfbench/test_perfbench.py

They check the failure rule of the percentiles, that the answer checker
rejects corrupted answers, and that small generated instances belong to
their class by brute force, without the library.
"""

from __future__ import annotations

import math
import random
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402


# Percentiles ------------------------------------------------------------------

def test_failures_count_as_slower_than_any_completed_instance():
    lat = [1.0, 2.0, 3.0, None]
    assert check.percentile(lat, 50) == 2.0
    assert check.percentile(lat, 90) == math.inf
    assert check.percentile([5.0] * 9 + [None], 90) == 5.0
    assert check.percentile([None, None], 50) == math.inf


def test_fixing_a_crash_never_raises_a_percentile():
    lat = [float(x) for x in range(1, 20)] + [None]
    fixed = lat[:-1] + [1000.0]
    for q in (50, 90):
        assert check.percentile(fixed, q) <= check.percentile(lat, q)


# Answer checker ------------------------------------------------------------------

def _k4_with_tails():
    # K4 on 0..3, and 4-5 a tail off 3.
    return gen.from_edges(6, [(a, b) for a, b in combinations(range(4), 2)] + [(3, 4), (4, 5)])


def test_checker_accepts_a_correct_minor_witness():
    rows = _k4_with_tails()
    report = {"result": {"h": 4, "witness": [[0], [1], [2], [3, 4]]}}
    assert check.check_answer({"kind": "bags", "h": 4}, rows, report) is None


@pytest.mark.parametrize("bags, why", [
    ([[0], [1], [2], [2, 3]], "overlap"),
    ([[0], [1], [2], [3, 5]], "not connected"),
    ([[0], [1], [2], [5]], "not adjacent"),
    ([[0], [1], [2]], "bags for h"),
])
def test_checker_rejects_a_corrupted_minor_witness(bags, why):
    rows = _k4_with_tails()
    problem = check.check_answer({"kind": "bags", "h": 4}, rows,
                                 {"result": {"h": 4, "witness": bags}})
    assert problem is not None and why in problem


def test_checker_rejects_a_wrong_value():
    rows = _k4_with_tails()
    assert check.check_answer({"kind": "cograph", "h": 4}, rows,
                              {"solver": "cograph", "result": {"h": 5, "cr_table": [5]}})
    assert check.check_answer({"kind": "cm", "size": 2}, rows,
                              {"result": {"size": 1, "matching_edges": [[0, 1]]}})
    assert check.check_answer({"kind": "club-contract", "s": 2, "k": 1, "yes": False},
                              rows, {"result": {"answer": "yes", "witness_edges": [[3, 4]]}})


def test_checker_rejects_a_corrupted_contraction_witness():
    # Spider with three legs of length two: diameter 4, and reaching
    # diameter 2 takes the three edges at the centre.
    rows = gen.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    expect = {"kind": "club-minor", "s": 2, "k": 3}

    def report(edges):
        return {"result": {"k_min": 3, "p": 4, "witness_edges": edges}}
    assert check.check_answer(expect, rows, report([[0, 1], [0, 3], [0, 5]])) is None
    assert "diameter" in check.check_answer(expect, rows, report([[0, 1], [1, 2], [0, 3]]))
    assert "edges for k" in check.check_answer(expect, rows, report([[0, 1], [0, 3]]))
    assert "non-edges" in check.check_answer(expect, rows, report([[0, 2], [0, 3], [0, 5]]))


def test_checker_rejects_a_corrupted_clique_matching():
    rows = gen.from_edges(4, [(0, 1), (2, 3)])  # two disjoint edges, nothing between
    problem = check.check_clique_matching(rows, [(0, 1), (2, 3)], 2)
    assert "see no edge" in problem


# Generators ----------------------------------------------------------------------

def _strong_order_exists(rows):
    """Some bipartition and order of one side make every neighbourhood on
    the other side an interval, with nested neighbourhoods differing in an
    interval: the bipartite permutation definition, by brute force."""
    n = len(rows)
    side = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s], stack = 0, [s]
        while stack:
            u = stack.pop()
            for w in range(n):
                if rows[u] >> w & 1:
                    if side[w] < 0:
                        side[w] = 1 - side[u]
                        stack.append(w)
                    elif side[w] == side[u]:
                        return False
    for a_side in (0, 1):
        A = [v for v in range(n) if side[v] == a_side]
        B = [v for v in range(n) if side[v] != a_side]
        for order in permutations(B):
            pos = {v: i for i, v in enumerate(order)}
            nbrs = [{pos[w] for w in range(n) if rows[u] >> w & 1} for u in A]

            def interval(s):
                return not s or max(s) - min(s) + 1 == len(s)
            if all(interval(s) for s in nbrs) and all(
                    interval(t - s) for s in nbrs for t in nbrs if s <= t):
                return True
    return False


@pytest.mark.parametrize("family", ["random_cograph", "threshold_cograph"])
def test_small_cographs_are_p4_free(family):
    for index in range(20):
        rows = gen.base_graph(family, 9, index)
        assert not any(_induces_p4(rows, q) for q in combinations(range(9), 4))


def _induces_p4(rows, quad):
    es = [(a, b) for a, b in combinations(quad, 2) if rows[a] >> b & 1]
    if len(es) != 3:
        return False
    deg = {v: sum(v in e for e in es) for v in quad}
    return sorted(deg.values()) == [1, 1, 2, 2]


@pytest.mark.parametrize("family", ["sparse_staircase", "dense_staircase"])
def test_small_staircases_are_connected_bipartite_permutation_graphs(family):
    for index in range(12):
        rows = gen.base_graph(family, 8, index)
        assert check.diameter(rows) < math.inf
        assert _strong_order_exists(rows)
        assert any(_induces_p4(rows, q) for q in combinations(range(8), 4))


@pytest.mark.parametrize("family", ["interval", "caterpillar", "permutation"])
def test_small_at_free_graphs_are_connected_and_at_free(family):
    for index in range(12):
        rows = gen.base_graph(family, 10, index)
        assert check.diameter(rows) < math.inf
        assert gen.asteroidal_triple(rows) is None


def test_fallback_graphs_leave_the_polynomial_classes():
    for index in range(12):
        rows = gen.base_graph("gnp", 9, index)
        assert gen.has_triangle(rows) and gen.has_induced_p4(rows)
        assert check.diameter(rows) < math.inf
        rows = gen.base_graph("non_atfree", 9, index)
        assert gen.asteroidal_triple(rows) is not None
        assert check.diameter(rows) < math.inf


def test_relabelling_is_an_isomorphism():
    rows = gen.base_graph("interval", 12, 0)
    perm = list(range(12))
    random.Random(3).shuffle(perm)
    moved = gen.relabel(rows, perm)
    assert {tuple(sorted((perm[u], perm[v]))) for u, v in gen.edges_of(rows)} == \
        set(gen.edges_of(moved))


def test_a_seed_fixes_the_plan_and_instances_in_a_run_are_distinct():
    for name in workloads.WORKLOADS:
        a = [(t.key, i) for t, i, _ in workloads.plan(name, 7)]
        b = [(t.key, i) for t, i, _ in workloads.plan(name, 7)]
        assert a == b and len(set(a)) == len(a)
        assert a != [(t.key, i) for t, i, _ in workloads.plan(name, 8)]
        assert len(a) >= 100
