from __future__ import annotations

import random
from functools import reduce

import pytest

from minorclub import cograph_dp
from minorclub.cograph_dp import (cograph_cr_table, cr_join, cr_union,
                                  hadwiger_cograph)
from minorclub.errors import DomainError
from minorclub.graph import (Graph, disjoint_union, induced_subgraph, join,
                             max_clique)
from minorclub.oracle import (enumerate_nice_structures, hadwiger_oracle,
                              nice_structure_oracle)
from minorclub.recognition import Cotree, recognize_cograph

from genutil import all_graphs, random_cograph

# A single vertex: one singleton bag, nothing with edge bags.
LEAF = (1, 0)


def reference_join(t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[int, ...]:
    """The cr_join docstring formula as a plain loop over every (r, s)."""
    n1, n2 = len(t1) - 1, len(t2) - 1
    values = []
    for r in range(n1 + n2 + 1):
        best = 0
        for s in range(min(n1, n2, r) + 1):
            for ti, ni, tother, nother in ((t1, n1, t2, n2), (t2, n2, t1, n1)):
                if ni - 2 * r + s < 0:
                    continue
                inner = ti[r - s]
                if r - s > 0 and inner == 0:
                    continue
                val = s + min(inner, ni - r) + min(nother - s, tother[0])
                best = max(best, val)
        values.append(best)
    return tuple(values)


def reference_union(t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, t1 + (0,) * (len(t2) - 1), t2 + (0,) * (len(t1) - 1)))


def random_table(rng: random.Random) -> tuple[int, ...]:
    n = rng.randint(1, 12)
    return tuple(0 if rng.random() < 0.4 else rng.randint(1, n + 1) for _ in range(n + 1))


def test_leaf_table():
    t = cograph_cr_table(Graph.empty(1))
    assert t == LEAF
    assert max(t) == 1


def test_union_is_pointwise_max():
    k2 = cr_join(LEAF, LEAF)
    assert k2 == (2, 1, 0)
    u = cr_union(k2, k2)
    assert len(u) == 5 and u == (2, 1, 0, 0, 0)
    # padding with an absent side keeps entries
    single = cr_union(LEAF, LEAF)
    assert single == (1, 0, 0)


def test_join_of_two_singletons_gives_edge_table():
    assert cr_join(LEAF, LEAF) == (2, 1, 0)


def test_join_reproduces_cycle_table():
    two = cr_union(LEAF, LEAF)  # 2K1
    c4 = cr_join(two, two)
    assert c4 == (2, 3, 2, 0, 0)
    assert nice_structure_oracle(join(Graph.empty(2), Graph.empty(2))) == c4


def test_join_r0_column_is_additive():
    rng = random.Random(2)
    for _ in range(25):
        G1 = random_cograph(rng.randint(1, 5), rng)
        G2 = random_cograph(rng.randint(1, 5), rng)
        t = cr_join(cograph_cr_table(G1), cograph_cr_table(G2))
        assert t[0] == max_clique(G1)[0] + max_clique(G2)[0]


def test_join_dominates_union():
    rng = random.Random(3)
    for _ in range(25):
        t1 = cograph_cr_table(random_cograph(rng.randint(1, 5), rng))
        t2 = cograph_cr_table(random_cograph(rng.randint(1, 5), rng))
        tj, tu = cr_join(t1, t2), cr_union(t1, t2)
        assert all(a >= b for a, b in zip(tj, tu))


def test_table_entry_bound():
    rng = random.Random(4)
    for _ in range(25):
        G = random_cograph(rng.randint(1, 8), rng)
        t = cograph_cr_table(G)
        for r, val in enumerate(t):
            assert val <= max(0, len(t) - 1 - r)


def test_hadwiger_examples():
    assert hadwiger_cograph(Graph.complete(6)) == 6
    assert hadwiger_cograph(Graph.cycle(4)) == 3
    K222 = join(join(Graph.empty(2), Graph.empty(2)), Graph.empty(2))
    assert hadwiger_cograph(K222) == 4
    assert hadwiger_cograph(Graph.empty(5)) == 1
    assert hadwiger_cograph(disjoint_union(Graph.complete(3), Graph.complete(4))) == 4


def test_not_a_cograph_raises_with_certificate():
    with pytest.raises(DomainError) as err:
        hadwiger_cograph(Graph.path(4))
    assert err.value.certificate == (0, 1, 2, 3)


def test_star_join_table_needs_realizability_guard():
    # join(4K1, K1) is the 4-star; the edge-bag count 2 is unrealizable
    # (its matching number is 1), so c_2 must be 0, not the naive formula
    # value 1.
    star = join(Graph.empty(4), Graph.empty(1))
    table = cograph_cr_table(star)
    assert table == nice_structure_oracle(star) == (2, 2, 0, 0, 0, 0)


def test_exhaustive_small_cographs_match_oracle():
    for G in _small_cographs(7):
        table = cograph_cr_table(G)
        assert type(table) is tuple and len(table) == G.n + 1
        assert max(table) == hadwiger_oracle(G), G.edges()
        assert table == nice_structure_oracle(G), G.edges()


def test_random_cographs_match_oracle():
    rng = random.Random(5)
    for _ in range(60):
        G = random_cograph(rng.randint(1, 7), rng)
        assert hadwiger_cograph(G) == hadwiger_oracle(G)
        assert cograph_cr_table(G) == nice_structure_oracle(G)


def test_optimal_join_structures_can_avoid_two_sided_edge_bags():
    # when a join has an optimum with edge bags, some optimum keeps every
    # edge bag inside one fixed side or crossing
    rng = random.Random(8)
    for _ in range(20):
        G1 = random_cograph(rng.randint(1, 3), rng)
        G2 = random_cograph(rng.randint(1, 3), rng)
        G = join(G1, G2)
        table = nice_structure_oracle(G)
        best = max(table)
        side1 = set(range(G1.n))
        side2 = set(range(G1.n, G.n))
        for r, val in enumerate(table):
            if val != best or r == 0:
                continue
            witnesses = [bags for bags in enumerate_nice_structures(G)
                         if len(bags) == val
                         and sum(1 for b in bags if len(b) == 2) == r]
            ok = False
            for bags in witnesses:
                ebags = [set(b) for b in bags if len(b) == 2]
                if all(not b <= side1 for b in ebags) or \
                   all(not b <= side2 for b in ebags):
                    ok = True
                    break
            assert ok, (G.edges(), r, val)


def test_join_and_union_match_the_reference_on_random_tables():
    rng = random.Random(11)
    for _ in range(3000):
        t1, t2 = random_table(rng), random_table(rng)
        assert cr_join(t1, t2) == reference_join(t1, t2), (t1, t2)
        assert cr_union(t1, t2) == reference_union(t1, t2), (t1, t2)
        assert len(cr_join(t1, t2)) == len(cr_union(t1, t2)) == len(t1) + len(t2) - 1


def test_join_and_union_match_the_reference_on_cotree_children():
    def checked(kind, tables):
        combine, reference = ((cr_join, reference_join) if kind == "join"
                              else (cr_union, reference_union))

        def step(t1, t2):
            t = combine(t1, t2)
            assert t == reference(t1, t2), (kind, t1, t2)
            return t
        return reduce(step, tables)

    rng = random.Random(12)
    for _ in range(40):
        tree = recognize_cograph(random_cograph(rng.randint(2, 40), rng))
        tree.fold(lambda v: LEAF, checked)


def test_hadwiger_relations_above_the_oracle_cap():
    """Exact relations on seeded cographs with 40-160 leaves: h(G v K1) =
    h(G) + 1 (drop the new vertex's bag), h(G + H) = max(h(G), h(H)) and
    h(G) - 1 <= h(G - v) <= h(G); cographs are closed under all three."""
    rng = random.Random(71)
    for leaves in (40, 80, 160):
        G, H = random_cograph(leaves, rng), random_cograph(leaves // 2, rng)
        h = hadwiger_cograph(G)
        assert hadwiger_cograph(join(G, Graph.empty(1))) == h + 1
        assert hadwiger_cograph(disjoint_union(G, H)) == max(h, hadwiger_cograph(H))
        for v in rng.sample(range(G.n), 4):
            rest = [w for w in range(G.n) if w != v]
            assert h - 1 <= hadwiger_cograph(induced_subgraph(G, rest)) <= h, (G.rows, v)


def _small_cographs(max_n: int):
    """Every cograph with 1..max_n vertices, one per isomorphism class."""
    return [G for n in range(1, max_n + 1) for G in all_graphs(n)
            if isinstance(recognize_cograph(G), Cotree)]


def test_join_matches_the_reference_on_every_pair_of_small_cograph_tables():
    tables = sorted({cograph_cr_table(G) for G in _small_cographs(6)},
                    key=lambda t: (len(t), t))
    for t1 in tables:
        for t2 in tables:
            assert cr_join(t1, t2) == reference_join(t1, t2), (t1, t2)


def long_random_table(rng: random.Random) -> tuple[int, ...]:
    """A table with up to 30 vertices: arbitrary entries with zeros in
    between, or a walk with steps in -2..2 cut at a random r, so that
    c_k <= c_{k-1}, c_k = c_{k-1} + 1 and larger climbs all occur."""
    n = rng.randint(1, 30)
    if rng.random() < 0.3:
        return tuple(0 if rng.random() < 0.3 else rng.randint(1, n + 1)
                     for _ in range(n + 1))
    values, val = [], rng.randint(1, n)
    for _ in range(rng.randint(1, n // 2 + 1)):
        values.append(val)
        val = max(1, val + rng.randint(-2, 2))
    return tuple(values) + (0,) * (n + 1 - len(values))


def test_join_matches_the_reference_on_long_random_tables():
    for seed in (13, 14, 15, 16):
        rng = random.Random(seed)
        for _ in range(150):
            t1, t2 = long_random_table(rng), long_random_table(rng)
            assert cr_join(t1, t2) == reference_join(t1, t2), (seed, t1, t2)
            assert (len(cr_join(t1, t2)) == len(cr_union(t1, t2))
                    == len(t1) + len(t2) - 1), (seed, t1, t2)


@pytest.mark.parametrize("t1, t2, want", [
    # start 0: c_1 = 3 > c_0 + 1 on the first side (an arbitrary table),
    # and (k, s) = (1, 0) alone reaches c_1 = 3.
    ((1, 3, 0, 0), (1, 0), (2, 3, 2, 0, 0)),
    # the climb start: 2K1 joined with C4 + K1, where the second side has
    # c_1 = c_0 + 1, cross = 2 and n_other - c_0(other) = 1, so its k = 1
    # loop starts at s = 1, and (1, 1) alone reaches c_2 = 5.
    ((1, 0, 0), (2, 3, 2, 0, 0, 0), (3, 4, 5, 4, 0, 0, 0, 0)),
    # the cross start: K1 joined with K2 + K1, where the second side has
    # c_1 <= c_0, so its k = 1 loop runs s = cross = 1 only, and (1, 1)
    # alone reaches c_2 = 2.
    ((1, 0), (2, 1, 0, 0), (3, 3, 2, 0, 0)),
])
def test_join_keeps_the_candidate_at_each_start_of_the_s_loop(t1, t2, want):
    assert reference_join(t1, t2) == want
    assert cr_join(t1, t2) == cr_join(t2, t1) == want


def _shuffled_fold(tree: Cotree, rng: random.Random) -> tuple[int, ...]:
    """The cotree's root table with each node's children folded in a random
    order, left to right, without the smallest-first sort."""
    def node(kind, tables):
        tables = list(tables)
        rng.shuffle(tables)
        return reduce(cr_join if kind == "join" else cr_union, tables)
    return tree.fold(lambda v: LEAF, node)


def test_root_table_does_not_depend_on_the_child_order():
    rng = random.Random(17)
    graphs = _small_cographs(7) + [random_cograph(leaves, rng)
                                   for leaves in (40, 80, 160) for _ in range(2)]
    for G in graphs:
        tree = recognize_cograph(G)
        for _ in range(2):
            assert _shuffled_fold(tree, rng) == cograph_cr_table(G), G.rows


def test_fold_combines_each_distinct_pair_of_tables_once(monkeypatch):
    """One cograph_cr_table call runs _union and _join once per distinct
    argument pair, on the same pairs as a fold without a memo, and a second
    call on the same graph makes the same calls again: the memo lives
    within one fold."""
    G = random_cograph(160, random.Random(29))
    ops = {"union": cograph_dp._union, "join": cograph_dp._join}
    plain = {kind: [] for kind in ops}

    def plain_node(kind, tables):
        def step(t1, t2):
            plain[kind].append((t1, t2))
            return ops[kind](t1, t2)
        return reduce(step, sorted(tables))

    want = recognize_cograph(G).fold(lambda v: (1, (1,)), plain_node)
    calls = {kind: [] for kind in ops}
    for kind, op in ops.items():
        def counted(t1, t2, op=op, log=calls[kind]):
            log.append((t1, t2))
            return op(t1, t2)
        monkeypatch.setattr(cograph_dp, "_" + kind, counted)
    counts = []
    for _ in range(2):
        for log in calls.values():
            log.clear()
        table = cograph_cr_table(G)
        assert table[:len(want[1])] == want[1]
        for kind, log in calls.items():
            assert len(log) == len(set(log)), kind
            assert set(log) == set(plain[kind]), kind
            assert len(log) < len(plain[kind]), kind
        counts.append({kind: len(log) for kind, log in calls.items()})
    assert counts[0] == counts[1]
