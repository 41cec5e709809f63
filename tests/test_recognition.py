from __future__ import annotations

import math
import random
import sys
from itertools import combinations, permutations

import pytest

from minorclub.cograph_dp import (cograph_cr_table, cotree_cr_table,
                                  hadwiger_cograph)
from minorclub.errors import DomainError
from minorclub.graph import (Graph, _iter_bits, _mask_components, complement,
                             disjoint_union, diameter, induced_subgraph,
                             is_bipartite, join)
from minorclub.recognition import (AvoidingComponents, Cotree, StrongOrdering,
                                   cotree_fold, diameter_dominating_pair,
                                   find_induced_p4, is_at_free,
                                   is_chordal_bipartite, is_cobipartite,
                                   is_dominating_pair, is_split,
                                   recognize_cograph, strong_ordering,
                                   verify_ordering)

from genutil import (all_graphs, chordality, connected_graphs,
                     induced_p4_exists, ordering_exists_exhaustive,
                     random_bipperm, random_caterpillar, random_cograph,
                     random_interval_graph, random_permutation_graph,
                     random_staircase, reference_verify_ordering,
                     restrict_ordering)


# Cotrees ------------------------------------------------------------------

def test_single_vertex_is_a_leaf():
    tree = recognize_cograph(Graph.empty(1))
    assert isinstance(tree, Cotree) and tree.kind == "leaf"


def test_no_vertex_raises_without_a_certificate():
    with pytest.raises(DomainError) as err:
        recognize_cograph(Graph.empty(0))
    assert err.value.certificate is None


def test_p4_yields_certificate_in_path_order():
    cert = recognize_cograph(Graph.path(4))
    assert cert == (0, 1, 2, 3)


def test_c4_cotree_shape():
    tree = recognize_cograph(Graph.cycle(4))
    assert isinstance(tree, Cotree)
    assert tree.kind == "join"
    assert sorted(c.kind for c in tree.children) == ["union", "union"]
    assert tree.to_graph(4) == Graph.cycle(4)
    assert tree.to_text() == "(J (U 0 2) (U 1 3))"


def _check_canonical(tree: Cotree):
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.kind == "leaf":
            continue
        assert len(node.children) >= 2
        for child in node.children:
            assert child.kind != node.kind
            stack.append(child)


def test_cotree_reproduces_edges_and_is_canonical():
    rng = random.Random(11)
    for _ in range(60):
        G = random_cograph(rng.randint(1, 9), rng)
        tree = recognize_cograph(G)
        assert isinstance(tree, Cotree)
        assert tree.to_graph(G.n) == G
        _check_canonical(tree)


def test_cograph_recognition_matches_p4_search():
    for n in range(1, 8):
        for G in all_graphs(n):
            got = recognize_cograph(G)
            if isinstance(got, Cotree):
                assert not induced_p4_exists(G)
                assert got.to_graph(G.n) == G
            else:
                a, b, c, d = got
                assert induced_p4_exists(G)
                assert G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(c, d)
                assert not G.has_edge(a, c) and not G.has_edge(a, d)
                assert not G.has_edge(b, d)


def test_find_induced_p4_none_on_cograph():
    assert find_induced_p4(Graph.complete(5)) is None


def test_find_induced_p4_on_a_mask_matches_its_induced_subgraph():
    """Random masks, most of them not modules, so vertices outside the mask
    see some of it: the P4 found inside the mask is the induced subgraph's,
    mapped back through its order-keeping relabelling."""
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 70)
        p = rng.random()
        G = Graph.from_edges(n, (e for e in combinations(range(n), 2) if rng.random() < p))
        mask = rng.getrandbits(n) or 1
        verts = list(_iter_bits(mask))
        p4 = find_induced_p4(induced_subgraph(G, verts))
        want = None if p4 is None else tuple(verts[i] for i in p4)
        assert find_induced_p4(G, mask) == want, (G.rows, mask)
    assert find_induced_p4(Graph.path(4), 0b111) is None


def _threshold_cograph(n: int) -> Graph:
    """Vertex v joins as an isolated vertex for even v and as a dominating
    vertex for odd v, so the cotree alternates union and join, one level
    per vertex."""
    rows = [0] * n
    for v in range(1, n, 2):
        rows[v] = (1 << v) - 1
        for u in range(v):
            rows[u] |= 1 << v
    return Graph(n, tuple(rows))


@pytest.mark.parametrize("edges, text", [
    ([(0, 3), (0, 4), (0, 5), (1, 2)], "(U (J 0 (U 3 4 5)) (J 1 2))"),
    ([(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)],
     "(J (U 0 2) (U 1 3) 4)"),
    ([(6, 1), (6, 4), (1, 4), (2, 5), (3, 5), (0, 2), (0, 3), (0, 5)],
     "(U (J 0 (U 2 3) 5) (J 1 4 6))"),
    (_threshold_cograph(8).edges(), "(J (U (J (U (J (U (J 0 1) 2) 3) 4) 5) 6) 7)"),
])
def test_cotree_text_is_pinned(edges, text):
    G = Graph.from_edges(max(max(e) for e in edges) + 1, edges)
    assert recognize_cograph(G).to_text() == text


def _reference_cotree(G: Graph):
    """recognize_cograph with both splits tried at every mask, not only at
    the root."""
    co_rows = complement(G).rows
    root = (1 << G.n) - 1
    splits = {}
    visited = []
    stack = [root]
    while stack:
        mask = stack.pop()
        visited.append(mask)
        if mask & (mask - 1) == 0:
            continue
        kind, parts = "union", _mask_components(G.rows, mask)
        if len(parts) == 1:
            kind, parts = "join", _mask_components(co_rows, mask)
        if len(parts) == 1:
            verts = list(_iter_bits(mask))
            return tuple(verts[i] for i in find_induced_p4(induced_subgraph(G, verts)))
        splits[mask] = (kind, parts)
        stack.extend(reversed(parts))
    trees = {}
    for mask in reversed(visited):
        if mask in splits:
            kind, parts = splits[mask]
            trees[mask] = Cotree(kind, tuple(trees[p] for p in parts))
        else:
            trees[mask] = Cotree("leaf", vertex=mask.bit_length() - 1)
    return trees[root]


def _random_threshold_graph(n: int, rng: random.Random) -> Graph:
    """Each new vertex arrives isolated or dominating, at random."""
    rows = [0] * n
    for v in range(1, n):
        if rng.random() < 0.5:
            rows[v] = (1 << v) - 1
            for u in range(v):
                rows[u] |= 1 << v
    return Graph(n, tuple(rows))


def _non_cograph(n: int, rng: random.Random) -> Graph:
    """A P4 under a random chain of unions and joins with random cographs,
    so the first mask that splits neither way can sit below either kind."""
    G = Graph.path(4)
    while G.n < n:
        other = random_cograph(rng.randint(1, n - G.n), rng)
        G = (disjoint_union if rng.random() < 0.5 else join)(other, G)
    return G


def test_cotrees_and_p4s_match_the_reference_that_tries_both_splits():
    rng = random.Random(41)
    for leaves in (50, 100, 200, 400):
        for _ in range(3):
            for G in (random_cograph(leaves, rng), _random_threshold_graph(leaves, rng)):
                G = _relabelled(G, rng)
                tree = recognize_cograph(G)
                assert isinstance(tree, Cotree)
                assert tree.to_text() == _reference_cotree(G).to_text()
    for _ in range(200):
        n = rng.randint(4, 40)
        if rng.random() < 0.5:
            G = _non_cograph(n, rng)
        else:
            p = rng.random()
            G = Graph.from_edges(n, (e for e in combinations(range(n), 2) if rng.random() < p))
        G = _relabelled(G, rng)
        want = _reference_cotree(G)
        if isinstance(want, Cotree):
            assert recognize_cograph(G).to_text() == want.to_text()
        else:
            assert recognize_cograph(G) == want


def _checked_fold_table(G: Graph):
    """cograph_cr_table(G) held to the two passes it replaces: the same
    table as cotree_cr_table on recognize_cograph's cotree, or that cotree
    search's P4 as the DomainError certificate.  Both are also held to the
    reference search, which builds the cotree without cotree_fold.  A
    table's nonzero entries must form a prefix."""
    want, reference = recognize_cograph(G), _reference_cotree(G)
    if not isinstance(want, Cotree):
        with pytest.raises(DomainError) as err:
            cograph_cr_table(G)
        assert err.value.certificate == want == reference
        return None
    table = cograph_cr_table(G)
    assert table == cotree_cr_table(want) == cotree_cr_table(reference)
    nonzero = sum(1 for value in table.values if value)
    assert all(table.values[:nonzero]), table.values
    return table


def test_cr_table_fold_matches_recognition_then_cotree_fold():
    for n in range(1, 8):
        for G in all_graphs(n):
            _checked_fold_table(G)
    rng = random.Random(43)
    for leaves in (10, 25, 50, 100, 200, 400):
        for _ in range(3):
            for G in (random_cograph(leaves, rng), _random_threshold_graph(leaves, rng)):
                assert _checked_fold_table(_relabelled(G, rng)) is not None
    for _ in range(100):
        _checked_fold_table(_relabelled(_non_cograph(rng.randint(4, 40), rng), rng))


def _fold_recorder():
    """leaf and node functions that record their calls and fold each
    subtree to its vertex mask."""
    leaves, nodes = [], []

    def leaf(v):
        leaves.append(v)
        return 1 << v

    def node(kind, kids):
        nodes.append((kind, tuple(kids)))
        return sum(kids)

    return leaves, nodes, leaf, node


def _check_fold_calls(G: Graph) -> None:
    """cotree_fold on a cograph calls leaf once per vertex and node once per
    internal node of recognize_cograph's tree, both in that tree's own
    bottom-up order, and hands node its kids in smallest-vertex order."""
    leaves, nodes, leaf, node = _fold_recorder()
    assert cotree_fold(G, leaf, node) == (1 << G.n) - 1
    assert sorted(leaves) == list(range(G.n))
    tree_leaves, tree_nodes, leaf, node = _fold_recorder()
    recognize_cograph(G).fold(leaf, node)
    assert leaves == tree_leaves
    assert nodes == tree_nodes and len(set(nodes)) == len(nodes)
    for kind, kids in nodes:
        lows = [kid & -kid for kid in kids]
        assert len(kids) >= 2 and lows == sorted(lows), (kind, kids)


def test_cotree_fold_calls_leaf_and_node_once_per_cotree_node():
    for n in range(1, 8):
        for G in all_graphs(n):
            if isinstance(recognize_cograph(G), Cotree):
                _check_fold_calls(G)
    rng = random.Random(47)
    for leaves in (10, 50, 100, 200, 400):
        for _ in range(2):
            for G in (random_cograph(leaves, rng), _random_threshold_graph(leaves, rng),
                      _threshold_cograph(leaves)):
                _check_fold_calls(_relabelled(G, rng))


def test_cr_table_fold_needs_no_recursion_on_a_deep_cotree():
    """The threshold cograph on 2000 vertices has a cotree 1999 levels deep;
    the fold must not recurse even with a small recursion limit."""
    G = _relabelled(_threshold_cograph(2000), random.Random(44))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        table = cograph_cr_table(G)
    finally:
        sys.setrecursionlimit(limit)
    assert table == cotree_cr_table(recognize_cograph(G))
    assert table.best == 1001


@pytest.mark.parametrize("n", [600, 2000])
def test_deep_threshold_cograph_needs_no_recursion(n):
    G = _threshold_cograph(n)
    tree = recognize_cograph(G)
    assert isinstance(tree, Cotree)
    _check_canonical(tree)
    assert tree.to_graph(n) == G
    assert tree.to_text().count("(") == n - 1
    # Vertex 0 and the odd vertices form the largest clique; an even vertex
    # sees neither 0 nor 1, so no minor has one more bag.
    assert hadwiger_cograph(G) == n // 2 + 1


# Strong orderings ---------------------------------------------------------

def test_star_ordering():
    got = strong_ordering(Graph.complete_bipartite(1, 2))
    assert got is not None and verify_ordering(Graph.complete_bipartite(1, 2), got)


def test_path_ordering_verifies():
    G = Graph.path(5)
    got = strong_ordering(G)
    assert got is not None and verify_ordering(G, got)


def test_c6_has_no_strong_ordering():
    assert strong_ordering(Graph.cycle(6)) is None
    assert not ordering_exists_exhaustive(Graph.cycle(6))


def test_verify_ordering_examples():
    G = Graph.complete_bipartite(2, 2)
    assert verify_ordering(G, StrongOrdering((0, 1), (2, 3)))
    assert verify_ordering(G, StrongOrdering((0, 1), (3, 2)))
    # P4: any order of a two-element side works
    P4 = Graph.path(4)
    assert verify_ordering(P4, StrongOrdering((0, 2), (1, 3)))
    assert verify_ordering(P4, StrongOrdering((1, 3), (2, 0)))
    # P5 with the middle ordered-side vertex moved out of path position
    # leaves a non-contiguous neighborhood
    P5 = Graph.path(5)
    assert verify_ordering(P5, StrongOrdering((1, 3), (0, 2, 4)))
    assert not verify_ordering(P5, StrongOrdering((1, 3), (0, 4, 2)))
    # edgeless side order is vacuously fine
    E = Graph.empty(3)
    assert verify_ordering(E, StrongOrdering((), (0, 1, 2)))


def test_verify_ordering_rejects_bad_bipartition():
    G = Graph.path(3)
    with pytest.raises(DomainError):
        verify_ordering(G, StrongOrdering((0,), (1,)))  # does not cover V
    with pytest.raises(DomainError):
        verify_ordering(G, StrongOrdering((0, 1), (2,)))  # edge inside side1


def test_strong_ordering_matches_exhaustive_on_small_graphs():
    for n in range(1, 8):
        for G in all_graphs(n):
            got = strong_ordering(G)
            want = ordering_exists_exhaustive(G)
            assert (got is not None) == want, G.edges()
            if got is not None:
                assert verify_ordering(G, got)


@pytest.mark.parametrize("dense", [False, True])
def test_relabelled_staircases_always_get_an_ordering(dense):
    rng = random.Random(31 + dense)
    for n in list(range(2, 41)) + [60, 90, 130, 200]:
        for _ in range(5):
            G = random_staircase(n, rng, dense)
            got = strong_ordering(G)
            assert got is not None, G.edges()
            assert verify_ordering(G, got)


def _ordering_outcome(check, G, ordering):
    """check(G, ordering), or the message of the DomainError it raises."""
    try:
        return check(G, ordering)
    except DomainError as exc:
        return str(exc)


def test_verify_ordering_matches_the_set_reference_on_every_side_and_order():
    # every first side, every order of the second, every graph with n <= 5:
    # bad partitions are not reachable this way, bad bipartitions are
    outcomes = set()
    for n in range(6):
        for G in all_graphs(n):
            for mask in range(1 << n):
                side1 = tuple(v for v in range(n) if mask >> v & 1)
                rest = [v for v in range(n) if not mask >> v & 1]
                for order2 in permutations(rest):
                    ordering = StrongOrdering(side1, order2)
                    want = _ordering_outcome(reference_verify_ordering, G, ordering)
                    assert _ordering_outcome(verify_ordering, G, ordering) == want, \
                        (G.edges(), ordering)
                    outcomes.add(want)
    assert outcomes == {True, False, "ordering sides are not a bipartition"}


def test_verify_ordering_matches_the_set_reference_on_seeded_graphs():
    rng = random.Random(34)
    outcomes = set()
    for k in range(600):
        n = rng.randint(1, 8)
        if k % 3 == 0:
            G = random_staircase(max(n, 2), rng, dense=k % 2 == 1)
        else:
            G = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                     if rng.random() < 0.4])
        orderings = []
        got = strong_ordering(G)
        if got is not None:
            orderings.append(got)
            order2 = list(got.order2)
            if len(order2) > 1:
                i = rng.randrange(len(order2) - 1)
                order2[i], order2[i + 1] = order2[i + 1], order2[i]
                orderings.append(StrongOrdering(got.side1, tuple(order2)))
        verts = list(range(G.n))
        for _ in range(3):
            rng.shuffle(verts)
            cut = rng.randint(0, G.n)
            orderings.append(StrongOrdering(tuple(verts[:cut]), tuple(verts[cut:])))
        orderings.append(StrongOrdering(tuple(verts[:1]), tuple(verts[2:])))
        for ordering in orderings:
            want = _ordering_outcome(reference_verify_ordering, G, ordering)
            assert _ordering_outcome(verify_ordering, G, ordering) == want, \
                (G.edges(), ordering)
            outcomes.add(want)
    assert outcomes == {True, False, "ordering sides are not a bipartition",
                        "ordering sides do not partition the vertex set"}


def test_strong_ordering_exists_iff_bipartite_and_at_free():
    graphs = [G for n in range(1, 8) for G in all_graphs(n)]
    rng = random.Random(32)
    for _ in range(300):
        # staircases with one pair toggled across the sides
        G = random_staircase(rng.randint(4, 16), rng, rng.random() < 0.5)
        a, b = is_bipartite(G)
        if a and b:
            u, v = rng.choice(a), rng.choice(b)
            rows = list(G.rows)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            graphs.append(Graph(G.n, tuple(rows)))
    for G in graphs:
        want = is_bipartite(G) is not None and is_at_free(G) is True
        assert (strong_ordering(G) is not None) == want, G.edges()


def test_isolated_vertices_go_last():
    G = disjoint_union(Graph.path(3), Graph.empty(2))
    got = strong_ordering(G)
    assert got is not None
    assert set(got.order2[-2:]) == {3, 4}


def test_restrict_ordering_on_random_subsets():
    rng = random.Random(5)
    for _ in range(40):
        G = random_bipperm(rng.randint(2, 10), rng)
        full = strong_ordering(G)
        assert full is not None
        keep = sorted(rng.sample(range(G.n), rng.randint(1, G.n)))
        sub = induced_subgraph(G, keep)
        assert verify_ordering(sub, restrict_ordering(full, keep))


# AT-freeness --------------------------------------------------------------

def test_small_paths_and_cycles_are_at_free():
    for G in (Graph.path(6), Graph.cycle(4), Graph.cycle(5), Graph.complete(5)):
        assert is_at_free(G) is True


def test_c6_asteroidal_triple():
    assert is_at_free(Graph.cycle(6)) == (0, 2, 4)


def test_at_free_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randint(1, 10)
        p = rng.random()
        G = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < p])
        H = nx.Graph()
        H.add_nodes_from(range(n))
        H.add_edges_from(G.edges())
        assert (is_at_free(G) is True) == nx.is_at_free(H), G.edges()


def test_subdivided_claw_has_at():
    # a claw with every leg subdivided once: tips form an asteroidal triple
    G = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    triple = is_at_free(G)
    assert triple == (2, 4, 6)


def test_returned_triple_is_asteroidal_by_definition():
    G = Graph.cycle(6)
    a, b, c = is_at_free(G)
    for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
        assert not G.has_edge(x, y)
        # a path between x and y avoiding N[z] exists
        banned = set(G.neighbors(z)) | {z}
        frontier = {x}
        seen = {x}
        while frontier:
            nxt = set()
            for w in frontier:
                for t in G.neighbors(w):
                    if t not in seen and t not in banned:
                        nxt.add(t)
                        seen.add(t)
            frontier = nxt
        assert y in seen


# Dominating pairs ---------------------------------------------------------

def test_dominating_pair_examples():
    assert diameter_dominating_pair(Graph.path(6)) == (0, 5)
    u, v = diameter_dominating_pair(Graph.cycle(4))
    assert diameter(Graph.cycle(4)) == 2 and not Graph.cycle(4).has_edge(u, v)
    assert diameter_dominating_pair(Graph.complete(4)) == (0, 1)


def test_dominating_pair_definition_holds():
    for G in (Graph.path(7), Graph.complete(3), Graph.cycle(5)):
        u, v = diameter_dominating_pair(G)
        assert is_dominating_pair(G, u, v)


def test_dominating_pair_needs_connected_graph():
    # The empty graph counts as connected, so it is refused for having no
    # vertex; K1's pair is its one vertex twice.
    for n in (2, 3):
        with pytest.raises(DomainError, match="^graph must be connected$"):
            diameter_dominating_pair(Graph.empty(n))
    with pytest.raises(DomainError, match="needs at least one vertex"):
        diameter_dominating_pair(Graph.empty(0))
    assert diameter_dominating_pair(Graph.empty(1)) == (0, 0)


def test_connected_at_free_graphs_have_diameter_dominating_pair():
    for G in connected_graphs(6):
        if is_at_free(G) is True:
            u, v = diameter_dominating_pair(G)
            assert is_dominating_pair(G, u, v)


# References for the avoiding-component table: one component sweep of
# G - N[w] per vertex w, then the plain triple loop and the per-pair sweep.

def _reference_avoiding(G: Graph) -> list[list[int]]:
    """comp[w][x]: component id of x in G - N[w], -1 inside N[w]."""
    out = []
    for w in range(G.n):
        banned = set(G.neighbors(w)) | {w}
        comp = [-1] * G.n
        cid = 0
        for start in range(G.n):
            if comp[start] != -1 or start in banned:
                continue
            comp[start] = cid
            stack = [start]
            while stack:
                x = stack.pop()
                for y in G.neighbors(x):
                    if comp[y] == -1 and y not in banned:
                        comp[y] = cid
                        stack.append(y)
            cid += 1
        out.append(comp)
    return out


def _reference_at_free(G: Graph, comp):
    def linked(a, b, through):
        return comp[through][a] != -1 and comp[through][a] == comp[through][b]

    for a in range(G.n):
        for b in range(a + 1, G.n):
            if G.has_edge(a, b):
                continue
            for c in range(b + 1, G.n):
                if G.has_edge(a, c) or G.has_edge(b, c):
                    continue
                if linked(a, b, c) and linked(a, c, b) and linked(b, c, a):
                    return (a, b, c)
    return True


def _reference_dominating(comp, u: int, v: int) -> bool:
    return not any(z not in (u, v) and comp[z][u] != -1 and comp[z][u] == comp[z][v]
                   for z in range(len(comp)))


def _reference_diameter_pair(G: Graph, comp):
    dist = G.dist
    d = diameter(G)
    if G.n == 0 or d == math.inf:
        return None
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if dist[u][v] == d and _reference_dominating(comp, u, v):
                return (u, v)
    return (0, 0) if G.n == 1 else None


def _relabelled(G: Graph, rng: random.Random) -> Graph:
    perm = list(range(G.n))
    rng.shuffle(perm)
    return Graph.from_edges(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def _random_graphs(count: int, max_n: int, seed: int):
    """G(n, p) graphs mixed with relabelled interval, caterpillar and
    permutation graphs, which are AT-free, with 1 <= n <= max_n."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, max_n)
        kind = i % 4
        if kind == 0 or n < 4:
            p = rng.random()
            yield Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                       if rng.random() < p])
        else:
            make = (random_interval_graph, random_caterpillar,
                    random_permutation_graph)[kind - 1]
            yield _relabelled(make(n, rng), rng)


def _table_reference_graphs():
    for n in range(8):
        yield from all_graphs(n)
    yield from _random_graphs(500, 40, 2024)


def _check_against_references(G: Graph) -> bool:
    comp = _reference_avoiding(G)
    at = is_at_free(G)
    assert at == _reference_at_free(G, comp), G.rows
    want = _reference_diameter_pair(G, comp)
    if want is None:
        with pytest.raises(DomainError):
            diameter_dominating_pair(G)
    else:
        assert diameter_dominating_pair(G) == want, G.rows
    table = AvoidingComponents(G)
    for u in range(G.n):
        for v in range(u, G.n):
            want = _reference_dominating(comp, u, v)
            assert (table.linking(u, v) == 0) == want, (G.rows, u, v)
            if v == G.n - 1 and u in (0, v // 2):
                assert is_dominating_pair(G, u, v) == want, (G.rows, u, v)
    return at is True


def test_at_free_and_dominating_pairs_match_the_reference_loops():
    at_free = sum(map(_check_against_references, _table_reference_graphs()))
    assert at_free > 800


# Simple predicates --------------------------------------------------------

def test_split_recognition_against_brute_force():
    from itertools import combinations, permutations

    def brute_split(G):
        verts = range(G.n)
        for r in range(G.n + 1):
            for clique in combinations(verts, r):
                cs = set(clique)
                if all(G.has_edge(a, b) for a, b in combinations(clique, 2)) and \
                   all(not G.has_edge(a, b)
                       for a, b in combinations([v for v in verts if v not in cs], 2)):
                    return True
        return False

    for n in range(1, 6):
        for G in all_graphs(n):
            assert is_split(G) == brute_split(G), G.edges()


def test_class_examples():
    assert is_split(Graph.complete(6))
    assert is_cobipartite(Graph.complete(6))
    assert not is_split(Graph.cycle(4))
    assert is_chordal_bipartite(Graph.cycle(4))
    assert not is_chordal_bipartite(Graph.cycle(6))
    assert not is_chordal_bipartite(Graph.complete(3))
    assert is_cobipartite(Graph.cycle(4))  # two adjacent cliques of size 2
    assert not is_cobipartite(Graph.cycle(6))
    assert not is_cobipartite(join(Graph.empty(2), Graph.empty(3)))


def _chordal_bipartite_by_cycles(G):
    return is_bipartite(G) is not None and chordality(G) <= 4


def test_chordal_bipartite_matches_longest_induced_cycle_on_small_graphs():
    checked = 0
    for n in range(1, 8):
        for G in all_graphs(n):
            if is_bipartite(G) is not None:
                checked += 1
                assert is_chordal_bipartite(G) == _chordal_bipartite_by_cycles(G), G.edges()
    assert checked == 149


def test_chordal_bipartite_matches_longest_induced_cycle_on_random_graphs():
    rng = random.Random(31)
    found = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(4, 14)
        n1 = rng.randint(1, n - 1)
        p = rng.uniform(0.15, 0.7)
        G = Graph.from_edges(n, [(u, v) for u in range(n1) for v in range(n1, n)
                                 if rng.random() < p])
        expected = _chordal_bipartite_by_cycles(G)
        assert is_chordal_bipartite(G) == expected, G.edges()
        found[expected] += 1
    assert min(found.values()) >= 50


def test_chordal_bipartite_has_no_size_cap():
    assert is_chordal_bipartite(Graph.path(200))
    assert not is_chordal_bipartite(Graph.cycle(200))
    assert is_chordal_bipartite(join(Graph.empty(40), Graph.empty(40)))
