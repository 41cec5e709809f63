from __future__ import annotations

import hashlib
import io
import json
import random

import pytest

from minorclub.bipperm_dp import _replay
from minorclub.cli import main
from minorclub.errors import DomainError
from minorclub.formats import emit_graph, parse_graph
from minorclub.graph import (Graph, contract_edges, diameter, disjoint_union,
                             induced_subgraph, is_connected)
from minorclub.recognition import is_at_free

from genutil import random_staircase

P5 = b"DhC"
C5 = b"Dhc"
C6 = b"EhEG"
C7 = b"FhCKG"
# AT-free with d = 3, where d - s = 1 edge does not reach diameter 2 but two
# do: the bound misses and the AT-free solver answers.
ATFREE_D3 = b"F?bBo"
C13 = b"LhCGGC@?G?_@_@"
C12_K1 = b"LhCGGC@?G?o@??"
CNF = b"p cnf 3 2\n1 2 -3 0\n-1 2 3 0\n"
SETS = b"4 2\n0 1\n2 3\n"


# SHA-256 of the --json report (with its newline) of each subcommand in
# test_every_subcommand_reports_deterministically, as printed by the
# earlier, per-command implementation of the CLI.  P5 has d - s = 2 at s = 2,
# which the d - s bound now decides by its subset walk: the club-contract and
# club-minor reports differ from those printed then only in solver "bound"
# for "atfree".
PINNED_SHA256 = {
    "recognize": "9f274f939698ca41bc547124f91876702b73ece3f0d32528aa886be0e6127c1a",
    "hadwiger": "098bcbee6bebae304a6e47417388e727982bb538054b1782f9b0c4d3aa901298",
    "clique-matching": "1203b28792041ff28c4fc0adafd2d6e22814b340462e0d3f74fed02ca3b604ea",
    "club-contract": "7380c6774c4435eeafa92f63168f616d3e9f567cc7233259c91440e5a5825375",
    "club-minor": "81361403ea295cfffdd49e429ca8183b3dc8bb3e2e5301926e4326df2610def0",
    "oracle:hadwiger": "b1f11b09c8049c22c6738e305d11930ea1a119e89a8a24daa7a6c989a0d69a9e",
    "oracle:club-minor": "b1169993b2a0c32885b471856e737b539cc428afebd88e08df94a3313f41e3e3",
    "oracle:club-contract": "96e489a263dd747588d1f2f8e1e920d5fb26c23fc27b53f2233db47c2a0eadfd",
    "oracle:clique-matching": "fd14a5cb082adf91f6e038f70dd33738973c2194b9d7401a3aa2151d83b7a90e",
    "oracle:nice-structure": "4122e33081770afed8367af98b23524f6ea8cea7a9ed7fa2f14909579b528cf3",
    "reduce:nae3sat": "6ba09f7473d844109e2042114e7296466c390a8f6198d10be886ea013d839195",
    "reduce:hitting-set": "4375bda859ef30f6b8a1611aa854a98f03e7c705daf7ccf97b81eb9c822b0cf5",
    "reduce:lift": "9b5473fd7e602874e77172e055d2e9c3a8f3c899f43457350a27882a24217778",
    "reduce:subdivide": "64b2220c216dc77d2da4f303e53c5601710f313bb4cfc9f701ce1ed7e4b4f611",
}


def _g6(G: Graph) -> bytes:
    return emit_graph(G, "graph6")


def run(tmp_path, capsys, argv, data: bytes):
    path = tmp_path / "input"
    path.write_bytes(data)
    code = main(argv + ["--input", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def run_json(tmp_path, capsys, argv, data: bytes) -> dict:
    code, out, err = run(tmp_path, capsys, argv + ["--json"], data)
    assert code == 0, err
    return json.loads(out)


def test_fixture_graphs():
    assert parse_graph(P5, "graph6") == Graph.path(5)
    assert parse_graph(C5, "graph6") == Graph.cycle(5)
    assert parse_graph(C6, "graph6") == Graph.cycle(6)
    assert parse_graph(C7, "graph6") == Graph.cycle(7)
    G = parse_graph(ATFREE_D3, "graph6")
    assert is_at_free(G) is True and diameter(G) == 3
    assert parse_graph(C13, "graph6") == Graph.cycle(13)
    assert parse_graph(C12_K1, "graph6") == disjoint_union(Graph.cycle(12),
                                                           Graph.empty(1))


@pytest.mark.parametrize("argv, data, command", [
    (["recognize"], P5, "recognize"),
    (["hadwiger"], P5, "hadwiger"),
    (["clique-matching"], P5, "clique-matching"),
    (["club-contract", "--s", "2", "--k", "2"], P5, "club-contract"),
    (["club-minor", "--s", "2"], P5, "club-minor"),
    (["oracle", "hadwiger"], P5, "oracle:hadwiger"),
    (["oracle", "club-minor"], P5, "oracle:club-minor"),
    (["oracle", "club-contract"], P5, "oracle:club-contract"),
    (["oracle", "clique-matching"], P5, "oracle:clique-matching"),
    (["oracle", "nice-structure"], P5, "oracle:nice-structure"),
    (["reduce", "nae3sat"], CNF, "reduce:nae3sat"),
    (["reduce", "hitting-set", "--k", "2"], SETS, "reduce:hitting-set"),
    (["reduce", "lift", "--k", "1"], P5, "reduce:lift"),
    (["reduce", "subdivide"], P5, "reduce:subdivide"),
])
def test_every_subcommand_reports_deterministically(tmp_path, capsys, argv,
                                                    data, command):
    code, first, err = run(tmp_path, capsys, argv + ["--json"], data)
    assert code == 0, err
    assert json.loads(first)["command"] == command
    assert hashlib.sha256(first.encode()).hexdigest() == PINNED_SHA256[command], first
    code, second, _ = run(tmp_path, capsys, argv + ["--json"], data)
    assert code == 0 and second == first
    code, human, _ = run(tmp_path, capsys, argv, data)
    assert code == 0 and f"command: {command}" in human


# SHA-256 over the concatenated --json reports of STAIRCASE_COUNT[n]
# relabelled dense staircases per n, keyed by (n, command).  Those for
# n <= 32 were printed when every bipartite-permutation sub-problem still
# built its induced subgraph and re-verified its ordering; those for n = 48
# and 64 before any sub-problem or anchor was skipped on a bound.  Witness
# ties are broken on labels, so a change in any tie-break shows here even
# where the values stay the same.
STAIRCASE_COUNT = {16: 16, 24: 16, 32: 16, 48: 8, 64: 8}
STAIRCASE_SHA256 = {
    (16, "hadwiger"): "852ae5907cf7c330d3a9cbdf69484e10318affaa4879a8c5475d7c85a1e519c7",
    (16, "clique-matching"): "1ab79100f0486b3b8d2f5b36e5cc4a2eee7550d8a4257266f474d0e6f36f9e4d",
    (24, "hadwiger"): "b654408056f89da2ab098e8d4aa7d72a7dae9c455e2de1d4d59c636502c51787",
    (24, "clique-matching"): "2b562da821f6ad3bcda826af3be0d9a3aa23c8bd22a0bdf578fc85214ec347f8",
    (32, "hadwiger"): "8d6b8192cec588516905a95e4e2004712a5ed89af0c3075f22e7a0e7e184a225",
    (32, "clique-matching"): "a0b864aee4e1d502829a34eef369d8522fc3c2b0fc82c971a4759bac0970b054",
    (48, "hadwiger"): "8967957fadfc7ea42924bafa627f45d70cec8b28a6aa8b6b6d9ebe4ca7e82a14",
    (48, "clique-matching"): "027d6908bd7b73df2c3ede6e8a1583a7afce64de17847ed2ffa0a76d08611a3e",
    (64, "hadwiger"): "4e953d3371a0c7aa09291f3f69609a2b10ae6bdfaba469916dbb91de0c7e36b4",
    (64, "clique-matching"): "2e204ce920a586f133b474cdc4f929d0d355f92c85f6c49fa3cdbf38f6c91d69",
}


@pytest.mark.parametrize("n", sorted(STAIRCASE_COUNT))
def test_dense_staircase_reports_are_pinned(tmp_path, capsys, n):
    rng = random.Random(n)
    digests = {"hadwiger": hashlib.sha256(), "clique-matching": hashlib.sha256()}
    for _ in range(STAIRCASE_COUNT[n]):
        data = _g6(random_staircase(n, rng, dense=True))
        for command, digest in digests.items():
            code, out, err = run(tmp_path, capsys, [command, "--json"], data)
            assert code == 0, err
            digest.update(out.encode())
    for command, digest in digests.items():
        assert digest.hexdigest() == STAIRCASE_SHA256[n, command], command


# SHA-256 over the concatenated --json reports of seeded random graphs that
# no polynomial solver takes, so every answer and witness comes from a
# brute-force oracle: ``hadwiger`` (``--method auto``) on
# ORACLE_HADWIGER_COUNT[n] graphs G(n, 1/2) per n, and, on
# ORACLE_CLUB_COUNT[n] connected graphs G(n, 0.4) per n with an asteroidal
# triple, ``club-contract --s s`` with budgets d - s and d - s + 1 (d the
# diameter, s = 2, 3) and ``club-minor --s 2``.  Printed while both oracle
# searches rebuilt every quotient from G.  Where d - s <= 2 and d - s edges
# suffice, the d - s bound now answers with the subset walk's first set,
# which is the oracle's: such a report is hashed with its solver "bound"
# read as "oracle", so the pin holds it to the oracle's bytes.
ORACLE_HADWIGER_COUNT = {8: 6, 9: 6, 10: 4, 11: 3}
ORACLE_CLUB_COUNT = {8: 4, 9: 4, 10: 4}
ORACLE_SHA256 = {
    "hadwiger": "1f85fe83505759c7719966882015436587f718d5f15b3aa9facb58dfd8040781",
    "club": "34d70d3c8c01babcdbb5fc8e801b0fab9c78571f4f5dde2de728e2deeb17f2aa",
}


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < p])


def test_oracle_reports_are_pinned(tmp_path, capsys):
    digests = {"hadwiger": hashlib.sha256(), "club": hashlib.sha256()}
    solvers = {"bound": 0, "oracle": 0}
    for n, count in ORACLE_HADWIGER_COUNT.items():
        rng = random.Random(n)
        while count:
            code, out, err = run(tmp_path, capsys, ["hadwiger", "--json"],
                                 _g6(_gnp(n, 0.5, rng)))
            assert code == 0, err
            if json.loads(out)["solver"] == "oracle":
                digests["hadwiger"].update(out.encode())
                count -= 1
    for n, count in ORACLE_CLUB_COUNT.items():
        rng = random.Random(100 + n)
        while count:
            G = _gnp(n, 0.4, rng)
            if not is_connected(G) or is_at_free(G) is True:
                continue
            count -= 1
            d = diameter(G)
            argvs = [["club-contract", "--s", str(s), "--k", str(max(0, d - s + extra))]
                     for s in (2, 3) for extra in (0, 1)] + [["club-minor", "--s", "2"]]
            for argv in argvs:
                code, out, err = run(tmp_path, capsys, argv + ["--json"], _g6(G))
                assert code == 0, err
                rep = json.loads(out)
                tight = max(0, d - int(argv[2]))
                edges = rep["result"]["witness_edges"] or ()
                solver = ("bound" if rep["result"].get("answer") != "no"
                          and len(edges) == tight <= 2 else "oracle")
                assert rep["solver"] == solver, argv
                solvers[solver] += 1
                digests["club"].update(
                    out.replace('"solver":"bound"', '"solver":"oracle"').encode())
    for kind, digest in digests.items():
        assert digest.hexdigest() == ORACLE_SHA256[kind], kind
    assert solvers == {"bound": 45, "oracle": 15}


def test_recognize_cograph_report(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, ["recognize", "--json"], b"Cr")  # C4
    assert code == 0, err
    assert out == (
        '{"certificates":{"cotree":"(J (U 0 3) (U 1 2))",'
        '"strong-ordering":"side1 3 0 | order2 1 2"},"command":"recognize",'
        '"input_sha256":"55f5520007c809c88fb73e01ab6a1c1dac3eb0e419052234bd07e2c3640ea2da",'
        '"result":{"at-free":true,"bipartite-permutation":true,'
        '"chordal-bipartite":true,"co-bipartite":true,"cograph":true,'
        '"split":false},"schema":1,"solver":null}\n')


def test_input_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(P5)))
    assert main(["hadwiger", "--input", "-", "--json"]) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256["hadwiger"]


def test_chordal_bipartite_reported_above_cap(tmp_path, capsys):
    data = _g6(Graph.cycle(14))
    rep = run_json(tmp_path, capsys, ["recognize"], data)
    assert rep["result"]["chordal-bipartite"] is False


def test_known_answers(tmp_path, capsys):
    rep = run_json(tmp_path, capsys, ["club-minor", "--s", "2"], P5)
    assert rep["result"]["k_min"] == 2 and rep["result"]["p"] == 3
    rep = run_json(tmp_path, capsys, ["club-contract", "--s", "2", "--k", "1"], P5)
    assert rep["result"] == {"answer": "no", "witness_edges": None}
    rep = run_json(tmp_path, capsys, ["club-minor", "--s", "2"], C6)
    assert rep["result"]["k_min"] == 1
    rep = run_json(tmp_path, capsys, ["hadwiger"], P5)
    assert rep["result"]["h"] == 2 and rep["solver"] == "bipperm"


@pytest.mark.parametrize("data", [b"D?", b"C\x07"])
def test_malformed_graph6_exits_2(tmp_path, capsys, data):
    code, out, err = run(tmp_path, capsys, ["club-minor", "--s", "2"], data)
    assert code == 2 and out == "" and "input error" in err


@pytest.mark.parametrize("data, message", [
    (b"~~?", "truncated graph6 vertex count (byte offset 3)"),
    # n = 2^36 - 1 from the eight-byte header: the payload length is checked
    # before anything is allocated for the graph.
    (b"~~~~~~~~", "graph6 payload for n=68719476735 needs "
                  "393530540221957231958 bytes, got 0 (byte offset 8)"),
])
def test_malformed_graph6_long_header_exits_2(tmp_path, capsys, data, message):
    code, out, err = run(tmp_path, capsys, ["hadwiger", "--json"], data)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("argv, data", [
    (["club-contract", "--s", "1", "--k", "3", "--cap", "4"], P5),
    (["club-minor", "--s", "1", "--cap", "4"], P5),
    (["club-contract", "--s", "2", "--k", "1", "--cap", "5"], C7),
    (["club-minor", "--s", "2", "--cap", "5"], C7),
    (["hadwiger", "--method", "cograph"], P5),
    (["hadwiger", "--method", "bipperm"], C5),
    (["hadwiger"], C13),
])
def test_no_applicable_method_exits_3(tmp_path, capsys, argv, data):
    code, out, err = run(tmp_path, capsys, argv, data)
    assert code == 3 and out == "" and "error" in err


# P4 0-7-8-9 as the first component and P4 2-1-3-4 as the second: the root
# splits as a union, and its first part splits neither way, so that part's
# P4 is named, although a scan of the whole graph meets 2 1 3 4 first.
TWO_P4 = _g6(Graph.from_edges(10, [(0, 7), (7, 8), (8, 9), (2, 1), (1, 3), (3, 4)]))


@pytest.mark.parametrize("data, p4", [(b"Ch", "0 1 2 3"), (TWO_P4, "0 7 8 9")])
def test_cograph_method_names_the_induced_p4(tmp_path, capsys, data, p4):
    for json_flag in ([], ["--json"]):
        code, out, err = run(tmp_path, capsys,
                             ["hadwiger", "--method", "cograph"] + json_flag, data)
        assert code == 3 and out == ""
        assert err == f"error: graph is not a cograph (induced P4: {p4})\n"


def test_hadwiger_on_the_empty_graph(tmp_path, capsys):
    """Cograph recognition needs a vertex, so auto passes the empty graph on
    to bipperm, which answers h = 0 with no bags."""
    for method in ("auto", "bipperm"):
        report = run_json(tmp_path, capsys, ["hadwiger", "--method", method], b"?")
        assert report["solver"] == "bipperm"
        assert report["result"]["h"] == 0 and report["result"]["witness"] == []
    report = run_json(tmp_path, capsys, ["hadwiger", "--method", "oracle"], b"?")
    assert report["solver"] == "oracle" and report["result"]["h"] == 0
    code, out, err = run(tmp_path, capsys, ["hadwiger", "--method", "cograph"], b"?")
    assert code == 3 and out == ""
    assert err == "error: cograph recognition needs at least one vertex\n"


def test_club_minor_rejects_a_negative_diameter_bound(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, ["club-minor", "--s", "-1"], C6)
    assert code == 3 and out == ""
    assert err == "error: diameter bound --s must be non-negative\n"
    # club-contract rejects it the same way, within --cap and above it.
    for cap in ([], ["--cap", "3"]):
        for data in (C5, C6):
            code, out, err = run(tmp_path, capsys,
                                 ["club-contract", "--s", "-1", "--k", "2"] + cap, data)
            assert code == 3 and out == ""
            assert err == "error: diameter bound --s must be non-negative\n"
    # The oracles still answer: no contraction set reaches diameter s < 0.
    rep = run_json(tmp_path, capsys, ["oracle", "club-minor", "--s", "-1"], C6)
    assert rep["result"]["value"] == 0
    rep = run_json(tmp_path, capsys,
                   ["oracle", "club-contract", "--s", "-1", "--k", "2"], C6)
    assert rep["result"]["value"] is None


ICOSAHEDRON = b"KhFJ{B`KWqph"


def test_club_minor_at_s_0_answers_with_a_spanning_tree(tmp_path, capsys):
    """Kruskal's tree over the edge list, the subset walk's first set, which
    used to run into the subset budget on the icosahedron."""
    rep = run_json(tmp_path, capsys, ["club-minor", "--s", "0"], ICOSAHEDRON)
    assert rep["solver"] == "oracle"
    assert rep["result"]["k_min"] == 11 and rep["result"]["p"] == 1
    witness = rep["result"]["witness_edges"]
    assert len(witness) == 11
    _check_contraction(ICOSAHEDRON, witness, 0)


def _never(*args):
    return False


# Each case breaks the check of one family of certified outputs, so that a
# correct solver output fails its certificate.
@pytest.mark.parametrize("argv, data, command, target, fake", [
    (["clique-matching"], P5, "clique-matching",
     "minorclub.bipperm_dp.is_clique_matching", _never),
    (["hadwiger"], P5, "hadwiger", "minorclub.bipperm_dp.verify_witness", _never),
    (["club-contract", "--s", "2", "--k", "3"], ATFREE_D3, "club-contract",
     "minorclub.club_contraction.diameter_at_most", _never),
    (["recognize"], b"Cr", "recognize", "minorclub.recognition.Cotree.to_graph",
     lambda tree, n: Graph.empty(n)),
    (["oracle", "hadwiger"], P5, "oracle:hadwiger", "minorclub.oracle.verify_witness",
     _never),
    # A replay that drops its last pair: only the public exits count them.
    (["hadwiger"], P5, "hadwiger", "minorclub.bipperm_dp._replay",
     lambda *args: _replay(*args)[:-1]),
    (["clique-matching"], P5, "clique-matching", "minorclub.bipperm_dp._replay",
     lambda *args: _replay(*args)[:-1]),
    # C7 has an asteroidal triple, so the oracle's walk answers budget 2; a
    # walk that answers with its first k edges is caught by the re-check.
    (["club-contract", "--s", "2", "--k", "2"], C7, "club-contract",
     "minorclub.oracle._first_club_set", lambda G, s, k: tuple(G.edges()[:k])),
])
def test_failed_certificate_exits_5(tmp_path, capsys, monkeypatch, argv, data,
                                    command, target, fake):
    monkeypatch.setattr(target, fake)
    code, out, err = run(tmp_path, capsys, argv + ["--json"], data)
    assert code == 5 and out == "" and err.startswith("internal error: "), err
    assert f"command: {command}\n" in err
    assert f"input: sha256:{hashlib.sha256(data).hexdigest()}\n" in err


def test_oracle_above_cap_exits_4(tmp_path, capsys):
    for argv, data in ((["oracle", "hadwiger", "--cap", "4"], P5),
                       (["hadwiger", "--method", "oracle", "--cap", "4"], C5)):
        code, out, err = run(tmp_path, capsys, argv, data)
        assert code == 4 and out == "" and "capacity exceeded" in err
    code, out, err = run(tmp_path, capsys, ["oracle", "nice-structure"], C13)
    assert code == 4 and out == ""
    assert err == "capacity exceeded: graph of size 13 exceeds oracle cap 12\n"


def test_oracle_club_contract_ignores_the_cap(tmp_path, capsys):
    """The subset walk is bounded by SUBSET_BUDGET alone: P6 at s = 2 needs
    three contractions, also with --cap 3."""
    for cap in ([], ["--cap", "3"]):
        report = run_json(tmp_path, capsys, ["oracle", "club-contract", "--s", "2",
                                             "--k", "3"] + cap, _g6(Graph.path(6)))
        assert report["result"] == {"value": 3}


def test_hadwiger_falls_back_to_the_oracle(tmp_path, capsys):
    # C5 is neither a cograph nor a bipartite permutation graph.
    rep = run_json(tmp_path, capsys, ["hadwiger"], C5)
    assert rep["solver"] == "oracle" and rep["result"]["h"] == 3
    G = parse_graph(C5, "graph6")
    bags = [set(b) for b in rep["result"]["witness_bags"]]
    assert len(bags) == 3 and sum(map(len, bags)) == len(set().union(*bags))
    assert all(bag and is_connected(induced_subgraph(G, bag)) for bag in bags)
    for i, a in enumerate(bags):
        for b in bags[i + 1:]:
            assert any(G.has_edge(x, y) for x in a for y in b)


@pytest.mark.parametrize("argv", [
    ["club-contract", "--s", "2", "--k", "1"],
    ["club-minor", "--s", "2"],
])
def test_club_dispatch(tmp_path, capsys, argv):
    assert run_json(tmp_path, capsys, argv, P5)["solver"] == "bound"
    assert run_json(tmp_path, capsys, argv, ATFREE_D3)["solver"] == "atfree"
    assert run_json(tmp_path, capsys, argv, C7)["solver"] == "oracle"


def _check_contraction(data: bytes, edges, s: int) -> None:
    G = parse_graph(data, "graph6")
    edges = [tuple(e) for e in edges]
    assert all(G.has_edge(a, b) for a, b in edges)
    assert diameter(contract_edges(G, edges)) <= s


def test_club_bound_on_a_path(tmp_path, capsys):
    # P8 has d = 7, so d - s = 5 contractions are needed on any graph.
    data = _g6(Graph.path(8))
    rep = run_json(tmp_path, capsys, ["club-minor", "--s", "2"], data)
    assert rep["solver"] == "bound"
    assert rep["result"]["k_min"] == 5 and rep["result"]["p"] == 3
    witness = rep["result"]["witness_edges"]
    assert len(witness) == 5
    _check_contraction(data, witness, 2)
    rep = run_json(tmp_path, capsys, ["club-contract", "--s", "2", "--k", "5"], data)
    assert rep["solver"] == "bound"
    assert rep["result"] == {"answer": "yes", "witness_edges": witness}
    rep = run_json(tmp_path, capsys, ["club-contract", "--s", "2", "--k", "4"], data)
    assert rep["solver"] == "bound"
    assert rep["result"] == {"answer": "no", "witness_edges": None}


# C6 with a pendant path of 10 vertices: n = 16 is above --cap and the graph
# has an asteroidal triple, so only the bound can answer.  d = 13; for s = 3
# the scan finds 10 edges that reach diameter 3, for s = 2 it finds none.
C6_TAIL = b"OhEK?C@?G?_@?@??_?G?@"


def test_club_bound_answers_above_the_cap(tmp_path, capsys):
    G = parse_graph(C6_TAIL, "graph6")
    assert G.n == 16 and diameter(G) == 13 and is_at_free(G) is not True
    rep = run_json(tmp_path, capsys, ["club-minor", "--s", "3"], C6_TAIL)
    assert rep["solver"] == "bound" and rep["result"]["k_min"] == 10
    _check_contraction(C6_TAIL, rep["result"]["witness_edges"], 3)
    code, out, err = run(tmp_path, capsys, ["club-minor", "--s", "2"], C6_TAIL)
    assert code == 3 and out == "" and "error" in err


# Non-AT-free graphs with d = 5 where the bound misses for s = 2: the
# contraction of the scanned path fails its re-check.
@pytest.mark.parametrize("g6, k_min", [(b"Il_OQP_?O", 4), (b"HrGGWd?", 3)])
def test_club_bound_miss_falls_back_to_the_oracle(tmp_path, capsys, g6, k_min):
    rep = run_json(tmp_path, capsys, ["club-minor", "--s", "2"], g6)
    assert rep["solver"] == "oracle" and rep["result"]["k_min"] == k_min


# HrO__OG (n = 9) has an asteroidal triple and d = 5, but the double sweep
# from vertex 0 stops at distance 4, where d' - s = 2 leaves no path to scan.
# Only the rerun from the distance matrix's first diametral pair finds the 3
# edges; without it, the graph above --cap 8 would exit 3.
SWEEP_SHORT = b"HrO__OG"


def test_club_bound_reruns_from_the_matrix_pair(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys,
                         ["club-minor", "--s", "2", "--cap", "8", "--json"], SWEEP_SHORT)
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["solver"] == "bound" and rep["result"]["k_min"] == 3
    _check_contraction(SWEEP_SHORT, rep["result"]["witness_edges"], 2)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "edb5bc799f2aa4c6de8b45a29ff6cd0cdee11819da157e21e6f4fa37f0656340")


# The benchmark generator's non_atfree graph with n = 20 (index 0): an
# asteroidal triple, d = 6, and above the default --cap of 12.
NON_ATFREE_20 = b"SkE?GiCOA?P??C?cG??_???GC?@?A?A??"


def test_club_bound_walks_above_the_cap(tmp_path, capsys):
    """At s = 5, d - s = 1 and the subset walk finds the one edge, so the
    graph no longer exits 3; at s = 2 the budget 3 is below d' - s = 4 from
    the double sweep, and budget 4 is left to the oracle, which exits 3."""
    G = parse_graph(NON_ATFREE_20, "graph6")
    assert G.n == 20 and diameter(G) == 6 and is_at_free(G) is not True
    rep = run_json(tmp_path, capsys, ["club-contract", "--s", "5", "--k", "1"],
                   NON_ATFREE_20)
    assert rep["solver"] == "bound" and rep["result"]["answer"] == "yes"
    _check_contraction(NON_ATFREE_20, rep["result"]["witness_edges"], 5)
    rep = run_json(tmp_path, capsys, ["club-minor", "--s", "5"], NON_ATFREE_20)
    assert rep["solver"] == "bound" and rep["result"]["k_min"] == 1
    rep = run_json(tmp_path, capsys, ["club-contract", "--s", "2", "--k", "3"],
                   NON_ATFREE_20)
    assert rep["solver"] == "bound"
    assert rep["result"] == {"answer": "no", "witness_edges": None}
    code, out, err = run(tmp_path, capsys,
                         ["club-contract", "--s", "2", "--k", "4"], NON_ATFREE_20)
    assert code == 3 and out == "" and "cap" in err


def test_club_contract_refutes_a_disconnected_graph_at_any_size(tmp_path, capsys):
    """No contraction joins two components: C7 + K1 is answered "no" above
    --cap as within it, by the bound at s = 2 and by the oracle, which
    needs no search, at s = 1."""
    data = _g6(disjoint_union(Graph.cycle(7), Graph.empty(1)))
    assert data == b"GhCKG?"
    for s, k, solver in (("1", "0", "oracle"), ("2", "1", "bound")):
        for cap in ("3", "5", "12"):
            rep = run_json(tmp_path, capsys, ["club-contract", "--s", s,
                                              "--k", k, "--cap", cap], data)
            assert rep["solver"] == solver
            assert rep["result"] == {"answer": "no", "witness_edges": None}


def test_club_contract_above_the_tight_budget_reports_the_tight_set(tmp_path, capsys):
    """P5 at s = 2 has d - s = 2: budget d - s + 2 = 4 carries the two edges
    that club-minor reports, not a dominating path of four."""
    minor = run_json(tmp_path, capsys, ["club-minor", "--s", "2"], P5)
    rep = run_json(tmp_path, capsys, ["club-contract", "--s", "2", "--k", "4"], P5)
    assert rep["solver"] == minor["solver"] == "bound"
    witness = rep["result"]["witness_edges"]
    assert witness == minor["result"]["witness_edges"] and len(witness) == 2
    _check_contraction(P5, witness, 2)


# SHA-256 of the --json stdout (empty on an error), exit code and stderr on
# graphs with at most two vertices: the empty graph, K1, K2 and two isolated
# vertices, as the solver printed them when every call built the distance
# matrix first, except for the solver, now "bound" in every report (the
# d - s bound answers them all), and for the empty graph's club-minor, which
# exited 3 as if the graph were disconnected and now answers k_min 0.  Only
# club-minor on two isolated vertices exits 3.
TINY_CLUB_REPORTS = {
    (b"?", "club-contract"): (0, "e72f3c982faf4aa61bfd741bfd0cb6f9c0926c2aed93a9fdd08455359656f109"),
    (b"?", "club-minor"): (0, "28792a221fbbc4a7588ee91583543c42164769b052e24cdb7cda70e809c3a839"),
    (b"@", "club-contract"): (0, "b87e6783811786077b630533d7273d5a889e6df727ad51f41c55e25c584ccc6b"),
    (b"@", "club-minor"): (0, "04e41b8b3613ff6e01272ef50f902d00bb5a5cb1dc1cda0108e20ee503d4677c"),
    (b"A_", "club-contract"): (0, "ddf566252385b56c22f57d76523e947be25577ba4b31a8fe052cce96a62ef9d7"),
    (b"A_", "club-minor"): (0, "f2204b84b6e4faeabe284dacbb1cdcc9f4d931505143722d8a5894f20e5f91b9"),
    (b"A?", "club-contract"): (0, "096a431d9f4d8182237cd58dcc8f015873f6c36c3b977779839342fcaeeeabab"),
    (b"A?", "club-minor"): (3, None),
}


@pytest.mark.parametrize("data, command", sorted(TINY_CLUB_REPORTS))
def test_club_reports_on_tiny_graphs_are_pinned(tmp_path, capsys, data, command):
    argv = [command, "--s", "2"] + (["--k", "0"] if command == "club-contract" else [])
    code, out, err = run(tmp_path, capsys, argv + ["--json"], data)
    want_code, want_sha = TINY_CLUB_REPORTS[data, command]
    assert code == want_code
    if want_sha is None:
        assert out == ""
        assert err == DISCONNECTED
    else:
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == want_sha


# Exit code and the result value, or stderr on an error, of `oracle
# club-minor --s 2` on its edge paths, as the partition search printed them.
# Connectivity is checked before the cap, so C12 + K1 exits 3 and C13 4.
DISCONNECTED = "error: disconnected graphs cannot be contracted to finite diameter\n"
ORACLE_CLUB_MINOR_EDGES = {
    b"?": (0, 0),
    b"@": (0, 1),
    b"A_": (0, 2),
    b"A?": (3, DISCONNECTED),
    C12_K1: (3, DISCONNECTED),
    C13: (4, "capacity exceeded: graph of size 13 exceeds oracle cap 12\n"),
}


@pytest.mark.parametrize("data", sorted(ORACLE_CLUB_MINOR_EDGES))
def test_oracle_club_minor_edge_paths_are_pinned(tmp_path, capsys, data):
    code, out, err = run(tmp_path, capsys,
                         ["oracle", "club-minor", "--s", "2", "--json"], data)
    want_code, want = ORACLE_CLUB_MINOR_EDGES[data]
    assert code == want_code
    if code == 0:
        assert err == "" and json.loads(out)["result"] == {"value": want}
    else:
        assert out == "" and err == want


# (n, k_min at s = 0) of connected graphs with at most two vertices, and
# None for two disconnected graphs: two isolated vertices and C7 + K1.
CLUB_RULE_GRAPHS = {b"?": (0, 0), b"@": (1, 0), b"A_": (2, 1), b"A?": None,
                    b"GhCKG?": None}


@pytest.mark.parametrize("s", range(4))
@pytest.mark.parametrize("data", sorted(CLUB_RULE_GRAPHS))
def test_club_commands_share_one_rule_on_degenerate_graphs(tmp_path, capsys,
                                                           data, s):
    """Every club command answers a graph with fewer than two vertices as it
    answers any graph already within s, with solver "bound" at s >= 2.  A
    disconnected graph gets "no" and null, and both club-minor commands
    reject it with one message."""
    solver = "bound" if s >= 2 else "oracle"
    contract = run_json(tmp_path, capsys,
                        ["club-contract", "--s", str(s), "--k", "0"], data)
    oracle = run_json(tmp_path, capsys,
                      ["oracle", "club-contract", "--s", str(s)], data)
    minors = [run(tmp_path, capsys, argv + ["--s", str(s), "--json"], data)
              for argv in (["club-minor"], ["oracle", "club-minor"])]
    assert contract["solver"] == solver
    if CLUB_RULE_GRAPHS[data] is None:
        assert contract["result"] == {"answer": "no", "witness_edges": None}
        assert oracle["result"] == {"value": None}
        assert minors == [(3, "", DISCONNECTED)] * 2
        return
    n, k0 = CLUB_RULE_GRAPHS[data]
    k_min = k0 if s == 0 else 0
    assert contract["result"]["answer"] == ("no" if k_min else "yes")
    assert oracle["result"] == {"value": k_min}
    (code, out, err), (ocode, oout, oerr) = minors
    assert code == ocode == 0 and err == oerr == ""
    minor = json.loads(out)
    assert minor["solver"] == solver
    assert (minor["result"]["k_min"], minor["result"]["p"]) == (k_min, n - k_min)
    assert json.loads(oout)["result"] == {"value": n - k_min}


def test_atfree_error_without_a_certificate_exits_3(tmp_path, capsys,
                                                    monkeypatch):
    """Only an asteroidal triple sends a club question from the AT-free
    solver to the oracle; on GUW?KG at s = 2 the bound misses, and any other
    DomainError of the solver exits 3 with its own message."""
    def refuse(G, s):
        raise DomainError("refused")

    monkeypatch.setattr("minorclub.cli.minimum_contraction", refuse)
    code, out, err = run(tmp_path, capsys, ["club-minor", "--s", "2"], b"GUW?KG")
    assert (code, out, err) == (3, "", "error: refused\n")


@pytest.mark.parametrize("data, s", [(C7, 2), (P5, 1)])
def test_club_minor_oracle_reports_its_witness(tmp_path, capsys, data, s):
    rep = run_json(tmp_path, capsys, ["club-minor", "--s", str(s)], data)
    assert rep["solver"] == "oracle"
    edges = [tuple(e) for e in rep["result"]["witness_edges"]]
    assert len(edges) == rep["result"]["k_min"]
    G = parse_graph(data, "graph6")
    assert all(G.has_edge(a, b) for a, b in edges)
    assert diameter(contract_edges(G, edges)) <= s


def test_s_below_two_uses_the_oracle_within_cap(tmp_path, capsys):
    rep = run_json(tmp_path, capsys, ["club-contract", "--s", "1", "--k", "3"], P5)
    assert rep["solver"] == "oracle" and rep["result"]["answer"] == "yes"
    rep = run_json(tmp_path, capsys, ["club-minor", "--s", "1"], P5)
    assert rep["solver"] == "oracle" and rep["result"]["k_min"] == 3


@pytest.mark.parametrize("data", [
    P5, C6,
    _g6(disjoint_union(Graph.path(5), Graph.empty(1))),
    _g6(disjoint_union(Graph.cycle(6), Graph.empty(1))),
])
def test_negative_budget_exits_3(tmp_path, capsys, data):
    code, out, err = run(tmp_path, capsys,
                         ["club-contract", "--s", "2", "--k", "-1"], data)
    assert code == 3 and out == "" and "non-negative" in err


@pytest.mark.parametrize("data", [
    C6, _g6(disjoint_union(Graph.cycle(6), Graph.empty(1))),
])
def test_negative_budget_below_s_two_exits_3(tmp_path, capsys, data):
    code, out, err = run(tmp_path, capsys,
                         ["club-contract", "--s", "1", "--k", "-1"], data)
    assert code == 3 and out == "" and "non-negative" in err


def test_oracle_negative_budget_exits_3(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys,
                         ["oracle", "club-contract", "--k", "-1"], P5)
    assert code == 3 and out == "" and "non-negative" in err


@pytest.mark.parametrize("data", [
    _g6(disjoint_union(Graph.path(5), Graph.empty(1))),
    _g6(disjoint_union(Graph.cycle(6), Graph.empty(1))),
])
def test_disconnected_club_contract_says_no(tmp_path, capsys, data):
    rep = run_json(tmp_path, capsys, ["club-contract", "--s", "2", "--k", "3"], data)
    assert rep["result"] == {"answer": "no", "witness_edges": None}


@pytest.mark.parametrize("argv, data, offset", [
    (["hadwiger", "--format", "dimacs"], b"p edge x 1\n", 7),
    (["hadwiger", "--format", "dimacs"], b"p edge -2 0\n", 7),
    (["reduce", "nae3sat"], b"p cnf 3 1\n1 x -3 0\n", 12),
    (["reduce", "nae3sat"], b"p cnf three 1\n1 2 3 0\n", 6),
    (["reduce", "hitting-set", "--k", "1"], b"4 2\n0 1\n2 y\n", 10),
    (["reduce", "hitting-set", "--k", "1"], b"4 two\n0 1\n2 3\n", 2),
    (["reduce", "nae3sat"], b"p cnf 3 x\n1 2 3 0\n", 8),
    (["reduce", "nae3sat"], b"p cnf 3 5\n1 2 3 0\n", 8),
    (["reduce", "nae3sat"], b"p cnf 3 -1\n", 8),
    (["reduce", "hitting-set", "--k", "1"], b"-2 0\n", 0),
    (["reduce", "hitting-set", "--k", "1"], b"3 2\n0 1\n2 3\n", 10),
    (["reduce", "hitting-set", "--k", "1"], b"3 1\n-1 2\n", 4),
    (["reduce", "nae3sat"], b"p cnf -3 0\n", 6),
    (["reduce", "nae3sat"], b"c three variables\np cnf 3\n1 2 3 0\n", 18),
    (["reduce", "hitting-set", "--k", "1"], b"\n3\n0 1\n", 1),
    (["reduce", "hitting-set", "--k", "1"], b"3 2\n0 1\n", 2),
    (["hadwiger", "--format", "edgelist"], b"3\n", 0),
    (["hadwiger", "--format", "edgelist"], b"-3 1\n0 1\n", 0),
    (["hadwiger", "--format", "dimacs"], b"p edge 3\ne 1 2\n", 0),
    (["hadwiger", "--format", "dimacs"], b"p edge 3 1\ne 1 2 3\n", 11),
    (["hadwiger", "--format", "dimacs"], b"p edge 3 1\nx 1 2\n", 11),
    (["hadwiger", "--format", "dimacs"], b"c only a comment\n", 0),
    (["hadwiger"], b"~?", 2),
    (["hadwiger", "--format", "dimacs"], b"p edge 3 1\ne 1 5\n", 15),
    (["hadwiger", "--format", "dimacs"], b"p edge 3 2\ne 1 2\n", 9),
    (["hadwiger", "--format", "edgelist"], b"3 2\n0 1\n", 2),
    (["hadwiger"], b"D?", 2),
    (["hadwiger"], b"D??????", 3),
    (["reduce", "hitting-set", "--k", "1"], b"", 0),
    (["reduce", "nae3sat"], b"1 2 3 0\n", 0),
    (["reduce", "nae3sat"], b"p cnf 3 1\n1 2 5 0\n", 14),
    (["reduce", "nae3sat"], b"p cnf 3 1\n1 2 0\n", 10),
])
def test_malformed_text_input_exits_2_with_offset(tmp_path, capsys, argv, data, offset):
    code, out, err = run(tmp_path, capsys, argv, data)
    assert code == 2 and out == "" and err.startswith("input error: ")
    assert err.endswith(f"(byte offset {offset})\n")


@pytest.mark.parametrize("construction, data", [("hitting-set", SETS), ("lift", P5)])
def test_reduce_without_k_exits_2(tmp_path, capsys, construction, data):
    code, out, err = run(tmp_path, capsys, ["reduce", construction], data)
    assert code == 2 and out == "" and err.startswith("input error: ")
    assert "needs --k" in err


def test_reduce_out_writes_the_graph_and_its_metadata(tmp_path, capsys):
    path = tmp_path / "nae.g6"
    rep = run_json(tmp_path, capsys, ["reduce", "nae3sat", "--out", str(path)], CNF)
    assert path.read_text() == rep["result"]["graph6"] + "\n"
    meta = json.loads((tmp_path / "nae.g6.json").read_text())
    assert meta == {key: rep["result"][key] for key in ("k", "target", "role_labels")}
    path = tmp_path / "sub.g6"
    rep = run_json(tmp_path, capsys, ["reduce", "subdivide", "--out", str(path)], P5)
    assert path.read_text() == rep["result"]["graph6"] + "\n"
    assert not (tmp_path / "sub.g6.json").exists()


def test_unreadable_input_exits_2(tmp_path, capsys):
    for path in (tmp_path / "missing.g6", tmp_path):
        code = main(["hadwiger", "--input", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"input error: cannot read {path}: "), err


@pytest.mark.parametrize("argv, data", [
    (["reduce", "lift", "--k", "-3"], P5),
    (["reduce", "hitting-set", "--k", "-1"], SETS),
    (["reduce", "hitting-set", "--k", "-1", "--s", "3"], SETS),
])
def test_negative_reduce_budget_exits_3(tmp_path, capsys, argv, data):
    code, out, err = run(tmp_path, capsys, argv, data)
    assert code == 3 and out == "" and "non-negative" in err
