from __future__ import annotations

import json

import pytest

from minorclub.cli import main
from minorclub.formats import emit_graph, parse_graph
from minorclub.graph import Graph, disjoint_union

P5 = b"DhC"
C6 = b"EhEG"
CNF = b"p cnf 3 2\n1 2 -3 0\n-1 2 3 0\n"
SETS = b"4 2\n0 1\n2 3\n"


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
    assert parse_graph(C6, "graph6") == Graph.cycle(6)


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
    code, second, _ = run(tmp_path, capsys, argv + ["--json"], data)
    assert code == 0 and second == first
    code, human, _ = run(tmp_path, capsys, argv, data)
    assert code == 0 and f"command: {command}" in human


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


@pytest.mark.parametrize("argv, data", [
    (["club-contract", "--s", "1", "--k", "3", "--cap", "4"], P5),
    (["club-minor", "--s", "1", "--cap", "4"], P5),
    (["club-contract", "--s", "2", "--k", "1", "--cap", "5"], C6),
    (["club-minor", "--s", "2", "--cap", "5"], C6),
    (["hadwiger", "--method", "cograph"], P5),
])
def test_no_applicable_method_exits_3(tmp_path, capsys, argv, data):
    code, out, err = run(tmp_path, capsys, argv, data)
    assert code == 3 and out == "" and "error" in err


def test_oracle_above_cap_exits_4(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, ["oracle", "hadwiger", "--cap", "4"], P5)
    assert code == 4 and out == "" and "capacity exceeded" in err


@pytest.mark.parametrize("argv", [
    ["club-contract", "--s", "2", "--k", "1"],
    ["club-minor", "--s", "2"],
])
def test_club_dispatch(tmp_path, capsys, argv):
    assert run_json(tmp_path, capsys, argv, P5)["solver"] == "atfree"
    assert run_json(tmp_path, capsys, argv, C6)["solver"] == "oracle"


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
