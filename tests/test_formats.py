from __future__ import annotations

import random
import re
from itertools import combinations

import pytest

from minorclub.errors import ParseError
from minorclub.formats import (_g6_decode_order, emit_graph, parse_dimacs_cnf,
                               parse_graph, parse_set_system)
from minorclub.graph import Graph, disjoint_union
from minorclub.reductions import NaeFormula


SAMPLES = [
    Graph.empty(0),
    Graph.empty(1),
    Graph.complete(2),
    Graph.path(4),
    Graph.cycle(6),
    Graph.complete(7),
    disjoint_union(Graph.cycle(5), Graph.empty(3)),
    Graph.complete_bipartite(3, 4),
]


@pytest.mark.parametrize("fmt", ["graph6", "edgelist", "dimacs"])
@pytest.mark.parametrize("G", SAMPLES, ids=lambda g: f"n{g.n}m{g.m}")
def test_round_trips(fmt, G):
    data = emit_graph(G, fmt)
    assert parse_graph(data, fmt) == G
    # emitting again is byte-identical
    assert emit_graph(parse_graph(data, fmt), fmt) == data


def test_graph6_known_encodings():
    # 'D?{' is a 5-vertex graph: decode, re-encode identically
    G = parse_graph(b"D?{", "graph6")
    assert G.n == 5
    assert emit_graph(G, "graph6") == b"D?{"
    assert parse_graph(b">>graph6<<D?{", "graph6") == G
    # complete graph on 4 vertices packs to all-ones payload
    assert emit_graph(Graph.complete(4), "graph6") == b"C~"


def test_graph6_padding_bits_are_ignored():
    # n = 2 has one payload bit; the five padding bits after it are ignored
    assert parse_graph(b"AA", "graph6") == Graph.empty(2)
    assert parse_graph(b"A~", "graph6") == Graph.complete(2)


def _reference_graph6(n: int, edges) -> bytes:
    """graph6 written out bit by bit: the order's header, then bit (i, j)
    of each column j = 1..n-1 for i < j, six bits to a byte plus 63."""
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    bits = "".join("1" if (i, j) in edges else "0" for j in range(1, n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    head = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    payload = [int(bits[k:k + 6], 2) for k in range(0, len(bits), 6)]
    return bytes(d + 63 for d in head + payload)


def _random_edges(n: int, m: int, rng: random.Random):
    return rng.sample(list(combinations(range(n), 2)), m)


# A payload is read edge by edge while at most 1 in 8 of its n(n-1)/2 edge
# bits is set, and through the n x n square above that: m = n(n-1)/2 // 8
# edges is the densest sparse payload and one more edge the sparsest dense
# one.  The orders cross the one-byte header at 62/63 and the 64-bit word.
@pytest.mark.parametrize("n", [*range(1, 71), 126, 127, 200])
def test_graph6_decodes_both_sides_of_the_density_switch(n):
    rng = random.Random(n)
    pairs = n * (n - 1) // 2
    for m in (pairs // 8, pairs // 8 + 1):
        if m <= pairs:
            edges = _random_edges(n, m, rng)
            assert parse_graph(_reference_graph6(n, edges), "graph6") == \
                Graph.from_edges(n, edges), m


# Setting the padding bits of the last byte leaves the graph and the path
# alike unchanged.  n = 64 has no padding bits: its 2016 edge bits fill 336
# bytes.
@pytest.mark.parametrize("n", [5, 7, 64, 70])
def test_graph6_padding_bits_are_ignored_on_both_decoder_paths(n):
    rng = random.Random(100 + n)
    pairs = n * (n - 1) // 2
    for m in (pairs // 8, pairs // 2):
        edges = _random_edges(n, m, rng)
        data = bytearray(_reference_graph6(n, edges))
        data[-1] |= (1 << -pairs % 6) - 1
        assert parse_graph(bytes(data), "graph6") == Graph.from_edges(n, edges), m


# The decoder reads payloads with more than 1 bit in 8 set through an n x n
# square and sparser ones edge by edge: 0.02 and 0.1 lie below that switch,
# 0.15 just above it, and n = 1000 runs each path at scale.
@pytest.mark.parametrize("density", [0.02, 0.1, 0.15, 0.5, 0.9])
def test_graph6_agrees_with_networkx(density):
    nx = pytest.importorskip("networkx")
    sizes = [*range(1, 70), 126, 127, 200, 300]
    if density in (0.02, 0.5):
        sizes.append(1000)
    for n in sizes:
        H = nx.gnp_random_graph(n, density, seed=n)
        data = nx.to_graph6_bytes(H, header=False).strip()
        G = parse_graph(data, "graph6")
        assert G == Graph.from_edges(n, H.edges()), (n, density)
        assert emit_graph(G, "graph6") == data, (n, density)


def test_graph6_long_order_boundary():
    G = Graph.empty(63)
    data = emit_graph(G, "graph6")
    assert data.startswith(b"~")
    assert parse_graph(data, "graph6") == G
    # the eight-byte header that n >= 258048 needs, here with n = 0
    assert parse_graph(b"~~??????", "graph6") == Graph.empty(0)


@pytest.mark.parametrize("n, head", [(62, b"}"), (63, b"~??~"), (64, b"~?@?"),
                                     (4095, b"~?~~"), (4096, b"~@??")])
def test_graph6_order_header_at_each_width(n, head):
    for G in (Graph.empty(n), Graph.complete(n)):
        data = emit_graph(G, "graph6")
        assert data.startswith(head)
        assert len(data) == len(head) + (n * (n - 1) // 2 + 5) // 6
        assert parse_graph(data, "graph6") == G


@pytest.mark.parametrize("data, n", [(b"~~???~??", 258048), (b"~~~~~~~~", 2 ** 36 - 1)])
def test_graph6_eight_byte_order(data, n):
    assert _g6_decode_order(data, 0) == (n, 8)


@pytest.mark.parametrize("data, offset", [(b"~", 1), (b"~??", 3), (b"~~", 2),
                                          (b"~~?????", 7)])
def test_graph6_truncated_order(data, offset):
    with pytest.raises(ParseError) as err:
        _g6_decode_order(data, 0)
    assert (str(err.value), err.value.offset) == (
        f"truncated graph6 vertex count (byte offset {offset})", offset)


def test_graph6_errors():
    with pytest.raises(ParseError) as err:
        parse_graph(b"C\x07", "graph6")
    assert err.value.offset == 1
    # a bad byte deep in the payload is located exactly, header included
    data = bytearray(emit_graph(Graph.cycle(40), "graph6"))
    data[100] = 0x7F
    with pytest.raises(ParseError) as err:
        parse_graph(b"  >>graph6<<" + bytes(data), "graph6")
    assert err.value.offset == 12 + 100
    with pytest.raises(ParseError) as err:
        parse_graph(b"D?", "graph6")  # truncated payload for n=5
    assert err.value.offset == 2
    with pytest.raises(ParseError):
        parse_graph(b"", "graph6")


def test_edgelist_examples():
    assert parse_graph(b"3 2\n0 1\n1 2\n", "edgelist") == Graph.path(3)
    assert parse_graph(b"  3   2 \n 0 1\n1 2", "edgelist") == Graph.path(3)
    assert parse_graph(b"2 0\n", "edgelist") == Graph.empty(2)


def test_edgelist_self_loop_is_parse_error_with_offset():
    with pytest.raises(ParseError) as err:
        parse_graph(b"2 1\n0 0\n", "edgelist")
    assert "self-loop" in str(err.value)
    assert err.value.offset == 4


def test_edgelist_count_mismatch_is_parse_error_with_offset():
    with pytest.raises(ParseError) as err:
        parse_graph(b"3 2\n0 1\n", "edgelist")
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse_graph(b"2 1\n0 5\n", "edgelist")
    assert err.value.offset == 6


def test_edgelist_duplicate_edge():
    with pytest.raises(ParseError):
        parse_graph(b"3 2\n0 1\n1 0\n", "edgelist")


def test_edgelist_non_integer():
    with pytest.raises(ParseError) as err:
        parse_graph(b"2 1\n0 x\n", "edgelist")
    assert err.value.offset == 6


def test_dimacs():
    data = b"c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    assert parse_graph(data, "dimacs") == Graph.path(4)
    with pytest.raises(ParseError):
        parse_graph(b"e 1 2\n", "dimacs")
    with pytest.raises(ParseError) as err:
        parse_graph(b"p edge 3 2\ne 1 2\n", "dimacs")
    assert err.value.offset == 9
    with pytest.raises(ParseError):
        parse_graph(b"p edge 2 1\ne 1 1\n", "dimacs")


def _read_edgelist(data):
    return parse_graph(data, "edgelist")


def _read_dimacs(data):
    return parse_graph(data, "dimacs")


@pytest.mark.parametrize("read, data, message, offset", [
    # A DIMACS file takes one problem line, before every record line.
    (_read_dimacs, b"p edge 3 1\ne 1 2\np edge 4 1\n", "second problem line", 17),
    (parse_dimacs_cnf, b"p cnf 3 1\n1 2 3 0\np cnf 4 1\n", "second problem line", 18),
    (parse_dimacs_cnf, b"1 2 3 0\np cnf 3 1\n", "clause before problem line", 0),
    (parse_dimacs_cnf, b"c no problem line\n1 2 3 0\n", "clause before problem line", 18),
    (_read_dimacs, b"e 1 2\np edge 2 1\n", "edge line before problem line", 0),
    # Vertex counts that no list can hold: 10^15 fails to allocate and 10^19
    # overflows a list's size.
    (_read_edgelist, b"1000000000000000 0\n", "cannot allocate 1000000000000000 vertices", 0),
    (_read_edgelist, b"10000000000000000000 0\n",
     "cannot allocate 10000000000000000000 vertices", 0),
    (_read_dimacs, b"p edge 1000000000000000 0\n",
     "cannot allocate 1000000000000000 vertices", 7),
    # Both graph readers state a count mismatch in the same words.
    (_read_edgelist, b"3 2\n0 1\n", "header declares 2 edges but 1 follow", 2),
    (_read_dimacs, b"p edge 3 2\ne 1 2\n", "header declares 2 edges but 1 follow", 9),
    # An integer is an optional minus sign and ASCII digits: no plus sign
    # and no underscore digit groups, which Python's int() would read.
    (_read_edgelist, b"1_0 0", "expected an integer, got '1_0'", 0),
    (_read_edgelist, b"+3 0", "expected an integer, got '+3'", 0),
    (_read_dimacs, b"p edge 1_2 0", "expected an integer, got '1_2'", 7),
    (parse_dimacs_cnf, b"p cnf 30 1\n+3_0 1 2 0\n", "expected an integer, got '+3_0'", 11),
    # A digit run past int()'s conversion limit (4 300 digits on Python
    # 3.11) is malformed input like any other, not a crash.
    pytest.param(_read_edgelist, b"9" * 5000 + b" 0",
                 f"expected an integer, got '{'9' * 5000}'", 0, id="5000-digit-count"),
    # A negative count or vertex passes the grammar and fails its range.
    (_read_edgelist, b"-3 0", "negative count in header", 0),
    (_read_edgelist, b"3 1\n0 -1", "vertex -1 out of range for n=3", 6),
])
def test_text_format_errors(read, data, message, offset):
    with pytest.raises(ParseError) as err:
        read(data)
    assert (str(err.value), err.value.offset) == (f"{message} (byte offset {offset})", offset)


def test_text_is_read_as_its_utf8_bytes():
    # The two bytes of \u00e9 are not graph6 digits, so no character outside
    # ASCII can stand for one; a lone surrogate is read too.
    for data in ("B\u00e9", b"B\xc3\xa9"):
        with pytest.raises(ParseError) as err:
            parse_graph(data, "graph6")
        assert str(err.value) == "invalid graph6 byte 195 (byte offset 1)"
    with pytest.raises(ParseError):
        parse_graph("\ud800", "graph6")


# Short random inputs over the text formats' tokens, graph6 digits and text
# outside ASCII.  No run of digits and the underscores int() accepts between
# them is longer than 5, so that no count asks for a list the machine could
# actually allocate.
_FUZZ_ALPHABET = "0123456789 -\n\tpecx%~?@ABC_\u00e9\ud800"
_READERS = [
    lambda text: parse_graph(text, "graph6"),
    lambda text: parse_graph(text, "edgelist"),
    lambda text: parse_graph(text, "dimacs"),
    lambda text: parse_dimacs_cnf(text.encode("utf-8", "surrogatepass")),
    lambda text: parse_set_system(text.encode("utf-8", "surrogatepass"), 1),
]


def test_fuzzed_text_raises_only_parse_errors():
    rng = random.Random(50)
    for _ in range(3000):
        text = "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randint(0, 24)))
        if re.search(r"[0-9_]{6}", text):
            continue
        for read in _READERS:
            try:
                read(text)
            except ParseError:
                pass


def test_dimacs_cnf_last_clause_may_omit_its_zero():
    phi = parse_dimacs_cnf(b"p cnf 3 2\n1 2 3 0\n-1 -2 -3")
    assert phi == NaeFormula(3, ((1, 2, 3), (-1, -2, -3)))
    assert phi == parse_dimacs_cnf(b"p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")


def test_unknown_format():
    with pytest.raises(ParseError):
        parse_graph(b"", "bogus")
    with pytest.raises(ParseError):
        emit_graph(Graph.path(2), "bogus")
