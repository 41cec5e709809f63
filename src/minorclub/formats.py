"""Input formats: graphs in graph6 (canonical interchange), edge list and
DIMACS, and the reductions' source problems in DIMACS CNF and as set systems.

Edge list format: a header line ``n m`` followed by one ``u v`` pair per
line, 0-based.  DIMACS: ``p edge n m`` then ``e u v`` lines, 1-based.
graph6 is the standard 6-bit packed upper-triangle encoding, and the
padding bits of the last byte are ignored.  The decoder
takes one of two paths, chosen by the share of set bits among the
n(n-1)/2 edge bits.  A sparse payload (at most 1 bit in 8 set) is decoded
edge by edge: ``str.find`` walks the set bits while tracking the column,
and each edge sets one bit in each of its two rows, O(m + n) Python steps.
A denser one is laid out as an n x n square of padded columns, and each
vertex's bit row is one integer conversion of n characters: its row and
its column slice in the square set disjoint bits, so they are joined as
text first.  That is O(n) Python steps on O(n^2) characters.  Timed with
each path forced (timeit minimum, CPython 3.11 on a shared 2-vCPU x86-64
machine), edge walk against square, on G(n, p) at p = 0.05 / 0.1 / 0.2 /
0.3:
    n = 40     28 / 63,   65 / 69,   123 / 75,   90 / 42 us
    n = 200    457 / 333, 916 / 335, 1615 / 424, 2464 / 583 us
    n = 1000   13.1 / 6.6, 26.8 / 7.2, 46.2 / 6.2, 79.1 / 6.3 ms
and on the benchmark's sparse families: interval n = 160 (339 edges) 162
/ 233 us, interval n = 1280 4.7 / 10.4 ms, caterpillar n = 160 156 / 390
us.  So both paths stay; the edge walk wins on graphs with O(n) edges.

DIMACS CNF: ``p cnf n m`` then m clauses of nonzero signed 1-based
literals, each ended by 0 except the last, which may end with the input.
Both DIMACS formats skip comment lines anywhere (``c``, and in CNF also
``%``) and take exactly one problem line, before any record line.  Set
system: an ``n m`` header line, then one set per line as member indexes
in 0..n-1.  Every ParseError raised for malformed bytes carries the byte
offset of the offending token; a vertex count too large to allocate is
one, at the count's offset.
"""

from __future__ import annotations

import base64
import re

from .errors import ParseError
from .graph import Graph
from .reductions import HittingSetInstance, NaeFormula

FORMATS = ("graph6", "edgelist", "dimacs")
_TOKEN = re.compile(rb"[^ \t\r\n]+")


def parse_graph(data: bytes | str, format: str = "graph6") -> Graph:
    """Decode a graph from bytes, or from text read as its UTF-8 bytes, in
    the named format; byte offsets count into those bytes."""
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else bytes(data)
    if format == "graph6":
        return _parse_graph6(raw)
    if format == "edgelist":
        return _parse_edgelist(raw)
    if format == "dimacs":
        return _parse_dimacs(raw)
    raise ParseError(f"unknown graph format {format!r}")


def emit_graph(G: Graph, format: str = "graph6") -> bytes:
    """Encode a graph; inverse of parse_graph up to canonical whitespace."""
    if format == "graph6":
        return _emit_graph6(G)
    if format not in FORMATS:
        raise ParseError(f"unknown graph format {format!r}")
    head, edge, shift = ("", "", 0) if format == "edgelist" else ("p edge ", "e ", 1)
    lines = [f"{head}{G.n} {G.m}"] + [f"{edge}{u + shift} {v + shift}" for u, v in G.edges()]
    return ("\n".join(lines) + "\n").encode("ascii")


# graph6 ---------------------------------------------------------------

_G6_HEADER = b">>graph6<<"
_G6_DIGITS = bytes(range(63, 127))
# graph6 digit d and base64 digit d carry the same 6 bits, so the base64
# codec in C packs and unpacks the payload.
_B64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_TO_B64 = bytes.maketrans(_G6_DIGITS, _B64_DIGITS)
_B64_TO_G6 = bytes.maketrans(_B64_DIGITS, _G6_DIGITS)


def _parse_graph6(raw: bytes) -> Graph:
    data = raw.strip()
    base = len(raw) - len(raw.lstrip())
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
        base += len(_G6_HEADER)
    if not data:
        raise ParseError("empty graph6 input", base)
    if data.translate(None, _G6_DIGITS):
        i = next(i for i, byte in enumerate(data) if byte not in _G6_DIGITS)
        raise ParseError(f"invalid graph6 byte {data[i]}", base + i)
    n, pos = _g6_decode_order(data, base)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos != need:
        raise ParseError(f"graph6 payload for n={n} needs {need} bytes, "
                         f"got {len(data) - pos}", base + min(len(data), pos + need))
    # Bit (i, j), i < j, is character j(j-1)/2 + i: column j is one slice.
    payload = data[pos:].translate(_G6_TO_B64)
    packed = base64.b64decode(payload + b"A" * (-len(payload) % 4))
    bits = format(int.from_bytes(packed, "big"), f"0{8 * len(packed)}b")
    end = n * (n - 1) // 2  # the bits past end pad the last byte
    if bits.count("1", 0, end) * 8 > end:
        # Column j padded to n characters is row j of an n x n square; the
        # stride-n slice at column i is then i's upper neighbours.  Reversed,
        # vertex v = n-1-k reads its upper neighbours as the first k
        # characters of the slice at k and its lower ones, after the zero on
        # the diagonal, as the rest of row k: one bit row with vertex 0 last.
        square = "".join(bits[j * (j - 1) // 2:j * (j + 1) // 2].ljust(n, "0")
                         for j in range(n))[::-1]
        return Graph(n, tuple(int(square[k:k * n:n] + square[k * n + k:k * n + n], 2)
                              for k in range(n - 1, -1, -1)))
    # Walk the set bits: bit p lies in column j, which starts at bit
    # j(j-1)/2, and row p - j(j-1)/2.
    rows = [0] * n
    j = start = 0
    p = bits.find("1", 0, end)
    while p >= 0:
        while p >= start + j:
            start += j
            j += 1
        i = p - start
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        p = bits.find("1", p + 1, end)
    return Graph(n, tuple(rows))


def _g6_decode_order(data: bytes, base: int) -> tuple[int, int]:
    if data[0] != 126:
        return data[0] - 63, 1
    start, end = (2, 8) if data[1:2] == b"~" else (1, 4)
    if len(data) < end:
        raise ParseError("truncated graph6 vertex count", base + len(data))
    n = 0
    for byte in data[start:end]:
        n = (n << 6) | (byte - 63)
    return n, end


def _emit_graph6(G: Graph) -> bytes:
    n, rows = G.n, G.rows
    # n takes one digit up to 62, three after one ~ up to 2^18 - 1, else six after two.
    digits = 1 if n <= 62 else 3 if n <= 258047 else 6
    head = b"~" * (digits // 3) + bytes((n >> 6 * k & 63) + 63
                                        for k in range(digits - 1, -1, -1))
    # Column j is the slice that _parse_graph6 decodes: bit i of rows[j], i < j.
    bits = "".join(format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    size = (len(bits) + 5) // 6
    bits += "0" * (-len(bits) % 24)
    packed = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    return head + base64.b64encode(packed).translate(_B64_TO_G6)[:size]


# text formats -----------------------------------------------------------


def _lines(raw: bytes):
    """Yield the (token, offset into ``raw``) pairs of each line that has a
    token; tokens are separated by spaces, tabs, CRs and LFs."""
    offset = 0
    for line in raw.splitlines(keepends=True):
        toks = [(m.group().decode("ascii", errors="replace"), offset + m.start())
                for m in _TOKEN.finditer(line)]
        offset += len(line)
        if toks:
            yield toks


def _int(tok: str, off: int) -> int:
    """An optional ``-`` and ASCII digits, no more digits than ``int`` reads."""
    try:
        if tok.isascii() and tok.removeprefix("-").isdigit():
            return int(tok)
    except ValueError:
        pass
    raise ParseError(f"expected an integer, got {tok!r}", off)


def _counts(toks) -> list[int]:
    """The two counts of an ``n m`` header, given its two tokens."""
    counts = [_int(tok, off) for tok, off in toks]
    for count, (_, off) in zip(counts, toks):
        if count < 0:
            raise ParseError("negative count in header", off)
    return counts


def _dimacs(raw: bytes, kind: str, comments: tuple[str, ...], tag: str | None, record: str):
    """Yield the ``n m`` tokens of the problem line ``p <kind> n m``, then the
    record lines, lazily so that errors come in line order.  A record line
    starts with ``tag``, or with anything but p if ``tag`` is None."""
    head = None
    for toks in _lines(raw):
        first, off = toks[0]
        if first.startswith(comments):
            continue
        if tag and first not in (tag, "p"):
            raise ParseError(f"unknown DIMACS line type {first!r}", off)
        if not first.startswith("p"):
            if head is None:
                raise ParseError(f"{record} before problem line", off)
            yield toks
        elif head is not None:
            raise ParseError("second problem line", off)
        elif len(toks) != 4 or toks[1][0] != kind:
            raise ParseError(f"malformed problem line, expected 'p {kind} n m'", off)
        else:
            head = toks[2:]
            yield head
    if head is None:
        raise ParseError(f"missing 'p {kind} n m' line", 0)


def _parse_edgelist(raw: bytes) -> Graph:
    toks = [tok for line in _lines(raw) for tok in line]
    if len(toks) < 2:
        raise ParseError("edge list needs an 'n m' header", 0)
    return _build(toks[:2], ((_int(tok, off), off) for tok, off in toks[2:]), 0)


def _parse_dimacs(raw: bytes) -> Graph:
    lines = _dimacs(raw, "edge", ("c",), "e", "edge line")

    def pairs():
        for toks in lines:
            if len(toks) != 3:
                raise ParseError("malformed edge line, expected 'e u v'", toks[0][1])
            yield from ((_int(tok, off), off) for tok, off in toks[1:])

    return _build(next(lines), pairs(), 1)


def _build(head, pairs, shift: int) -> Graph:
    """The graph of an ``n m`` header, given as its two tokens, and the
    (vertex, byte offset) pairs of its m edges, vertices numbered from
    ``shift``; the pairs are read after the counts."""
    n, m = _counts(head)
    pairs = list(pairs)
    if len(pairs) != 2 * m:
        raise ParseError(f"header declares {m} edges but {len(pairs) // 2} follow", head[1][1])
    try:
        rows = [0] * n
    except (MemoryError, OverflowError):
        raise ParseError(f"cannot allocate {n} vertices", head[0][1]) from None
    for k in range(0, len(pairs), 2):
        (u, off_u), (v, off_v) = pairs[k], pairs[k + 1]
        u -= shift
        v -= shift
        if u == v:
            raise ParseError(f"self-loop at vertex {u + shift}", off_u)
        for w, off in ((u, off_u), (v, off_v)):
            if not 0 <= w < n:
                raise ParseError(f"vertex {w + shift} out of range for n={n}", off)
        if rows[u] >> v & 1:
            raise ParseError(f"duplicate edge ({u + shift},{v + shift})", off_u)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def parse_dimacs_cnf(data: bytes) -> NaeFormula:
    """DIMACS CNF: 'p cnf n m' then m clauses, each terminated by 0; the
    end of the input also ends the last one."""
    lines = _dimacs(data, "cnf", ("c", "%"), None, "clause")
    head = next(lines)
    n, m = _counts(head)
    clauses = []
    current: list[tuple[int, int]] = []  # (literal, byte offset)
    for toks in lines:
        for tok, off in toks:
            lit = _int(tok, off)
            if lit == 0:
                if current:
                    clauses.append(current)
                    current = []
            else:
                current.append((lit, off))
    if current:
        clauses.append(current)
    if m != len(clauses):
        raise ParseError(f"header declares {m} clauses but {len(clauses)} follow", head[1][1])
    for clause in clauses:
        if len(clause) != 3:
            raise ParseError(f"clause has {len(clause)} literals, expected 3", clause[0][1])
        for lit, off in clause:
            if abs(lit) > n:
                raise ParseError(f"literal {lit} out of range for n={n}", off)
    return NaeFormula(n, tuple(tuple(lit for lit, _ in clause) for clause in clauses))


def parse_set_system(data: bytes, k: int) -> HittingSetInstance:
    """Line format: 'n m' header, then one set per line as member indexes
    in 0..n-1."""
    lines = list(_lines(data))
    if not lines:
        raise ParseError("empty set system", 0)
    if len(lines[0]) != 2:
        raise ParseError("set system needs an 'n m' header", lines[0][0][1])
    n, m = _counts(lines[0])
    if len(lines) - 1 != m:
        raise ParseError(f"header declares {m} sets but {len(lines) - 1} follow",
                         lines[0][1][1])

    def member(tok: str, off: int) -> int:
        x = _int(tok, off)
        if not 0 <= x < n:
            raise ParseError(f"set member {x} outside the universe 0..{n - 1}", off)
        return x

    sets = [frozenset(member(tok, off) for tok, off in line) for line in lines[1:]]
    return HittingSetInstance(n, tuple(sets), k)
