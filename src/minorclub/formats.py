"""Graph file formats: graph6 (canonical interchange), edge list, DIMACS.

Edge list format: a header line ``n m`` followed by one ``u v`` pair per
line, 0-based.  DIMACS: ``p edge n m`` then ``e u v`` lines, 1-based.
graph6 is the standard 6-bit packed upper-triangle encoding; decoding is
linear in the payload, and the padding bits of the last byte are ignored.
"""

from __future__ import annotations

import re

from .errors import FormatError, ParseError
from .graph import Graph

FORMATS = ("graph6", "edgelist", "dimacs")
_TOKEN = re.compile(rb"[^ \t\r\n]+")


def parse_graph(data: bytes | str, format: str = "graph6") -> Graph:
    """Decode a graph from bytes (or text) in the named format."""
    raw = data.encode("ascii", errors="replace") if isinstance(data, str) else bytes(data)
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
    if format == "edgelist":
        lines = [f"{G.n} {G.m}"] + [f"{u} {v}" for u, v in G.edges()]
        return ("\n".join(lines) + "\n").encode("ascii")
    if format == "dimacs":
        lines = [f"p edge {G.n} {G.m}"] + [f"e {u + 1} {v + 1}" for u, v in G.edges()]
        return ("\n".join(lines) + "\n").encode("ascii")
    raise ParseError(f"unknown graph format {format!r}")


# graph6 ---------------------------------------------------------------

_G6_HEADER = b">>graph6<<"
_G6_DIGITS = bytes(range(63, 127))
_G6_BITS = {byte: format(byte - 63, "06b") for byte in _G6_DIGITS}


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
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos != need:
        raise FormatError(
            f"graph6 payload for n={n} needs {need} bytes, got {len(data) - pos}"
        )
    # Bit (i, j), i < j, is character j(j-1)/2 + i: column j is one slice.
    bits = "".join(map(_G6_BITS.__getitem__, data[pos:]))
    rows = [0] * n
    start = 0
    for j in range(1, n):
        col = bits[start:start + j]
        start += j
        rows[j] = int(col[::-1], 2)
        bit = 1 << j
        i = col.find("1")
        while i >= 0:
            rows[i] |= bit
            i = col.find("1", i + 1)
    return Graph(n, tuple(rows))


def _g6_decode_order(data: bytes, base: int) -> tuple[int, int]:
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] == 126:
        if len(data) < 8:
            raise ParseError("truncated graph6 vertex count", base + len(data))
        n = 0
        for byte in data[2:8]:
            n = (n << 6) | (byte - 63)
        return n, 8
    if len(data) < 4:
        raise ParseError("truncated graph6 vertex count", base + len(data))
    n = 0
    for byte in data[1:4]:
        n = (n << 6) | (byte - 63)
    return n, 4


def _emit_graph6(G: Graph) -> bytes:
    n = G.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    else:
        head = bytes([126, 126] + [((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1)])
    bits = 0
    nbits = 0
    out = bytearray(head)
    for j in range(1, n):
        for i in range(j):
            bits = (bits << 1) | (G.rows[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(bits + 63)
                bits = nbits = 0
    if nbits:
        out.append((bits << (6 - nbits)) + 63)
    return bytes(out)


# edge list ------------------------------------------------------------


def _tokenize(raw: bytes):
    """Yield (token, byte_offset) pairs; tokens are separated by spaces,
    tabs, CRs and LFs."""
    for m in _TOKEN.finditer(raw):
        yield m.group().decode("ascii", errors="replace"), m.start()


def _lines(raw: bytes):
    """Yield the (token, byte_offset) pairs of each line that has a token;
    offsets count from the start of ``raw``."""
    offset = 0
    for line in raw.splitlines(keepends=True):
        toks = [(tok, offset + off) for tok, off in _tokenize(line)]
        offset += len(line)
        if toks:
            yield toks


def _int(tok: str, off: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected an integer, got {tok!r}", off) from None


def _ints(raw: bytes, what: str) -> list[tuple[int, int]]:
    out = []
    for tok, off in _tokenize(raw):
        try:
            out.append((int(tok), off))
        except ValueError:
            raise ParseError(f"expected an integer in {what}, got {tok!r}", off) from None
    return out


def _parse_edgelist(raw: bytes) -> Graph:
    toks = _ints(raw, "edge list")
    if len(toks) < 2:
        raise ParseError("edge list needs an 'n m' header", 0)
    (n, off_n), (m, _) = toks[0], toks[1]
    if n < 0 or m < 0:
        raise ParseError("negative count in header", off_n)
    pairs = toks[2:]
    if len(pairs) != 2 * m:
        raise FormatError(f"header declares {m} edges but {len(pairs) // 2} pairs follow")
    return _build(n, pairs, one_based=False)


def _parse_dimacs(raw: bytes) -> Graph:
    n = m = None
    pairs: list[tuple[int, int]] = []
    for toks in _lines(raw):
        kind, off0 = toks[0]
        if kind.startswith("c"):
            continue
        if kind == "p":
            if len(toks) != 4 or toks[1][0] != "edge":
                raise ParseError("malformed problem line, expected 'p edge n m'", off0)
            n, m = (_int(tok, off) for tok, off in toks[2:])
            if n < 0 or m < 0:
                raise ParseError("negative count in header", toks[2][1])
        elif kind == "e":
            if n is None:
                raise ParseError("edge line before problem line", off0)
            if len(toks) != 3:
                raise ParseError("malformed edge line, expected 'e u v'", off0)
            pairs += ((_int(tok, off), off) for tok, off in toks[1:])
        else:
            raise ParseError(f"unknown DIMACS line type {kind!r}", off0)
    if n is None or m is None:
        raise ParseError("missing 'p edge n m' line", 0)
    if len(pairs) != 2 * m:
        raise FormatError(f"problem line declares {m} edges but {len(pairs) // 2} follow")
    return _build(n, pairs, one_based=True)


def _build(n: int, pairs: list[tuple[int, int]], one_based: bool) -> Graph:
    shift = 1 if one_based else 0
    rows = [0] * n
    for k in range(0, len(pairs), 2):
        (u, off_u), (v, off_v) = pairs[k], pairs[k + 1]
        u -= shift
        v -= shift
        if u == v:
            raise ParseError(f"self-loop at vertex {u + shift}", off_u)
        for w, off in ((u, off_u), (v, off_v)):
            if not 0 <= w < n:
                raise FormatError(f"vertex {w + shift} out of range for n={n}")
        if rows[u] >> v & 1:
            raise ParseError(f"duplicate edge ({u + shift},{v + shift})", off_u)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))
