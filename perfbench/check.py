"""The benchmark's own answer checker, independent of the library.

Values are compared with the expected-answers file; every witness a report
carries is re-checked here on the relabelled input with this module's own
graph code.  Each check returns None when the answer is right, else a short
reason, which the driver counts as a failed instance.
"""

from __future__ import annotations

import math


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def closure(rows: list[int], start: int, allowed: int) -> int:
    """Vertices reachable from ``start`` inside the ``allowed`` mask."""
    seen = frontier = 1 << start
    while frontier:
        acc = 0
        for u in _bits(frontier):
            acc |= rows[u]
        frontier = acc & allowed & ~seen
        seen |= frontier
    return seen


def connected_mask(rows: list[int], mask: int) -> bool:
    if not mask:
        return False
    return closure(rows, (mask & -mask).bit_length() - 1, mask) == mask


def diameter(rows: list[int]) -> float:
    """Largest BFS distance; inf when disconnected."""
    n = len(rows)
    full = (1 << n) - 1
    best = 0
    for s in range(n):
        seen = frontier = 1 << s
        d = 0
        while frontier:
            acc = 0
            for u in _bits(frontier):
                acc |= rows[u]
            frontier = acc & ~seen
            seen |= frontier
            if frontier:
                d += 1
        if seen != full:
            return math.inf
        best = max(best, d)
    return best


def contract(rows: list[int], edges) -> list[int]:
    """Quotient graph after contracting every edge in ``edges``."""
    n = len(rows)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    roots = sorted({find(v) for v in range(n)})
    index = {r: i for i, r in enumerate(roots)}
    bag_rows = [0] * len(roots)
    for v in range(n):
        i = index[find(v)]
        for w in _bits(rows[v]):
            j = index[find(w)]
            if j != i:
                bag_rows[i] |= 1 << j
    return bag_rows


def _edges_ok(rows: list[int], edges) -> bool:
    return all(0 <= u < len(rows) and 0 <= v < len(rows) and rows[u] >> v & 1
               for u, v in edges)


def check_bags(rows: list[int], bags, h: int) -> str | None:
    """h disjoint, connected, pairwise adjacent bags: a K_h minor."""
    if len(bags) != h:
        return f"{len(bags)} bags for h={h}"
    masks = []
    used = 0
    for bag in bags:
        mask = 0
        for v in bag:
            if not 0 <= v < len(rows):
                return f"vertex {v} out of range"
            mask |= 1 << v
        if mask & used or len(set(bag)) != len(bag):
            return "bags overlap"
        if not connected_mask(rows, mask):
            return f"bag {sorted(bag)} is not connected"
        used |= mask
        masks.append(mask)
    reach = []
    for mask in masks:
        acc = 0
        for v in _bits(mask):
            acc |= rows[v]
        reach.append(acc)
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if not reach[i] & masks[j]:
                return f"bags {i} and {j} are not adjacent"
    return None


def check_clique_matching(rows: list[int], edges, size: int) -> str | None:
    """``size`` disjoint edges, every two joined by an edge between ends."""
    if len(edges) != size:
        return f"{len(edges)} edges for size={size}"
    if not _edges_ok(rows, edges):
        return "matching uses a non-edge"
    ends = [v for e in edges for v in e]
    if len(set(ends)) != len(ends):
        return "edges share a vertex"
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            if not any(rows[x] >> y & 1 for x in (a, b) for y in (c, d)):
                return f"edges {a}-{b} and {c}-{d} see no edge between them"
    return None


def check_contraction(rows: list[int], edges, s: int, size: int | None = None,
                      limit: int | None = None) -> str | None:
    """Contracting ``edges`` (exactly ``size`` of them, or at most ``limit``)
    must bring the diameter to s or less."""
    edges = [tuple(e) for e in edges or ()]
    if size is not None and len(edges) != size:
        return f"{len(edges)} edges for k={size}"
    if limit is not None and len(edges) > limit:
        return f"{len(edges)} edges exceed the budget {limit}"
    if len(set(edges)) != len(edges) or not _edges_ok(rows, edges):
        return "contraction set has repeats or non-edges"
    d = diameter(contract(rows, edges))
    if d > s:
        return f"contracted diameter {d} > {s}"
    return None


def is_bipartite_complement(rows: list[int]) -> bool:
    n = len(rows)
    full = (1 << n) - 1
    co = [(full ^ r) & ~(1 << v) for v, r in enumerate(rows)]
    color = [-1] * n
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in _bits(co[u]):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def is_split(rows: list[int]) -> bool:
    """Hammer-Simeone degree condition."""
    degs = sorted((r.bit_count() for r in rows), reverse=True)
    m = max((i for i, d in enumerate(degs, 1) if d >= i - 1), default=0)
    return sum(degs[:m]) == m * (m - 1) + sum(degs[m:])


def is_chordal(rows: list[int]) -> bool:
    """Repeatedly delete a simplicial vertex."""
    alive = (1 << len(rows)) - 1
    while alive:
        for v in _bits(alive):
            nb = rows[v] & alive
            if all(rows[a] & nb | 1 << a == nb | 1 << a for a in _bits(nb)):
                alive &= ~(1 << v)
                break
        else:
            return False
    return True


def percentile(latencies, q: float) -> float:
    """Nearest-rank percentile where a failed instance (None) counts as +inf,
    slower than any completed one."""
    ranked = sorted(math.inf if x is None else x for x in latencies)
    if not ranked:
        return math.inf
    return ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


def check_answer(expect: dict, rows: list[int] | None, report: dict) -> str | None:
    """Compare one ``--json`` report with the expected answer and re-check
    the witness it carries."""
    kind = expect["kind"]
    res = report.get("result", {})
    if kind == "cograph":
        if report.get("solver") != "cograph":
            return f"solver {report.get('solver')} instead of cograph"
        if res.get("h") != expect["h"] or max(res.get("cr_table") or [-1]) != expect["h"]:
            return f"h={res.get('h')} expected {expect['h']}"
        return None
    if kind in ("bags", "oracle-bags"):
        if res.get("h") != expect["h"]:
            return f"h={res.get('h')} expected {expect['h']}"
        bags = res.get("witness" if kind == "bags" else "witness_bags")
        return check_bags(rows, bags or [], expect["h"])
    if kind == "cm":
        if res.get("size") != expect["size"]:
            return f"size={res.get('size')} expected {expect['size']}"
        return check_clique_matching(rows, [tuple(e) for e in res.get("matching_edges", [])],
                                     expect["size"])
    if kind == "club-minor":
        if res.get("k_min") != expect["k"] or res.get("p") != len(rows) - expect["k"]:
            return f"k_min={res.get('k_min')} expected {expect['k']}"
        return check_contraction(rows, res.get("witness_edges"), expect["s"], size=expect["k"])
    if kind == "club-contract":
        yes = res.get("answer") == "yes"
        if yes != expect["yes"]:
            return f"answer {res.get('answer')} for k={expect['k']}"
        if yes:
            return check_contraction(rows, res.get("witness_edges"), expect["s"],
                                     limit=expect["k"])
        return None
    return _check_reduction(expect, res)


def _decode_graph6(text: str) -> list[int]:
    data = text.encode()
    if data[0] != 126:
        n, pos = data[0] - 63, 1
    else:
        n, pos = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4
    bits = 0
    for byte in data[pos:]:
        bits = (bits << 6) | (byte - 63)
    total = n * (n - 1) // 2
    bits >>= 6 * (len(data) - pos) - total
    rows = [0] * n
    shift = total
    for j in range(1, n):
        for i in range(j):
            shift -= 1
            if bits >> shift & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _check_reduction(expect: dict, res: dict) -> str | None:
    if res.get("n") != expect["n"] or res.get("k") != expect["k"]:
        return f"n={res.get('n')} k={res.get('k')} expected n={expect['n']} k={expect['k']}"
    rows = _decode_graph6(res["graph6"])
    if len(rows) != expect["n"] or sum(r.bit_count() for r in rows) // 2 != res.get("m"):
        return "graph6 payload disagrees with n or m"
    kind = expect["kind"]
    ok = (is_bipartite_complement(rows) if kind == "nae"
          else is_split(rows) if kind == "hs2" else is_chordal(rows))
    return None if ok else f"reduction graph is not in the class required by {kind}"
