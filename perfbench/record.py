"""Record the expected answers of every base instance the workloads use.

    python3 perfbench/record.py            # writes perfbench/expected.json

Values come from an independent route where one is affordable and from the
library otherwise, and are cross-checked:

* bipartite permutation graphs: the clique-matching size is a maximum clique
  of the edge-compatibility graph, computed here; the Hadwiger number follows
  from it by the singleton-bag case split.  The library's answer on the
  unrelabelled graph must agree when it completes;
* cographs, AT-free graphs and the fallback graphs: the library's answer,
  with AT-free minima held to the [d-s, d-s+2] window and every witness
  re-checked by check.py;
* entries with n <= 12, and a sweep of small members of every family, are
  compared with the brute-force oracles.

Run it again whenever a generator or a tier count changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from minorclub import oracle  # noqa: E402
from minorclub.bipperm_dp import hadwiger_bipperm, max_clique_matching  # noqa: E402
from minorclub.club_contraction import minimum_contraction  # noqa: E402
from minorclub.cograph_dp import hadwiger_cograph  # noqa: E402
from minorclub.graph import Graph  # noqa: E402

ORACLE_N = 12


def max_clique(adj: list[int]) -> int:
    """Maximum clique by branch and bound with a greedy colouring bound."""
    best = 0

    def expand(size: int, cand: int):
        nonlocal best
        order = []
        rest, colour = cand, 0
        while rest:
            colour += 1
            free = rest
            while free:
                b = free & -free
                v = b.bit_length() - 1
                free &= ~adj[v] & ~b
                rest &= ~b
                order.append((v, colour))
        for v, c in reversed(order):
            if size + c <= best:
                return
            nxt = cand & adj[v]
            if nxt:
                expand(size + 1, nxt)
            else:
                best = max(best, size + 1)
            cand &= ~(1 << v)

    expand(0, (1 << len(adj)) - 1)
    return best


def clique_matching_size(rows: list[int], keep: int | None = None) -> int:
    """Maximum clique-matching of the subgraph induced by the vertex mask."""
    keep = (1 << len(rows)) - 1 if keep is None else keep
    es = [(u, v) for u, v in gen.edges_of(rows) if keep >> u & 1 and keep >> v & 1]
    adj = [0] * len(es)
    for i, (a, b) in enumerate(es):
        for j in range(i + 1, len(es)):
            c, d = es[j]
            if len({a, b, c, d}) == 4 and any(rows[x] >> y & 1 for x in (a, b) for y in (c, d)):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return max_clique(adj) if es else 0


def bipperm_hadwiger(rows: list[int]) -> int:
    """Largest complete minor of a connected bipartite permutation graph:
    no singleton bag (a clique-matching), one singleton u (its side minus u
    plus its neighbours), or two adjacent singletons (their other
    neighbours)."""
    n = len(rows)
    side = [-1] * n
    side[0], stack = 0, [0]
    while stack:
        u = stack.pop()
        for w in range(n):
            if rows[u] >> w & 1 and side[w] < 0:
                side[w] = 1 - side[u]
                stack.append(w)
    best = clique_matching_size(rows)
    for u in range(n):
        mine = sum(1 << v for v in range(n) if side[v] == side[u] and v != u)
        best = max(best, 1 + clique_matching_size(rows, mine | rows[u]))
    for a, b in gen.edges_of(rows):
        best = max(best, 2 + clique_matching_size(rows, (rows[a] | rows[b]) & ~(1 << a | 1 << b)))
    return best


def graph_of(rows: list[int]) -> Graph:
    return Graph(len(rows), tuple(rows))


def library_or_none(label: str, fn):
    try:
        return fn()
    except Exception as exc:  # a known library crash; the record stands
        print(f"    library {label} failed: {type(exc).__name__}: {exc}")
        return None


def entry(family: str, rows: list[int]) -> dict:
    n = len(rows)
    G = graph_of(rows)
    out = {"g6": gen.digest(rows)}
    cls = gen.FAMILY_CLASS[family]
    if cls == "cograph":
        out["h"] = hadwiger_cograph(G)
        if n <= ORACLE_N:
            assert out["h"] == oracle.hadwiger_oracle(G)
    elif cls == "bipartite permutation":
        out["cm"] = clique_matching_size(rows)
        out["h"] = bipperm_hadwiger(rows)
        lib_cm = library_or_none("max_clique_matching", lambda: max_clique_matching(G)[0])
        lib_h = library_or_none("hadwiger_bipperm", lambda: hadwiger_bipperm(G))
        assert lib_cm in (None, out["cm"]) and lib_h in (None, out["h"]), (lib_cm, lib_h, out)
        if n <= ORACLE_N:
            assert out["cm"] == oracle.clique_matching_oracle(G)
            assert out["h"] == oracle.hadwiger_oracle(G)
    elif family == "gnp":
        h, bags = oracle.hadwiger_oracle(G, with_witness=True)
        assert check.check_bags(rows, bags, h) is None
        out["h"] = h
    else:
        d = check.diameter(rows)
        out["d"] = d
        for s in (2, 3):
            if family == "non_atfree":
                k = oracle.min_club_contraction_oracle(G, s, n - 1)
            else:
                k, wit = minimum_contraction(G, s)
                assert max(0, d - s) <= k <= max(0, d - s + 2)
                assert check.check_contraction(rows, wit, s, size=k) is None
                if n <= ORACLE_N:
                    assert k == oracle.min_club_contraction_oracle(G, s, n - 1)
            out[f"k{s}"] = k
    return out


def small_sweep() -> None:
    """Small members of every family, where entry() consults the oracles."""
    for family in gen.GRAPH_FAMILIES:
        for n in (8, 10):
            for index in range(6):
                entry(family, gen.base_graph(family, n, index))
        print(f"small sweep ok: {family}", flush=True)


def main() -> int:
    small_sweep()
    record = {}
    for name, tiers in workloads.WORKLOADS.items():
        for tier in tiers:
            if tier.family in workloads.TEXT_FAMILIES:
                continue
            print(f"{name}: {tier.key} x {tier.count}", flush=True)
            for index in range(tier.count):
                rows = gen.base_graph(tier.family, tier.n, index)
                record[f"{tier.key}/{index}"] = entry(tier.family, rows)
    (HERE / "expected.json").write_text(json.dumps(record, sort_keys=True, indent=0) + "\n")
    print(f"recorded {len(record)} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
