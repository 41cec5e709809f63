"""Batch command-line front end.

Commands: recognize, hadwiger, clique-matching, club-contract, club-minor,
oracle, reduce.  Input graphs come from --input (path or '-' for stdin) in
graph6, edgelist, or dimacs format; reduce reads its source problem (DIMACS
CNF or a set system) or graph from the same option.  --json prints a
machine-readable report that is byte-identical across runs on identical
input; timing is shown only in the human-readable output so reports stay
deterministic.

Exit codes: 0 success, 2 unreadable or malformed input (malformed input bytes
always name their byte offset; a missing --k for `reduce hitting-set` or
`reduce lift` exits 2 without one), 3 no applicable method or problem
precondition violated, such as a negative budget --k or a negative --s of
club-contract or club-minor, 4 a brute-force oracle's size cap exceeded (the
polynomial solvers and their recognizers have no caps), 5 internal error: a
solver's output failed its certificate check; stderr then names the command
and the input's SHA-256.

Club commands follow ``graph.py``: the graph with no vertex is connected, and
it and a single vertex have diameter 0, so every club path answers them as
any graph within s >= 0.  On a disconnected graph club-contract answers no
at any size, `oracle club-contract` null, and club-minor and `oracle
club-minor` exit 3.

recognize reports every class, chordal-bipartite included, at any size.
club-contract and club-minor, when s >= 2, first ask the class-free d - s
bound, ``club_contraction.tight_contraction``; when it finds a set of d - s
edges (d the diameter), or the budget --k lies below d - s, they answer with
solver "bound" at any size.  Otherwise they run the AT-free solver when
s >= 2 and the graph has no asteroidal triple, else the brute-force oracle
within --cap, else exit 3.  A negative budget --k exits 3 on every path,
`oracle club-contract` and `reduce` too.

--cap defaults to ``oracle.PARTITION_CAP``.  `oracle clique-matching` uses
max(--cap, ``oracle.MATCHING_CAP``), that is at least 14, and `oracle
club-contract` is bounded by the subset count ``oracle.SUBSET_BUDGET``, not
by --cap.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

from . import oracle as oracle_mod
from .bipperm_dp import hadwiger_bipperm, max_clique_matching
from .club_contraction import (minimum_contraction, s_club_contract_decide,
                               tight_contraction)
from .cograph_dp import cograph_cr_table
from .errors import (CapacityError, DomainError, InvalidStructureError,
                     ParseError)
from .formats import (FORMATS, emit_graph, parse_dimacs_cnf, parse_graph,
                      parse_set_system)
from .graph import is_connected
from .recognition import (Cotree, is_at_free, is_chordal_bipartite,
                          is_cobipartite, is_split, recognize_cograph,
                          strong_ordering)
from .reductions import (hitting_set_to_chordal, hitting_set_to_split,
                         nae3sat_to_cobipartite, pendant_lift, subdivide_edges)
from .witness import certify

SCHEMA_VERSION = 1

# Every command maps (parsed graph, or raw bytes for reduce; args) to
# (result, solver, certificates).


def cmd_recognize(G, args):
    certs: dict[str, str] = {}
    result: dict[str, object] = {}
    cograph = recognize_cograph(G) if G.n else None
    if isinstance(cograph, Cotree):
        certify(cograph.to_graph(G.n) == G, "cotree does not rebuild the input graph")
        result["cograph"] = True
        certs["cotree"] = cograph.to_text()
    elif cograph is not None:
        result["cograph"] = False
        certs["induced-P4"] = " ".join(map(str, cograph))
    ordering = strong_ordering(G)
    result["bipartite-permutation"] = ordering is not None
    if ordering is not None:
        certs["strong-ordering"] = ("side1 " + " ".join(map(str, ordering.side1))
                                    + " | order2 " + " ".join(map(str, ordering.order2)))
    at = is_at_free(G)
    result["at-free"] = at is True
    if at is not True:
        certs["asteroidal-triple"] = " ".join(map(str, at))
    result["split"] = is_split(G)
    result["co-bipartite"] = is_cobipartite(G)
    result["chordal-bipartite"] = is_chordal_bipartite(G)
    return result, None, certs


def cmd_hadwiger(G, args):
    method = args.method
    if method in ("auto", "cograph"):
        try:
            table = cograph_cr_table(G)
        except DomainError:
            if method == "cograph":
                raise
        else:
            return {"h": table.best, "cr_table": list(table.values)}, "cograph", {}
    if method in ("auto", "bipperm"):
        try:
            det = hadwiger_bipperm(G, with_details=True)
        except DomainError:
            if method == "bipperm":
                raise
        else:
            return ({"h": det.h, "case": det.case,
                     "witness": [list(b) for b in det.bags()]}, "bipperm", {})
    try:
        value, bags = oracle_mod.hadwiger_oracle(G, cap=args.cap, with_witness=True)
    except CapacityError:
        if method == "oracle":
            raise
        raise DomainError(
            "no polynomial method applies (not a cograph, no strong ordering) "
            "and the graph exceeds the brute-force cap; the general problem "
            "is intractable") from None
    return {"h": value, "witness_bags": [list(b) for b in (bags or ())]}, "oracle", {}


def cmd_clique_matching(G, args):
    size, edges = max_clique_matching(G)
    return {"size": size, "matching_edges": [list(e) for e in edges]}, "bipperm", {}


def _club_solver(G, args, k, atfree, oracle):
    """(solver, S): S a set of at most k edges whose contraction leaves
    diameter at most s, or None when there is none.  A negative s exits 3.
    For s >= 2, solver "bound" when ``tight_contraction`` answers, else
    ``atfree()`` unless it finds an asteroidal triple.  Otherwise, and for
    s < 2, ``oracle()`` when G fits within --cap or is disconnected, which
    the oracle answers without a search, else exit 3."""
    if args.s < 0:
        raise DomainError("diameter bound --s must be non-negative")
    if args.s >= 2:
        bound, S = tight_contraction(G, args.s, k)
        if S is not None or k < bound:
            return "bound", S
        try:
            return "atfree", atfree()
        except DomainError as exc:
            if exc.certificate is None:
                raise
    if G.n > args.cap and is_connected(G):
        raise DomainError(
            "graph is not AT-free (or s < 2) and exceeds the brute-force cap")
    return "oracle", oracle()


def cmd_club_contract(G, args):
    if args.k < 0:
        raise DomainError("contraction budget must be non-negative")
    solver, S = _club_solver(
        G, args, args.k, lambda: s_club_contract_decide(G, args.k, args.s),
        lambda: oracle_mod.min_club_contraction_set(G, args.s, args.k))
    return ({"answer": "no" if S is None else "yes",
             "witness_edges": [list(e) for e in S] if S else None},
            solver, {})


def cmd_club_minor(G, args):
    if not is_connected(G):
        raise DomainError("disconnected graphs cannot be contracted to finite diameter")
    solver, S = _club_solver(
        G, args, math.inf, lambda: minimum_contraction(G, args.s)[1],
        lambda: oracle_mod.min_club_contraction_set(G, args.s, G.m))
    return ({"k_min": len(S), "p": G.n - len(S),
             "witness_edges": [list(e) for e in S] if S else None},
            solver, {})


def cmd_oracle(G, args):
    what = args.problem
    if what == "hadwiger":
        value, bags = oracle_mod.hadwiger_oracle(G, cap=args.cap, with_witness=True)
        result = {"value": value, "witness_bags": [list(b) for b in (bags or ())]}
    elif what == "club-minor":
        result = {"value": oracle_mod.max_s_club_minor_oracle(G, args.s, cap=args.cap)}
    elif what == "club-contract":
        result = {"value": oracle_mod.min_club_contraction_oracle(G, args.s, args.k)}
    elif what == "clique-matching":
        cap = max(args.cap, oracle_mod.MATCHING_CAP)
        result = {"value": oracle_mod.clique_matching_oracle(G, cap=cap)}
    else:  # nice-structure
        best, table = oracle_mod.nice_structure_oracle(G, cap=args.cap)
        result = {"value": best, "per_edge_bag_count": list(table)}
    return result, "oracle", {}


def cmd_reduce(raw: bytes, args):
    """Build the instance; --out also gets the graph in --format, and the
    source reductions' metadata in a .json sidecar."""
    kind = args.construction
    meta = {}
    if kind == "nae3sat":
        inst = nae3sat_to_cobipartite(parse_dimacs_cnf(raw))
    elif kind == "hitting-set":
        if args.k is None:
            raise ParseError("hitting-set reduction needs --k")
        hs = parse_set_system(raw, args.k)
        inst = hitting_set_to_split(hs) if args.s == 2 else hitting_set_to_chordal(hs)
    elif kind == "lift":
        if args.k is None:
            raise ParseError("lift needs --k")
        G = pendant_lift(parse_graph(raw, args.format), args.k)
    else:  # subdivide
        G = subdivide_edges(parse_graph(raw, args.format))
    if kind in ("nae3sat", "hitting-set"):
        G = inst.graph
        meta = {"k": inst.k, "target": inst.target, "role_labels": inst.labels}
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(emit_graph(G, args.format) + b"\n")
        if meta:
            with open(args.out + ".json", "w") as fh:
                json.dump(meta, fh, sort_keys=True, indent=2)
    result = {"graph6": emit_graph(G, "graph6").decode("ascii"), "n": G.n, "m": G.m, **meta}
    return result, "generator", {}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: do not
    modify it."""
    parser = argparse.ArgumentParser(
        prog="minorclub",
        description="Clique minors and bounded-diameter minors on structured "
                    "graph classes.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, fn, help, positional=None, choices=(), cap=False):
        p = sub.add_parser(name, help=help)
        if positional:
            p.add_argument(positional, choices=choices)
        p.add_argument("--input", required=True, help="path or '-' for stdin")
        p.add_argument("--format", choices=FORMATS, default="graph6")
        p.add_argument("--json", action="store_true")
        if cap:
            p.add_argument("--cap", type=int, default=oracle_mod.PARTITION_CAP,
                           help="size cap for brute-force fallbacks")
        p.set_defaults(fn=fn)
        return p

    command("recognize", cmd_recognize, "run all class recognizers")
    p = command("hadwiger", cmd_hadwiger, "largest complete minor", cap=True)
    p.add_argument("--method", choices=("auto", "cograph", "bipperm", "oracle"),
                   default="auto")
    command("clique-matching", cmd_clique_matching, "maximum clique-matching")
    p = command("club-contract", cmd_club_contract,
                "can k contractions reach diameter s?", cap=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = command("club-minor", cmd_club_minor, "largest bounded-diameter minor",
                cap=True)
    p.add_argument("--s", type=int, required=True)
    p = command("oracle", cmd_oracle, "brute-force reference answers", "problem",
                ("hadwiger", "club-minor", "club-contract", "clique-matching",
                 "nice-structure"), cap=True)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--k", type=int, default=4)
    p = command("reduce", cmd_reduce, "generate hard instances", "construction",
                ("nae3sat", "hitting-set", "lift", "subdivide"))
    p.add_argument("--s", type=int, choices=(2, 3), default=2)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None, help="write the graph here "
                   "(plus a .json sidecar for instance metadata)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.input == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(args.input, "rb") as fh:
                raw = fh.read()
    except OSError as exc:
        print(f"input error: cannot read {args.input}: {exc.strerror}", file=sys.stderr)
        return 2
    command = args.cmd
    if args.cmd in ("oracle", "reduce"):
        command += ":" + (args.problem if args.cmd == "oracle" else args.construction)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = raw if args.cmd == "reduce" else parse_graph(raw, args.format)
        t0 = time.perf_counter()
        result, solver, certs = args.fn(data, args)
        elapsed = time.perf_counter() - t0
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 4
    except InvalidStructureError as exc:
        print(f"internal error: {exc}\ncommand: {command}\ninput: sha256:{digest}",
              file=sys.stderr)
        return 5
    if args.json:
        print(json.dumps({"schema": SCHEMA_VERSION, "command": command,
                          "input_sha256": digest, "certificates": certs,
                          "result": result, "solver": solver},
                         sort_keys=True, separators=(",", ":")))
        return 0
    lines = [f"command: {command}", f"input: sha256:{digest[:12]}"]
    if solver:
        lines.append(f"solver: {solver}")
    lines += [f"{key}: {val}" for key, val in sorted(certs.items())]
    lines += [f"{key}: {val}" for key, val in sorted(result.items())]
    lines.append(f"elapsed: {elapsed:.3f}s")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
