"""Batch command-line front end.

Commands: recognize, hadwiger, clique-matching, club-contract, club-minor,
oracle, reduce.  Input graphs come from --input (path or '-' for stdin) in
graph6, edgelist, or dimacs format.  --json prints a machine-readable report
that is byte-identical across runs on identical input; timing is shown only
in the human-readable output so reports stay deterministic.

Exit codes: 0 success, 2 malformed input, 3 no applicable method or problem
precondition violated, 4 a brute-force oracle's size cap exceeded (the
polynomial solvers and their recognizers have no caps).

club-contract and club-minor run the AT-free solver when s >= 2 and the graph
has no asteroidal triple, else the brute-force oracle within --cap, else exit
3.  A negative budget --k exits 3 on every path, `oracle club-contract` too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations

from . import oracle as oracle_mod
from .bipperm_dp import hadwiger_bipperm, max_clique_matching
from .club_contraction import minimum_contraction, s_club_contract_decide
from .cograph_dp import cograph_cr_table
from .errors import (CapacityError, DomainError, FormatError, MethodError,
                     MinorclubError, ParseError)
from .formats import FORMATS, emit_graph, parse_graph
from .graph import Graph, components, contract_edges, diameter, is_connected
from .recognition import (Certificate, Cotree, is_at_free,
                          is_chordal_bipartite, is_cobipartite, is_split,
                          recognize_cograph, strong_ordering, verify_ordering)
from .reductions import (hitting_set_to_chordal, hitting_set_to_split,
                         nae3sat_to_cobipartite, parse_dimacs_cnf,
                         parse_set_system, pendant_lift, subdivide_edges)

SCHEMA_VERSION = 1


@dataclass
class RunReport:
    command: str
    input_digest: str
    result: dict
    solver: str | None = None
    certificates: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "input_sha256": self.input_digest,
            "certificates": self.certificates,
            "result": self.result,
            "solver": self.solver,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def human(self) -> str:
        lines = [f"command: {self.command}", f"input: sha256:{self.input_digest[:12]}"]
        if self.solver:
            lines.append(f"solver: {self.solver}")
        for key, val in sorted(self.certificates.items()):
            lines.append(f"{key}: {val}")
        for key, val in sorted(self.result.items()):
            lines.append(f"{key}: {val}")
        lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _load_graph(args) -> tuple[Graph, str]:
    raw = _read_input(args.input)
    digest = hashlib.sha256(raw).hexdigest()
    return parse_graph(raw, args.format), digest


def _emit(report: RunReport, args) -> None:
    print(report.to_json() if args.json else report.human())


def cmd_recognize(args) -> int:
    G, digest = _load_graph(args)
    t0 = time.perf_counter()
    certs: dict[str, str] = {}
    result: dict[str, object] = {}

    cograph = recognize_cograph(G) if G.n else None
    if isinstance(cograph, Cotree):
        assert cograph.to_graph(G.n) == G
        result["cograph"] = True
        certs["cotree"] = Certificate("cotree", cograph).to_text()
    elif cograph is not None:
        result["cograph"] = False
        certs["induced-P4"] = Certificate("induced-P4", cograph).to_text()

    ordering = strong_ordering(G)
    if ordering is not None:
        assert verify_ordering(G, ordering)
        result["bipartite-permutation"] = True
        certs["strong-ordering"] = Certificate("ordering", ordering).to_text()
    else:
        result["bipartite-permutation"] = False

    at = is_at_free(G)
    if at is True:
        result["at-free"] = True
    else:
        result["at-free"] = False
        certs["asteroidal-triple"] = Certificate("asteroidal-triple", at).to_text()

    result["split"] = is_split(G)
    result["co-bipartite"] = is_cobipartite(G)
    if G.n <= args.cap:
        result["chordal-bipartite"] = is_chordal_bipartite(G, cap=args.cap)
    report = RunReport("recognize", digest, result, certificates=certs,
                       elapsed=time.perf_counter() - t0)
    _emit(report, args)
    return 0


def cmd_hadwiger(args) -> int:
    G, digest = _load_graph(args)
    t0 = time.perf_counter()
    method = args.method
    result: dict[str, object] = {}
    solver = None
    if method in ("auto", "cograph"):
        try:
            table = cograph_cr_table(G)
            solver = "cograph"
            result = {"h": table.best, "cr_table": list(table.values)}
        except DomainError:
            if method == "cograph":
                raise
    if solver is None and method in ("auto", "bipperm"):
        try:
            det = hadwiger_bipperm(G, with_details=True)
            solver = "bipperm"
            result = {"h": det.h, "case": det.case,
                      "witness": [list(b) for b in det.bags()]}
        except DomainError:
            if method == "bipperm":
                raise
    if solver is None and method in ("auto", "oracle"):
        feasible = all(len(c) <= args.cap for c in components(G))
        if not feasible and method == "oracle":
            raise CapacityError(f"a component exceeds the oracle cap {args.cap}")
        if feasible:
            value, bags = oracle_mod.hadwiger_oracle(G, cap=args.cap, with_witness=True)
            solver = "oracle"
            result = {"h": value,
                      "witness_bags": [list(b) for b in (bags or ())]}
    if solver is None:
        raise MethodError(
            "no polynomial method applies (not a cograph, no strong ordering) "
            "and the graph exceeds the brute-force cap; the general problem "
            "is intractable")
    report = RunReport("hadwiger", digest, result, solver=solver,
                       elapsed=time.perf_counter() - t0)
    _emit(report, args)
    return 0


def cmd_clique_matching(args) -> int:
    G, digest = _load_graph(args)
    t0 = time.perf_counter()
    size, matching = max_clique_matching(G)
    report = RunReport(
        "clique-matching", digest,
        {"size": size, "matching_edges": [list(e) for e in matching.edges]},
        solver="bipperm", elapsed=time.perf_counter() - t0)
    _emit(report, args)
    return 0


def _check_club_oracle_cap(G, cap: int) -> None:
    if G.n > cap:
        raise MethodError(
            "graph is not AT-free (or s < 2) and exceeds the brute-force cap")


def cmd_club_contract(args) -> int:
    G, digest = _load_graph(args)
    t0 = time.perf_counter()
    solver = None
    if args.s >= 2:
        try:
            dec = s_club_contract_decide(G, args.k, args.s)
            solver = "atfree"
            answer, witness = dec.yes, dec.witness
        except DomainError as exc:
            if exc.certificate is None:
                raise
    if solver is None:
        if args.k < 0:
            raise DomainError("contraction budget must be non-negative")
        _check_club_oracle_cap(G, args.cap)
        solver = "oracle"
        kmin = oracle_mod.min_club_contraction_oracle(G, args.s, args.k) \
            if is_connected(G) else None
        answer = kmin is not None
        witness = () if answer else None
        if answer and kmin > 0:
            witness = next(
                S for S in combinations(G.edges(), kmin)
                if diameter(contract_edges(G, S)) <= args.s)
    result = {"answer": "yes" if answer else "no",
              "witness_edges": [list(e) for e in witness] if witness else None}
    report = RunReport("club-contract", digest, result, solver=solver,
                       elapsed=time.perf_counter() - t0)
    _emit(report, args)
    return 0


def cmd_club_minor(args) -> int:
    G, digest = _load_graph(args)
    t0 = time.perf_counter()
    if not is_connected(G) or G.n == 0:
        raise DomainError(
            "disconnected graphs cannot be contracted to finite diameter")
    solver = None
    if args.s >= 2:
        try:
            kmin, witness = minimum_contraction(G, args.s)
            solver = "atfree"
        except DomainError as exc:
            if exc.certificate is None:
                raise
    if solver is None:
        _check_club_oracle_cap(G, args.cap)
        solver = "oracle"
        kmin = oracle_mod.min_club_contraction_oracle(G, args.s, G.n - 1)
        witness = None
    result = {"k_min": kmin, "p": G.n - kmin,
              "witness_edges": [list(e) for e in witness] if witness else None}
    report = RunReport("club-minor", digest, result, solver=solver,
                       elapsed=time.perf_counter() - t0)
    _emit(report, args)
    return 0


def cmd_oracle(args) -> int:
    G, digest = _load_graph(args)
    t0 = time.perf_counter()
    what = args.problem
    if what == "hadwiger":
        value, bags = oracle_mod.hadwiger_oracle(G, cap=args.cap, with_witness=True)
        result = {"value": value, "witness_bags": [list(b) for b in (bags or ())]}
    elif what == "club-minor":
        result = {"value": oracle_mod.max_s_club_minor_oracle(G, args.s, cap=args.cap)}
    elif what == "club-contract":
        kmin = oracle_mod.min_club_contraction_oracle(G, args.s, args.k)
        result = {"value": kmin}
    elif what == "clique-matching":
        result = {"value": oracle_mod.clique_matching_oracle(G, cap=max(args.cap, 14))}
    else:  # nice-structure
        best, table = oracle_mod.nice_structure_oracle(G, cap=args.cap)
        result = {"value": best, "per_edge_bag_count": list(table)}
    report = RunReport(f"oracle:{what}", digest, result, solver="oracle",
                       elapsed=time.perf_counter() - t0)
    _emit(report, args)
    return 0


def cmd_reduce(args) -> int:
    raw = _read_input(args.input)
    digest = hashlib.sha256(raw).hexdigest()
    t0 = time.perf_counter()
    kind = args.construction
    if kind == "nae3sat":
        inst = nae3sat_to_cobipartite(parse_dimacs_cnf(raw.decode("ascii", "replace")))
    elif kind == "hitting-set":
        if args.k is None:
            raise ParseError("hitting-set reduction needs --k")
        hs = parse_set_system(raw.decode("ascii", "replace"), args.k)
        inst = hitting_set_to_split(hs) if args.s == 2 else hitting_set_to_chordal(hs)
    elif kind == "lift":
        if args.k is None:
            raise ParseError("lift needs --k")
        G = parse_graph(raw, args.format)
        lifted = pendant_lift(G, args.k)
        return _emit_plain_graph(args, digest, "reduce:lift", lifted, t0)
    else:  # subdivide
        G = parse_graph(raw, args.format)
        return _emit_plain_graph(args, digest, "reduce:subdivide",
                                 subdivide_edges(G), t0)
    payload = emit_graph(inst.graph, "graph6").decode("ascii")
    sidecar = {"k": inst.k, "target": inst.target, "role_labels": inst.labels}
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(emit_graph(inst.graph, args.format) + b"\n")
        with open(args.out + ".json", "w") as fh:
            json.dump(sidecar, fh, sort_keys=True, indent=2)
    result = {"graph6": payload, "n": inst.graph.n, "m": inst.graph.m, **sidecar}
    report = RunReport(f"reduce:{kind}", digest, result,
                       solver="generator", elapsed=time.perf_counter() - t0)
    _emit(report, args)
    return 0


def _emit_plain_graph(args, digest, command, G, t0) -> int:
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(emit_graph(G, args.format) + b"\n")
    result = {"graph6": emit_graph(G, "graph6").decode("ascii"),
              "n": G.n, "m": G.m}
    report = RunReport(command, digest, result, solver="generator",
                       elapsed=time.perf_counter() - t0)
    _emit(report, args)
    return 0


def _common(parser: argparse.ArgumentParser):
    parser.add_argument("--input", required=True, help="path or '-' for stdin")
    parser.add_argument("--format", choices=FORMATS, default="graph6")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--cap", type=int, default=12,
                        help="size cap for brute-force fallbacks")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minorclub",
        description="Clique minors and bounded-diameter minors on structured "
                    "graph classes.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("recognize", help="run all class recognizers")
    _common(p)
    p.set_defaults(fn=cmd_recognize)

    p = sub.add_parser("hadwiger", help="largest complete minor")
    _common(p)
    p.add_argument("--method", choices=("auto", "cograph", "bipperm", "oracle"),
                   default="auto")
    p.set_defaults(fn=cmd_hadwiger)

    p = sub.add_parser("clique-matching", help="maximum clique-matching")
    _common(p)
    p.set_defaults(fn=cmd_clique_matching)

    p = sub.add_parser("club-contract", help="can k contractions reach diameter s?")
    _common(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_club_contract)

    p = sub.add_parser("club-minor", help="largest bounded-diameter minor")
    _common(p)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(fn=cmd_club_minor)

    p = sub.add_parser("oracle", help="brute-force reference answers")
    p.add_argument("problem", choices=("hadwiger", "club-minor", "club-contract",
                                       "clique-matching", "nice-structure"))
    _common(p)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("reduce", help="generate hard instances")
    p.add_argument("construction", choices=("nae3sat", "hitting-set", "lift",
                                            "subdivide"))
    _common(p)
    p.add_argument("--s", type=int, choices=(2, 3), default=2)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None, help="write the graph here "
                   "(plus a .json sidecar for instance metadata)")
    p.set_defaults(fn=cmd_reduce)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, FormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, MethodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
