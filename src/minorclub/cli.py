"""Batch command-line front end.

Commands: recognize, hadwiger, clique-matching, club-contract, club-minor,
oracle, reduce.  Input graphs come from --input (path or '-' for stdin) in
graph6, edgelist, or dimacs format; reduce reads its source problem (DIMACS
CNF or a set system) or graph from the same option.  --json prints a
machine-readable report that is byte-identical across runs on identical
input; timing is shown only in the human-readable output so reports stay
deterministic.

Command line: ``minorclub <command> [<positional>] [options]``, the command
first.  Only ``oracle`` (its problem) and ``reduce`` (its construction) take
the one positional, anywhere after the command.  Options come in any order
as ``--name value`` or ``--name=value``, spelled in full; the value is the
next token whatever it starts with (``--k -1``, ``--input -``), and the last
of a repeated option wins.  ``--json`` takes no value.  ``-h`` or ``--help``,
alone or after a command, prints the usage to stdout and exits 0.

Exit codes: 0 success, 2 a malformed command line (stderr: one ``usage:``
line, then one ``error:`` line naming the token at fault), unreadable or
malformed input (malformed input bytes always name their byte offset, as does
a vertex count too large to allocate; a missing --k for `reduce hitting-set`
or `reduce lift` exits 2 without one), or
a `reduce --out` file that cannot be written (``output error:``; no graph file
is left behind), 3 no applicable method or problem precondition violated, such
as a negative budget --k or a negative --s of club-contract or club-minor, 4 a
brute-force oracle's size cap exceeded (the polynomial solvers and their
recognizers have no caps), 5 internal error: a solver's output failed its
certificate check; stderr then names the command and the input's SHA-256.

Club commands follow ``graph.py``: the graph with no vertex is connected, and
it and a single vertex have diameter 0, so every club path answers them as
any graph within s >= 0.  On a disconnected graph club-contract answers no
at any size, `oracle club-contract` null, and club-minor and `oracle
club-minor` exit 3.

recognize reports every class, chordal-bipartite included, at any size.
Cographs and bipartite permutation graphs, known from the cotree or strong
ordering it builds, are permutation graphs and so AT-free; only other
graphs are searched for an asteroidal triple.
club-contract and club-minor print what ``club_contraction.solve_club``
answers, with its solver "bound" (s >= 1), "atfree" (s >= 2) or "oracle",
or exit 3 where --cap refuses the oracle's search.  A negative budget --k
exits 3 on every path, `oracle club-contract` and `reduce` too.

--cap defaults to ``oracle.PARTITION_CAP`` and guards only a search: a club
question needs one only on a connected graph not within s >= 1 that, at
club-contract and club-minor, the d - s bound does not answer; so s = 0, a
graph within s and, at `oracle club-minor`, s < 0 are answered at any size.
`oracle clique-matching` uses max(--cap, ``oracle.MATCHING_CAP``), at least
14, and `oracle club-contract` is bounded by the subset count
``oracle.SUBSET_BUDGET``, not by --cap.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from types import SimpleNamespace

from . import oracle as oracle_mod
from .bipperm_dp import hadwiger_bipperm, max_clique_matching
from .club_contraction import solve_club
from .cograph_dp import cograph_cr_table
from .errors import (CapacityError, DomainError, InvalidStructureError,
                     ParseError)
from .formats import (FORMATS, emit_graph, parse_dimacs_cnf, parse_graph,
                      parse_set_system)
from .recognition import (Cotree, is_at_free, is_chordal_bipartite,
                          is_cobipartite, is_split, recognize_cograph,
                          strong_ordering)
from .reductions import (hitting_set_to_chordal, hitting_set_to_split,
                         nae3sat_to_cobipartite, pendant_lift, subdivide_edges)

SCHEMA_VERSION = 1

# Every command maps (parsed graph, or raw bytes for reduce; args) to
# (result, solver, certificates).


def cmd_recognize(G, args):
    certs: dict[str, str] = {}
    result: dict[str, object] = {}
    cograph = recognize_cograph(G) if G.n else None
    if isinstance(cograph, Cotree):
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
    # cographs and bipartite permutation graphs are permutation graphs, hence
    # cocomparability graphs: no asteroidal triple (Golumbic, Monma & Trotter 1984)
    at = isinstance(cograph, Cotree) or ordering is not None or is_at_free(G)
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
            return {"h": max(table), "cr_table": list(table)}, "cograph", {}
    if method in ("auto", "bipperm"):
        try:
            h, bags = hadwiger_bipperm(G, with_details=True)
        except DomainError:
            if method == "bipperm":
                raise
        else:
            return ({"h": h, "case": sum(len(b) == 1 for b in bags),
                     "witness": [list(b) for b in bags]}, "bipperm", {})
    try:
        value, bags = oracle_mod.hadwiger_oracle(G, cap=args.cap, with_witness=True)
    except CapacityError:
        if method == "oracle":
            raise
        raise DomainError(
            "no polynomial method applies (not a cograph, no strong ordering) "
            "and the graph exceeds the brute-force cap; the general problem "
            "is intractable") from None
    return {"h": value, "witness_bags": [list(b) for b in bags]}, "oracle", {}


def cmd_clique_matching(G, args):
    size, edges = max_clique_matching(G)
    return {"size": size, "matching_edges": [list(e) for e in edges]}, "bipperm", {}


def cmd_club_contract(G, args):
    solver, S = solve_club(G, args.s, args.k, args.cap)
    return ({"answer": "no" if S is None else "yes",
             "witness_edges": [list(e) for e in S] if S else None},
            solver, {})


def cmd_club_minor(G, args):
    solver, S = solve_club(G, args.s, None, args.cap)
    return ({"k_min": len(S), "p": G.n - len(S),
             "witness_edges": [list(e) for e in S] if S else None},
            solver, {})


def cmd_oracle(G, args):
    what = args.problem
    if what == "hadwiger":
        value, bags = oracle_mod.hadwiger_oracle(G, cap=args.cap, with_witness=True)
        result = {"value": value, "witness_bags": [list(b) for b in bags]}
    elif what == "club-minor":
        result = {"value": oracle_mod.max_s_club_minor_oracle(G, args.s, cap=args.cap)}
    elif what == "club-contract":
        result = {"value": oracle_mod.min_club_contraction_oracle(G, args.s, args.k)}
    elif what == "clique-matching":
        cap = max(args.cap, oracle_mod.MATCHING_CAP)
        result = {"value": oracle_mod.clique_matching_oracle(G, cap=cap)}
    else:  # nice-structure
        table = oracle_mod.nice_structure_oracle(G, cap=args.cap)
        result = {"value": max(table), "per_edge_bag_count": list(table)}
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
        fh = open(args.out, "wb")
        try:  # once args.out is open, a failed write removes it
            with fh:
                fh.write(emit_graph(G, args.format) + b"\n")
            if meta:
                with open(args.out + ".json", "w") as side:
                    json.dump(meta, side, sort_keys=True, indent=2)
        except OSError:
            os.remove(args.out)
            raise
    result = {"graph6": emit_graph(G, "graph6").decode("ascii"), "n": G.n, "m": G.m, **meta}
    return result, "generator", {}


_REQUIRED = object()  # the default of an option that must be given

# Option -> (converter, choices, default).  The converter None marks a flag,
# which takes no value and is False unless given.
_INPUT = {"--input": (str, (), _REQUIRED), "--format": (str, FORMATS, "graph6"),
          "--json": (None, (), False)}
_CAP = {**_INPUT, "--cap": (int, (), oracle_mod.PARTITION_CAP)}

# Command -> (function, help, positional as (attribute, choices) or None,
# options).
_COMMANDS = {
    "recognize": (cmd_recognize, "run all class recognizers", None, _INPUT),
    "hadwiger": (cmd_hadwiger, "largest complete minor", None, {
        **_CAP, "--method": (str, ("auto", "cograph", "bipperm", "oracle"), "auto")}),
    "clique-matching": (cmd_clique_matching, "maximum clique-matching", None, _INPUT),
    "club-contract": (cmd_club_contract, "can k contractions reach diameter s?", None, {
        **_CAP, "--s": (int, (), _REQUIRED), "--k": (int, (), _REQUIRED)}),
    "club-minor": (cmd_club_minor, "largest bounded-diameter minor", None, {
        **_CAP, "--s": (int, (), _REQUIRED)}),
    "oracle": (cmd_oracle, "brute-force reference answers",
               ("problem", ("hadwiger", "club-minor", "club-contract",
                            "clique-matching", "nice-structure")),
               {**_CAP, "--s": (int, (), 2), "--k": (int, (), 4)}),
    "reduce": (cmd_reduce, "generate hard instances; --out writes the graph "
               "and a .json sidecar",
               ("construction", ("nae3sat", "hitting-set", "lift", "subdivide")),
               {**_INPUT, "--s": (int, (2, 3), 2), "--k": (int, (), None),
                "--out": (str, (), None)}),
}


class _Exit(Exception):
    """Raised as _Exit(code, text): a help text for stdout (code 0), or a
    malformed line's usage and error for stderr (code 2)."""


def _choices(values) -> str:
    return "{" + ",".join(map(str, values)) + "}"


def _usage(name: str | None = None) -> str:
    """The usage line of one command, or of the program."""
    if name is None:
        return f"usage: minorclub {_choices(_COMMANDS)} ... --input INPUT"
    _, _, positional, options = _COMMANDS[name]
    words = ["usage: minorclub", name] + ([_choices(positional[1])] if positional else [])
    for opt, (convert, choices, default) in options.items():
        word = (opt if convert is None else
                f"{opt} {_choices(choices) if choices else opt[2:].upper()}")
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words)


def _help(name: str | None = None) -> str:
    """The help text of one command, or of the program."""
    if name is not None:
        return f"{_usage(name)}\n\n{_COMMANDS[name][1]}"
    return "\n".join(
        [_usage(), "", "Clique minors and bounded-diameter minors on structured "
         "graph classes.", "", "commands:"]
        + [f"  {cmd:<17}{spec[1]}" for cmd, spec in _COMMANDS.items()]
        + ["", "--input is a path, or '-' for stdin.  'minorclub <command> --help' "
           "shows a command's options."])


def _malformed(name: str | None, message: str) -> _Exit:
    return _Exit(2, f"{_usage(name)}\nerror: {message}")


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The attributes the commands read: cmd, fn, the positional and every
    option of the command.  Raises _Exit for help and for a malformed line."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        raise _Exit(0, _help())
    if name not in _COMMANDS:
        raise _malformed(None, f"unknown command {name!r}" if argv else "no command given")
    fn, _, positional, options = _COMMANDS[name]
    values = {}
    words = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            raise _Exit(0, _help(name))
        if token[:1] != "-":
            words.append(token)
            continue
        opt, eq, value = token.partition("=")
        if opt not in options:
            raise _malformed(name, f"unknown option {opt}")
        convert, choices, _ = options[opt]
        if convert is None:
            if eq:
                raise _malformed(name, f"option {opt} takes no value")
            value = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise _malformed(name, f"option {opt} needs a value")
            try:
                value = convert(value)
            except ValueError:
                raise _malformed(name, f"option {opt}: {value!r} is not an integer") from None
            if choices and value not in choices:
                raise _malformed(name, f"option {opt}: {value!r} is not one of "
                                       f"{_choices(choices)}")
        values[opt[2:]] = value
    if positional:
        attr, choices = positional
        if not words:
            raise _malformed(name, f"missing {attr}, one of {_choices(choices)}")
        if words[0] not in choices:
            raise _malformed(name, f"{attr} {words[0]!r} is not one of {_choices(choices)}")
        values[attr] = words.pop(0)
    if words:
        raise _malformed(name, f"unexpected argument {words[0]!r}")
    for opt, (_, _, default) in options.items():
        if opt[2:] not in values:
            if default is _REQUIRED:
                raise _malformed(name, f"option {opt} is required")
            values[opt[2:]] = default
    return SimpleNamespace(cmd=name, fn=fn, **values)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _Exit as stop:
        code, text = stop.args
        print(text, file=sys.stderr if code else sys.stdout)
        return code
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
    except OSError as exc:  # only reduce --out writes files
        print(f"output error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
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
