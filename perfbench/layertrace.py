"""Per-layer tracing from outside the library.

The tracer wraps the public functions of each ``minorclub`` layer and
rebinds every name that refers to them in every ``minorclub.*`` module, since
``from .x import f`` copies the binding into the importing module.  Each
call records a span (name, start, end, parent) for the current instance;
when the instance ends, self time is computed as the span's duration minus
the time its child spans cover, and folded into per-function totals.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Layer -> wrapped public functions.
WRAPPED = {
    "formats": ["parse_graph"],
    "recognition": ["recognize_cograph", "strong_ordering", "verify_ordering",
                    "is_at_free", "diameter_dominating_pair", "is_dominating_pair"],
    "cograph_dp": ["cotree_cr_table", "cr_join", "cr_union"],
    "bipperm_dp": ["hadwiger_bipperm", "max_clique_matching", "is_clique_matching"],
    "club_contraction": ["minimum_contraction", "s_club_contract_decide",
                         "distance_profile"],
    "graph": ["diameter", "contract_edges", "contraction_map", "induced_subgraph",
              "complement", "components", "shortest_path", "all_pairs_distances"],
    "witness": ["verify_witness"],
    "oracle": ["hadwiger_oracle", "min_club_contraction_oracle"],
    "reductions": ["nae3sat_to_cobipartite", "hitting_set_to_split",
                   "hitting_set_to_chordal"],
}
LAYERS = ["cli"] + list(WRAPPED)
ROOT = "cli.main"

# Recognizers whose useful outcome is an acceptance: result -> accepted?
ACCEPT = {
    "recognition.recognize_cograph": lambda r: type(r).__name__ == "Cotree",
    "recognition.strong_ordering": lambda r: r is not None,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.calls = {f"{m}.{f}": 0 for m, fs in WRAPPED.items() for f in fs}
        self.calls[ROOT] = 0
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.accepted = dict.fromkeys(ACCEPT, 0)
        self.instances = 0
        self._restore: list[tuple[object, str, object]] = []

    # Span recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self._enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._exit(idx)
        if name in ACCEPT and ACCEPT[name](result):
            self.accepted[name] += 1
        return result

    def end_instance(self) -> None:
        """Fold the finished instance's spans into the totals."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            self.calls[name] += 1
            self.self_s[name] += (end - start) - covered
        self.spans.clear()
        self.stack.clear()
        self.instances += 1

    # Installing the wrappers ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "minorclub" or name.startswith("minorclub.")]
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"minorclub.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    # Metrics -------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-instance means of calls and self time, per function and per
        layer, plus the recognizers' acceptance ratios."""
        per = max(1, self.instances)
        out: dict[str, tuple[float, str]] = {}
        layer_ms = dict.fromkeys(LAYERS, 0.0)
        for name in self.calls:
            ms = self.self_s[name] * 1000 / per
            layer_ms[name.split(".")[0]] += ms
            if name != ROOT:
                out[f"{name}.calls"] = (self.calls[name] / per, "calls/inst")
                out[f"{name}.self_ms"] = (ms, "ms/inst")
        for layer, ms in layer_ms.items():
            out[f"{layer}.self_ms"] = (ms, "ms/inst")
        for name, hits in self.accepted.items():
            attempts = self.calls[name]
            out[f"{name}.accept_ratio"] = (hits / attempts if attempts else 0.0, "ratio")
        return out
