"""Workload definitions: which instances each workload runs, and how a
request is built from a base instance.

A tier is one (family, n) pair with ``count`` recorded base instances, and
each base instance has a fixed command.  Every run uses all of them, so the
latency mix is the same in every run; the run seed sets their order and
gives each a fresh random vertex relabelling.  Every instance in a run is
distinct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gen


@dataclass(frozen=True)
class Tier:
    family: str
    n: int
    count: int

    @property
    def key(self) -> str:
        return f"{self.family}/{self.n}"


def _tiers(family: str, plan: dict[int, int]) -> list[Tier]:
    return [Tier(family, n, c) for n, c in plan.items()]


# Counts are sized so that one pass takes about half of a 20 s run at the
# seed commit on a quiet machine, and so that p50 and p90 each fall inside a
# dense band of similar latencies, not on a gap between tiers: p90 sits in
# the middle of the random n = 200 / threshold n = 100 band in ``cograph``
# and of the n = 80 band in ``atfree``.  In ``bipperm`` the n >= 16 dense
# tiers, which mostly fail at this commit, stay a small share so that p90
# lands on completed instances; sparse staircases stop at n = 14 because
# relabelled ones from n = 16 on mostly fail (CapacityError or AssertionError).
WORKLOADS: dict[str, list[Tier]] = {
    "cograph": (_tiers("random_cograph", {50: 50, 100: 70, 200: 18, 400: 4})
                + _tiers("threshold_cograph", {50: 30, 100: 9, 200: 2})),
    "bipperm": (_tiers("sparse_staircase", {8: 100, 12: 120, 14: 120})
                + _tiers("dense_staircase", {12: 100, 14: 100, 16: 12, 24: 6, 32: 6})),
    "atfree": (_tiers("interval", {40: 30, 80: 12, 160: 2})
               + _tiers("caterpillar", {40: 30, 80: 12, 160: 2})
               + _tiers("permutation", {16: 40, 24: 16, 30: 8})),
    "fallback": (_tiers("gnp", {8: 60, 9: 45, 10: 24, 11: 6})
                 + _tiers("non_atfree", {10: 60, 11: 45, 12: 30})
                 + [Tier("nae3sat", 4, 24), Tier("hitting_set", 6, 24)]),
}

# Source-problem tiers are generated from the run seed, not recorded: their
# answers are closed-form counts and graph classes, checked without a record.
TEXT_FAMILIES = ("nae3sat", "hitting_set")


@dataclass
class Request:
    tier: Tier
    index: int  # base instance within the tier
    argv: list[str]  # command line without --input/--json
    payload: bytes = b""  # instance bytes, relabelled
    rows: list[int] | None = None  # relabelled graph, for witness checks
    expect: dict | None = None  # what the checker compares with

    @property
    def key(self) -> str:
        return f"{self.tier.key}/{self.index}"


def stratified_order(tiers: list[Tier], rng: random.Random) -> list[tuple[Tier, int]]:
    """(tier, slot) pairs ordered so that every prefix holds each tier in
    proportion to its count, give or take one instance."""
    slots = []
    for t in tiers:
        offset = rng.random()
        slots += [((j + offset) / t.count, rng.random(), t, j) for j in range(t.count)]
    slots.sort(key=lambda s: (s[0], s[1]))
    return [(t, j) for _, _, t, j in slots]


def plan(workload: str, seed: int) -> list[tuple[Tier, int, int]]:
    """The run's instances in order: tier, base index, and the seed of the
    instance's relabelling (and of its source problem, for reductions)."""
    rng = random.Random(f"{workload}/{seed}")
    return [(t, j, rng.getrandbits(64)) for t, j in stratified_order(WORKLOADS[workload], rng)]


def build(tier: Tier, index: int, seed: int, record: dict) -> Request:
    """Turn one planned instance into a request with its input bytes."""
    rng = random.Random(seed)
    if tier.family == "nae3sat":
        nclauses = rng.randint(3, 6)
        text = gen.nae_formula(tier.n, nclauses, rng)
        nv = 2 * tier.n + (4 * tier.n - 3) * (tier.n + nclauses)
        return Request(tier, index, ["reduce", "nae3sat"], text.encode(),
                       expect={"kind": "nae", "n": nv, "k": 2 * tier.n - 2})
    if tier.family == "hitting_set":
        nsets, k, s = rng.randint(3, 6), rng.randint(1, 3), rng.choice((2, 3))
        text = gen.set_system(tier.n, nsets, rng)
        nv = tier.n + (2 * k + 1) * (nsets + s - 1) + 1
        return Request(tier, index, ["reduce", "hitting-set", "--k", str(k), "--s", str(s)],
                       text.encode(), expect={"kind": f"hs{s}", "n": nv, "k": k})

    rows = gen.base_graph(tier.family, tier.n, index)
    entry = record[f"{tier.key}/{index}"]
    if gen.digest(rows) != entry["g6"]:
        raise RuntimeError(f"generator output for {tier.key}/{index} differs from the record")
    perm = list(range(tier.n))
    rng.shuffle(perm)
    rows = gen.relabel(rows, perm)
    cls = gen.FAMILY_CLASS[tier.family]
    if cls == "cograph":
        argv, expect = ["hadwiger"], {"kind": "cograph", "h": entry["h"]}
    elif cls == "bipartite permutation":
        if index % 2 == 0:
            argv, expect = ["hadwiger"], {"kind": "bags", "h": entry["h"]}
        else:
            argv, expect = ["clique-matching"], {"kind": "cm", "size": entry["cm"]}
    elif tier.family == "gnp":
        argv, expect = ["hadwiger", "--method", "auto"], {"kind": "oracle-bags", "h": entry["h"]}
    else:
        # Alternate s = 2, 3; AT-free inputs cycle through club-minor and the
        # budgets d-s-1 .. d-s+2, the oracle branch through the budgets only.
        s, variant = 2 + index % 2, index // 2 % (4 if tier.family == "non_atfree" else 5)
        kmin = entry[f"k{s}"]
        if variant == 4:
            argv, expect = ["club-minor", "--s", str(s)], {"kind": "club-minor", "s": s, "k": kmin}
        else:
            k = max(0, entry["d"] - s + variant - 1)
            argv = ["club-contract", "--s", str(s), "--k", str(k)]
            expect = {"kind": "club-contract", "s": s, "k": k, "yes": k >= kmin}
    return Request(tier, index, argv, gen.graph6(rows), rows, expect)
