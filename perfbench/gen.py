"""Seeded, stdlib-only instance generators for the benchmark.

A graph is a list of adjacency bitmasks (bit v of ``rows[u]`` set iff uv is
an edge).  Every generator builds a member of its class by construction and
never imports the library it feeds, so a defect there cannot leak into the
inputs.  Each base instance is identified by (family, n, index) and is a pure
function of that triple; a run's seed only sets the order of the base
instances and the random vertex relabelling each one gets.
"""

from __future__ import annotations

import hashlib
import random

import check

# Families of graph inputs and the class each one belongs to.
FAMILY_CLASS = {
    "random_cograph": "cograph",
    "threshold_cograph": "cograph",
    "sparse_staircase": "bipartite permutation",
    "dense_staircase": "bipartite permutation",
    "interval": "AT-free (interval)",
    "caterpillar": "AT-free (interval)",
    "permutation": "AT-free (permutation)",
    "gnp": "connected, not a cograph, not bipartite",
    "non_atfree": "connected, with an asteroidal triple",
}


def base_rng(family: str, n: int, index: int) -> random.Random:
    """The generator stream of one base instance, independent of any run seed."""
    key = f"{family}/{n}/{index}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


def from_edges(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def edges_of(rows: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(rows)) for v in range(u + 1, len(rows))
            if rows[u] >> v & 1]


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """The same graph with vertex u renamed perm[u]."""
    out = [0] * len(rows)
    for u, row in enumerate(rows):
        acc = 0
        while row:
            b = row & -row
            acc |= 1 << perm[b.bit_length() - 1]
            row ^= b
        out[perm[u]] = acc
    return out


def graph6(rows: list[int]) -> bytes:
    """Standard graph6 encoding (n < 258048)."""
    n = len(rows)
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    bits = nbits = 0
    for j in range(1, n):
        for i in range(j):
            bits = (bits << 1) | (rows[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(bits + 63)
                bits = nbits = 0
    if nbits:
        out.append((bits << (6 - nbits)) + 63)
    return bytes(out)


def digest(rows: list[int]) -> str:
    return hashlib.sha256(graph6(rows)).hexdigest()[:16]


# Cographs ------------------------------------------------------------------

def random_cograph(n: int, rng: random.Random) -> list[int]:
    """Graph of a random cotree: each internal node splits its leaves into
    2..4 parts, and node types alternate between union and join."""
    rows = [0] * n

    def build(lo: int, hi: int, kind: str):
        k = hi - lo
        if k == 1:
            return
        want = rng.randint(2, min(k, 4))
        cuts = sorted(rng.sample(range(lo + 1, hi), want - 1))
        bounds = [lo] + cuts + [hi]
        other = "join" if kind == "union" else "union"
        for a, b in zip(bounds, bounds[1:]):
            build(a, b, other)
        if kind == "join":
            for a, b in zip(bounds, bounds[1:]):
                part = ((1 << b) - 1) ^ ((1 << a) - 1)
                rest = ((1 << hi) - 1) ^ ((1 << lo) - 1) ^ part
                for v in range(a, b):
                    rows[v] |= rest

    build(0, n, rng.choice(("union", "join")))
    return rows


def threshold_cograph(n: int, rng: random.Random) -> list[int]:
    """Threshold graph: each new vertex is isolated or dominating.  Its cotree
    is a caterpillar of depth about n/2, the deepest cotree for its size."""
    rows = [0] * n
    for v in range(1, n):
        if rng.random() < 0.5:
            for u in range(v):
                rows[u] |= 1 << v
            rows[v] = (1 << v) - 1
    return rows


# Bipartite permutation graphs -----------------------------------------------

def _staircase(n: int, rng: random.Random, dense: bool) -> list[int]:
    """Connected monotone staircase: side A = 0..n1-1 in order, side B =
    n1..n-1 in order, and A-vertex i sees the B-interval [lo_i, hi_i] with
    both ends nondecreasing and consecutive intervals overlapping.  Those
    orders are a strong ordering, so the graph is a bipartite permutation
    graph; it is connected and covers every B-vertex by construction.
    Complete bipartite draws are redrawn, so that the input is not a cograph
    and the cograph solver rejects it."""
    while True:
        rows = _staircase_draw(n, rng, dense)
        if has_induced_p4(rows):
            return rows


def _staircase_draw(n: int, rng: random.Random, dense: bool) -> list[int]:
    n1 = rng.randint(n // 3, n - n // 3)
    n2 = n - n1
    wmin, wmax = (max(1, n2 // 4), max(2, n2 // 2)) if dense else (1, 2)
    lo, hi = 0, -1
    spans = []
    for i in range(n1):
        lo = min(max(lo, hi), lo + rng.randint(0, 2 * -(-n2 // n1)))
        # Advance far enough that the last interval reaches B-vertex n2-1.
        step = -(-(n2 - 1 - hi) // (n1 - i))
        hi = min(n2 - 1, max(hi + step, lo + rng.randint(wmin, wmax) - 1))
        spans.append((lo, hi))
    edges = [(i, n1 + j) for i, (a, b) in enumerate(spans) for j in range(a, b + 1)]
    return from_edges(n, edges)


def sparse_staircase(n: int, rng: random.Random) -> list[int]:
    """Staircase whose intervals have width 1 or 2, so m is close to n."""
    return _staircase(n, rng, dense=False)


def dense_staircase(n: int, rng: random.Random) -> list[int]:
    """Staircase with intervals n2/4 to n2/2 wide."""
    return _staircase(n, rng, dense=True)


# AT-free graphs ---------------------------------------------------------------

def interval(n: int, rng: random.Random) -> list[int]:
    """Connected interval graph of long diameter: each interval starts inside
    the union of the earlier ones, a little to the right."""
    spans = []
    right = start = 0.05
    for _ in range(n):
        start = min(right - 0.05, start + rng.random() * 0.7)  # overlaps the union
        end = start + 0.4 + rng.random() * 0.8
        spans.append((start, end))
        right = max(right, end)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]]
    return from_edges(n, edges)


def caterpillar(n: int, rng: random.Random) -> list[int]:
    """A path (the spine, at least half the vertices) with pendant leaves."""
    spine = rng.randint(max(3, n // 2), n - 1)
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), leaf) for leaf in range(spine, n)]
    return from_edges(n, edges)


def permutation(n: int, rng: random.Random) -> list[int]:
    """Connected permutation graph of short diameter (about 3 to 6): a
    random permutation with a slight drift toward the identity."""
    keys = [0.6 * i / n + rng.random() for i in range(n)]
    perm = sorted(range(n), key=keys.__getitem__)
    # The graph is disconnected exactly where a prefix of positions holds a
    # prefix of values; swapping across such a cut joins the two sides.
    top = -1
    for i in range(n - 1):
        top = max(top, perm[i])
        if top == i:
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            top = perm[i]
    edges = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
             if perm[i] > perm[j]]
    return from_edges(n, edges)


# Fallback inputs -----------------------------------------------------------------

def has_triangle(rows: list[int]) -> bool:
    return any(rows[u] & rows[v] for u, v in edges_of(rows))


def has_induced_p4(rows: list[int]) -> bool:
    """An induced path a-b-c-d exists."""
    for b, c in edges_of(rows):
        for x, y in ((b, c), (c, b)):
            a_side = rows[x] & ~rows[y] & ~(1 << y)
            d_side = rows[y] & ~rows[x] & ~(1 << x)
            while a_side:
                bit = a_side & -a_side
                a = bit.bit_length() - 1
                if d_side & ~rows[a] & ~(1 << a):
                    return True
                a_side ^= bit
    return False


def asteroidal_triple(rows: list[int]):
    """A triple of pairwise non-adjacent vertices, each pair joined by a path
    avoiding the closed neighbourhood of the third; None if AT-free."""
    n = len(rows)
    full = (1 << n) - 1

    def reach(src: int, banned: int) -> int:
        return check.closure(rows, src, full & ~banned)

    closed = [rows[v] | 1 << v for v in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if closed[a] >> b & 1:
                continue
            for c in range(b + 1, n):
                if closed[a] >> c & 1 or closed[b] >> c & 1:
                    continue
                if (reach(a, closed[c]) >> b & 1 and reach(a, closed[b]) >> c & 1
                        and reach(b, closed[a]) >> c & 1):
                    return (a, b, c)
    return None


def gnp(n: int, rng: random.Random) -> list[int]:
    """Connected G(n, 0.45) with a triangle and an induced P4, so neither the
    cograph nor the bipartite-permutation solver applies."""
    while True:
        rows = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < 0.45])
        if check.connected_mask(rows, (1 << n) - 1) and has_triangle(rows) and has_induced_p4(rows):
            return rows


def non_atfree(n: int, rng: random.Random) -> list[int]:
    """A subdivided claw (three legs of length two, which hold an asteroidal
    triple) with the remaining vertices attached at random; resampled until
    it still has an asteroidal triple."""
    while True:
        edges = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
        for v in range(7, n):
            edges += [(u, v) for u in rng.sample(range(v), rng.randint(1, 2))]
        rows = from_edges(n, edges)
        if asteroidal_triple(rows) is not None:
            return rows


GRAPH_FAMILIES = {
    "random_cograph": random_cograph,
    "threshold_cograph": threshold_cograph,
    "sparse_staircase": sparse_staircase,
    "dense_staircase": dense_staircase,
    "interval": interval,
    "caterpillar": caterpillar,
    "permutation": permutation,
    "gnp": gnp,
    "non_atfree": non_atfree,
}


def base_graph(family: str, n: int, index: int) -> list[int]:
    return GRAPH_FAMILIES[family](n, base_rng(family, n, index))


# Reduction sources ------------------------------------------------------------

def nae_formula(nvars: int, nclauses: int, rng: random.Random) -> str:
    """Random 3-CNF in DIMACS form, three distinct variables per clause."""
    lines = [f"p cnf {nvars} {nclauses}"]
    for _ in range(nclauses):
        vs = rng.sample(range(1, nvars + 1), 3)
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in vs) + " 0")
    return "\n".join(lines) + "\n"


def set_system(universe: int, nsets: int, rng: random.Random) -> str:
    """Random set system in the 'n m' header plus one-set-per-line format."""
    lines = [f"{universe} {nsets}"]
    for _ in range(nsets):
        size = rng.randint(1, min(4, universe))
        lines.append(" ".join(map(str, sorted(rng.sample(range(universe), size)))))
    return "\n".join(lines) + "\n"
