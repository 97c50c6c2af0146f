"""Seeded benchmark inputs: graph generators, graph6 codec, pool sampling.

Graphs here are plain ``(n, edges)`` pairs with ``edges`` a sorted tuple of
``(u, v)`` pairs, ``u < v``.  Nothing in this module imports graphstrength,
so the inputs and the reference checks do not depend on the code they test,
and networkx's random generators never define the corpus.

A workload's corpus is drawn from a pool stored in ``reference.json``.
``make_reference.py`` builds that pool once, from the generators below and a
fixed pool seed, and records for every member a reference strength interval
and the cost of one op measured when the pool was built.  ``build_corpus``
then takes every member of the fixed strata (the named graphs and the few
heavy members that dominate a pass) and, from each sampled stratum, one
member per run of consecutive members in cost order.  The seed picks that
member in the runs whose costliest member is cheaper than the pool's first
tercile of cost; the costlier runs always give their middle member, so the
members that set ``op_p50_ms`` and ``op_p90_ms`` and most of a pass's time
are the same for every seed.  Different seeds therefore give different
graphs with the same spread of cost, which keeps run-to-run figures
comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

WORKLOADS = ("exact-small", "certify-medium", "bounds-scan")

# stratum -> members drawn per pass; None takes the whole stratum.
SAMPLE_PLAN: dict[str, dict[str, int | None]] = {
    "exact-small": {"named": None, "regular": None, **{f"gnp-{n}": 32 for n in range(6, 15)}},
    "certify-medium": {
        "named": None, "embed-heavy": None, "forest": 10, "cycles": 10, "found": 30, "embed-light": 35,
    },
    "bounds-scan": {
        "named": None, "torus": 10, "reg-small": 77, "reg-large": 3, "cycles": 4, "forest": 4,
    },
}

Edges = tuple[tuple[int, int], ...]


# -- generators ---------------------------------------------------------------


def _norm(n: int, edges) -> tuple[int, Edges]:
    out = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at {u}")
        out.add((u, v) if u < v else (v, u))
    return n, tuple(sorted(out))


def random_regular(n: int, d: int, rng: random.Random, max_tries: int = 100_000):
    """Configuration model with retry: pair the n*d stubs uniformly at random
    and start over whenever a loop or a repeated edge appears.

    The acceptance rate falls like exp(-(d*d - 1) / 4), so this is meant for
    d <= 5; 6-regular graphs on 96 vertices already exhaust the retries.
    """
    if n * d % 2 or not 0 < d < n:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(max_tries):
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        for a, b in zip(stubs[::2], stubs[1::2]):
            e = (a, b) if a < b else (b, a)
            if a == b or e in edges:
                break
            edges.add(e)
        else:
            return n, tuple(sorted(edges))
    raise RuntimeError(f"configuration model failed {max_tries} times for n={n}, d={d}")


def gnp_no_isolated(n: int, p: float, rng: random.Random, max_tries: int = 10_000):
    """G(n, p) conditioned on having no isolated vertex (resampled until so)."""
    for _ in range(max_tries):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        touched = {x for e in edges for x in e}
        if len(touched) == n:
            return n, tuple(edges)
    raise RuntimeError(f"G({n}, {p}) kept producing isolated vertices")


def random_forest(n: int, rng: random.Random, max_trees: int = 4):
    """Random forest on n vertices, every tree with at least two vertices.

    Trees grow by attaching each new vertex to a uniformly chosen earlier
    vertex of the same tree; vertex ids are shuffled at the end.
    """
    trees = rng.randint(1, max_trees)
    cuts = sorted(rng.sample(range(2, n - 1), trees - 1)) if trees > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    if any(s < 2 for s in sizes):
        return random_forest(n, rng, max_trees)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    start = 0
    for size in sizes:
        for k in range(1, size):
            edges.append((perm[start + k], perm[start + rng.randrange(k)]))
        start += size
    return _norm(n, edges)


def cycle_union(lengths) -> tuple[int, Edges]:
    edges = []
    n = 0
    for c in lengths:
        edges += [(n + i, n + (i + 1) % c) for i in range(c)]
        n += c
    return _norm(n, edges)


def random_cycle_lengths(total_lo: int, total_hi: int, rng: random.Random) -> list[int]:
    lengths: list[int] = []
    target = rng.randint(total_lo, total_hi)
    while sum(lengths) < target - 2:
        lengths.append(min(rng.randint(3, 14), max(3, target - sum(lengths))))
    return lengths


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _norm(10, outer + inner + [(i, i + 5) for i in range(5)])


def heawood():
    ring = [(i, (i + 1) % 14) for i in range(14)]
    return _norm(14, ring + [(i, (i + 5) % 14) for i in range(0, 14, 2)])


def prism(k: int):
    """Cycle C_k times K_2."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    return _norm(2 * k, edges + [(i, i + k) for i in range(k)])


def circulant(n: int, jumps) -> tuple[int, Edges]:
    return _norm(n, [(i, (i + s) % n) for i in range(n) for s in jumps])


def complete_bipartite(m: int, k: int):
    return _norm(m + k, [(i, m + j) for i in range(m) for j in range(k)])


def hypercube(dim: int):
    size = 1 << dim
    return _norm(size, [(v, v | 1 << b) for v in range(size) for b in range(dim) if not v >> b & 1])


def torus(a: int, b: int):
    """Cycle C_a times cycle C_b."""
    edges = []
    for i in range(a):
        for j in range(b):
            v = i * b + j
            edges += [(v, ((i + 1) % a) * b + j), (v, i * b + (j + 1) % b)]
    return _norm(a * b, edges)


# -- graph6 -------------------------------------------------------------------


def to_graph6(n: int, edges: Edges) -> str:
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for this encoder")
    present = set(edges)
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return head + body


def from_graph6(text: str) -> tuple[int, Edges]:
    data = [ord(c) - 63 for c in text.strip()]
    if data[0] == 63:
        n = data[1] << 12 | data[2] << 6 | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if data[k // 6] >> (5 - k % 6) & 1:
                edges.append((u, v))
            k += 1
    return n, tuple(sorted(edges))


# -- graph facts the checks use ---------------------------------------------------


def max_edge_sum(edges: Edges, labels) -> int:
    """Largest label sum over the edges; computed here, not by the library."""
    return max(labels[u] + labels[v] for u, v in edges)


def min_degree(n: int, edges: Edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return min(deg)


# -- corpus -------------------------------------------------------------------


def load_pool() -> dict:
    return json.loads(REFERENCE.read_text())


def build_corpus(workload: str, seed: int, pool: dict | None = None) -> list[dict]:
    """The pool members a run of ``workload`` uses for ``seed``, in run order.

    Each member is a dict with at least ``id``, ``g6``, ``stratum``, ``ref``
    (``[lo, hi]``, an interval holding the true strength) and ``cost_s``.
    """
    if workload not in SAMPLE_PLAN:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    pool = load_pool() if pool is None else pool
    members = pool["workloads"][workload]
    rng = random.Random(f"{workload}:{seed}")
    fixed_above = statistics.quantiles((m["cost_s"] for m in members), n=3)[0]
    chosen: list[dict] = []
    for stratum, k in SAMPLE_PLAN[workload].items():
        group = sorted(
            (m for m in members if m["stratum"] == stratum), key=lambda m: (m["cost_s"], m["id"])
        )
        if k is None:
            chosen.extend(group)
            continue
        if len(group) < k:
            raise ValueError(f"{workload}/{stratum}: pool holds {len(group)}, plan needs {k}")
        bounds = [len(group) * j // k for j in range(k + 1)]
        for a, b in zip(bounds, bounds[1:]):
            run = group[a:b]
            chosen.append(run[len(run) // 2] if run[-1]["cost_s"] >= fixed_above else rng.choice(run))
    rng.shuffle(chosen)
    return chosen


def digest(corpus: list[dict]) -> str:
    """Short hash of the run's graph6 list, in run order."""
    text = "\n".join(m["g6"] for m in corpus)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
