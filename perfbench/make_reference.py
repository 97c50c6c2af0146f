"""Build ``reference.json``: the benchmark's input pools and reference answers.

Run from the repository root when the benchmark is (re)defined:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Named workloads are rebuilt and the others kept; with no names, all are.

Every graph comes from the generators in ``corpus.py`` with a fixed pool
seed.  Each member records ``ref = [lo, hi]``, an interval holding its true
strength, cross-checked here:

* exact-small: the oracle's exact value, confirmed by brute force over all
  numberings when p <= 8, by ``verify_certificate`` and by the
  ``bounds_report`` sandwich;
* certify-medium: closed forms (forests p + 1, unions of cycles
  max(p + 2, p + 1 + odd cycles), the stored cube and worked-example
  values) or p + delta for graphs certified by a reduction sequence; graphs
  that need an embedding keep the trivial interval [p + delta, 2p - 1] and
  record delta, because their answer is about the host;
* bounds-scan: for every named lower bound that ``bounds`` reports, its
  value computed here without graphstrength (degrees, edge connectivity by
  networkx, independence number and the complete expansion profile of
  sizes 1..4 by exhaustive search, the hypercube and two-regular closed
  forms); ``lo`` is the largest of them and ``hi`` the best proven upper
  bound (2p - 1, the closed forms, the stored cube numberings).

``cost_s`` is the median wall time of three runs of the member's op on the
machine that built the pool.  It only orders members inside a stratum for
sampling; the run itself measures everything anew.

Certify-medium keeps a graph only when its reduction-sequence search needs
at most ``SEQ_NODE_CAP`` nodes and its op took at most ``HEAVY_COST_S``;
the slower cases are listed as known-slow probes in ``layers.json``.  The
few members that dominate a pass (the named graphs, one random regular graph
per class on exact-small, ``HEAVY_COUNT`` heavy embeddings on
certify-medium) are run every pass rather than sampled, so that a seed
changes the many light members without swinging the wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import statistics
import sys
import time
from pathlib import Path

import networkx as nx

import corpus as C
import workloads as W

POOL_SEED = 20261017
SEQ_NODE_CAP = 60_000
LIGHT_COST_S = 0.1
HEAVY_COST_S = 0.6
HEAVY_COUNT = 12


def brute_force_strength(n: int, edges) -> int:
    best = 2 * n
    for perm in itertools.permutations(range(1, n + 1)):
        got = max(perm[u] + perm[v] for u, v in edges)
        if got < best:
            best = got
    return best


def op_cost(gs, workload: str, item) -> tuple[float, object]:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        answer = W.OPS[workload](gs, item)
        times.append(time.perf_counter() - start)
    return statistics.median(times), answer


def member(gid: str, stratum: str, n: int, edges, ref, **extra) -> dict:
    return {"id": gid, "stratum": stratum, "g6": C.to_graph6(n, edges), "ref": list(ref), **extra}


def finish(gs, workload: str, members: list[dict]) -> list[dict]:
    """Run every member's op, gate it against its reference, record its cost."""
    for m in members:
        item = W.prepare(workload, [dict(m, cost_s=0.0)], gs)[0]
        m["cost_s"], answer = op_cost(gs, workload, item)
        problems = W.check(workload, item, answer)
        if problems:
            raise SystemExit(f"{workload}/{m['id']}: {problems}")
        m["cost_s"] = round(m["cost_s"], 6)
    return members


# -- exact-small ------------------------------------------------------------------


def exact_small(gs, rng: random.Random) -> list[dict]:
    named = {
        "petersen": C.petersen(), "heawood": C.heawood(), "prism5": C.prism(5),
        "prism6": C.prism(6), "circ10-1-2": C.circulant(10, (1, 2)),
        "circ12-1-3": C.circulant(12, (1, 3)), "circ13-1-5": C.circulant(13, (1, 5)),
        "k44": C.complete_bipartite(4, 4), "k55": C.complete_bipartite(5, 5), "q3": C.hypercube(3),
    }
    raw = [("named", gid, g) for gid, g in named.items()]
    for d, n in ((3, 10), (3, 12), (4, 10), (4, 12)):
        raw += [(f"reg{d}-{n}", f"reg{d}-{n}-{k}", C.random_regular(n, d, rng)) for k in range(8)]
    for n in range(6, 15):
        for p in (0.25, 0.4, 0.55, 0.7):
            raw += [(f"gnp-{n}", f"gnp-{n}-{p}-{k}", C.gnp_no_isolated(n, p, rng)) for k in range(24)]
    members = []
    for stratum, gid, (n, edges) in raw:
        res = gs.oracle.exact_strength(gs.Graph(n, edges))
        if res.status != "exact":
            raise SystemExit(f"{gid}: oracle gave a bracket")
        if n <= 8 and brute_force_strength(n, edges) != res.value:
            raise SystemExit(f"{gid}: oracle {res.value} disagrees with brute force")
        members.append(member(gid, stratum, n, edges, (res.value, res.value)))
    members = finish(gs, "exact-small", members)
    # each class keeps the one graph whose cost is nearest the class median;
    # these heavy members run every pass, so a seed cannot swing the wall time
    kept = [m for m in members if not m["stratum"].startswith("reg")]
    for stratum in sorted({m["stratum"] for m in members} - {m["stratum"] for m in kept}):
        group = [m for m in members if m["stratum"] == stratum]
        mid = statistics.median(m["cost_s"] for m in group)
        pick = min(group, key=lambda m: abs(m["cost_s"] - mid))
        kept.append(dict(pick, stratum="regular"))
    return kept


# -- certify-medium -----------------------------------------------------------------


def _seq_route(gs, n: int, edges) -> tuple[str, int] | None:
    """Which route ``label --embed`` takes, within the node cap, or None."""
    g = gs.Graph(n, edges)
    delta = g.min_degree()
    spent = 0
    for mode, root in (("min-degree", None), ("any-degree", delta)):
        res = gs.deltaseq.find_delta_sequence(g, mode, SEQ_NODE_CAP, root_degree=root)
        spent += res.nodes_explored
        if res.status == "found":
            return "found", spent
        if res.status == "budget":
            return None
    _, nodes, complete = gs.deltaseq.best_z_sequence(g, SEQ_NODE_CAP, root_degree=delta)
    if not complete:
        return None
    return "embed", nodes


def certify_medium(gs, rng: random.Random) -> list[dict]:
    members = []
    for dim, ref in ((4, (21, 21)), (5, (40, 40)), (6, (76, 79))):
        n, edges = C.hypercube(dim)
        members.append(member(f"q{dim}", "named", n, edges, ref))
    for name, value in (("example21", 14), ("example22", 17)):
        g = gs.load_fixture(name).graph
        members.append(member(name, "named", g.n, g.edges(), (value, value), fixture=name))
    for k in range(30):
        n, edges = C.random_forest(rng.randint(20, 40), rng)
        members.append(member(f"forest-{k}", "forest", n, edges, (n + 1, n + 1)))
    for k in range(30):
        lengths = C.random_cycle_lengths(20, 40, rng)
        n, edges = C.cycle_union(lengths)
        value = max(n + 2, n + 1 + sum(c % 2 for c in lengths))
        members.append(member(f"cycles-{k}", "cycles", n, edges, (value, value)))
    found = embed = 0
    for k in itertools.count():
        if found >= 90 and embed >= 160:
            break
        if k > 20_000:
            raise SystemExit(f"certify-medium pool short after {k} candidates")
        kind = rng.choice(("cubic", "quartic", "sparse"))
        if kind == "cubic":
            n, edges = C.random_regular(rng.randrange(20, 41, 2), 3, rng)
        elif kind == "quartic":
            n, edges = C.random_regular(rng.randint(20, 30), 4, rng)
        else:
            n = rng.randint(20, 40)
            n, edges = C.gnp_no_isolated(n, rng.choice((2.5, 3.0, 3.5)) / n, rng)
        g = gs.Graph(n, edges)
        if g.is_forest() or g.is_regular(2):
            continue
        route = _seq_route(gs, n, edges)
        if route is None or (route[0] == "found" and found >= 90) or (route[0] != "found" and embed >= 160):
            continue
        delta = C.min_degree(n, edges)
        extra = {"kind": kind, "seq_nodes": route[1], "delta": delta}
        if route[0] == "found":
            found += 1
            ref = (n + delta, n + delta)
        else:
            embed += 1
            ref = (n + delta, 2 * n - 1)
            extra["embed"] = True
        members.append(member(f"{kind}-{k}", route[0], n, edges, ref, **extra))
    members = finish(gs, "certify-medium", members)
    # embeddings split by cost: the light ones are sampled per seed, the
    # first HEAVY_COUNT heavy ones run every pass (so a seed cannot swing the
    # wall time), and slower ones are left out
    kept, heavy = [], 0
    for m in members:
        if m.get("embed"):
            if m["cost_s"] < LIGHT_COST_S:
                m["stratum"] = "embed-light"
            elif m["cost_s"] <= HEAVY_COST_S and heavy < HEAVY_COUNT:
                m["stratum"] = "embed-heavy"
                heavy += 1
            else:
                continue
            item = W.prepare("certify-medium", [m], gs)[0]
            m["host_n"] = W.op_certify_medium(gs, item).n
        kept.append(m)
    if heavy < HEAVY_COUNT:
        raise SystemExit(f"certify-medium pool has {heavy} heavy embeddings, needs {HEAVY_COUNT}")
    return kept


# -- bounds-scan ----------------------------------------------------------------------


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def independence_number(n: int, edges) -> int:
    adj = adjacency(n, edges)

    @functools.lru_cache(maxsize=None)
    def alpha(mask: int) -> int:
        if not mask:
            return 0
        verts = [v for v in range(n) if mask >> v & 1]
        v = min(verts, key=lambda x: (adj[x] & mask).bit_count())
        # every maximal independent set meets the closed neighbourhood of v
        closed = adj[v] | 1 << v
        return max(1 + alpha(mask & ~(adj[u] | 1 << u)) for u in verts if closed >> u & 1)

    return alpha((1 << n) - 1)


def min_exteriors(n: int, edges, i_max: int = 4) -> list[int]:
    """x_i = min |N(S) minus S| over vertex sets S of size i, for i = 1..i_max.

    Exhaustive over S in increasing vertex order; adding a vertex to S takes
    at most that vertex out of the exterior, which gives the prune.
    """
    adj = adjacency(n, edges)
    out = []
    for i in range(1, i_max + 1):
        best = n
        stack = [(1 << v, adj[v] & ~(1 << v), 1, v) for v in range(n - i + 1)]
        while stack:
            s, ext, size, top = stack.pop()
            count = ext.bit_count()
            if count - (i - size) >= best:
                continue
            if size == i:
                best = count
                continue
            for w in range(top + 1, n - (i - size) + 1):
                t = s | 1 << w
                stack.append((t, (ext | adj[w]) & ~t, size + 1, w))
        out.append(best)
    return out


def lower_bounds(n: int, edges) -> dict[str, int]:
    """The named lower bounds ``bounds`` reports under its defaults (no
    isolated vertices; independence only for p <= 40; xi over set sizes
    1..4), each computed without graphstrength; ``xi`` is taken over the
    complete profile."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    graph = nx.Graph(edges)
    out = {
        "p+delta": n + min(deg),
        "maxdeg+2": max(deg) + 2,
        "p+edge-connectivity": n + nx.edge_connectivity(graph),
        "xi": n + max(x - i + 1 for i, x in enumerate(min_exteriors(n, edges), 1)),
    }
    if n <= 40:
        out["independence"] = 2 * n - 2 * independence_number(n, edges) + 1
    return out


# stored cube numberings give the upper ends; the lower ends are the
# hypercube bound 2^n + 4n - 12 (5 <= n <= 9)
CUBES = {5: (40, 40), 6: (76, 79), 7: (144, 161)}


def bounds_scan(gs, rng: random.Random) -> list[dict]:
    raw = [(f"q{dim}", "named", C.hypercube(dim)) for dim in CUBES]
    for a in range(4, 13):
        for b in range(a, 37):
            if 36 <= a * b <= 144:
                raw.append((f"torus-{a}x{b}", "torus", C.torus(a, b)))
    for d in (3, 4, 5):
        for n in (36, 40, 44, 48, 52, 56, 60, 64):
            if n * d % 2 == 0:
                raw += [(f"reg{d}-{n}-{k}", "reg-small", C.random_regular(n, d, rng)) for k in range(8)]
        for n in (96, 112, 128):
            raw += [(f"reg{d}-{n}-{k}", "reg-large", C.random_regular(n, d, rng)) for k in range(2)]
    # no cube, torus or regular graph gets an exact report, so a few
    # closed-form members keep exact_share above 0 and cover the two-regular
    # and forest routes of bounds; a run takes 8 of its 101 from them
    for k in range(12):
        lengths = C.random_cycle_lengths(36, 128, rng)
        raw.append((f"cycles-{k}", "cycles", C.cycle_union(lengths)))
    for k in range(12):
        raw.append((f"forest-{k}", "forest", C.random_forest(rng.randint(36, 128), rng)))
    members = []
    for gid, stratum, (n, edges) in raw:
        lower = lower_bounds(n, edges)
        hi = 2 * n - 1
        if stratum == "named":
            dim = n.bit_length() - 1
            lower["hypercube"], hi = CUBES[dim]
        elif stratum == "cycles":
            lengths = [len(c) for c in nx.connected_components(nx.Graph(edges))]
            lower["two-regular"] = hi = max(n + 2, n + 1 + sum(c % 2 for c in lengths))
        elif stratum == "forest":
            hi = n + 1
        lo = max(lower.values())
        if lo > hi:
            raise SystemExit(f"{gid}: lower bounds {lower} above upper {hi}")
        members.append(member(gid, stratum, n, edges, (lo, hi), lower=lower))
    members = finish(gs, "bounds-scan", members)
    short = [m["id"] for m in members
             if gs.bounds.bounds_report(gs.Graph(*C.from_graph6(m["g6"]))).best_lower < m["ref"][0]]
    print(f"bounds-scan: seed lower bound below the reference on {short}", file=sys.stderr)
    return members


def main(argv: list[str]) -> int:
    """Rebuild the pools of the workloads named in ``argv`` (default: all)."""
    root = Path(__file__).resolve().parent.parent
    gs = W.load_library(root)
    pool_makers = {"exact-small": exact_small, "certify-medium": certify_medium, "bounds-scan": bounds_scan}
    pool = {
        "pool_seed": POOL_SEED,
        "seq_node_cap": SEQ_NODE_CAP,
        "note": "ref = [lo, hi] holds the true strength; cost_s orders members for sampling only",
        "workloads": C.load_pool()["workloads"] if argv else {},
    }
    for name, build in pool_makers.items():
        if argv and name not in argv:
            continue
        start = time.perf_counter()
        members = build(gs, random.Random(f"{POOL_SEED}:{name}"))
        pool["workloads"][name] = members
        print(f"{name}: {len(members)} members in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    for name in pool_makers:
        for seed in (1, 2):
            C.build_corpus(name, seed, pool)
    lines = ["{"]
    for key in ("note", "pool_seed", "seq_node_cap"):
        lines.append(f"{json.dumps(key)}: {json.dumps(pool[key])},")
    lines.append('"workloads": {')
    for i, (name, members) in enumerate(pool["workloads"].items()):
        lines.append(f"{json.dumps(name)}: [")
        lines += [json.dumps(m, sort_keys=True) + ("," if j < len(members) - 1 else "")
                  for j, m in enumerate(members)]
        lines.append("]" + ("," if i < len(pool["workloads"]) - 1 else ""))
    lines += ["}", "}"]
    C.REFERENCE.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
