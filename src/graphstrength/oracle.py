"""Small exact solver for graph strength, by threshold feasibility search.

strength(G) <= t iff the labels p, p-1, ..., 1 can be handed out so that no
edge's label sum exceeds t.  The solver assigns labels in descending order;
once any neighbor of v is labeled, v's own budget cap(v) = t - (that label)
is fixed for good, which makes two prunes cheap and sound:

* a vertex can host the current label l only if its unlabeled neighbors fit
  under t - l, and
* the unlabeled caps, sorted, must dominate 1, 2, 3, ... (a Hall-style
  counting argument on nested label intervals).

Exactness comes from completed infeasibility at t-1 (or from t hitting the
absolute floor p+1, forced by the vertex labeled p having a neighbor).  The
root choice for label p is limited to one representative per automorphism
orbit; orbits are color-refinement classes confirmed pairwise by exact
isomorphism tests, never refinement classes alone.

This is exponential and deliberately capped (default 14 vertices); its job
is to anchor the theory-backed bounds and constructions on small cases, not
to scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .graphs import Graph, _bits
from .labeling import (
    LowerBound,
    Numbering,
    StrengthCertificate,
    UnconfirmedBound,
    extend_over_isolated,
    recompute_arg,
    register_lower_bound,
)

DEFAULT_BUDGET = 2_000_000
DEFAULT_VERTEX_CAP = 14


def to_networkx(g: Graph) -> "nx.Graph":
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _refinement_classes(g: Graph) -> list[int]:
    """Stable color refinement; returns a color id per vertex."""
    color = g.degrees()
    while True:
        keys = [
            (color[v], tuple(sorted(color[u] for u in _bits(g.adj[v]))))
            for v in range(g.n)
        ]
        remap: dict[tuple, int] = {}
        for k in sorted(set(keys)):
            remap[k] = len(remap)
        new = [remap[k] for k in keys]
        if new == color:
            return color
        color = new


def _same_orbit(g: "nx.Graph", base: list[int], u: int, v: int) -> bool:
    """Is there an automorphism of g sending u to v, refining colors ``base``?"""
    g1, g2 = g.copy(), g.copy()
    nx.set_node_attributes(g1, {w: (base[w], w == u) for w in g1.nodes}, "c")
    nx.set_node_attributes(g2, {w: (base[w], w == v) for w in g2.nodes}, "c")
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        g1, g2, node_match=lambda x, y: x["c"] == y["c"]
    )
    return matcher.is_isomorphic()


def automorphism_orbits(g: Graph) -> list[tuple[int, ...]]:
    """True vertex orbits under Aut(g).

    Color refinement only over-approximates orbits, so each refinement class
    is split by exact pairwise isomorphism checks (colors individualize the
    two candidate vertices).  Intended for small graphs.
    """
    base = _refinement_classes(g)
    gx = to_networkx(g)
    by_class: dict[int, list[int]] = {}
    for v in range(g.n):
        by_class.setdefault(base[v], []).append(v)
    orbits: list[list[int]] = []
    for cls in by_class.values():
        reps: list[list[int]] = []
        for v in cls:
            for group in reps:
                if _same_orbit(gx, base, group[0], v):
                    group.append(v)
                    break
            else:
                reps.append([v])
        orbits.extend(reps)
    return [tuple(sorted(o)) for o in sorted(orbits)]


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # "feasible" | "infeasible" | "budget"
    witness: Numbering | None
    nodes_explored: int


class _Budget(Exception):
    pass


def feasible_at(g: Graph, t: int, budget: int = DEFAULT_BUDGET) -> FeasibilityResult:
    """Decide whether some numbering of g has strength <= t.

    "infeasible" means the search space was exhausted, a completed proof;
    "budget" means neither answer was reached within ``budget`` assignments.
    """
    if g.edge_count == 0:
        raise ValueError("feasibility is about edge sums; graph has no edges")
    p = g.n
    labels = [0] * p
    caps = [p] * p  # max label each vertex may still take
    unlabeled = g.full_mask
    nodes = 0

    roots = [min(orbit) for orbit in automorphism_orbits(g)]

    def candidates(level: int) -> list[int]:
        if level == p:
            pool = roots
        else:
            pool = list(_bits(unlabeled))
        avail = max(0, min(level - 1, t - level))
        good = []
        for v in pool:
            if caps[v] < level:
                continue
            pending = (g.adj[v] & unlabeled).bit_count()
            if pending > avail:
                continue
            good.append(v)
        good.sort(key=lambda v: (g.adj[v].bit_count(), v))
        return good

    def hall_violated() -> bool:
        pend = sorted(caps[v] for v in _bits(unlabeled))
        return any(c < i + 1 for i, c in enumerate(pend))

    def place(level: int) -> bool:
        nonlocal unlabeled, nodes
        if level == 0:
            return True
        for v in candidates(level):
            nodes += 1
            if nodes > budget:
                raise _Budget
            labels[v] = level
            unlabeled ^= 1 << v
            touched = []
            for w in _bits(g.adj[v] & unlabeled):
                if caps[w] > t - level:
                    touched.append((w, caps[w]))
                    caps[w] = t - level
            if not hall_violated() and place(level - 1):
                return True
            for w, old in touched:
                caps[w] = old
            unlabeled ^= 1 << v
            labels[v] = 0
        return False

    try:
        found = place(p)
    except _Budget:
        return FeasibilityResult("budget", None, nodes)
    if found:
        return FeasibilityResult("feasible", Numbering(tuple(labels)), nodes)
    return FeasibilityResult("infeasible", None, nodes)


@dataclass(frozen=True)
class OracleResult:
    status: str  # "exact" | "bracket"
    lower: int
    upper: int
    witness: Numbering | None
    nodes_explored: int

    @property
    def value(self) -> int:
        if self.status != "exact":
            raise ValueError(f"no exact value; bracket is [{self.lower}, {self.upper}]")
        return self.upper

    def to_certificate(self) -> StrengthCertificate:
        if self.status != "exact" or self.witness is None:
            raise ValueError("only exact oracle results convert to certificates")
        return StrengthCertificate(
            lower=LowerBound("search", self.value),
            upper=self.value,
            witness=self.witness,
            notes=("exhaustive threshold search",),
        )


def exact_strength(
    g: Graph, budget: int = DEFAULT_BUDGET, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> OracleResult:
    """Exact strength by scanning thresholds upward from the floor p'+1.

    Isolated vertices are split off first (they never affect edge sums) and
    re-attached to the witness afterwards; p' is the non-isolated count.  The
    scan starts at the unconditional floor p'+1 - the vertex labeled p' has a
    neighbor, forcing some edge sum to at least p'+1 - so the first feasible
    threshold is exact, every smaller one having been refuted exhaustively.
    On budget exhaustion the result is the honest bracket
    [first unrefuted threshold, 2p'-1].
    """
    if g.edge_count == 0:
        raise ValueError("strength is undefined for graphs with no edges")
    core, _ = g.induced([v for v in range(g.n) if g.adj[v]])
    if core.n > vertex_cap:
        raise ValueError(
            f"{core.n} non-isolated vertices exceeds the exact-solver cap "
            f"{vertex_cap}; raise vertex_cap only if you can wait"
        )
    total = 0
    for t in range(core.n + 1, 2 * core.n):
        res = feasible_at(core, t, budget - total)
        total += res.nodes_explored
        if res.status == "feasible":
            witness = extend_over_isolated(g, res.witness)
            return OracleResult("exact", t, t, witness, total)
        if res.status == "budget":
            return OracleResult("bracket", t, 2 * core.n - 1, None, total)
    raise AssertionError("threshold 2p-1 is always feasible")  # pragma: no cover


def _search_bound(g: Graph, args: tuple) -> int:
    budget = recompute_arg(args, DEFAULT_BUDGET, "search budget")
    res = exact_strength(g, budget=budget)
    if res.status != "exact":
        raise UnconfirmedBound(f"budget {budget} exhausted at [{res.lower}, {res.upper}]")
    return res.value


register_lower_bound("search", _search_bound)
