"""Small exact solver for graph strength, by threshold feasibility search.

strength(G) <= t iff the labels p, p-1, ..., 1 can be handed out so that no
edge's label sum exceeds t.  The solver assigns labels in descending order;
once any neighbor of v is labeled, v's own budget cap(v) = t - (that label)
is fixed for good, which makes two prunes cheap and sound:

* a vertex can host the current label l only if its unlabeled neighbors fit
  under t - l, and
* the unlabeled caps, sorted, must dominate 1, 2, 3, ... (a Hall-style
  counting argument on nested label intervals).

Exactness comes from the scan's start and completed refutations: the scan
starts at max(p + delta, 2p - 2*alpha + 1), two lower bounds, and every
threshold from there up to the first feasible one is refuted exhaustively.
Feasibility is monotone in t, so verify confirms a claimed strength s with
a witness by p + delta reaching s or by one refutation at s - 1.

Automorphism orbits and vertex transitivity (the xi scan's reduction) are
never read off refinement classes: two vertices are merged only when a
complete individualization-refinement search (McKay & Piperno, "Practical
graph isomorphism II", 2014) finds an automorphism mapping one to the
other, checked edge by edge before it is used.  Its color refinement runs
from a queue of splitter cells with Hopcroft's rule, so refining after one
vertex is individualized costs time near the new cell's neighborhood
rather than a recount of every vertex.

This is exponential, and only its node budget bounds it: its job is to
anchor the theory-backed bounds and constructions, not to scale.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import networkx as nx

from .graphs import Graph, _bits
from .labeling import (
    BudgetExhausted,
    LowerBound,
    Numbering,
    StrengthCertificate,
    UnconfirmedBound,
    extend_over_isolated,
    register_lower_bound,
)

DEFAULT_BUDGET = 2_000_000
# Refinements ``is_vertex_transitive`` may run per vertex before it gives up.
TRANSITIVITY_REFINES_PER_VERTEX = 2


def to_networkx(g: Graph) -> "nx.Graph":
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _neighbor_lists(g: Graph) -> list[list[int]]:
    return [list(_bits(a)) for a in g.adj]


def _refine(
    g: Graph,
    colorings: list[list[int]],
    splitters: Iterable[int],
    nbrs: list[list[int]] | None = None,
) -> list[list[int]] | None:
    """Refine colorings together to equitable ones, or None if they part.

    Cells are numbered alike on every side and kept as vertex lists, with a
    queue of splitter cells.  A splitter W counts |N(v) & W| only for the
    neighbors v of W; each cell W touches splits by that count, fragments
    in increasing count, the first keeping the cell's number and the rest
    taking new ones.  A cell already queued queues all its fragments;
    otherwise all but its first largest one are queued (Hopcroft's rule:
    counts against the one left out follow from the counts against the cell
    and the others).  Returns None as soon as the sides differ in the cells
    a splitter touches, the counts or the fragment sizes: no
    color-preserving isomorphism can map one onto the other.  Once every
    cell is a singleton the queue is dropped: all it could still show is
    that a side's vertex map onto the first side is no automorphism, and
    that is checked directly.

    Colors are cell numbers (a number no vertex has is an empty cell) and
    only ``splitters`` are queued, which is enough when the rest of the
    coloring is already equitable, for instance after one vertex of an
    equitable coloring moved into a new cell of its own; queueing every
    cell refines any coloring.  ``nbrs`` are the neighbor lists, built here
    when not given.
    """
    if nbrs is None:
        nbrs = _neighbor_lists(g)
    colorings = [list(cs) for cs in colorings]
    k = 1 + max(map(max, colorings))
    sides = []
    for cs in colorings:
        cells: list[list[int]] = [[] for _ in range(k)]
        for v, c in enumerate(cs):
            cells[c].append(v)
        sides.append((cs, cells))
    if any([len(c) for c in cells] != [len(c) for c in sides[0][1]] for _, cells in sides[1:]):
        return None
    queue = deque(splitters)
    queued = [False] * k
    for w in queue:
        queued[w] = True
    discrete = g.n + k - len(set(colorings[0]))  # k once every vertex is alone
    while queue and k < discrete:
        w = queue.popleft()
        queued[w] = False
        splits = []
        for cs, cells in sides:
            groups: dict[tuple[int, int], list[int]] = {}
            for v, m in Counter(chain.from_iterable(map(nbrs.__getitem__, cells[w]))).items():
                groups.setdefault((cs[v], m), []).append(v)
            splits.append(groups)
        first, cells0 = splits[0], sides[0][1]
        if len(splits) > 1:
            shape = {key: len(vs) for key, vs in first.items()}
            if any({key: len(vs) for key, vs in groups.items()} != shape for groups in splits[1:]):
                return None
        parts: dict[int, list[int]] = {}  # the counts in each cell that splits
        for (c, m), vs in first.items():
            if len(vs) < len(cells0[c]):
                parts.setdefault(c, []).append(m)
        for c in sorted(parts):
            counts = sorted(parts[c])
            sizes = [len(first[c, m]) for m in counts]
            untouched = len(cells0[c]) - sum(sizes)
            if untouched:
                sizes.insert(0, untouched)
            moved = counts if untouched else counts[1:]
            for (cs, cells), groups in zip(sides, splits):
                for f, m in enumerate(moved, start=k):
                    for v in groups[c, m]:
                        cs[v] = f
                    cells.append(groups[c, m])
                cells[c] = [v for v in cells[c] if cs[v] == c]
            grow = [c, *range(k, k + len(moved))]
            k += len(moved)
            queued += [False] * len(moved)
            # c is queued already, or else one largest fragment stays out
            del grow[0 if queued[c] else sizes.index(max(sizes))]
            for f in grow:
                queued[f] = True
            queue.extend(grow)
    if k == discrete:
        for cs in colorings[1:]:
            where = [0] * k
            for v, c in enumerate(cs):
                where[c] = v
            if not _is_automorphism(g, [where[c] for c in colorings[0]]):
                return None
    return colorings


def _is_automorphism(g: Graph, sigma: list[int]) -> bool:
    if sorted(sigma) != list(range(g.n)):
        return False
    for a in range(g.n):
        image = 0
        for b in _bits(g.adj[a]):
            image |= 1 << sigma[b]
        if image != g.adj[sigma[a]]:
            return False
    return True


def _recolor(colors: list[int], w: int, color: int) -> list[int]:
    out = list(colors)
    out[w] = color
    return out


def _find_automorphism(
    g: Graph,
    colors: list[int],
    u: int,
    v: int,
    ticks: Iterator[int] | None = None,
    nbrs: list[list[int]] | None = None,
) -> list[int] | None:
    """An automorphism of g preserving ``colors`` and sending u to v, or None.

    Individualizes u in one copy of the coloring and v in the other, refines
    both together, and, while the coloring is not discrete, individualizes
    the first vertex x of the smallest non-singleton cell on the left
    against every vertex y of that color on the right, backtracking on
    failure.  Each refinement queues only the new singleton cell, which is
    enough because the coloring before it is equitable: ``colors`` should
    be (a ``_refine`` result, or one color on a regular graph), and if it
    is not, the search prunes less but stays complete.  Any automorphism
    extending the choices so far maps x into that cell, so None is the
    outcome of a completed search.  A discrete coloring induces a map that
    is returned only once it is checked edge by edge.  With ``ticks``, each
    refinement takes one item; none left raises BudgetExhausted.  ``nbrs``
    are the neighbor lists, built here when not given.
    """
    if nbrs is None:
        nbrs = _neighbor_lists(g)

    def extend(left: list[int], right: list[int], x: int, y: int) -> list[int] | None:
        if ticks is not None and next(ticks, None) is None:
            raise BudgetExhausted
        fresh = max(left) + 1
        pair = _refine(g, [_recolor(left, x, fresh), _recolor(right, y, fresh)], [fresh], nbrs)
        if pair is None:
            return None
        left, right = pair
        cells: dict[int, list[int]] = {}
        for w in range(g.n):
            cells.setdefault(left[w], []).append(w)
        if len(cells) == g.n:
            where = {c: w for w, c in enumerate(right)}
            sigma = [where[left[w]] for w in range(g.n)]
            return sigma if _is_automorphism(g, sigma) else None
        color = min((c for c in cells if len(cells[c]) > 1), key=lambda c: (len(cells[c]), c))
        x = cells[color][0]
        for y in range(g.n):
            if right[y] == color:
                sigma = extend(left, right, x, y)
                if sigma is not None:
                    return sigma
        return None

    return extend(colors, colors, u, v)


def _find(parent: list[int], w: int) -> int:
    """Root of w in a union-find whose roots are the least of their sets."""
    while parent[w] != w:
        parent[w] = parent[parent[w]]
        w = parent[w]
    return w


def _merge(parent: list[int], sigma: list[int]) -> None:
    """Merge every pair (w, sigma(w)) of an automorphism in the union-find."""
    for w, image in enumerate(sigma):
        a, b = _find(parent, w), _find(parent, image)
        parent[max(a, b)] = min(a, b)


def automorphism_orbits(g: Graph) -> list[tuple[int, ...]]:
    """True vertex orbits under Aut(g), as sorted tuples in sorted order.

    Color refinement only over-approximates orbits, so each refinement class
    is split by searching, for each vertex, an automorphism onto a
    representative of every orbit found so far in its class.  Every
    automorphism found merges all pairs (w, sigma(w)) in a union-find, which
    settles most later pairs without a search.  Refinement starts from one
    cell, which splits by degree first.  Intended for small graphs.
    """
    if g.n == 0:
        return []
    nbrs = _neighbor_lists(g)
    base = _refine(g, [[0] * g.n], [0], nbrs)[0]
    parent = list(range(g.n))
    by_class: dict[int, list[int]] = {}
    for v in range(g.n):
        by_class.setdefault(base[v], []).append(v)
    for cls in by_class.values():
        reps = [cls[0]]
        for v in cls[1:]:
            if any(_find(parent, r) == _find(parent, v) for r in reps):
                continue
            for r in reps:
                sigma = _find_automorphism(g, base, r, v, nbrs=nbrs)
                if sigma is not None:
                    _merge(parent, sigma)
                    break
            else:
                reps.append(v)
    orbits: dict[int, list[int]] = {}
    for v in range(g.n):
        orbits.setdefault(_find(parent, v), []).append(v)
    return sorted(tuple(o) for o in orbits.values())


def is_vertex_transitive(g: Graph) -> bool:
    """True only when Aut(g) is proven to map vertex 0 onto every vertex.

    g must be regular (one refinement class), and its components must all
    have the same size: an automorphism maps the component of 0 onto a
    component of the same size, so a union such as C5 + C6 is rejected
    without a search.  Each v not yet merged with 0, walking down from
    n - 1, then needs an automorphism 0 -> v from ``_find_automorphism``,
    whose pairs are then merged.  Walking down, the first map of K_n or
    K_{n,n} is one cycle through every vertex, so one search proves them.
    The proof gives up (False: not proven) at the first v without one,
    after ``TRANSITIVITY_REFINES_PER_VERTEX * n`` refinements, or when the
    search, one call deep per individualized vertex, reaches the recursion
    limit.
    """
    if not g.is_regular() or len({len(c) for c in g.components()}) > 1:
        return False
    ticks = iter(range(TRANSITIVITY_REFINES_PER_VERTEX * g.n))
    nbrs = _neighbor_lists(g)
    parent = list(range(g.n))
    try:
        for v in range(g.n - 1, 0, -1):
            if _find(parent, v) != 0:
                sigma = _find_automorphism(g, [0] * g.n, 0, v, ticks, nbrs)
                if sigma is None:
                    return False
                _merge(parent, sigma)
    except (BudgetExhausted, RecursionError):
        return False
    return True


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # "feasible" | "infeasible" | "budget"
    witness: Numbering | None
    nodes_explored: int


def feasible_at(g: Graph, t: int, budget: int = DEFAULT_BUDGET) -> FeasibilityResult:
    """Decide whether some numbering of g has strength <= t.

    "infeasible" means the search space was exhausted, a completed proof;
    "budget" means neither answer was reached within ``budget`` assignments,
    or the search, one call deep per label, reached the recursion limit.
    Every vertex is tried for label p, as for the other labels: one root per
    automorphism orbit saved too few nodes to pay for computing the orbits.

    Candidates for a label are taken in (degree, id) order: each level walks
    the free vertices of each degree class, pruned as they come up, so a
    level costs no pass over all p vertices.  A vertex's cap is t minus its
    largest labeled neighbor's label, so both prunes read ``reach[l]``, the
    neighbors of the vertices labeled l or more.  The Hall test after label
    l is placed needs one count, of the unlabeled vertices with cap at most
    t - l, which are the reached ones: the parent node passed the test, and
    no count below t - l can have grown since.
    """
    if g.edge_count == 0:
        raise ValueError("feasibility is about edge sums; graph has no edges")
    p = g.n
    adj = g.adj
    by_degree: dict[int, int] = {}
    for v, d in enumerate(g.degrees()):
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    classes = [by_degree[d] for d in sorted(by_degree)]
    labels = [0] * p
    reach = [0] * (p + 2)  # reach[p + 1] stays empty
    unlabeled = g.full_mask
    nodes = 0

    def place(level: int) -> bool:
        nonlocal unlabeled, nodes
        if level == 0:
            return True
        room = max(0, t - level)
        avail = min(level - 1, room)
        # cap >= level: no labeled neighbor (labels placed are > level) above t - level
        free = unlabeled & ~reach[min(p + 1, max(t - level + 1, level + 1))]
        for cls in classes:
            cands = free & cls
            while cands:
                low = cands & -cands
                cands ^= low
                v = low.bit_length() - 1
                if (adj[v] & unlabeled).bit_count() > avail:
                    continue
                nodes += 1
                if nodes > budget:
                    raise BudgetExhausted
                labels[v] = level
                unlabeled ^= low
                reach[level] = reach[level + 1] | adj[v]
                # Hall: the reached vertices left all have cap <= room, so at most room of them
                if (unlabeled & reach[level]).bit_count() <= room and place(level - 1):
                    return True
                unlabeled ^= low
                labels[v] = 0
        return False

    try:
        found = place(p)
    except (BudgetExhausted, RecursionError):
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


def _scan_start(core: Graph) -> int:
    """max(p + delta, 2p - 2*alpha + 1) on a core, two lower bounds; alpha
    must be exact, so the independence term is left out above its cap."""
    from .bounds import DEFAULT_ALPHA_CAP, independence_lower_bound_str  # bounds imports oracle

    start = core.n + core.min_degree()
    return max(start, independence_lower_bound_str(core)) if core.n <= DEFAULT_ALPHA_CAP else start


def exact_strength(g: Graph) -> OracleResult:
    """Exact strength by scanning thresholds upward from a lower bound.

    Isolated vertices are split off first (they never affect edge sums) and
    re-attached to the witness afterwards.  The scan starts at the core's
    ``_scan_start``, so the first feasible threshold is exact: every smaller
    one is below it or refuted exhaustively.  The scan spends at most
    ``DEFAULT_BUDGET`` nodes, read at call time, which is what ``verify``
    spends, so every refutation behind an exact result reruns there.  When
    a search stops on the budget or the recursion limit, the result is the
    honest bracket [first unrefuted threshold, 2p'-1], p' the non-isolated
    count.
    """
    if g.edge_count == 0:
        raise ValueError("strength is undefined for graphs with no edges")
    core, _ = g.core()
    total = 0
    for t in range(_scan_start(core), 2 * core.n):
        res = feasible_at(core, t, DEFAULT_BUDGET - total)
        total += res.nodes_explored
        if res.status == "feasible":
            witness = extend_over_isolated(g, res.witness)
            return OracleResult("exact", t, t, witness, total)
        if res.status == "budget":
            return OracleResult("bracket", t, 2 * core.n - 1, None, total)
    raise AssertionError("threshold 2p-1 is always feasible")  # pragma: no cover


def stop_reason(res: FeasibilityResult | OracleResult) -> str:
    """Why a search ended in "budget": past ``DEFAULT_BUDGET`` nodes, read
    at call time, or stopped within it by the recursion limit."""
    spent = "budget exhausted" if res.nodes_explored > DEFAULT_BUDGET else "search stopped"
    return f"{spent} after {res.nodes_explored} nodes"


def _search_bound(core: Graph, upper: int | None) -> int:
    """The strength of the core, within ``DEFAULT_BUDGET`` nodes, read at
    call time.  With ``upper``, a witness strength, it is upper when p +
    delta reaches it, when upper - 1 is refuted (feasibility is monotone in
    t) or, should that refutation spend its budget, when ``_scan_start``,
    the costlier lower bound, reaches upper.  So every exact
    ``exact_strength`` result verifies: it refuted upper - 1 with no more
    nodes, or upper is its scan start.  Otherwise, or when upper - 1 is
    feasible, the full scan gives it."""
    if upper is not None and core.edge_count:
        if core.n + core.min_degree() >= upper:
            return upper
        res = feasible_at(core, upper - 1, DEFAULT_BUDGET)
        if res.status == "infeasible" or res.status == "budget" and _scan_start(core) >= upper:
            return upper
        if res.status == "budget":
            raise UnconfirmedBound(f"{stop_reason(res)} refuting threshold {upper - 1}")
    res = exact_strength(core)
    if res.status != "exact":
        raise UnconfirmedBound(f"{stop_reason(res)} at [{res.lower}, {res.upper}]")
    return res.value


register_lower_bound("search", _search_bound)
