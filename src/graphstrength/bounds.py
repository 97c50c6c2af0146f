"""Lower and upper bounds on graph strength, gathered into one report.

Every lower bound here is a statement about all numberings, recomputable
from scratch:

* p + delta: the vertex labeled p has at least delta neighbors carrying
  distinct labels, the largest >= delta, so some edge sums to >= p + delta.
* max degree + 2: among a max-degree vertex v and its Delta neighbors, the
  largest of their Delta + 1 distinct labels is >= Delta + 1 and sits on an
  edge of that star, whose other end carries >= 1.
* p + edge connectivity: valid on its own, though kappa' <= delta always
  (cutting a min-degree vertex free), so p + delta dominates it; kept
  because it is part of the certified-bounds contract.
* independence: the alpha + 1 vertices with the top labels cannot all be
  pairwise non-adjacent, and the two smallest of those labels sum to
  2p - 2*alpha + 1.  alpha must be exact - a greedy independent set
  underestimates alpha and would overstate this bound, so it never feeds it.
* xi: the i top-labeled vertices S have at least x_i = min |N(S)\\S|
  outside neighbors; the largest outside label is >= x_i and is adjacent to
  a label >= p - i + 1, hence str >= p + max_i (x_i - i + 1).

Bounds are computed on the graph minus its isolated vertices (strength
ignores them), and each is registered by name so certificates referencing
it can be re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import Pool

from .graphs import Graph, _bits, hypercube
from .labeling import UnconfirmedBound, recompute_arg, register_lower_bound

DEFAULT_ALPHA_CAP = 40
DEFAULT_XI_BUDGET = 2_000_000
DEFAULT_XI_I_MAX = 4


def _core(g: Graph) -> Graph:
    """g minus isolated vertices (they never touch an edge sum)."""
    return g.induced([v for v in range(g.n) if g.adj[v]])[0]


# -- independence -------------------------------------------------------------


def independence_number(g: Graph, cap: int = DEFAULT_ALPHA_CAP) -> tuple[int, frozenset[int]]:
    """Exact maximum independent set size and one witness, by branch and bound.

    The upper bound at each node is a greedy clique cover (alpha cannot
    exceed the number of cliques needed to cover the remaining vertices).
    Deliberately capped: default 40 vertices.
    """
    if g.n > cap:
        raise ValueError(f"{g.n} vertices exceeds the independence cap {cap}")
    adj = g.adj
    best_size = 0
    best_set = 0

    def cover_bound(mask: int) -> int:
        count = 0
        mm = mask
        while mm:
            v = (mm & -mm).bit_length() - 1
            clique = 1 << v
            cand = adj[v] & mm
            while cand:
                u = (cand & -cand).bit_length() - 1
                clique |= 1 << u
                cand &= adj[u]
            mm &= ~clique
            count += 1
        return count

    def rec(mask: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_set
        if size + cover_bound(mask) <= best_size:
            return
        if not mask:
            if size > best_size:
                best_size, best_set = size, chosen
            return
        pick, pick_deg = -1, -1
        for v in _bits(mask):
            d = (adj[v] & mask).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        rec(mask & ~(adj[pick] | 1 << pick), chosen | 1 << pick, size + 1)
        rec(mask & ~(1 << pick), chosen, size)

    rec(g.full_mask, 0, 0)
    return best_size, frozenset(_bits(best_set))


def independence_lower_bound_str(g: Graph, cap: int = DEFAULT_ALPHA_CAP) -> int:
    """2p - 2*alpha(G) + 1, with alpha computed exactly."""
    if g.edge_count == 0:
        raise ValueError("bound needs at least one edge")
    alpha, _ = independence_number(g, cap)
    return 2 * g.n - 2 * alpha + 1


# -- neighborhood expansion profile ------------------------------------------


@dataclass(frozen=True)
class XiProfile:
    """x[i-1] = min |N(S)\\S| over |S| = i, for i = 1..i_max, with witnesses.

    ``complete[i-1]`` tells whether the enumeration for that i finished
    within budget; incomplete entries are upper estimates of the true
    minimum and are excluded from xi (using them could overstate a lower
    bound).
    """

    i_max: int
    x: tuple[int, ...]
    witnesses: tuple[tuple[int, ...], ...]
    complete: tuple[bool, ...]

    @property
    def xi(self) -> int:
        vals = [
            self.x[i - 1] - i + 1
            for i in range(1, self.i_max + 1)
            if self.complete[i - 1]
        ]
        if not vals:
            raise UnconfirmedBound("no completed profile entries")
        return max(vals)


def _xi_scan(
    adj: tuple[int, ...], n: int, i: int, firsts: list[int], budget: int
) -> tuple[int, int, bool, int]:
    """Min exterior over sets of size i whose minimum element is in ``firsts``.

    Returns (min_value, witness_mask, complete, nodes).  Enumerates by
    increasing minimum element; each added vertex can shrink the exterior by
    at most one (only by joining S itself), giving the pruning bound
    |N(S')\\S'| - (i - |S'|).
    """
    best = n + 1
    best_set = 0
    nodes = 0
    complete = True

    def rec(smask: int, ext: int, size: int, lowest_next: int) -> bool:
        nonlocal best, best_set, nodes
        nodes += 1
        if nodes > budget:
            return False
        extn = ext.bit_count()
        if extn - (i - size) >= best:
            return True
        if size == i:
            if extn < best:
                best, best_set = extn, smask
            return True
        for v in range(lowest_next, n - (i - size) + 1):
            ns = smask | 1 << v
            ne = (ext | adj[v]) & ~ns
            if not rec(ns, ne, size + 1, v + 1):
                return False
        return True

    for v in firsts:
        if not rec(1 << v, adj[v] & ~(1 << v), 1, v + 1):
            complete = False
            break
    return best, best_set, complete, nodes


def xi_profile(
    g: Graph,
    i_max: int = DEFAULT_XI_I_MAX,
    budget: int = DEFAULT_XI_BUDGET,
    jobs: int = 1,
) -> XiProfile:
    """Exhaustive neighborhood-expansion profile up to set size i_max.

    ``jobs`` > 1 splits each size's enumeration by the minimum element of S
    across processes (a disjoint partition, so results are identical to the
    serial run; each worker gets an equal share of the budget).
    """
    if g.n == 0:
        raise ValueError("empty graph")
    i_max = min(i_max, g.n - 1) if g.n > 1 else 1
    xs: list[int] = []
    wits: list[tuple[int, ...]] = []
    comps: list[bool] = []
    for i in range(1, i_max + 1):
        firsts = list(range(g.n - i + 1))
        if jobs > 1 and len(firsts) > 1:
            chunks = [firsts[k::jobs] for k in range(jobs)]
            chunks = [c for c in chunks if c]
            share = max(1, budget // len(chunks))
            with Pool(min(jobs, len(chunks))) as pool:
                parts = pool.starmap(
                    _xi_scan, [(g.adj, g.n, i, c, share) for c in chunks]
                )
            best, best_set, _, _ = min(parts, key=lambda r: (r[0], r[1]))
            complete = all(p[2] for p in parts)
        else:
            best, best_set, complete, _ = _xi_scan(g.adj, g.n, i, firsts, budget)
        xs.append(best)
        wits.append(tuple(_bits(best_set)))
        comps.append(complete)
    return XiProfile(i_max, tuple(xs), tuple(wits), tuple(comps))


# -- hypercubes ---------------------------------------------------------------

_SMALL_CUBE_LOWER = {2: 6, 3: 11, 4: 21}


def hypercube_lower_bound(n: int) -> int:
    """Best known lower bound for the strength of the n-cube (n >= 2)."""
    if n < 2:
        raise ValueError("defined for n >= 2")
    if n in _SMALL_CUBE_LOWER:
        return _SMALL_CUBE_LOWER[n]
    if n <= 9:
        return 2**n + 4 * n - 12
    if n % 2 == 0:
        m = n // 2
        return 2**n + m * m + 4
    m = (n + 1) // 2
    return 2**n + m * m - m + 4


def hypercube_upper_bound(n: int) -> int:
    """5 * 2^(n-2) + 1, from repeatedly doubling a numbering of the square."""
    if n < 2:
        raise ValueError("defined for n >= 2")
    return 5 * 2 ** (n - 2) + 1


def recognize_hypercube(g: Graph) -> tuple[int, list[int]] | None:
    """If g is isomorphic to a hypercube, return (n, coordinate word per vertex).

    Words are grown layer by layer from vertex 0 (a vertex's word is the OR
    of its earlier neighbors' words) and then the relabeled graph is compared
    to the reference cube, so a false positive cannot slip through.
    """
    if g.n == 0 or g.n & (g.n - 1):
        return None
    n = g.n.bit_length() - 1
    if not g.is_regular(n):
        return None
    if n == 0:
        return 0, [0]
    words = [-1] * g.n
    words[0] = 0
    for idx, v in enumerate(g.neighbors(0)):
        words[v] = 1 << idx
    order = [0] + list(g.neighbors(0))
    seen = set(order)
    for v in order:
        for w in _bits(g.adj[v]):
            if w in seen:
                continue
            lower = [u for u in _bits(g.adj[w]) if words[u] != -1]
            if len(lower) < 2:
                continue
            acc = 0
            for u in lower:
                acc |= words[u]
            words[w] = acc
            seen.add(w)
            order.append(w)
    if sorted(words) != list(range(g.n)):
        return None
    if g.relabeled(words) != hypercube(n):
        return None
    return n, words


# -- edge connectivity --------------------------------------------------------


def edge_connectivity(g: Graph) -> int:
    """Minimum number of edges whose removal disconnects g (0 if already so).

    Max-flow with unit capacities from vertex 0 to every other vertex,
    shortest augmenting paths.
    """
    if g.n <= 1:
        return 0
    if not g.is_connected():
        return 0
    best = g.n  # above any possible cut
    for target in range(1, g.n):
        cap = {}
        for u, v in g.edges():
            cap[u, v] = cap[v, u] = 1
        flow = 0
        while True:
            parent = {0: -1}
            queue = [0]
            while queue and target not in parent:
                u = queue.pop(0)
                for w in _bits(g.adj[u]):
                    if w not in parent and cap[u, w] > 0:
                        parent[w] = u
                        queue.append(w)
            if target not in parent:
                break
            v = target
            while v != 0:
                u = parent[v]
                cap[u, v] -= 1
                cap[v, u] += 1
                v = u
            flow += 1
            if flow >= best:
                break
        best = min(best, flow)
    return best


# -- recognizers over strength formulas ---------------------------------------


def two_regular_cycle_lengths(g: Graph) -> list[int] | None:
    """Sorted cycle lengths if every component of g is a cycle, else None."""
    if g.n == 0 or not g.is_regular(2):
        return None
    return sorted(len(c) for c in g.components())


def two_regular_strength(lengths: list[int]) -> int:
    """max(p + 2, p + 1 + k) where k counts odd cycles."""
    p = sum(lengths)
    k = sum(1 for c in lengths if c % 2)
    return max(p + 2, p + 1 + k)


# -- the report ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundEntry:
    name: str
    side: str  # "lower" | "upper"
    value: int
    detail: str
    args: tuple = ()


@dataclass(frozen=True)
class BoundsReport:
    p: int
    core_p: int
    entries: tuple[BoundEntry, ...]
    notes: tuple[str, ...]

    @property
    def best_lower(self) -> int:
        return max(e.value for e in self.entries if e.side == "lower")

    @property
    def best_upper(self) -> int:
        return min(e.value for e in self.entries if e.side == "upper")

    @property
    def exact(self) -> bool:
        return self.best_lower == self.best_upper

    def render(self) -> str:
        lines = [f"graph: p={self.p}" + (f" (core p={self.core_p})" if self.core_p != self.p else "")]
        for e in sorted(self.entries, key=lambda e: (e.side != "lower", -e.value if e.side == "lower" else e.value)):
            lines.append(f"  {e.side:5}  {e.value:6}  {e.name:22} {e.detail}")
        lines.append(f"  strength in [{self.best_lower}, {self.best_upper}]"
                     + ("  (exact)" if self.exact else ""))
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


def bounds_report(
    g: Graph,
    alpha_cap: int = DEFAULT_ALPHA_CAP,
    xi_i_max: int = DEFAULT_XI_I_MAX,
    xi_budget: int = DEFAULT_XI_BUDGET,
    jobs: int = 1,
) -> BoundsReport:
    """Every applicable bound on strength(g), each one recomputable by name."""
    if g.edge_count == 0:
        raise ValueError("strength is undefined for graphs with no edges")
    core = _core(g)
    p = core.n
    notes = []
    if core.n != g.n:
        notes.append(
            f"{g.n - core.n} isolated vertices ignored (they take the top labels)"
        )
    entries = [
        BoundEntry("p+delta", "lower", p + core.min_degree(), f"minimum degree {core.min_degree()}"),
        BoundEntry("maxdeg+2", "lower", core.max_degree() + 2, f"maximum degree {core.max_degree()}"),
        BoundEntry("2p-1", "upper", 2 * p - 1, "no edge sum can exceed p + (p-1)"),
    ]
    kappa = edge_connectivity(core)
    entries.append(
        BoundEntry("p+edge-connectivity", "lower", p + kappa, f"edge connectivity {kappa}")
    )
    if p <= alpha_cap:
        alpha, _ = independence_number(core, alpha_cap)
        entries.append(
            BoundEntry("independence", "lower", 2 * p - 2 * alpha + 1, f"independence number {alpha}")
        )
    else:
        notes.append(f"independence bound skipped: p > {alpha_cap}")
    if xi_i_max >= 1:
        prof = xi_profile(core, xi_i_max, xi_budget, jobs)
        try:
            entries.append(
                BoundEntry(
                    "xi",
                    "lower",
                    p + prof.xi,
                    f"expansion profile {list(prof.x)} (sizes 1..{prof.i_max})",
                    args=(prof.i_max,),
                )
            )
        except UnconfirmedBound:
            notes.append("expansion profile incomplete within budget; skipped")
    cube = recognize_hypercube(core)
    if cube is not None and cube[0] >= 2:
        n = cube[0]
        entries.append(
            BoundEntry("hypercube", "lower", hypercube_lower_bound(n), f"this is the {n}-cube")
        )
        entries.append(
            BoundEntry(
                "hypercube-doubling", "upper", hypercube_upper_bound(n),
                "iterated doubling of a numbering of the square",
            )
        )
        notes.append(f"recognized: hypercube of dimension {n}")
    lengths = two_regular_cycle_lengths(core)
    if lengths is not None:
        val = two_regular_strength(lengths)
        k = sum(1 for c in lengths if c % 2)
        entries.append(
            BoundEntry("two-regular", "lower", val, f"{len(lengths)} cycles, {k} odd")
        )
        entries.append(
            BoundEntry("two-regular-construction", "upper", val, "interleaved block numbering")
        )
        notes.append(f"recognized: disjoint cycles {lengths}")
    if core.is_forest():
        entries.append(
            BoundEntry("forest-construction", "upper", p + 1, "pendant peeling numbering")
        )
        notes.append("recognized: forest")
    return BoundsReport(g.n, p, tuple(entries), tuple(notes))


# -- registry hook-up ---------------------------------------------------------


def _reg_p_delta(g: Graph, args: tuple) -> int:
    core = _core(g)
    return core.n + core.min_degree()


def _reg_maxdeg(g: Graph, args: tuple) -> int:
    return _core(g).max_degree() + 2


def _reg_kappa(g: Graph, args: tuple) -> int:
    core = _core(g)
    return core.n + edge_connectivity(core)


def _reg_independence(g: Graph, args: tuple) -> int:
    cap = recompute_arg(args, DEFAULT_ALPHA_CAP, "independence cap")
    return independence_lower_bound_str(_core(g), cap=cap)


def _reg_xi(g: Graph, args: tuple) -> int:
    i_max = recompute_arg(args, DEFAULT_XI_I_MAX, "xi set size")
    core = _core(g)
    prof = xi_profile(core, i_max)
    return core.n + prof.xi


def _reg_hypercube(g: Graph, args: tuple) -> int:
    got = recognize_hypercube(_core(g))
    if got is None or got[0] < 2:
        raise ValueError("graph is not a hypercube of dimension >= 2")
    return hypercube_lower_bound(got[0])


def _reg_two_regular(g: Graph, args: tuple) -> int:
    lengths = two_regular_cycle_lengths(_core(g))
    if lengths is None:
        raise ValueError("graph is not a disjoint union of cycles")
    return two_regular_strength(lengths)


def _reg_trivial(g: Graph, args: tuple) -> int:
    core = _core(g)
    if core.n == 0:
        raise ValueError("no edges")
    return core.n + 1


register_lower_bound("p+delta", _reg_p_delta)
register_lower_bound("maxdeg+2", _reg_maxdeg)
register_lower_bound("p+edge-connectivity", _reg_kappa)
register_lower_bound("independence", _reg_independence)
register_lower_bound("xi", _reg_xi)
register_lower_bound("hypercube", _reg_hypercube)
register_lower_bound("two-regular", _reg_two_regular)
register_lower_bound("trivial", _reg_trivial)
