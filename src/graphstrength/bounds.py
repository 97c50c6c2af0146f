"""Lower and upper bounds on graph strength, gathered into one report.

Every lower bound here is a statement about all numberings, recomputable
from scratch:

* p + delta: the vertex labeled p has at least delta neighbors carrying
  distinct labels, the largest >= delta, so some edge sums to >= p + delta.
  On the core it dominates p + 1 and max degree + 2 (Delta + 2 <= p + 1 <=
  p + delta), which are therefore not kept.
* p + edge connectivity: valid on its own, though kappa' <= delta always
  (cutting a min-degree vertex free), so p + delta dominates it; kept
  because it is part of the certified-bounds contract.  kappa' takes
  max-flows only along a dominating set D, from its first i vertices,
  contracted into one source, to the next one (Matula's lemma: a cut
  below delta leaves a vertex of D on each side).  Each augmenting path
  is grown back from the target, which no source dominates, so a search
  stays within a few levels of it.  The report runs no flow on a
  connected core that the xi scan proved vertex-transitive, a recognized
  hypercube first: there kappa' is the degree (W. Mader, Math. Ann. 191
  (1971) 21-28).  Nor on a core of diameter at most 2, read off the xi
  scan's hit table: there kappa' is delta (J. Plesnik, Acta Fac. Rerum
  Natur. Univ. Comenian. Math. 30 (1975) 71-93).
* independence: the alpha + 1 vertices with the top labels cannot all be
  pairwise non-adjacent, and the two smallest of those labels sum to
  2p - 2*alpha + 1.  alpha must be exact - a greedy independent set
  underestimates alpha and would overstate this bound, so it never feeds it.
* xi: the i top-labeled vertices S have at least x_i = min |N(S)\\S|
  outside neighbors; the largest outside label is >= x_i and is adjacent to
  a label >= p - i + 1, hence str >= p + max_i (x_i - i + 1).  On a graph
  proven vertex-transitive the scan for x_i only needs the sets containing
  vertex 0: an automorphism maps every i-set onto one of them.  The scan
  skips a set S + v that the bound rules out on S's exterior and v's hits
  alone.  S + v has exterior |N(S)\\S| - [v in N(S)] + deg(v) - h(v),
  where the hits h(v) = |N(v) & N[S]| are the neighbours of v already in
  S or its exterior.  So a v outside N(S)\\S keeps all of N(S)\\S in the
  child's exterior, and a v with h hits adds at least delta - h to it.  A
  table of, per vertex s, the vertices with at least one, two and three
  neighbours in N[s] bounds h(v) from above, summed over S; a v at
  distance >= 3 from S has none.  A parent checks a child's own children
  the same way before calling into it, and counts the child's positions
  in bulk when none is left.  Every skipped set is one the plain
  enumeration's own prune rejects, and the scan still counts it as a node,
  so an xi node is every set position the plain enumeration visits,
  bulk-counted ones included, and node counts do not depend on the skips.

Bounds are computed on ``Graph.core()``, the graph minus its isolated
vertices (strength ignores them), and each is registered by name so
certificates referencing it can be re-verified.  The report and the
recomputation read the same limits, the ``DEFAULT_*`` constants below, and
a certificate cannot change them, so every entry the report emits
recomputes.  An xi scan size that spends its node budget is marked
incomplete and left out of xi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, _bits, hypercube
from .labeling import BudgetExhausted, UnconfirmedBound, register_lower_bound
from .oracle import is_vertex_transitive

DEFAULT_ALPHA_CAP = 40
DEFAULT_XI_BUDGET = 2_000_000
DEFAULT_XI_I_MAX = 4


# -- independence -------------------------------------------------------------


def independence_number(g: Graph) -> tuple[int, frozenset[int]]:
    """Exact maximum independent set size and one witness, by branch and bound.

    At each node every vertex with at most one neighbor left joins the set
    and that neighbor is dropped: some maximum independent set of what is
    left holds the vertex (swap it for its neighbor).  The upper bound is
    then a greedy clique cover (alpha cannot exceed the number of cliques
    needed to cover the remaining vertices), and the search branches on a
    vertex of largest remaining degree.  Graphs above ``DEFAULT_ALPHA_CAP``
    vertices are refused before the search.
    """
    if g.n > DEFAULT_ALPHA_CAP:
        raise ValueError(f"{g.n} vertices exceeds the independence cap {DEFAULT_ALPHA_CAP}")
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
        reduced = True
        while reduced:  # a pass's pick stands only if it took no vertex
            reduced, pick, pick_deg = False, -1, 1
            for v in _bits(mask):
                d = (adj[v] & mask).bit_count()
                if d > pick_deg:
                    pick, pick_deg = v, d
                elif d <= 1 and mask >> v & 1:
                    chosen |= 1 << v
                    size += 1
                    mask &= ~(adj[v] | 1 << v)
                    reduced = True
        if size + cover_bound(mask) <= best_size:
            return
        if not mask:
            if size > best_size:
                best_size, best_set = size, chosen
            return
        rec(mask & ~(adj[pick] | 1 << pick), chosen | 1 << pick, size + 1)
        rec(mask & ~(1 << pick), chosen, size)

    rec(g.full_mask, 0, 0)
    return best_size, frozenset(_bits(best_set))


def independence_lower_bound_str(g: Graph) -> int:
    """2p - 2*alpha(G) + 1, with alpha computed exactly."""
    if g.edge_count == 0:
        raise ValueError("bound needs at least one edge")
    alpha, _ = independence_number(g)
    return 2 * g.n - 2 * alpha + 1


# -- neighborhood expansion profile ------------------------------------------


@dataclass(frozen=True)
class XiProfile:
    """x[i-1] = min |N(S)\\S| over |S| = i, for i = 1..i_max, with witnesses.

    ``complete[i-1]`` tells whether the enumeration for that i finished
    within budget; incomplete entries are upper estimates of the true
    minimum and are excluded from xi (using them could overstate a lower
    bound).  ``transitive`` records that the graph was proven
    vertex-transitive, so only the sets holding vertex 0 were scanned,
    ``cube`` the dimension n when the graph was recognized as Q_n, else
    None, and ``diameter_two`` that the graph has diameter at most 2 and no
    isolated vertex; none of the three takes part in equality.
    """

    i_max: int
    x: tuple[int, ...]
    witnesses: tuple[tuple[int, ...], ...]
    complete: tuple[bool, ...]
    transitive: bool = field(compare=False)
    cube: int | None = field(compare=False)
    diameter_two: bool = field(compare=False)

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


def _hit_table(adj: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """Three rows per vertex s: the vertices with at least one, at least two
    and at least three neighbours in N[s].

    The first row is N^2[s], the vertices within distance 2 of s, less s
    itself when s is isolated.  The second and third rows leave s out: s is
    never a child of a set that holds it.  One pass adds up the neighbour
    masks of s and of its neighbours, saturating at three.
    """
    one, two, three = [], [], []
    for s, a in enumerate(adj):
        hit1, hit2, hit3, rest = a, 0, 0, a
        while rest:
            low = rest & -rest
            b = adj[low.bit_length() - 1]
            hit3 |= hit2 & b
            hit2 |= hit1 & b
            hit1 |= b
            rest ^= low
        one.append(hit1)
        two.append(hit2 & ~(1 << s))
        three.append(hit3 & ~(1 << s))
    return one, two, three


def _xi_scan(
    adj: tuple[int, ...],
    n: int,
    i: int,
    firsts: int,
    budget: int,
    table: tuple[list[int], list[int], list[int]] | None = None,
) -> tuple[int, int, bool, int]:
    """Min exterior over sets of size i whose minimum element is < ``firsts``.

    ``firsts`` <= n - i + 1, as n - i is the largest minimum an i-set can
    have.  Returns (min_value, witness_mask, complete, nodes).  Enumerates
    by increasing minimum element; each added vertex can shrink the exterior
    by at most one (only by joining S itself), giving the pruning bound
    |N(S')\\S'| - (i - |S'|).  A parent applies it to each child in its own
    loop and recurses only into the children that survive.  The scan starts
    from the empty set, whose children are 0..firsts-1.

    Two rules count children without visiting them, with r the vertices
    still to add after the child v and ext = N(S)\\S.  The child's exterior
    is |ext| - [v in ext] + deg(v) - h(v), with h(v) = |N(v) & N[S]|.
    The exterior rule: h(v) <= deg(v), so once |ext| - r fails the pruning
    bound, only the children in ext are visited.  The hit rule: deg(v) >=
    delta, so v survives only if h(v) >= k - [v in ext], with k = |ext| - r
    + delta - best + 1.  h(v) is at most the sum over s in S of |N(v) &
    N[s]|, and ``table`` (``_hit_table``, built here when not given) holds
    per vertex the masks where that term is >= 1, >= 2 and >= 3, so a set
    carries the sum saturated at three; a child is visited only if that sum
    can reach k - [v in ext].  k = 1 leaves the children within distance 2
    of S, and k <= 0 all of them.  Both rules are applied again whenever the
    incumbent falls.  A parent applies them to a surviving child's own
    children before it calls into the child, and counts the child's
    positions in bulk, with no call, when none is left.  The empty set has
    no exterior and no hits, so at the first level every remaining first is
    counted in bulk once delta - (i - 1) fails the bound.  Each skipped
    child is one the pruning bound would reject, and ``nodes`` still counts
    every set position the plain enumeration visits, bulk-counted ones
    included and in the same order, so node counts do not depend on the
    skips and a budget runs out at the same set and leaves the same result.
    """
    one, two, three = _hit_table(adj) if table is None else table
    delta = min(map(int.bit_count, adj)) if adj else 0
    best = n + 1
    best_set = 0

    def allowed(ext: int, left: int, hit1: int, hit2: int, hit3: int) -> int:
        """The children of a set that the two rules leave to visit (-1: all
        of them), with ``left`` vertices still to add after the child."""
        # the least exterior of a child outside ext, less what the rest can shrink
        floor = ext.bit_count() - left
        k = floor + delta - best + 1  # hits a child outside ext needs; one in ext, k - 1
        if k <= 0:
            return -1
        # hit1 holds ext, each row holds the next, and the sums saturate at three
        hits = (hit1 if k == 1 else (ext | hit2) if k == 2
                else (ext & hit2) | hit3 if k == 3 else hit3)
        return hits & ext if floor >= best else hits

    def expand(smask: int, ext: int, hit1: int, hit2: int, hit3: int, left: int,
               base: int, end: int, cands: int) -> int:
        """Visit the allowed children ``cands`` of a surviving set, with
        ``left`` vertices to add after each, and return the nodes counted
        once its last child, end - 1, is passed."""
        nonlocal best, best_set
        before = best
        # the nodes counted once position v is visited: base + v + 1
        while cands:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            if base + v >= budget:
                raise BudgetExhausted
            ns = smask | low
            cext = (ext | adj[v]) & ~ns
            c = cext.bit_count()
            if c - left >= best:
                continue
            if left:
                o, t = one[v], two[v]
                chit1, chit2 = hit1 | o, hit2 | t | (hit1 & o)
                chit3 = hit3 | three[v] | (hit2 & o) | (hit1 & t)
                cend = n - left + 1
                ccands = ((1 << cend) - (2 << v)) & allowed(cext, left - 1, chit1, chit2, chit3)
                if ccands:
                    base = expand(ns, cext, chit1, chit2, chit3, left - 1, base, cend, ccands) - v - 1
                else:  # the child's positions, in bulk; the next budget test sees them
                    base += cend - v - 1
            else:
                best, best_set = c, ns
            if best < before:  # best fell: skip the children it rules out
                before = best
                cands &= allowed(ext, left, hit1, hit2, hit3)
        if base + end > budget:
            raise BudgetExhausted
        return base + end

    try:
        nodes = expand(0, 0, 0, 0, 0, i - 1, 0, firsts,
                       ((1 << firsts) - 1) & allowed(0, i - 1, 0, 0, 0))
    except BudgetExhausted:  # the plain enumeration stops at node budget + 1
        return best, best_set, False, budget + 1
    return best, best_set, True, nodes


def xi_profile(g: Graph) -> XiProfile:
    """Exhaustive neighborhood-expansion profile up to set size
    ``DEFAULT_XI_I_MAX`` (at most n - 1).

    Each size gets its own ``DEFAULT_XI_BUDGET`` scan nodes, read at call
    time.  On a graph proven vertex-transitive only the sets whose minimum
    is vertex 0 are scanned: the full scan visits those first and keeps its
    first minimum, so the result is the same wherever the full scan
    finishes.  A recognized hypercube is transitive (``recognize_hypercube``
    checks its isomorphism to Q_n edge by edge), so only other graphs run
    the refinement search's proof; its dimension is kept for the bounds
    report.  The hit table is built once, in one pass, and every scan size
    reads it; the graph has diameter at most 2 and no isolated vertex
    exactly when each of its first rows is the full mask.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    i_max = min(DEFAULT_XI_I_MAX, g.n - 1) if g.n > 1 else 1
    cube = recognize_hypercube(g)
    transitive = cube is not None or is_vertex_transitive(g)
    table = _hit_table(g.adj)
    xs: list[int] = []
    wits: list[tuple[int, ...]] = []
    comps: list[bool] = []
    for i in range(1, i_max + 1):
        firsts = 1 if transitive else g.n - i + 1
        best, best_set, complete, _ = _xi_scan(g.adj, g.n, i, firsts, DEFAULT_XI_BUDGET, table)
        xs.append(best)
        wits.append(tuple(_bits(best_set)))
        comps.append(complete)
    full = g.full_mask
    return XiProfile(i_max, tuple(xs), tuple(wits), tuple(comps), transitive,
                     None if cube is None else cube[0], all(row == full for row in table[0]))


# -- hypercubes ---------------------------------------------------------------

_SMALL_CUBE_LOWER = {2: 6, 3: 11, 4: 21}

# strength of the stored q5 and q6 table numberings (fixtures/), both below
# the doubling bound
HYPERCUBE_TABLE_UPPER = {5: 40, 6: 79}


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

    Matula's contracted-source flows (D. W. Matula, "Determining edge
    connectivity in O(nm)", FOCS 1987).  D = d_1, d_2, ... is a dominating
    set built greedily in vertex order, and D_i = {d_1, ..., d_i}.  Then
    kappa' = min(delta, min_i lambda(D_i, d_{i+1})), lambda being the
    maximum number of edge-disjoint paths from D_i, contracted into one
    source, to d_{i+1}:

    * every lambda(D_i, d_{i+1}) >= kappa', as a set of edges that
      separates D_i from d_{i+1} disconnects g;
    * if kappa' < delta, take a minimum cut.  A side of k <= delta vertices
      has at least k(delta - k + 1) >= delta edges leaving it, so each side
      has more than delta > kappa' vertices and holds one that no cut edge
      touches.  Its closed neighbourhood lies in that side and meets D, so
      both sides hold a vertex of D.  The first of D, in D's order, that
      lies on the side away from d_1 is some d_{i+1}, and the cut separates
      it from all of D_i, so lambda(D_i, d_{i+1}) <= kappa'.

    With |D| = 1 no flow runs and kappa' is delta.  Each flow is stopped at
    the least value so far.  The residual graph is bitmasks: ``fwd[u]``
    holds every w with a residual arc u->w, ``back[w]`` every such u.  An
    augmenting path is found by a BFS that grows back from the target over
    ``back`` and stops at the first level that meets D_i; t is not
    dominated by D_i, so that is a few levels from t.  The path is then
    read forward from a source in that level, one level at a time; it
    passes through no other source.  Only path vertices change their
    masks, and they are reset from a list after each target.
    """
    if g.n <= 1 or not g.is_connected():
        return 0
    adj = g.adj
    best = g.min_degree()
    dominating, covered = [], 0
    for v in range(g.n):
        if not covered >> v & 1:
            dominating.append(v)
            covered |= adj[v] | 1 << v
    fwd, back = list(adj), list(adj)
    sources = 0
    for source, target in zip(dominating, dominating[1:]):
        sources |= 1 << source
        touched = []
        flow = 0
        while flow < best:
            levels, seen = [1 << target], 1 << target
            while levels[-1] and not levels[-1] & sources:
                nxt = 0
                for v in _bits(levels[-1]):
                    nxt |= back[v]
                levels.append(nxt & ~seen)
                seen |= nxt
            if not levels[-1]:
                break
            hit = levels[-1] & sources
            u = (hit & -hit).bit_length() - 1
            touched.append(u)
            for level in reversed(levels[:-1]):
                arcs = level & fwd[u]
                v = (arcs & -arcs).bit_length() - 1
                if fwd[v] >> u & 1:  # no flow on v->u, so u->v fills
                    fwd[u] ^= 1 << v
                    back[v] ^= 1 << u
                else:  # cancel the flow on v->u
                    fwd[v] |= 1 << u
                    back[u] |= 1 << v
                touched.append(v)
                u = v
            flow += 1
        best = flow
        for v in touched:
            fwd[v] = back[v] = adj[v]
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


def bounds_report(g: Graph) -> BoundsReport:
    """Every applicable bound on strength(g), each one recomputable by name
    at the limits it was computed with, the ``DEFAULT_*`` constants."""
    if g.edge_count == 0:
        raise ValueError("strength is undefined for graphs with no edges")
    core, _ = g.core()
    p = core.n
    notes = []
    if core.n != g.n:
        notes.append(
            f"{g.n - core.n} isolated vertices ignored (they take the top labels)"
        )
    entries = [
        BoundEntry("p+delta", "lower", p + core.min_degree(), f"minimum degree {core.min_degree()}"),
        BoundEntry("2p-1", "upper", 2 * p - 1, "no edge sum can exceed p + (p-1)"),
    ]
    prof = xi_profile(core)  # its transitivity proof and hit table settle kappa' and the cube
    if prof.diameter_two or prof.transitive and core.is_connected():
        kappa = core.min_degree()
    else:
        kappa = edge_connectivity(core)
    entries.append(
        BoundEntry("p+edge-connectivity", "lower", p + kappa, f"edge connectivity {kappa}")
    )
    if p <= DEFAULT_ALPHA_CAP:
        alpha, _ = independence_number(core)
        entries.append(
            BoundEntry("independence", "lower", 2 * p - 2 * alpha + 1, f"independence number {alpha}")
        )
    else:
        notes.append(f"independence bound skipped: p > {DEFAULT_ALPHA_CAP}")
    if any(prof.complete):
        entries.append(BoundEntry("xi", "lower", p + prof.xi,
                                  f"expansion profile {list(prof.x)} (sizes 1..{prof.i_max})"))
    else:
        notes.append("expansion profile incomplete within budget; skipped")
    n = prof.cube
    if n is not None and n >= 2:
        entries.append(
            BoundEntry("hypercube", "lower", hypercube_lower_bound(n), f"this is the {n}-cube")
        )
        entries.append(
            BoundEntry(
                "hypercube-doubling", "upper", hypercube_upper_bound(n),
                "iterated doubling of a numbering of the square",
            )
        )
        if n in HYPERCUBE_TABLE_UPPER:
            entries.append(
                BoundEntry("hypercube-table", "upper", HYPERCUBE_TABLE_UPPER[n],
                           "stored table numbering")
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
# Each is handed the core; only the oracle's "search" bound reads ``upper``.


def _reg_hypercube(core: Graph, upper: int | None) -> int:
    got = recognize_hypercube(core)
    if got is None or got[0] < 2:
        raise ValueError("graph is not a hypercube of dimension >= 2")
    return hypercube_lower_bound(got[0])


def _reg_two_regular(core: Graph, upper: int | None) -> int:
    lengths = two_regular_cycle_lengths(core)
    if lengths is None:
        raise ValueError("graph is not a disjoint union of cycles")
    return two_regular_strength(lengths)


register_lower_bound("p+delta", lambda core, upper: core.n + core.min_degree())
register_lower_bound("p+edge-connectivity", lambda core, upper: core.n + edge_connectivity(core))
register_lower_bound("independence", lambda core, upper: independence_lower_bound_str(core))
register_lower_bound("xi", lambda core, upper: core.n + xi_profile(core).xi)
register_lower_bound("hypercube", _reg_hypercube)
register_lower_bound("two-regular", _reg_two_regular)
