from __future__ import annotations

import itertools
import random
import sys
from contextlib import contextmanager

import networkx as nx
import pytest
from hypothesis import strategies as st

from graphstrength.deltaseq import MODES
from graphstrength.graphs import Graph, _bits
from graphstrength.labeling import BudgetExhausted, Numbering
from graphstrength.oracle import DEFAULT_BUDGET, FeasibilityResult, automorphism_orbits


def to_graph(nxg) -> Graph:
    """Convert a networkx graph with integer-convertible nodes (test-side only)."""
    nodes = sorted(nxg.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(index[u], index[v]) for u, v in nxg.edges()])


def atlas_connected(p_min: int, p_max: int) -> list[Graph]:
    """Every connected graph with p_min <= p <= p_max, via the small-graph atlas."""
    out = []
    for nxg in nx.graph_atlas_g():
        p = nxg.number_of_nodes()
        if p_min <= p <= p_max and p > 0 and nx.is_connected(nxg):
            out.append(to_graph(nxg))
    return out


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def torus(a: int, b: int) -> Graph:
    """C_a x C_b, vertex r*b + c at row r, column c."""
    rows = [(r * b + c, r * b + (c + 1) % b) for r in range(a) for c in range(b)]
    cols = [(r * b + c, (r + 1) % a * b + c) for r in range(a) for c in range(b)]
    return Graph(a * b, rows + cols)


def random_graph(rng: random.Random, p: int, density: float) -> Graph:
    edges = [(u, v) for u in range(p) for v in range(u + 1, p) if rng.random() < density]
    return Graph(p, edges)


def random_forest(rng: random.Random, p: int) -> Graph:
    """Random forest on p >= 2 vertices with no isolated vertices."""
    sizes = []
    left = p
    while left:
        if left <= 3:
            size = left
        else:
            size = rng.randint(2, left)
            if left - size == 1:  # never strand a single vertex
                size += 1
        sizes.append(size)
        left -= size
    edges = []
    base = 0
    for size in sizes:
        for v in range(base + 1, base + size):  # random attachment tree
            edges.append((v, rng.randint(base, v - 1)))
        base += size
    return Graph(p, edges)


def reference_orbits(g: Graph) -> list[tuple[int, ...]]:
    """Vertex orbits by exact VF2 pair tests (test-side reference).

    Vertices of equal degree are compared with networkx's GraphMatcher, the
    candidate pair individualized by node colors; independent of the
    library's refinement search, and slow on large symmetric graphs.
    """
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    degree = g.degrees()

    def same_orbit(u: int, v: int) -> bool:
        g1, g2 = gx.copy(), gx.copy()
        nx.set_node_attributes(g1, {w: (degree[w], w == u) for w in gx}, "c")
        nx.set_node_attributes(g2, {w: (degree[w], w == v) for w in gx}, "c")
        matcher = nx.algorithms.isomorphism.GraphMatcher(
            g1, g2, node_match=lambda x, y: x["c"] == y["c"]
        )
        return matcher.is_isomorphic()

    orbits: list[list[int]] = []
    for v in range(g.n):
        for orbit in orbits:
            if degree[orbit[0]] == degree[v] and same_orbit(orbit[0], v):
                orbit.append(v)
                break
        else:
            orbits.append([v])
    return sorted(tuple(o) for o in orbits)


def is_automorphism(g: Graph, sigma: list[int]) -> bool:
    """Is sigma a permutation of g's vertices that maps its edge set onto itself?"""
    edges = {frozenset(e) for e in g.edges()}
    return (sorted(sigma) == list(range(g.n))
            and {frozenset((sigma[u], sigma[v])) for u, v in g.edges()} == edges)


def brute_xi(g: Graph, i_max: int) -> list[int]:
    """x_i = min |N(S)\\S| over every i-set S, i = 1..i_max (test-side reference).

    Plain enumeration over ``itertools.combinations`` on neighbour sets built
    from the edge list; nothing of the library's scan is used.
    """
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [
        min(len(set().union(*(nbrs[v] for v in s)) - set(s))
            for s in itertools.combinations(range(g.n), i))
        for i in range(1, i_max + 1)
    ]


@contextmanager
def shallow_stack(room: int = 60):
    """Lower the recursion limit to the current stack depth plus ``room``."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + room)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@st.composite
def small_graphs(draw, max_n: int = 10) -> Graph:
    """Hypothesis strategy: any simple graph on 1..max_n vertices."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [e for e in pairs if draw(st.booleans())])


def brute_strength(g: Graph) -> int:
    """Reference value by trying every numbering (tiny graphs only)."""
    assert g.n <= 8, "brute force is factorial"
    edges = g.edges()
    best = 10**9
    for perm in itertools.permutations(range(1, g.n + 1)):
        best = min(best, max(perm[u] + perm[v] for u, v in edges))
    return best


# -- the sequence DFS without its bound table (test-side reference) ----------
#
# ``deltaseq._search`` as it stood before it walked each stage once and kept
# a per-call bound table, copied unchanged apart from its name.  The
# library's search must return the same choices whenever this one completes,
# in no more nodes.


def _split_isolated(g: Graph, mask: int) -> tuple[int, int]:
    iso = 0
    for v in _bits(mask):
        if not g.adj[v] & mask:
            iso |= 1 << v
    return iso, mask ^ iso


def _is_clique(g: Graph, mask: int) -> bool:
    for v in _bits(mask):
        if (g.adj[v] & mask) | 1 << v != mask:
            return False
    return True


def reference_search(
    g: Graph, mode: str, budget: int, root_degree: int | None, floor: float
) -> tuple[tuple[int, ...] | None, int, bool]:
    """Depth-first search for the sequence whose worst prefix sum is largest,
    up to 0.

    Candidates go by (degree, id), only minimum-degree ones in min-degree
    mode.  A branch is cut once its worst prefix sum cannot beat the
    incumbent, which starts at ``floor``; the search stops once the
    incumbent reaches 0.  Returns (incumbent's choices or None,
    nodes explored, complete); complete is False when the budget ran out.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if g.n == 0 or not all(g.adj[v] for v in range(g.n)):
        raise ValueError("strip isolated vertices first")
    if _is_clique(g, g.full_mask):
        # stage 1 is already terminal: the empty sequence has no prefix sum
        # below 0, so it is the answer before any node is explored
        return (), 0, True
    adj = g.adj
    nodes = 0
    best: float = floor
    best_choices: tuple[int, ...] | None = None
    choices: list[int] = []

    def search(mask: int, z: int, worst: float, stage: int) -> bool:
        """Explore below this stage; True once the incumbent reaches 0."""
        nonlocal nodes, best, best_choices
        iso, residual = _split_isolated(g, mask)
        m = iso.bit_count()
        if not residual or _is_clique(g, residual):
            final = min(worst, z + m + 1 - max(residual.bit_count() - 1, 0))
            if final > best:
                best, best_choices = final, tuple(choices)
            return best >= 0
        degree = {v: (adj[v] & residual).bit_count() for v in _bits(residual)}
        pool = sorted(degree, key=degree.__getitem__)  # stable: ties by id
        if mode == "min-degree":
            pool = [v for v in pool if degree[v] == degree[pool[0]]]
        if stage == 1 and root_degree is not None:
            pool = [v for v in pool if degree[v] == root_degree]
        for v in pool:
            # stage 1 only fixes d_1; prefix sums start at stage 2
            nz = z + m + 1 - degree[v] if stage > 1 else 0
            nworst = min(worst, nz) if stage > 1 else worst
            if nworst <= best:
                continue
            nxt = residual & ~(adj[v] | 1 << v)
            if not nxt:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted
            choices.append(v)
            if search(nxt, nz, nworst, stage + 1):
                return True
            choices.pop()
        return False

    try:
        # worst prefix of a real sequence can't exceed p; +1 clears the cap
        search(g.full_mask, 0, g.n + 1, 1)
    except BudgetExhausted:
        return best_choices, nodes, False
    return best_choices, nodes, True


def reference_xi_scan(
    adj: tuple[int, ...], n: int, i: int, firsts: int, budget: int
) -> tuple[int, int, bool, int]:
    """Min exterior over sets of size i whose minimum element is < ``firsts``.

    Returns (min_value, witness_mask, complete, nodes).  Enumerates by
    increasing minimum element; each added vertex can shrink the exterior by
    at most one (only by joining S itself), giving the pruning bound
    |N(S')\\S'| - (i - |S'|).
    """
    best = n + 1
    best_set = 0
    nodes = 0

    def rec(smask: int, ext: int, size: int, lowest_next: int) -> None:
        nonlocal best, best_set, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted
        extn = ext.bit_count()
        if extn - (i - size) >= best:
            return
        if size == i:
            if extn < best:
                best, best_set = extn, smask
            return
        for v in range(lowest_next, n - (i - size) + 1):
            ns = smask | 1 << v
            rec(ns, (ext | adj[v]) & ~ns, size + 1, v + 1)

    try:
        for v in range(firsts):
            rec(1 << v, adj[v] & ~(1 << v), 1, v + 1)
    except BudgetExhausted:
        return best, best_set, False, nodes
    return best, best_set, True, nodes


# -- color refinement and edge connectivity as they stood before (test-side) --
#
# ``oracle._refine`` before its splitter queue and ``bounds.edge_connectivity``
# before its dominating set, copied unchanged apart from their names.  The
# library must give the same per-side partitions, the same None outcomes
# and the same edge connectivity.


def reference_refine(g: Graph, colorings: list[list[int]]) -> list[list[int]] | None:
    """Refine colorings together until stable, with one shared color table.

    A vertex's signature is its color plus its neighbors' sorted colors; the
    signatures of all colorings are renumbered through one sorted table, so
    equal colors mean equal signatures across colorings.  Returns None as
    soon as two colorings' color multisets differ: no color-preserving
    isomorphism can map one onto the other.
    """
    nbrs = [list(_bits(a)) for a in g.adj]
    while True:
        keys = [
            [(c[v], tuple(sorted([c[u] for u in nbrs[v]]))) for v in range(g.n)]
            for c in colorings
        ]
        first = sorted(keys[0])
        if any(sorted(k) != first for k in keys[1:]):
            return None
        remap = {k: i for i, k in enumerate(sorted(set(first)))}
        new = [[remap[k] for k in ks] for ks in keys]
        if new == colorings:
            return colorings
        colorings = new


def reference_edge_connectivity(g: Graph) -> int:
    """Minimum number of edges whose removal disconnects g (0 if already so).

    Unit-capacity max-flow from vertex 0 to every other vertex by shortest
    augmenting paths, each stopped at delta >= kappa'.  The residual graph is
    bitmasks: ``fwd[u]`` holds every w with a residual arc u->w, ``back[w]``
    every such u; the BFS keeps one mask per level to read the path back.
    """
    if g.n <= 1 or not g.is_connected():
        return 0
    best = g.min_degree()
    for target in range(1, g.n):
        fwd, back = list(g.adj), list(g.adj)
        flow = 0
        while flow < best:
            levels, seen = [1], 1
            while levels[-1] and not seen >> target & 1:
                nxt = 0
                for u in _bits(levels[-1]):
                    nxt |= fwd[u]
                levels.append(nxt & ~seen)
                seen |= nxt
            if not seen >> target & 1:
                break
            v = target
            for level in reversed(levels[:-1]):
                arcs = level & back[v]
                u = (arcs & -arcs).bit_length() - 1
                if fwd[v] >> u & 1:  # no flow on v->u, so u->v fills
                    fwd[u] ^= 1 << v
                    back[v] ^= 1 << u
                else:  # cancel the flow on v->u
                    fwd[v] |= 1 << u
                    back[u] |= 1 << v
                v = u
            flow += 1
        best = flow
    return best


# -- the numbering search (test-side reference engine) ------------------------
#
# ``oracle.feasible_at`` as it stood when it placed every label p, p-1, ..., 1,
# one level per label, with a Hall test, and tried one vertex per automorphism
# orbit for label p; copied unchanged apart from its name.  The library now
# searches top sets instead, so the two engines share no code: they must
# agree on every status, and each witness must have strength at most t.


def reference_feasible_at(
    g: Graph, t: int, budget: int = DEFAULT_BUDGET, *, roots: list[int] | None = None
) -> FeasibilityResult:
    """Decide whether some numbering of g has strength <= t.

    "infeasible" means the search space was exhausted, a completed proof;
    "budget" means neither answer was reached within ``budget`` assignments.
    ``roots`` are the vertices tried for label p, the least of each
    automorphism orbit; when omitted they are computed here.
    """
    if g.edge_count == 0:
        raise ValueError("feasibility is about edge sums; graph has no edges")
    p = g.n
    labels = [0] * p
    caps = [p] * p  # max label each vertex may still take
    unlabeled = g.full_mask
    nodes = 0

    if roots is None:
        roots = [orbit[0] for orbit in automorphism_orbits(g)]

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
                raise BudgetExhausted
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
    except BudgetExhausted:
        return FeasibilityResult("budget", None, nodes)
    if found:
        return FeasibilityResult("feasible", Numbering(tuple(labels)), nodes)
    return FeasibilityResult("infeasible", None, nodes)


# -- the interleaved 2-regular numbering (test-side reference) ----------------
#
# ``constructions.label_two_regular`` as it stood when it wrote its low and
# high blocks out by hand, cycle by cycle; copied apart from its name and
# its certificate.  The library now builds it as the top-set numbering of
# every second ring vertex, and must give the same labels.


def _ring(g: Graph, comp: tuple[int, ...]) -> list[int]:
    start = comp[0]
    ring = [start, min(g.neighbors(start))]
    while len(ring) < len(comp):
        prev, cur = ring[-2], ring[-1]
        a, b = g.neighbors(cur)
        ring.append(b if a == prev else a)
    return ring


def reference_label_two_regular(g: Graph) -> Numbering:
    """Optimal numbering of a disjoint union of cycles, block by block.

    Even cycles alternate a low block against a mirrored high block (edge
    sums p+1 / p+2); the j-th odd cycle uses n_j + 1 lows against n_j
    highs, interleaved, so its sums sit at p+j / p+j+1.
    """
    p = g.n
    comps = g.components()
    evens = sorted((c for c in comps if len(c) % 2 == 0), key=lambda c: (len(c), c[0]))
    odds = sorted((c for c in comps if len(c) % 2 == 1), key=lambda c: (len(c), c[0]))
    labels = [0] * p
    low = 0  # lows handed out so far; next low label is low + 1
    for comp in evens:
        ring = _ring(g, comp)
        half = len(comp) // 2
        for j in range(half):
            labels[ring[2 * j]] = low + j + 1
            labels[ring[2 * j + 1]] = p - low - j
        low += half
    high = low  # highs handed out so far; next high label is p - high
    for comp in odds:
        ring = _ring(g, comp)
        n_j = len(comp) // 2
        for r in range(n_j + 1):
            labels[ring[2 * r]] = low + r + 1
        for r in range(n_j):
            labels[ring[2 * r + 1]] = p - high - r
        low += n_j + 1
        high += n_j
    return Numbering(tuple(labels))


@pytest.fixture(scope="session")
def atlas_small() -> list[Graph]:
    return atlas_connected(3, 6)
