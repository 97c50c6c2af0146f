"""The xi scan against the plain enumeration it replaced.

``bounds._xi_scan`` prunes each child in its parent's loop; the firsts are
the children of the empty set.  It counts in bulk, without examining them,
the children outside the set's exterior when the exterior alone rules them
out, and the children with too few neighbours in N[S] when the hit table
shows it; a surviving child none of whose own children is left is counted
in bulk with no call into it.  None of this may change anything it
returns: the value, the witness, completion and the node count must equal
``conftest.reference_xi_scan``'s at every budget, so a scan that runs out
stops at the same set.  The children it does examine are pinned exactly by
``_examined_children``.
"""

from __future__ import annotations

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstrength.bounds import _hit_table, _xi_scan
from graphstrength.graphs import Graph, _bits, hypercube

from conftest import random_graph, reference_xi_scan, small_graphs, to_graph


def _firsts(g: Graph, i: int, transitive: bool) -> int:
    return 1 if transitive else g.n - i + 1


@settings(max_examples=400, deadline=None)
@given(
    small_graphs(max_n=10),
    st.integers(1, 5),
    st.booleans(),
    st.one_of(st.integers(0, 600), st.just(10**6)),
)
def test_scan_matches_the_reference(g, i, transitive, budget):
    i = min(i, g.n)
    firsts = _firsts(g, i, transitive)
    want = reference_xi_scan(g.adj, g.n, i, firsts, budget)
    assert _xi_scan(g.adj, g.n, i, firsts, budget) == want
    assert _xi_scan(g.adj, g.n, i, firsts, budget, _hit_table(g.adj)) == want


@st.composite
def _dense_graphs(draw) -> Graph:
    """A graph on 4..12 vertices with minimum degree at least 3: each vertex
    left below degree 3 is joined to its lowest non-neighbours."""
    n = draw(st.integers(4, 12))
    nbrs = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                nbrs[u].add(v)
                nbrs[v].add(u)
    for u in range(n):
        for v in range(n):
            if len(nbrs[u]) < 3 and v != u:
                nbrs[u].add(v)
                nbrs[v].add(u)
    return Graph(n, [(u, v) for u in range(n) for v in nbrs[u] if u < v])


@settings(max_examples=300, deadline=None)
@given(_dense_graphs(), st.integers(2, 5), st.booleans(), st.integers(0, 600))
def test_scan_matches_the_reference_at_three_hits(g, i, transitive, budget):
    # delta >= 3 makes k = |ext| - r + delta - best + 1 reach 3 and more,
    # where the third row and the k = 3 pick decide which children are seen
    i = min(i, g.n - 1)
    firsts = _firsts(g, i, transitive)
    want = reference_xi_scan(g.adj, g.n, i, firsts, budget)
    assert _xi_scan(g.adj, g.n, i, firsts, budget, _hit_table(g.adj)) == want


def _larger_graphs() -> list[Graph]:
    rng = random.Random(8)
    graphs = [hypercube(5), to_graph(nx.grid_2d_graph(5, 7, periodic=True)),
              to_graph(nx.grid_2d_graph(6, 8, periodic=True))]
    for d in (3, 4, 5):
        for _ in range(2):
            n = rng.randrange(30, 65) // 2 * 2
            graphs.append(to_graph(nx.random_regular_graph(d, n, seed=rng.randrange(10**6))))
    return graphs


def test_scan_matches_the_reference_on_larger_graphs():
    # 30-64 vertices: far enough apart that most children lie beyond
    # distance 2, so the bulk count decides most node counts
    rng = random.Random(9)
    for g in _larger_graphs():
        table = _hit_table(g.adj)
        for i in range(1, 6):
            for transitive in (True, False):
                firsts = _firsts(g, i, transitive)
                full = reference_xi_scan(g.adj, g.n, i, firsts, 10**7)
                assert full[2] and _xi_scan(g.adj, g.n, i, firsts, 10**7, table) == full
                for budget in [0, full[3] - 1] + [rng.randrange(full[3]) for _ in range(3)]:
                    want = reference_xi_scan(g.adj, g.n, i, firsts, budget)
                    assert not want[2]
                    assert _xi_scan(g.adj, g.n, i, firsts, budget, table) == want


class _CountingAdj(tuple):
    """Adjacency masks that count the reads by index (the scan reads one per
    set it examines)."""

    reads = 0

    def __getitem__(self, k):
        type(self).reads += 1
        return super().__getitem__(k)


def _examined_children(g: Graph, i: int) -> int:
    """Children the exterior and hit rules leave to be examined, in a full
    scan.

    The plain enumeration from the empty set, whose children are the firsts
    0..n-i.  With r the vertices still to add after v, when the enumeration
    reaches v, a child v of a set S that survived its prune is examined
    exactly when v is in ext(S) or |ext(S)| - r < best, and its hit sum H,
    the sum over s in S of |N(v) & N[s]| (0 when S is empty) capped at 3,
    reaches min(3, k - [v in ext(S)]), with k = |ext(S)| - r + delta - best
    + 1.
    """
    closed = [set(g.neighbors(v)) | {v} for v in range(g.n)]
    delta = g.min_degree()
    best = g.n + 1
    examined = 0

    def rec(s: tuple[int, ...], ext: int) -> None:
        nonlocal best, examined
        left = i - len(s)
        if ext.bit_count() - left >= best:
            return
        if not left:
            best = ext.bit_count()
            return
        for v in range(s[-1] + 1 if s else 0, g.n - left + 1):
            inside = ext >> v & 1
            floor = ext.bit_count() - (left - 1)
            hits = min(3, sum(len(closed[v] - {v} & closed[u]) for u in s))
            if (inside or floor < best) and hits >= min(3, floor + delta - best + 1 - inside):
                examined += 1
            ns = s + (v,)
            rec(ns, (ext | g.adj[v]) & ~sum(1 << u for u in ns))

    rec((), 0)
    return examined


def test_children_beyond_distance_two_are_not_examined():
    for g in _larger_graphs()[:5]:
        adj = _CountingAdj(g.adj)
        table = _hit_table(g.adj)
        for i in (2, 3, 4):
            _CountingAdj.reads = 0
            assert _xi_scan(adj, g.n, i, _firsts(g, i, False), 10**7, table)[2]
            assert _CountingAdj.reads == _examined_children(g, i)


def test_hit_table_rows():
    # the rows against a direct count of |N(v) & N[s]|, isolated vertices
    # included: an isolated s has N[s] = {s} and no vertex adjacent to it;
    # the second and third rows leave s itself out
    rng = random.Random(10)
    graphs = [to_graph(nx.path_graph(6)), Graph(3), Graph(5, [(0, 1), (1, 2), (0, 2)])]
    graphs += [random_graph(rng, rng.randint(1, 12), rng.uniform(0.05, 0.6)) for _ in range(200)]
    for g in graphs:
        closed = [set(g.neighbors(v)) | {v} for v in range(g.n)]
        for row, least in zip(_hit_table(g.adj), (1, 2, 3)):
            assert row == [sum(1 << v for v in range(g.n)
                               if len(closed[v] - {v} & closed[s]) >= least
                               and (least == 1 or v != s))
                           for s in range(g.n)]
    g = to_graph(nx.path_graph(6))
    one, two, three = _hit_table(g.adj)
    assert [list(_bits(b)) for b in one] == [
        [0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4], [1, 2, 3, 4, 5], [2, 3, 4, 5], [3, 4, 5]]
    assert two == three == [0] * 6
    one, two, three = _hit_table(to_graph(nx.complete_graph(4)).adj)
    assert one == [0b1111] * 4
    assert two == three == [0b1110, 0b1101, 0b1011, 0b0111]
