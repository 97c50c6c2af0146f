from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import strategies as st

from graphstrength.graphs import Graph


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


@pytest.fixture(scope="session")
def atlas_small() -> list[Graph]:
    return atlas_connected(3, 6)
