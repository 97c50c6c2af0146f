from __future__ import annotations

import random

import pytest

from graphstrength.graphs import (
    Graph,
    cartesian_product_k2,
    complete,
    complete_bipartite,
    cycle,
    cycles_union,
    disjoint_union,
    family_names,
    fan,
    generate,
    hypercube,
    one_point_union,
    path,
    star,
    wheel,
)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1
    assert g.edges() == [(0, 1)]


def test_path_cycle_complete_shapes():
    assert path(1).n == 1 and path(1).edge_count == 0
    assert path(5).edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert cycle(3).edge_count == 3
    assert sorted(cycle(4).degrees()) == [2, 2, 2, 2]
    with pytest.raises(ValueError):
        cycle(2)
    k5 = complete(5)
    assert k5.edge_count == 10 and k5.is_complete()
    assert not cycle(4).is_complete()


def test_bipartite_star_wheel_fan():
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.edge_count == 6
    assert not g.has_edge(0, 1) and g.has_edge(0, 2)
    s = star(4)
    assert s.degree(0) == 4 and sorted(s.degrees()) == [1, 1, 1, 1, 4]
    w = wheel(5)
    assert w.degree(0) == 5 and w.edge_count == 10
    f = fan(4)
    assert f.degree(0) == 4 and f.edge_count == 7


def test_hypercube_structure():
    for n in range(1, 6):
        q = hypercube(n)
        assert q.n == 2**n
        assert q.is_regular(n)
        for u, v in q.edges():
            assert (u ^ v).bit_count() == 1
    assert hypercube(0).n == 1


def test_cartesian_product_grows_hypercubes():
    g = hypercube(1)
    for n in range(2, 6):
        g = cartesian_product_k2(g)
        assert g == hypercube(n)


def test_one_point_union_and_cycles_union():
    g = one_point_union([3, 4])
    assert g.n == 3 + 4 - 1
    assert g.degree(0) == 4
    u = cycles_union([3, 4, 5])
    assert u.n == 12 and u.is_regular(2)
    assert [len(c) for c in u.components()] == [3, 4, 5]


def test_components_and_connectivity():
    g = disjoint_union(cycle(3), path(2), complete(1))
    assert g.components() == [(0, 1, 2), (3, 4), (5,)]
    assert not g.is_connected()
    assert cycle(5).is_connected()
    assert g.isolated_vertices() == (5,)


def test_bipartition_canonical_and_odd_cycles():
    side0, side1 = path(4).bipartition()
    assert side0 == (0, 2) and side1 == (1, 3)
    assert cycle(5).bipartition() is None
    q = hypercube(3)
    side0, _ = q.bipartition()
    assert all(v.bit_count() % 2 == 0 for v in side0)


def test_forest_detection():
    assert path(6).is_forest()
    assert disjoint_union(path(3), star(4)).is_forest()
    assert not cycle(4).is_forest()
    assert not complete(3).is_forest()


def test_induced_and_relabeled():
    g = cycle(5)
    sub, keep = g.induced([0, 1, 2])
    assert keep == [0, 1, 2]
    assert sub.edges() == [(0, 1), (1, 2)]
    perm = [2, 0, 1, 4, 3]
    h = g.relabeled(perm)
    assert h.n == 5 and h.edge_count == 5
    for u, v in g.edges():
        assert h.has_edge(perm[u], perm[v])


def test_eq_and_hash():
    assert cycle(4) == cycle(4)
    assert cycle(4) != path(4)
    assert len({cycle(4), cycle(4), path(4)}) == 2


def test_generate_dispatch():
    assert generate("cycle", [6]) == cycle(6)
    assert generate("two-regular", [4, 6, 5, 5, 7]).n == 27
    assert "cycle" in family_names()
    with pytest.raises(ValueError):
        generate("mystery", [3])
    with pytest.raises(ValueError):
        generate("cycle", [3, 4])
    with pytest.raises(ValueError):
        generate("complete-bipartite", [3])


def test_neighborhood_exterior():
    from graphstrength.graphs import neighborhood_exterior

    g = star(4)
    assert neighborhood_exterior(g, [0]) == frozenset({1, 2, 3, 4})
    assert neighborhood_exterior(g, [1]) == frozenset({0})
    assert neighborhood_exterior(g, [1, 2]) == frozenset({0})


def test_min_max_degree_random_agreement():
    rng = random.Random(11)
    for _ in range(30):
        p = rng.randint(2, 12)
        edges = [(u, v) for u in range(p) for v in range(u + 1, p) if rng.random() < 0.4]
        g = Graph(p, edges)
        degs = g.degrees()
        assert g.min_degree() == min(degs)
        assert g.max_degree() == max(degs)
        assert sum(degs) == 2 * g.edge_count
