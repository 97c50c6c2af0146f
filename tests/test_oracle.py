from __future__ import annotations

import random
import re
from time import perf_counter

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphstrength import oracle
from graphstrength.bounds import bounds_report
from graphstrength.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    cycles_union,
    disjoint_union,
    hypercube,
    path,
)
from graphstrength.labeling import (
    LowerBound,
    Numbering,
    StrengthCertificate,
    extend_over_isolated,
    require,
    strength_of,
    verify_certificate,
)
from graphstrength.oracle import (
    FeasibilityResult,
    automorphism_orbits,
    exact_strength,
    feasible_at,
    is_vertex_transitive,
)

from conftest import (
    atlas_connected,
    brute_strength,
    is_automorphism,
    petersen,
    random_graph,
    reference_feasible_at,
    reference_orbits,
    reference_refine,
    small_graphs,
    to_graph,
    torus,
)


def test_matches_brute_force_on_all_small_connected(atlas_small):
    for g in atlas_small:
        res = exact_strength(g)
        assert res.status == "exact"
        assert res.value == brute_strength(g), g.edges()
        assert strength_of(g, res.witness) == res.value


def test_matches_brute_force_on_random_seven_vertex():
    rng = random.Random(17)
    seen = 0
    for g in atlas_connected(7, 7):
        if rng.random() < 0.05:
            res = exact_strength(g)
            assert res.status == "exact" and res.value == brute_strength(g)
            seen += 1
    assert seen >= 20


def test_frozen_reference_values():
    assert exact_strength(petersen()).value == 14
    assert exact_strength(cycle(4)).value == 6
    assert exact_strength(complete(4)).value == 7
    assert exact_strength(hypercube(3)).value == 11
    assert exact_strength(complete_bipartite(3, 5)).value == 11


def test_isolated_vertices_are_stripped_and_lifted():
    g = disjoint_union(cycle(4), Graph(3, []))
    res = exact_strength(g)
    assert res.status == "exact" and res.value == 6
    assert res.witness.p == 7
    assert strength_of(g, res.witness) == 6
    # isolated vertices must carry the top labels
    assert sorted(res.witness.labels[4:]) == [5, 6, 7]


def test_edgeless_rejection_and_no_vertex_cap():
    with pytest.raises(ValueError):
        exact_strength(Graph(3, []))
    # only the node budget bounds the search: K20 is exact at 2p - 1
    res = exact_strength(complete(20))
    assert (res.status, res.value) == ("exact", 39)
    assert verify_certificate(complete(20), res.to_certificate()).status == "exact"
    g = disjoint_union(cycle(4), Graph(20, []))
    assert exact_strength(g).value == 6


def test_complete_bipartite_seven_eight_is_exact_and_verifies():
    g = complete_bipartite(7, 8)
    res = exact_strength(g)
    assert res.status == "exact" and res.value == 7 + 8 + 7
    verdict = verify_certificate(g, res.to_certificate())
    assert (verdict.status, verdict.recomputed_lower) == ("exact", 22)


def test_budget_above_the_verify_limit_is_refused():
    # verify reruns a refutation with at most oracle.DEFAULT_BUDGET nodes,
    # and exact_strength takes no budget of its own
    with pytest.raises(TypeError, match="budget"):
        exact_strength(cycle(5), budget=oracle.DEFAULT_BUDGET + 1)
    assert exact_strength(cycle(5)).value == 7


def test_feasibility_thresholds_on_square():
    g = cycle(4)
    refute = feasible_at(g, 5)
    assert refute.status == "infeasible"
    attain = feasible_at(g, 6)
    assert attain.status == "feasible"
    assert strength_of(g, attain.witness) <= 6


def test_budget_reports_bracket_not_exhaustion(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 10)
    res = exact_strength(hypercube(4))
    assert res.status == "bracket"
    assert res.witness is None
    # the scan starts at p + delta = 20 (alpha = 8 gives only 17), and the
    # budget dies inside t=20
    assert res.lower == 20 and res.upper == 31
    with pytest.raises(ValueError):
        res.value


def test_determinism():
    g = petersen()
    a = exact_strength(g)
    b = exact_strength(g)
    assert (a.status, a.lower, a.upper, a.witness, a.nodes_explored) == (
        b.status, b.lower, b.upper, b.witness, b.nodes_explored)


def test_orbits_on_symmetric_graphs():
    orbits = automorphism_orbits(cycle(6))
    assert len(orbits) == 1 and len(orbits[0]) == 6
    orbits = automorphism_orbits(petersen())
    assert len(orbits) == 1 and len(orbits[0]) == 10
    orbits = automorphism_orbits(path(4))
    assert sorted(len(o) for o in orbits) == [2, 2]


def test_orbits_distinguish_refinement_twins():
    # two degree-2 vertices that color refinement alone cannot separate:
    # 4-cycle with a pendant path; vertices 1 and 3 are symmetric, 4 is not
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5)])
    orbits = {frozenset(o) for o in automorphism_orbits(g)}
    assert frozenset({1, 3}) in orbits
    assert frozenset({4}) in orbits


def test_oracle_certificate_verifies():
    g = cycle(7)
    cert = exact_strength(g).to_certificate()
    assert cert.lower.name == "search"
    assert verify_certificate(g, cert).status == "exact"


# -- orbits against the VF2 reference -------------------------------------------


def symmetric_graphs() -> dict[str, Graph]:
    residues = {1, 3, 4, 9, 10, 12}
    return {
        "K6,6": complete_bipartite(6, 6),
        "Q4": hypercube(4),
        "Petersen": petersen(),
        "Paley(13)": Graph(13, [(u, v) for u in range(13) for v in range(u + 1, 13)
                                if (v - u) % 13 in residues]),
        "dodecahedron": to_graph(nx.dodecahedral_graph()),
        "Desargues": to_graph(nx.desargues_graph()),
        "K4xK4": to_graph(nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4))),
        "2C7": disjoint_union(cycle(7), cycle(7)),
    }


def random_regular(d: int, seeds: range) -> list[Graph]:
    return [to_graph(nx.random_regular_graph(d, 14, seed=s)) for s in seeds]


def test_orbits_match_reference_on_atlas():
    for g in atlas_connected(1, 7):
        assert automorphism_orbits(g) == reference_orbits(g), g.edges()


def test_orbits_match_reference_on_random_regular():
    for g in random_regular(3, range(5)) + random_regular(4, range(5)):
        assert automorphism_orbits(g) == reference_orbits(g), g.edges()


@pytest.mark.parametrize("name", list(symmetric_graphs()))
def test_orbits_match_reference_on_symmetric_graphs(name):
    g = symmetric_graphs()[name]
    assert automorphism_orbits(g) == reference_orbits(g)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_orbits_match_reference_on_random_graphs(g):
    assert automorphism_orbits(g) == reference_orbits(g)


def test_every_found_map_is_an_automorphism():
    graphs = list(symmetric_graphs().values()) + random_regular(3, range(3))
    graphs.append(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5)]))
    for g in graphs:
        base = oracle._refine(g, [g.degrees()], range(g.max_degree() + 1))[0]
        for orbit in automorphism_orbits(g):
            u = orbit[0]
            for v in range(g.n):
                if base[u] != base[v]:
                    continue
                sigma = oracle._find_automorphism(g, base, u, v)
                assert (sigma is not None) == (v in orbit), (g.edges(), u, v)
                if sigma is not None:
                    assert sigma[u] == v and is_automorphism(g, sigma)


def test_complete_bipartite_seven_seven_at_default_cap():
    g = complete_bipartite(7, 7)
    res = exact_strength(g)
    assert res.status == "exact" and res.value == 21
    assert verify_certificate(g, res.to_certificate()).status == "exact"


# -- every root for label p against the orbit-rooted reference ---------------------


def assert_matches_orbit_roots(g: Graph) -> None:
    """Same status and witness as the reference at every threshold p+1..2p-1,
    in no fewer nodes: an orbit's other vertices only repeat its refutation."""
    for t in range(g.n + 1, 2 * g.n):
        got, want = feasible_at(g, t), reference_feasible_at(g, t)
        assert (got.status, got.witness) == (want.status, want.witness), (g.edges(), t)
        assert got.nodes_explored >= want.nodes_explored, (g.edges(), t)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_feasible_at_matches_orbit_roots_on_random_graphs(g):
    assume(g.edge_count)
    assert_matches_orbit_roots(g.core()[0])


def orbit_root_graphs() -> dict[str, Graph]:
    """The symmetric graphs plus C13(1,5), where orbit roots saved the most time."""
    c13 = Graph(13, [(u, (u + d) % 13) for u in range(13) for d in (1, 5)])
    return {**symmetric_graphs(), "C13(1,5)": c13}


@pytest.mark.parametrize("name", list(orbit_root_graphs()))
def test_feasible_at_matches_orbit_roots_on_symmetric_graphs(name):
    assert_matches_orbit_roots(orbit_root_graphs()[name])


# -- the sort-free node and the scan start against what they replaced ----------------


def assert_matches_the_sorting_search(g: Graph, thresholds: range, budget: int) -> None:
    """Node for node: the reference with every vertex a root is the search that
    sorted its candidates and its caps at every node."""
    for t in thresholds:
        got = feasible_at(g, t, budget)
        want = reference_feasible_at(g, t, budget, roots=list(range(g.n)))
        require((got.status, got.witness, got.nodes_explored)
                == (want.status, want.witness, want.nodes_explored), f"{g.edges()} t={t}")


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.integers(0, 60))
def test_feasible_at_matches_the_sorting_search_on_random_graphs(g, budget):
    assume(g.edge_count)
    assert_matches_the_sorting_search(g, range(1, 2 * g.n), oracle.DEFAULT_BUDGET)
    assert_matches_the_sorting_search(g, range(g.n + 1, 2 * g.n), budget)


@pytest.mark.parametrize("name", list(orbit_root_graphs()))
def test_feasible_at_matches_the_sorting_search_on_symmetric_graphs(name):
    g = orbit_root_graphs()[name]
    assert_matches_the_sorting_search(g, range(g.n + 1, 2 * g.n), oracle.DEFAULT_BUDGET)


def test_verifying_a_search_certificate_on_ten_thousand_vertices_is_fast():
    # a Moebius ladder numbered at random, with a random witness: confirming it
    # needs a refutation that the recursion limit stops about a thousand labels
    # in, and each label takes its first candidate without a pass over all p
    n = 10_000
    ids = list(range(n))
    random.Random(1).shuffle(ids)
    g = Graph(n, [(ids[i], ids[(i + 1) % n]) for i in range(n)]
              + [(ids[i], ids[i + n // 2]) for i in range(n // 2)])
    labels = list(range(1, n + 1))
    random.Random(2).shuffle(labels)
    witness = Numbering(tuple(labels))
    upper = strength_of(g, witness)
    t0 = perf_counter()
    verdict = verify_certificate(g, StrengthCertificate(LowerBound("search", upper), upper, witness))
    seconds = perf_counter() - t0
    require(seconds < 4.0, f"verify took {seconds:.1f} s")
    require(verdict.status == "invalid" and re.fullmatch(
        rf"lower bound 'search' unconfirmed: search stopped after \d+ nodes "
        rf"refuting threshold {upper - 1}", verdict.reasons[0]) is not None, str(verdict))


def scan_from_the_floor(g: Graph) -> tuple[str, int, object, int]:
    """exact_strength as it was when its scan started at p' + 1."""
    core, _ = g.core()
    total = 0
    for t in range(core.n + 1, 2 * core.n):
        res = feasible_at(core, t)
        total += res.nodes_explored
        if res.status == "feasible":
            return "exact", t, extend_over_isolated(g, res.witness), total
    raise AssertionError("threshold 2p-1 is always feasible")


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_scan_from_the_lower_bound_matches_the_scan_from_the_floor(g):
    assume(g.edge_count)
    res = exact_strength(g)
    status, value, witness, nodes = scan_from_the_floor(g)
    require((res.status, res.lower, res.upper, res.witness) == (status, value, value, witness),
            f"{g.edges()}: {res} against {value}")
    require(res.nodes_explored <= nodes, f"{g.edges()}: {res.nodes_explored} > {nodes} nodes")


def test_scan_start_skips_the_thresholds_below_the_cheap_bounds(monkeypatch):
    thresholds = []

    def first_threshold(g, t, budget):
        thresholds.append(t)
        return FeasibilityResult("budget", None, 0)

    monkeypatch.setattr(oracle, "feasible_at", first_threshold)
    # Q4: p + delta = 20 beats 2p - 2*alpha + 1 = 17; K5 with a pendant vertex:
    # 2p - 2*alpha + 1 = 9 beats 7; Petersen: both give 13, one below its strength;
    # path(200) is above the independence cap, so only p + delta is used
    pendant = Graph(6, [*complete(5).edges(), (0, 5)])
    for g, want in ((hypercube(4), 20), (pendant, 9), (petersen(), 13), (path(200), 201)):
        thresholds.clear()
        res = exact_strength(g)
        require(thresholds == [want] and res.lower == want, f"{g}: {thresholds}")


def mid_size_graphs() -> list[Graph]:
    """Seeded G(n, p) and random 3- and 4-regular graphs on 15-24 vertices."""
    rng = random.Random(18)
    graphs = []
    for _ in range(20):
        graphs.append(random_graph(rng, rng.randint(15, 24), rng.choice((0.2, 0.3, 0.5))))
        d = rng.choice((3, 4))
        n = rng.randrange(16, 25, 2) if d == 3 else rng.randint(15, 24)
        graphs.append(to_graph(nx.random_regular_graph(d, n, seed=rng.randrange(10**6))))
    return [g for g in graphs if g.edge_count]


def test_oracle_past_fourteen_vertices_sits_in_the_bounds_and_verifies():
    for g in mid_size_graphs():
        res = exact_strength(g)
        report = bounds_report(g)
        require(res.status == "exact", f"{g.edges()}: {res}")
        require(report.best_lower <= res.value <= report.best_upper,
                f"{g.edges()}: {res.value} outside [{report.best_lower}, {report.best_upper}]")
        verdict = verify_certificate(g, res.to_certificate())
        require(verdict.status == "exact", f"{g.edges()}: {verdict}")


# -- splitter-queue refinement against the full-recompute reference ----------------


def refinement_graphs() -> list[Graph]:
    """Seeded regular graphs, tori and Q5: large cells, many rounds to equitable."""
    graphs = [to_graph(nx.random_regular_graph(d, n, seed=s))
              for d, n in ((3, 20), (4, 17), (5, 24)) for s in range(2)]
    graphs += [torus(3, 5), torus(4, 6), torus(5, 5), hypercube(5)]
    return graphs


def partitions(colorings: list[list[int]] | None) -> list[set[frozenset[int]]] | None:
    """Each side's coloring as a set partition of its vertices."""
    if colorings is None:
        return None
    out = []
    for colors in colorings:
        cells: dict[int, set[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, set()).add(v)
        out.append({frozenset(cell) for cell in cells.values()})
    return out


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_graphs(), st.sampled_from(refinement_graphs())), st.data())
def test_refine_matches_the_reference(g, data):
    u, v, x, y = (data.draw(st.integers(0, g.n - 1)) for _ in range(4))
    colors = data.draw(st.one_of(st.just(g.degrees()),
                                 st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n)))
    fresh = max(colors) + 1
    pair = [oracle._recolor(colors, u, fresh), oracle._recolor(colors, v, fresh)]
    got = oracle._refine(g, pair, range(fresh + 1))
    want = reference_refine(g, pair)
    assert partitions(got) == partitions(want)
    if got is None:
        return
    # individualize one more pair of an equitable coloring, queueing only it
    left, right = got
    right_same = [w for w in range(g.n) if right[w] == left[x]]
    y = right_same[y % len(right_same)]
    fresh = max(left) + 1
    pair = [oracle._recolor(left, x, fresh), oracle._recolor(right, y, fresh)]
    got = oracle._refine(g, pair, [fresh])
    assert partitions(got) == partitions(reference_refine(g, pair))


def test_refine_matches_the_reference_on_random_colorings():
    # cells that split three ways while queued, and pairs of colorings that part
    rng = random.Random(1)
    for _ in range(1500):
        g = random_graph(rng, rng.randint(3, 14), rng.random())
        colors = [rng.randint(0, 2) for _ in range(g.n)]
        got = oracle._refine(g, [colors], range(max(colors) + 1))
        assert partitions(got) == partitions(reference_refine(g, [colors]))
        other = rng.sample(colors, g.n) if rng.random() < 0.5 else [rng.randint(0, 3) for _ in colors]
        got = oracle._refine(g, [colors, other], range(max(colors + other) + 1))
        assert partitions(got) == partitions(reference_refine(g, [colors, other]))


def test_orbits_and_transitivity_match_the_reference_refinement(monkeypatch):
    graphs = [*refinement_graphs(), *symmetric_graphs().values(), *random_regular(3, range(3))]
    graphs += [cycle(12), complete_bipartite(4, 4), complete(6), Graph(1)]
    got = [(automorphism_orbits(g), is_vertex_transitive(g)) for g in graphs]
    monkeypatch.setattr(oracle, "_refine", lambda g, colorings, splitters=None, nbrs=None:
                        reference_refine(g, colorings))
    assert got == [(automorphism_orbits(g), is_vertex_transitive(g)) for g in graphs]


def test_transitivity_proof_on_a_long_cycle_is_fast():
    t0 = perf_counter()
    assert is_vertex_transitive(cycle(2000))
    assert perf_counter() - t0 < 3.0


def test_transitivity_rejects_unequal_components_without_a_search(monkeypatch):
    calls = []
    original = oracle._find_automorphism

    def counting(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(oracle, "_find_automorphism", counting)
    assert not is_vertex_transitive(cycles_union([5, 6]))
    assert calls == []
    assert is_vertex_transitive(cycles_union([5, 5]))
    assert calls
