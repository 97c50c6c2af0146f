from __future__ import annotations

import json
import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings

from graphstrength import bounds, oracle
from graphstrength.bounds import (
    BoundsReport,
    bounds_report,
    edge_connectivity,
    hypercube_lower_bound,
    hypercube_upper_bound,
    independence_lower_bound_str,
    independence_number,
    recognize_hypercube,
    two_regular_cycle_lengths,
    two_regular_strength,
    xi_profile,
)
from graphstrength.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    cycles_union,
    disjoint_union,
    hypercube,
    path,
    star,
    wheel,
)
from graphstrength.cli import main
from graphstrength.deltaseq import certify
from graphstrength.labeling import UnconfirmedBound, recompute_lower_bound
from graphstrength.oracle import exact_strength, is_vertex_transitive

from conftest import (
    brute_xi,
    petersen,
    random_graph,
    reference_edge_connectivity,
    small_graphs,
    to_graph,
    torus,
)


def test_independence_number_frozen_values():
    size, witness = independence_number(petersen())
    assert size == 4
    assert all(not petersen().has_edge(u, v) for u in witness for v in witness if u < v)
    assert independence_number(complete_bipartite(3, 5))[0] == 5
    assert independence_number(cycle(7))[0] == 3
    assert independence_number(hypercube(4))[0] == 8
    assert independence_number(complete(6))[0] == 1


def test_independence_matches_brute_force_on_random():
    rng = random.Random(13)
    for _ in range(40):
        p = rng.randint(2, 10)
        g = random_graph(rng, p, rng.uniform(0.2, 0.8))
        size, witness = independence_number(g)
        # verify the witness and maximality by enumeration
        from itertools import combinations

        best = 0
        for k in range(p, 0, -1):
            if any(
                all(not g.has_edge(u, v) for u, v in combinations(sub, 2))
                for sub in combinations(range(p), k)
            ):
                best = k
                break
        assert size == best


def pendant_rich_graphs(rng: random.Random) -> list[Graph]:
    """Trees, caterpillars and cycles carrying pendant paths, ids shuffled:
    graphs where vertices with at most one neighbor left keep turning up."""
    graphs = []
    for _ in range(15):
        n = rng.randint(2, 13)
        graphs.append(Graph(n, [(v, rng.randrange(v)) for v in range(1, n)]))
        spine = rng.randint(1, 5)
        edges = [(v, v + 1) for v in range(spine - 1)]
        leaves = rng.randint(1, 8)
        graphs.append(Graph(spine + leaves, edges + [(rng.randrange(spine), spine + j)
                                                     for j in range(leaves)]))
        c = rng.randint(3, 8)
        edges = [(v, (v + 1) % c) for v in range(c)]
        n = c
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(c)
            for _ in range(rng.randint(1, 3)):
                edges.append((at, n))
                at, n = n, n + 1
        graphs.append(Graph(n, edges))
    out = []
    for g in graphs:
        ids = list(range(g.n))
        rng.shuffle(ids)
        out.append(g.relabeled(ids))
    return out


def test_independence_matches_brute_force_where_pendants_reduce():
    for g in pendant_rich_graphs(random.Random(21)):
        size, witness = independence_number(g)
        brute = max(s.bit_count() for s in range(1 << g.n)
                    if all(not g.adj[v] & s for v in range(g.n) if s >> v & 1))
        assert size == brute == len(witness), g.edges()
        assert all(not g.has_edge(u, v) for u in witness for v in witness)


def test_independence_bound_value():
    g = cycle(5)
    assert independence_lower_bound_str(g) == 2 * 5 - 2 * 2 + 1  # = 7
    with pytest.raises(ValueError, match="42 vertices exceeds the independence cap 40"):
        independence_lower_bound_str(cycles_union([3] * 14))


def test_xi_profile_closed_forms_on_cubes():
    expected = {2: [2, 2, 1], 3: [3, 4, 4, 3], 4: [4, 6, 7, 7], 5: [5, 8, 10, 11]}
    for n, want in expected.items():
        prof = xi_profile(hypercube(n))
        assert list(prof.x) == want[: len(prof.x)]
        assert all(prof.complete)
    # closed forms: x1=n, x2=2n-2, x3=3n-5, x4=4n-9
    for n in (3, 4, 5):
        prof = xi_profile(hypercube(n))
        assert prof.x[0] == n
        assert prof.x[1] == 2 * n - 2
        assert prof.x[2] == 3 * n - 5
        assert prof.x[3] == 4 * n - 9


# -- xi on vertex-transitive graphs ---------------------------------------------


def circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    return Graph(n, [(v, (v + j) % n) for v in range(n) for j in jumps])


def paley13() -> Graph:
    residues = {1, 3, 4, 9, 10, 12}
    return Graph(13, [(u, v) for u in range(13) for v in range(u + 1, 13)
                      if (v - u) % 13 in residues])


def transitive_graphs() -> dict[str, Graph]:
    """Vertex-transitive graphs whose transitivity the bounded proof reaches."""
    return {
        "Q3": hypercube(3), "Q4": hypercube(4), "Q5": hypercube(5),
        "C7": cycle(7), "C8": cycle(8), "Petersen": petersen(),
        "K2,2": complete_bipartite(2, 2), "circ(10;1,2)": circulant(10, (1, 2)),
        "circ(12;1,5)": circulant(12, (1, 5)), "circ(13;1,5)": circulant(13, (1, 5)),
        "C3xC3": torus(3, 3), "C3xC4": torus(3, 4), "C4xC5": torus(4, 5),
        "Paley(13)": paley13(), "2C5": cycles_union([5, 5]),
    }


def regular_not_transitive() -> dict[str, Graph]:
    graphs = {"C5+C6": cycles_union([5, 6])}
    for d, n in ((3, 10), (3, 14), (4, 11), (4, 13)):
        for seed in range(3):
            graphs[f"reg{d}-{n}-{seed}"] = to_graph(nx.random_regular_graph(d, n, seed=seed))
    return graphs


def assert_matches_brute_force(g: Graph) -> None:
    prof = xi_profile(g)
    assert all(prof.complete)
    assert list(prof.x) == brute_xi(g, prof.i_max)
    for i, (x, wit) in enumerate(zip(prof.x, prof.witnesses), start=1):
        assert len(wit) == i
        exterior = set().union(*(g.neighbors(v) for v in wit)) - set(wit)
        assert len(exterior) == x


@pytest.mark.parametrize("name", list(transitive_graphs()))
def test_xi_matches_brute_force_on_transitive_graphs(name):
    g = transitive_graphs()[name]
    assert is_vertex_transitive(g)
    assert_matches_brute_force(g)


def test_xi_matches_brute_force_on_complete_and_bipartite_graphs():
    # vertex-transitive and proven so: the scan only takes sets holding 0
    for g in (complete_bipartite(3, 3), complete_bipartite(4, 4), complete(6)):
        assert_matches_brute_force(g)


@pytest.mark.parametrize("name", list(regular_not_transitive()))
def test_xi_matches_brute_force_on_regular_graphs(name):
    g = regular_not_transitive()[name]
    assert not is_vertex_transitive(g)
    assert_matches_brute_force(g)


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=9))
def test_xi_matches_brute_force_on_random_graphs(g):
    prof = xi_profile(g)
    assert all(prof.complete) and list(prof.x) == brute_xi(g, prof.i_max)


def test_xi_at_the_proof_cap_equals_reduced_scan(monkeypatch):
    graphs = [*transitive_graphs().values(), hypercube(6)]
    reduced = [xi_profile(g) for g in graphs]
    monkeypatch.setattr(oracle, "TRANSITIVITY_REFINES_PER_VERTEX", 0)
    for g, want in zip(graphs, reduced):
        assert not is_vertex_transitive(g)
        assert xi_profile(g) == want


def test_transitivity_proof_stays_within_its_cap(monkeypatch):
    calls = []
    original = oracle._refine

    def counting(g, colorings, splitters=None, nbrs=None):
        calls.append(g.n)
        return original(g, colorings, splitters, nbrs)

    monkeypatch.setattr(oracle, "_refine", counting)
    rng = random.Random(3)
    graphs = [*transitive_graphs().values(), *regular_not_transitive().values(),
              complete_bipartite(4, 4), complete(7), hypercube(7), Graph(1)]
    graphs += [random_graph(rng, rng.randint(2, 16), 0.5) for _ in range(20)]
    for g in graphs:
        calls.clear()
        is_vertex_transitive(g)
        assert len(calls) <= oracle.TRANSITIVITY_REFINES_PER_VERTEX * g.n


def prism(k: int) -> Graph:
    """C_k x K_2: rungs (i, i + k)."""
    return Graph(2 * k, [(i, (i + 1) % k) for i in range(k)]
                 + [(k + i, k + (i + 1) % k) for i in range(k)] + [(i, i + k) for i in range(k)])


def moebius_ladder(k: int) -> Graph:
    """C_2k plus the k long diagonals (i, i + k)."""
    return Graph(2 * k, [(i, (i + 1) % (2 * k)) for i in range(2 * k)]
                 + [(i, i + k) for i in range(k)])


def mader_graphs() -> dict[str, Graph]:
    graphs = {**transitive_graphs(), "K4,4": complete_bipartite(4, 4)}
    graphs.update({f"Q{n}": hypercube(n) for n in range(2, 8)})
    for k in range(4, 21):
        graphs[f"prism{k}"] = prism(k)
        graphs[f"moebius{k}"] = moebius_ladder(k)
    return graphs


@pytest.mark.parametrize("name", list(mader_graphs()))
def test_report_edge_connectivity_on_transitive_cores_matches_the_flows(name):
    # the report reads kappa' off the xi scan's proof (Mader: the degree, on a
    # connected core), the flows and the reference run every max-flow
    g = mader_graphs()[name]
    assert xi_profile(g).transitive
    entries = {e.name: e.value for e in bounds_report(g).entries}
    kappa = edge_connectivity(g)
    assert entries["p+edge-connectivity"] == g.n + kappa
    assert kappa == reference_edge_connectivity(g) == (g.min_degree() if g.is_connected() else 0)


def test_report_edge_connectivity_on_diameter_two_cores_matches_the_flows(monkeypatch):
    # the report reads kappa' = delta off the hit table at diameter <= 2
    # (Plesnik); elsewhere, as on two K4 joined by one edge (diameter 3, a
    # row of each end of the bridge full, kappa' 1 < delta 3), it runs the flows
    rng = random.Random(13)
    barbell = Graph(8, complete(4).edges() + [(u + 4, v + 4) for u, v in complete(4).edges()]
                    + [(3, 4)])
    graphs = [barbell, petersen(), star(5), complete_bipartite(2, 5), cycle(5), cycle(6)]
    graphs += [random_graph(rng, rng.randint(3, 12), rng.uniform(0.2, 0.8)) for _ in range(150)]
    seen = {True: 0, False: 0}
    for g in graphs:
        core = g.core()[0]
        if not core.edge_count:
            continue
        gx = nx.Graph(core.edges())
        gx.add_nodes_from(range(core.n))
        diameter_two = nx.is_connected(gx) and nx.diameter(gx) <= 2
        assert xi_profile(core).diameter_two == diameter_two, g
        entries = {e.name: e.value for e in bounds_report(g).entries}
        kappa = edge_connectivity(core)
        assert entries["p+edge-connectivity"] == core.n + kappa == core.n + nx.edge_connectivity(gx)
        seen[diameter_two] += 1
    assert seen[True] >= 30 and seen[False] >= 30
    assert edge_connectivity(barbell) == 1
    # no flow in the report on a wheel (diameter 2, not transitive); the
    # registered recompute still runs its own
    flows = []
    monkeypatch.setattr(bounds, "edge_connectivity", lambda g: flows.append(g.n) or 1)
    entries = {e.name: e.value for e in bounds_report(wheel(6)).entries}
    assert entries["p+edge-connectivity"] == 7 + 3 and flows == []
    recompute_lower_bound(wheel(6), "p+edge-connectivity")
    assert flows == [7]


def test_report_runs_one_transitivity_proof_and_none_on_a_cube(monkeypatch):
    calls = []
    cubes = []

    def counting(g):
        calls.append(g.n)
        return is_vertex_transitive(g)

    def counting_cubes(g):
        cubes.append(g.n)
        return recognize_hypercube(g)

    # the names the xi scan calls; the report reads the cube off its profile
    monkeypatch.setattr(bounds, "is_vertex_transitive", counting)
    monkeypatch.setattr(bounds, "recognize_hypercube", counting_cubes)
    report = bounds_report(torus(4, 5))
    assert calls == [20] and cubes == [20] and report.best_lower == 25
    assert not any(e.name.startswith("hypercube") for e in report.entries)
    calls.clear()
    cubes.clear()
    report = bounds_report(hypercube(5))
    assert calls == [] and cubes == [32] and report.exact and report.best_lower == 40
    entries = {e.name: e.value for e in report.entries}
    assert entries["p+edge-connectivity"] == 37
    assert entries["hypercube"] == 40 and entries["hypercube-table"] == 40


def test_q7_xi_profile_complete_at_default_budget(capsys):
    prof = xi_profile(hypercube(7))
    assert prof.x == (7, 12, 16, 19) and all(prof.complete)
    assert main(["bounds", "--json", "--family", "hypercube:7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {e["name"]: e["value"] for e in payload["entries"]}["xi"] == 144
    assert not any("incomplete" in note for note in payload["notes"])


def test_xi_budget_marks_incomplete(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(bounds, "DEFAULT_XI_BUDGET", 0)
        prof = xi_profile(hypercube(5))
    assert not any(prof.complete)
    with pytest.raises(UnconfirmedBound):
        prof.xi
    full = xi_profile(hypercube(5))
    assert all(full.complete)


def test_xi_values():
    assert xi_profile(hypercube(2)).xi == 2
    assert xi_profile(hypercube(3)).xi == 3
    assert xi_profile(hypercube(4)).xi == 5
    assert xi_profile(star(4)).xi == 1


def test_hypercube_bound_formulas():
    assert [hypercube_lower_bound(n) for n in (2, 3, 4)] == [6, 11, 21]
    for n in range(5, 10):
        assert hypercube_lower_bound(n) == 2**n + 4 * n - 12
    assert hypercube_lower_bound(10) == 2**10 + 5**2 + 4
    assert hypercube_lower_bound(11) == 2**11 + 6**2 - 6 + 4
    assert hypercube_lower_bound(12) == 2**12 + 6**2 + 4
    for n in range(2, 13):
        assert hypercube_upper_bound(n) == 5 * 2 ** (n - 2) + 1
        assert hypercube_lower_bound(n) <= hypercube_upper_bound(n)


def test_recognize_hypercube():
    for n in range(1, 6):
        got = recognize_hypercube(hypercube(n))
        assert got is not None and got[0] == n
    # a scrambled copy is still recognized, with the coordinate words recovered
    rng = random.Random(2)
    perm = list(range(16))
    rng.shuffle(perm)
    scrambled = hypercube(4).relabeled(perm)
    got = recognize_hypercube(scrambled)
    assert got is not None and got[0] == 4
    n, words = got
    assert scrambled.relabeled(words) == hypercube(4)
    # non-cubes with cube-like parameters are rejected
    assert recognize_hypercube(cycle(8)) is None
    assert recognize_hypercube(complete(4)) is None
    got = recognize_hypercube(complete_bipartite(2, 2))  # C4 = Q2
    assert got is not None and got[0] == 2
    assert recognize_hypercube(cycle(4)) is not None


def test_edge_connectivity_values():
    assert edge_connectivity(path(5)) == 1
    assert edge_connectivity(path(2)) == 1
    assert edge_connectivity(cycle(6)) == 2
    for n in range(1, 8):
        assert edge_connectivity(complete(n)) == max(n - 1, 0)
    assert edge_connectivity(hypercube(4)) == 4
    assert edge_connectivity(disjoint_union(cycle(3), cycle(3))) == 0
    bridge = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    assert edge_connectivity(bridge) == 1
    # two K5 joined by two edges: minimum degree 4, edge connectivity 2
    k5s = disjoint_union(complete(5), complete(5))
    assert edge_connectivity(Graph(10, k5s.edges() + [(0, 5), (1, 6)])) == 2
    # 4-regular, kappa' = 4: some max-flow here must reuse an edge whose flow
    # an earlier augmenting path cancelled
    cancel = Graph(11, [(0, 3), (0, 4), (0, 5), (0, 9), (1, 6), (1, 7), (1, 8), (1, 10),
                        (2, 3), (2, 7), (2, 8), (2, 10), (3, 6), (3, 10), (4, 5), (4, 6),
                        (4, 9), (5, 7), (5, 9), (6, 9), (7, 8), (8, 10)])
    assert edge_connectivity(cancel) == 4
    # kappa' 2 < delta 3: D is 0, 3, 5, and a BFS level that meets the
    # sources {0, 3} can hold other vertices, so a path must start at a source
    off = Graph(8, [(0, 1), (0, 2), (0, 7), (1, 3), (1, 7), (2, 5), (2, 6), (3, 4), (3, 7),
                    (4, 5), (4, 6), (5, 6)])
    assert edge_connectivity(off) == 2
    # seeded random 3-, 4- and 5-regular graphs, ids shuffled, at sizes the
    # hypothesis strategies never draw
    rng = random.Random(14)
    for d in (3, 4, 5):
        for n in (50, 96, 150, 200):
            gx = nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30))
            ids = list(range(n))
            rng.shuffle(ids)
            g = Graph(n, [(ids[u], ids[v]) for u, v in gx.edges()])
            assert edge_connectivity(g) == nx.edge_connectivity(gx)


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=11))
def test_edge_connectivity_matches_networkx(g):
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    assert edge_connectivity(g) == nx.edge_connectivity(gx)


def planted_cut(rng: random.Random, lo: int = 6, hi: int = 12, density: float = 0.8) -> Graph:
    """Two random blobs of lo-hi vertices joined by 1-4 edges, vertex ids
    shuffled: kappa' < delta when the blobs are dense enough."""
    a, b = rng.randint(lo, hi), rng.randint(lo, hi)
    edges = random_graph(rng, a, density).edges()
    edges += [(a + u, a + v) for u, v in random_graph(rng, b, density).edges()]
    edges += [(rng.randrange(a), a + rng.randrange(b)) for _ in range(rng.randint(1, 4))]
    ids = list(range(a + b))
    rng.shuffle(ids)
    return Graph(a + b, [(ids[u], ids[v]) for u, v in edges])


def test_edge_connectivity_on_planted_small_cuts():
    rng = random.Random(11)
    below_delta = 0
    for _ in range(60):
        g = planted_cut(rng)
        gx = nx.Graph(g.edges())
        gx.add_nodes_from(range(g.n))
        kappa = edge_connectivity(g)
        assert kappa == nx.edge_connectivity(gx) == reference_edge_connectivity(g)
        below_delta += kappa < g.min_degree()
    assert below_delta >= 40
    # blobs of 20-60 vertices, sparse enough for D to hold many vertices
    below_delta = 0
    for _ in range(20):
        g = planted_cut(rng, 20, 60, rng.uniform(0.2, 0.5))
        gx = nx.Graph(g.edges())
        gx.add_nodes_from(range(g.n))
        kappa = edge_connectivity(g)
        assert kappa == nx.edge_connectivity(gx)
        below_delta += kappa < g.min_degree()
    assert below_delta >= 10


def test_edge_connectivity_with_a_universal_vertex():
    # vertex 0 dominates everything, so no flow runs and kappa' = delta
    rng = random.Random(12)
    for n in range(2, 16):
        rest = random_graph(rng, n - 1, 0.3)
        g = Graph(n, [(0, v) for v in range(1, n)] + [(u + 1, v + 1) for u, v in rest.edges()])
        gx = nx.Graph(g.edges())
        assert edge_connectivity(g) == g.min_degree() == nx.edge_connectivity(gx)
        assert edge_connectivity(g) == reference_edge_connectivity(g)


def test_two_regular_helpers():
    assert two_regular_cycle_lengths(cycles_union([5, 3, 4])) == [3, 4, 5]
    assert two_regular_cycle_lengths(path(4)) is None
    assert two_regular_strength([4, 6]) == 12
    assert two_regular_strength([3, 3, 3]) == 9 + 1 + 3
    assert two_regular_strength([5]) == 7


def test_bounds_report_sandwich_and_exactness():
    g = petersen()
    report = bounds_report(g)
    value = exact_strength(g).value
    assert report.best_lower <= value <= report.best_upper

    report = bounds_report(complete(6))
    assert report.exact and report.best_lower == 11

    report = bounds_report(cycles_union([3, 5, 4]))
    assert report.exact and report.best_lower == 12 + 3

    report = bounds_report(hypercube(4))
    assert report.exact and report.best_lower == 21

    report = bounds_report(star(6))
    assert report.exact and report.best_lower == 8


@pytest.mark.parametrize("n", range(2, 8))
def test_report_upper_matches_the_cube_certificate(n):
    q = hypercube(n)
    assert bounds_report(q).best_upper == certify(q).certificate.upper


def _assert_lower_entries_recompute(g: Graph) -> BoundsReport:
    report = bounds_report(g)
    for e in report.entries:
        if e.side == "lower":
            assert recompute_lower_bound(g, e.name) == e.value, e
    return report


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=10))
def test_report_lower_entries_recompute(g):
    assume(g.edge_count)
    _assert_lower_entries_recompute(g)


def test_report_lower_entries_recompute_on_cubes_and_a_torus():
    torus = to_graph(nx.grid_2d_graph(4, 5, periodic=True))
    for g in (hypercube(4), hypercube(5), torus):
        _assert_lower_entries_recompute(g)
    report = _assert_lower_entries_recompute(hypercube(7))
    lower = {e.name: e.value for e in report.entries if e.side == "lower"}
    assert lower["xi"] == lower["hypercube"] == report.best_lower == 144


def test_report_lower_entries_recompute_around_the_alpha_cap():
    # the report runs alpha and xi at the limits verify recomputes them with
    report = _assert_lower_entries_recompute(to_graph(nx.random_regular_graph(3, 44, seed=19)))
    assert "independence" not in {e.name for e in report.entries}
    assert "independence bound skipped: p > 40" in report.notes
    rng = random.Random(19)
    cores = [to_graph(nx.random_regular_graph(3, p, seed=p)) for p in (36, 40)]
    cores += [random_graph(rng, p, 0.12) for p in (20, 30, 40)]
    for core in cores:
        report = _assert_lower_entries_recompute(disjoint_union(core, Graph(3, [])))
        assert report.core_p <= 40 and "independence" in {e.name for e in report.entries}


def test_bounds_report_handles_isolated_vertices():
    g = disjoint_union(cycle(4), Graph(2, []))
    report = bounds_report(g)
    assert report.p == 6 and report.core_p == 4
    assert report.best_lower == 6 and report.exact


def test_skipped_bounds_say_so():
    report = bounds_report(cycle(41))
    assert "independence" not in {e.name for e in report.entries}
    assert report.notes[0] == "independence bound skipped: p > 40"
    assert not any("skipped" in note for note in bounds_report(cycle(40)).notes)


def test_bounds_report_rejects_edgeless():
    with pytest.raises(ValueError):
        bounds_report(Graph(3, []))


def test_report_json_fields_render():
    report = bounds_report(cycle(5))
    text = report.render()
    assert "independence" in text and "strength in" in text
    entries = {e.name for e in report.entries}
    assert {"p+delta", "2p-1"} <= entries
