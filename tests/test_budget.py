"""Budget exhaustion, pinned per search.

Every node-budgeted search counts its own nodes and reports a spent budget
as a status (or ``complete=False``).  The statuses and node counts below
were recorded before the searches shared one exhaustion signal; they must
not move, except the sequence search marked below, which completes in
fewer nodes since the sequence DFS keeps a per-call bound table, the
threshold searches, whose counts are those of the top-set search that
replaced the numbering search, and the four ex22 and w7 best-Z entries at
budget 5 and above, which complete sooner since the best-Z search stops at
its first sequence with worst prefix sum Z >= 0 (a biclique host only uses
min(Z, 0)).  The node that overshoots the budget is counted, so a search
stopped at budget b reports b + 1 nodes.

The recursion limit stops the recursive searches (the sequence DFS and the
transitivity proof) like a spent budget: deep inputs end in a "budget"
status, never a RecursionError or a claim of exhaustion.  The threshold
search runs on an explicit stack, so the recursion limit does not stop it.
"""

from __future__ import annotations

import random

import pytest

from graphstrength import bounds, oracle
from graphstrength.bounds import _xi_scan, bounds_report, independence_lower_bound_str, xi_profile
from graphstrength.constructions import load_fixture
from graphstrength.deltaseq import best_z_sequence, certify, embed_minimal, find_delta_sequence
from graphstrength.graphs import Graph, complete, complete_bipartite, hypercube, path, wheel
from graphstrength.labeling import (
    LowerBound,
    Numbering,
    StrengthCertificate,
    recompute_lower_bound,
    require,
    verify_certificate,
)
from graphstrength.oracle import exact_strength, feasible_at, is_vertex_transitive

from conftest import petersen, shallow_stack


def graphs() -> dict[str, Graph]:
    return {"q4": hypercube(4), "ex22": load_fixture("example22").graph, "w7": wheel(7)}


@pytest.mark.parametrize("budget", [0, 1, 7, 100])
def test_xi_scan_stops_one_node_past_its_budget(budget):
    g = hypercube(5)
    best, _, complete, nodes = _xi_scan(g.adj, g.n, 3, g.n - 2, budget)
    assert not complete and nodes == budget + 1
    assert best == (33 if budget < 7 else 10)


def test_xi_scan_within_budget_is_complete():
    g = hypercube(5)
    assert _xi_scan(g.adj, g.n, 2, g.n - 1, 10**6) == (8, 3, True, 527)
    assert _xi_scan(g.adj, g.n, 2, g.n - 1, 527) == (8, 3, True, 527)
    assert _xi_scan(g.adj, g.n, 2, g.n - 1, 526)[2:] == (False, 527)


# (graph, mode, budget) -> (status, nodes)
FIND = {
    ("q4", "min-degree", 0): ("budget", 1),
    ("q4", "min-degree", 10): ("budget", 11),
    ("q4", "min-degree", 50): ("exhausted", 16),
    ("q4", "any-degree", 5): ("budget", 6),
    ("q4", "any-degree", 50): ("exhausted", 16),
    ("ex22", "min-degree", 5): ("budget", 6),
    ("ex22", "min-degree", 10): ("exhausted", 6),  # 9 without the bound table
    ("ex22", "any-degree", 3): ("budget", 4),
    ("ex22", "any-degree", 5): ("found", 4),
    ("w7", "min-degree", 1): ("budget", 2),
    ("w7", "min-degree", 3): ("found", 2),
}


@pytest.mark.parametrize("key", list(FIND))
def test_find_delta_sequence_budget_statuses(key):
    name, mode, budget = key
    res = find_delta_sequence(graphs()[name], mode, budget)
    assert (res.status, res.nodes_explored) == FIND[key]


# (graph, budget) -> (choices or None, nodes, complete)
BEST_Z = {
    ("q4", 0): (None, 1, False),
    ("q4", 3): (None, 4, False),
    ("q4", 5): ((0, 3, 5, 6), 6, False),
    ("q4", 50): ((0, 3, 5, 6), 19, True),
    ("ex22", 3): ((0, 4, 9), 4, False),
    ("ex22", 10): ((0, 7, 8), 5, True),
    ("ex22", 50): ((0, 7, 8), 5, True),
    ("w7", 5): ((1, 3), 2, True),
    ("w7", 10): ((1, 3), 2, True),
}


@pytest.mark.parametrize("key", list(BEST_Z))
def test_best_z_sequence_budget_results(key):
    name, budget = key
    seq, nodes, complete = best_z_sequence(graphs()[name], budget)
    assert (seq.choices() if seq else None, nodes, complete) == BEST_Z[key]


# (graph, threshold, budget) -> (status, nodes)
FEASIBLE = {
    ("petersen", 12, 0): ("infeasible", 0),  # t - p = 2 < delta: no vertex fits
    ("petersen", 13, 0): ("budget", 1),
    ("petersen", 13, 5): ("budget", 6),
    ("petersen", 13, 9): ("budget", 10),
    ("petersen", 13, 10): ("infeasible", 10),
    ("petersen", 14, 2): ("budget", 3),
    ("petersen", 14, 3): ("feasible", 3),
    ("q4", 20, 5): ("budget", 6),
    ("q4", 20, 15): ("budget", 16),
    ("q4", 21, 1): ("budget", 2),
    ("q4", 21, 6): ("feasible", 6),
    ("q4", 20, 16): ("infeasible", 16),
    ("petersen", 13, 100): ("infeasible", 10),
    ("q4", 20, 200): ("infeasible", 16),
}


@pytest.mark.parametrize("key", list(FEASIBLE))
def test_feasible_at_budget_statuses(key):
    name, t, budget = key
    g = petersen() if name == "petersen" else graphs()[name]
    res = feasible_at(g, t, budget)
    assert (res.status, res.nodes_explored) == FEASIBLE[key]


def test_transitivity_proof_gives_up_at_its_refinement_cap(monkeypatch):
    # K_{6,6} is vertex-transitive; with no refinement allowed its proof
    # is reported as not proven
    g = complete_bipartite(6, 6)
    assert is_vertex_transitive(g)
    monkeypatch.setattr(oracle, "TRANSITIVITY_REFINES_PER_VERTEX", 0)
    assert not is_vertex_transitive(g)


def test_complete_and_balanced_bipartite_graphs_are_proven_transitive():
    # their first map, 0 -> n - 1, is one cycle through every vertex
    for n in range(5, 21):
        assert is_vertex_transitive(complete(n)), n
    for n in range(3, 21):
        assert is_vertex_transitive(complete_bipartite(n, n)), n


def test_public_searches_report_a_spent_budget(monkeypatch):
    # none of these raises: each search turns its exhaustion into a status
    q4 = hypercube(4)
    with monkeypatch.context() as m:
        m.setattr(oracle, "DEFAULT_BUDGET", 0)
        res = exact_strength(q4)
    assert (res.status, res.lower, res.upper, res.nodes_explored) == ("bracket", 20, 31, 1)
    # one search at budget 0 stops at its first node
    for res in (certify(petersen(), budget=0, embed=True), embed_minimal(q4, budget=0)):
        assert (res.status, res.nodes_explored) == ("inconclusive", 1)
    with monkeypatch.context() as m:
        m.setattr(bounds, "DEFAULT_XI_BUDGET", 0)
        assert not any(xi_profile(hypercube(5)).complete)
        report = bounds_report(hypercube(5))
    assert "expansion profile incomplete within budget; skipped" in report.notes

    # Petersen: str 14 is above p + delta = 13, so confirming a search
    # certificate needs the refutation at 13
    g = petersen()
    cert = exact_strength(g).to_certificate()
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 0)
    verdict = verify_certificate(g, cert)
    assert cert.upper == 14
    assert verdict.status == "invalid" and "unconfirmed" in verdict.reasons[0]
    assert "refuting threshold 13" in verdict.reasons[0]


def test_a_starved_search_certificate_needs_no_search_when_a_cheap_bound_reaches_it(
        monkeypatch):
    # Q3: p + delta = 11 is already the witness strength, so budget 0 suffices
    cube = hypercube(3)
    cert = exact_strength(cube).to_certificate()
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 0)
    verdict = verify_certificate(cube, cert)
    assert (verdict.status, verdict.reasons, verdict.recomputed_lower) == ("exact", (), 11)


def test_a_search_certificate_reads_the_scan_start_before_any_refutation(monkeypatch):
    # K5 plus a pendant vertex: str 9 = 2p - 2*alpha + 1 is above p + delta = 7.
    # verify reads p + delta first, which falls short, so it refutes 8 once,
    # with the full budget, and reads no independence number; a starved budget
    # cannot complete that refutation.
    g = Graph(6, [*complete(5).edges(), (0, 5)])
    cert = exact_strength(g).to_certificate()
    require(cert.upper == 9, f"strength {cert.upper}")
    calls = []

    def refute(core, t, budget):
        res = feasible_at(core, t, budget)
        calls.append((t, budget, res.status))
        return res

    def no_alpha(core):
        raise AssertionError("a search bound reads no independence number")

    monkeypatch.setattr(oracle, "feasible_at", refute)
    monkeypatch.setattr(bounds, "independence_number", no_alpha)
    verdict = verify_certificate(g, cert)
    require((verdict.status, verdict.reasons, verdict.recomputed_lower) == ("exact", (), 9),
            str(verdict))
    require(calls == [(8, oracle.DEFAULT_BUDGET, "infeasible")], str(calls))
    calls.clear()
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 0)
    verdict = verify_certificate(g, cert)
    require(verdict.status == "invalid" and "refuting threshold 8" in verdict.reasons[0],
            str(verdict))
    require(calls == [(8, 0, "budget")], str(calls))


def _seeded_sample(count: int) -> list[Graph]:
    """The first ``count`` draws of G(n, p), n in 16..40, p in 0.1..0.5."""
    rng = random.Random(2026)
    graphs = []
    for _ in range(count):
        n = rng.randint(16, 40)
        p = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5])
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p]))
    return graphs


@pytest.mark.parametrize("draw", [21, 32])
def test_a_search_certificate_above_p_plus_delta_verifies_through_one_refutation(
        monkeypatch, draw):
    # exact at the independence bound (37 and 49), far above p + delta: the
    # scan refutes every threshold from p + delta up, and verify reruns only
    # the last refutation, at upper - 1
    g = _seeded_sample(draw + 1)[draw]
    core, _ = g.core()
    cert = exact_strength(g).to_certificate()
    require(cert.upper == independence_lower_bound_str(core) > core.n + core.min_degree(),
            f"strength {cert.upper}")
    calls = []

    def refute(core, t, budget):
        res = feasible_at(core, t, budget)
        calls.append((t, res.status))
        return res

    monkeypatch.setattr(oracle, "feasible_at", refute)
    verdict = verify_certificate(g, cert)
    require((verdict.status, verdict.recomputed_lower, calls)
            == ("exact", cert.upper, [(cert.upper - 1, "infeasible")]), f"{verdict}, {calls}")


def test_sequence_search_stops_at_the_recursion_limit():
    g = path(400)  # one stage per call, and min-degree mode needs them all
    with shallow_stack():
        res = find_delta_sequence(g, "min-degree", 10**6)
    assert res.status == "budget" and res.nodes_explored < 100


def test_transitivity_proof_stops_at_the_recursion_limit():
    with shallow_stack():  # one call per vertex individualized: K_n needs n
        assert not is_vertex_transitive(complete(120))


def test_threshold_search_is_exact_under_a_shallow_stack():
    g = path(200)
    with shallow_stack():  # the top-set search keeps its levels on a list
        res = exact_strength(g)
        verdict = verify_certificate(g, res.to_certificate())
    assert (res.status, res.lower, res.upper) == ("exact", 201, 201)
    assert (verdict.status, verdict.recomputed_lower) == ("exact", 201)


def test_a_search_bound_recomputes_exactly_under_a_shallow_stack():
    # path(200): the witness 1..200 has strength 399 > p + delta, and 398 is
    # feasible, so the search bound is the full scan's value, 201
    g = path(200)
    cert = StrengthCertificate(LowerBound("search", 399), 399, Numbering(tuple(range(1, 201))))
    with shallow_stack():
        verdict = verify_certificate(g, cert)
        value = recompute_lower_bound(g, "search")
    require((verdict.status, verdict.reasons, verdict.recomputed_lower) == (
        "invalid", ("lower bound 'search' recomputes to 201, certificate claims 399",), 201),
        str(verdict))
    require(value == 201, str(value))
