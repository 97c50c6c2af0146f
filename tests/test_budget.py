"""Budget exhaustion, pinned per search.

Every node-budgeted search counts its own nodes and reports a spent budget
as a status (or ``complete=False``).  The statuses and node counts below
were recorded before the searches shared one exhaustion signal; they must
not move, except the sequence search marked below, which completes in
fewer nodes since the sequence DFS keeps a per-call bound table, the two
threshold searches marked below, which need more nodes since every vertex,
not one per automorphism orbit, is tried for label p, and the four ex22
and w7 best-Z entries at budget 5 and above, which complete sooner since
the best-Z search stops at its first sequence with worst prefix sum
Z >= 0 (a biclique host only uses min(Z, 0)).  The node
that overshoots the budget is counted, so a search stopped at budget b
reports b + 1 nodes.

The recursion limit stops a search like a spent budget: deep inputs end in
a "budget" status, never a RecursionError or a claim of exhaustion.
"""

from __future__ import annotations

import random
import re

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
    UnconfirmedBound,
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
    ("petersen", 12, 0): ("infeasible", 0),
    ("petersen", 13, 0): ("budget", 1),
    ("petersen", 13, 5): ("budget", 6),
    ("petersen", 13, 20): ("budget", 21),  # ("infeasible", 7) with orbit roots
    ("petersen", 14, 5): ("budget", 6),
    ("petersen", 14, 20): ("feasible", 11),
    ("q4", 20, 5): ("budget", 6),
    ("q4", 20, 20): ("budget", 21),  # ("infeasible", 12) with orbit roots
    ("q4", 21, 1): ("budget", 2),
    ("q4", 21, 20): ("feasible", 16),
    ("petersen", 13, 100): ("infeasible", 70),
    ("q4", 20, 200): ("infeasible", 192),
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
    for res in (certify(petersen(), budget=0, embed=True), embed_minimal(q4, budget=0)):
        assert (res.status, res.nodes_explored) == ("inconclusive", 2)
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
    # verify reads the alpha start first; it reaches 9, so no refutation runs,
    # even on a starved budget.  Held below 9, the start leaves one
    # refutation at 8, which a starved budget cannot complete.
    g = Graph(6, [*complete(5).edges(), (0, 5)])
    cert = exact_strength(g).to_certificate()
    require(cert.upper == 9, f"strength {cert.upper}")
    calls = []

    def refute(core, t, budget):
        calls.append(("refute", t, budget))
        return feasible_at(core, t, budget)

    def alpha_bound(core):
        calls.append(("alpha",))
        return independence_lower_bound_str(core)

    def no_alpha_bound(core):
        calls.append(("alpha",))
        return 0

    monkeypatch.setattr(oracle, "feasible_at", refute)
    for alpha, budget, refuted in ((alpha_bound, 0, []), (alpha_bound, 1, []),
                                   (no_alpha_bound, 1, [("refute", 8, 1)])):
        calls.clear()
        monkeypatch.setattr(bounds, "independence_lower_bound_str", alpha)
        monkeypatch.setattr(oracle, "DEFAULT_BUDGET", budget)
        verdict = verify_certificate(g, cert)
        require((verdict.status, verdict.reasons, verdict.recomputed_lower) == ("exact", (), 9),
                str(verdict))
        require(calls == [("alpha",), *refuted], f"budget {budget}: {calls}")
    calls.clear()
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 0)
    verdict = verify_certificate(g, cert)
    require(verdict.status == "invalid" and "refuting threshold 8" in verdict.reasons[0],
            str(verdict))
    require(calls == [("alpha",), ("refute", 8, 0)], str(calls))


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
def test_a_search_certificate_at_the_alpha_start_verifies_without_a_refutation(
        monkeypatch, draw):
    # exact at the alpha start (37 and 49) within 107 nodes, far above
    # p + delta; refuting one below the start spends the whole budget
    g = _seeded_sample(draw + 1)[draw]
    core, _ = g.core()
    cert = exact_strength(g).to_certificate()
    require(cert.upper == independence_lower_bound_str(core) > core.n + core.min_degree(),
            f"strength {cert.upper}")
    calls = []
    monkeypatch.setattr(oracle, "feasible_at", lambda *args: calls.append(args))
    verdict = verify_certificate(g, cert)
    require((verdict.status, verdict.recomputed_lower, calls) == ("exact", cert.upper, []),
            f"{verdict}, {calls}")


def test_sequence_search_stops_at_the_recursion_limit():
    g = path(400)  # one stage per call, and min-degree mode needs them all
    with shallow_stack():
        res = find_delta_sequence(g, "min-degree", 10**6)
    assert res.status == "budget" and res.nodes_explored < 100


def test_transitivity_proof_stops_at_the_recursion_limit():
    with shallow_stack():  # one call per vertex individualized: K_n needs n
        assert not is_vertex_transitive(complete(120))


def test_threshold_search_stops_at_the_recursion_limit():
    with shallow_stack():
        res = exact_strength(path(200))
    assert (res.status, res.lower, res.upper) == ("bracket", 201, 399)
    assert res.nodes_explored < 200


def test_a_search_bound_stopped_by_the_recursion_limit_says_so():
    # path(200): confirming the witness (strength 399 > p + delta) needs a
    # refutation at 398, which the shallow stack stops long before its budget
    g = path(200)
    cert = StrengthCertificate(LowerBound("search", 399), 399, Numbering(tuple(range(1, 201))))
    with shallow_stack():
        verdict = verify_certificate(g, cert)
        with pytest.raises(UnconfirmedBound) as exc:
            recompute_lower_bound(g, "search")
    require(verdict.status == "invalid" and re.fullmatch(
        r"lower bound 'search' unconfirmed: search stopped after \d+ nodes "
        r"refuting threshold 398", verdict.reasons[0]) is not None, str(verdict))
    require(re.fullmatch(r"search stopped after \d+ nodes at \[201, 399\]", str(exc.value))
            is not None, str(exc.value))
