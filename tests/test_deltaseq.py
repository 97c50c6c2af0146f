from __future__ import annotations

import random

import networkx as nx
import pytest

from graphstrength import deltaseq
from graphstrength.constructions import load_fixture
from graphstrength.deltaseq import (
    best_z_sequence,
    certify,
    compose_h_plus_t,
    embed_minimal,
    find_delta_sequence,
    forest_delta_sequence,
    label_from_sequence,
    replay,
)
from graphstrength.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    hypercube,
    path,
    star,
)
from graphstrength.labeling import LowerBound, Numbering, strength_of, verify_certificate
from graphstrength.oracle import exact_strength

from conftest import petersen, random_forest, random_graph


def test_replay_reproduces_recorded_trace():
    fx = load_fixture("example21")
    seq = replay(fx.graph, (0, 4, 8))
    assert seq.d1 == 2
    assert seq.prefix_sums == (0, 1, 1)
    assert seq.satisfies_condition
    assert seq.render() == (
        "(d1=2) -> (m2=1, d2=2, z2=0) -> (m3=1, d3=1, z3=1) -> (0K1+K2, z4=1)"
    )


def test_replay_rejects_illegal_choices():
    g = cycle(6)
    with pytest.raises(ValueError):
        replay(g, (0, 0))  # vertex no longer present after stage 1
    with pytest.raises(ValueError):
        replay(g, (99,))
    # stage 1 in min-degree mode must pick a minimum-degree vertex
    h = star(3)
    with pytest.raises(ValueError):
        replay(h, (0,))
    # choices that empty the graph without reaching a terminal are illegal
    with pytest.raises(ValueError):
        replay(path(2), (0,))


def test_find_delta_sequence_on_cycles():
    res = find_delta_sequence(cycle(4))
    assert res.status == "found"
    seq = res.sequence
    assert seq.d1 == 2 and not seq.terminal.clique
    assert seq.render() == "(d1=2) -> (1K1, z2=2)"
    num = label_from_sequence(cycle(4), seq)
    assert strength_of(cycle(4), num) == 6

    res6 = find_delta_sequence(cycle(6))
    assert res6.status == "found"
    assert strength_of(cycle(6), label_from_sequence(cycle(6), res6.sequence)) == 8


def test_find_delta_sequence_deterministic():
    g = random_graph(random.Random(3), 9, 0.35)
    core, _ = g.induced([v for v in range(g.n) if g.adj[v]])
    a = find_delta_sequence(core)
    b = find_delta_sequence(core)
    assert a.status == b.status and a.nodes_explored == b.nodes_explored
    if a.status == "found":
        assert a.sequence == b.sequence


def test_complete_graph_is_its_own_terminal_stage():
    # one stage, no choice, Z = 0: the sequence replay builds from no choices
    for n in range(2, 8):
        g = complete(n)
        assert replay(g, ()).terminal.clique == tuple(range(n))
        for mode in ("min-degree", "any-degree"):
            res = find_delta_sequence(g, mode)
            want = ("found", replay(g, (), mode), 0)
            assert (res.status, res.sequence, res.nodes_explored) == want
        seq, nodes, done = best_z_sequence(g)
        assert (seq, seq.min_prefix, nodes, done) == (replay(g, (), "any-degree"), 0, 0, True)
    with pytest.raises(ValueError):
        find_delta_sequence(Graph(3, []))


def test_certify_takes_a_complete_graph_through_the_min_degree_engine():
    # no route of its own: K_n is the sequence of no choices, found at 0 nodes
    for n in range(4, 8):
        g = complete(n)
        res = certify(g)
        assert res.sequence == replay(g, ()) and res.nodes_explored == 0
        cert = res.certificate
        assert cert.lower == LowerBound("p+delta", 2 * n - 1) and cert.upper == 2 * n - 1
        assert cert.witness == Numbering(tuple(range(1, n + 1)))
        assert cert.notes == (f"min-degree sequence: (0K1+K{n}, z1=0)",)
        assert verify_certificate(g, cert).status == "exact"
    # K2 is a forest and K3 a cycle: the closed forms come first
    cert = certify(complete(2)).certificate
    assert (cert.lower.name, cert.upper, cert.witness.labels) == ("p+delta", 3, (1, 2))
    assert cert.notes == ("leaf-peeling sequence: (0K1+K2, z1=0)",)
    cert = certify(complete(3)).certificate
    assert (cert.lower, cert.upper, cert.witness.labels) == (LowerBound("two-regular", 5), 5, (1, 3, 2))
    # isolated vertices aside, the clique keeps the identity labels below them
    g = disjoint_union(complete(5), Graph(2, []))
    res = certify(g)
    assert res.status == "exact" and res.certificate.witness.labels == tuple(range(1, 8))
    assert verify_certificate(g, res.certificate).status == "exact"


def test_complete_bipartite_reduces_in_one_step():
    g = complete_bipartite(3, 5)
    res = find_delta_sequence(g)
    assert res.status == "found"
    seq = res.sequence
    assert seq.d1 == 3
    num = label_from_sequence(g, seq)
    assert strength_of(g, num) == 8 + 3


def test_label_matches_p_plus_d1_on_random_graphs():
    rng = random.Random(23)
    hits = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.2, 0.7))
        core_ids = [v for v in range(g.n) if g.adj[v]]
        if len(core_ids) < 2:
            continue
        core, _ = g.induced(core_ids)
        res = find_delta_sequence(core)
        if res.status != "found":
            continue
        hits += 1
        num = label_from_sequence(core, res.sequence)
        assert strength_of(core, num) == core.n + res.sequence.d1
    assert hits >= 60


def test_worked_example_exhaustion_and_any_degree_recovery():
    fx = load_fixture("example22")
    g = fx.graph
    res = find_delta_sequence(g, "min-degree")
    assert res.status == "exhausted"

    res = find_delta_sequence(g, "any-degree", root_degree=g.min_degree())
    assert res.status == "found"
    seq = res.sequence
    assert seq.d1 == 2 and seq.prefix_sums == (1, 0, 0)
    assert label_from_sequence(g, seq) == fx.numbering


def test_budget_is_distinct_from_exhaustion():
    res = find_delta_sequence(hypercube(4), budget=10)
    assert res.status == "budget"
    res = find_delta_sequence(hypercube(4))
    assert res.status == "exhausted"
    assert res.nodes_explored == 16


def test_best_z_on_q4():
    seq, nodes, complete_search = best_z_sequence(hypercube(4), root_degree=4)
    assert complete_search and seq is not None
    assert seq.min_prefix == -1
    assert not seq.satisfies_condition


def test_forest_sequences():
    t = star(5)
    seq = forest_delta_sequence(t)
    assert seq.d1 == 1 and seq.satisfies_condition
    assert strength_of(t, label_from_sequence(t, seq)) == t.n + 1

    t = path(7)
    seq = forest_delta_sequence(t)
    assert strength_of(t, label_from_sequence(t, seq)) == 8

    rng = random.Random(31)
    for _ in range(40):
        t = random_forest(rng, rng.randint(2, 13))
        seq = forest_delta_sequence(t)
        assert seq.satisfies_condition
        num = label_from_sequence(t, seq)
        assert strength_of(t, num) == t.n + 1


def test_the_min_degree_search_never_backtracks_on_a_forest():
    # every pendant peeling has nonnegative prefix sums, K2 components included
    rng = random.Random(37)
    for _ in range(300):
        t = random_forest(rng, rng.randint(2, 60))
        ids = list(range(t.n))
        rng.shuffle(ids)
        t = Graph(t.n, [(ids[u], ids[v]) for u, v in t.edges()])
        res = find_delta_sequence(t)
        assert res.status == "found" and res.nodes_explored == len(res.sequence.steps)


def test_forest_rejects_non_forests():
    with pytest.raises(ValueError):
        forest_delta_sequence(cycle(4))
    with pytest.raises(ValueError):
        forest_delta_sequence(disjoint_union(path(2), Graph(1, [])))


def test_compose_certifies_q4_plus_biclique():
    q4 = hypercube(4)
    h_seq, _, complete_search = best_z_sequence(q4, root_degree=4)
    assert complete_search
    t = complete_bipartite(4, 5)
    t_res = find_delta_sequence(t)
    assert t_res.status == "found"
    union, seq = compose_h_plus_t(q4, h_seq, t, t_res.sequence)
    assert union.n == 25
    assert seq.satisfies_condition
    num = label_from_sequence(union, seq)
    assert strength_of(union, num) == 29


def test_compose_refuses_insufficient_reserve():
    q4 = hypercube(4)
    h_seq, _, _ = best_z_sequence(q4, root_degree=4)
    t = complete_bipartite(4, 4)
    t_res = find_delta_sequence(t)
    with pytest.raises(ValueError) as err:
        compose_h_plus_t(q4, h_seq, t, t_res.sequence)
    assert "deficit 1" in str(err.value)


def test_embed_minimal_routes():
    # a complete graph is the min-degree engine's sequence of no choices
    res = embed_minimal(complete(6))
    assert (res.status, res.added_biclique, res.nodes_explored) == ("exact", None, 0)
    assert res.certificate.value == 11

    # a min-degree reducible graph stays itself
    res = embed_minimal(cycle(6))
    assert res.status == "exact" and res.host == cycle(6)
    assert res.added_biclique is None

    # the worked example needs the any-degree engine but no biclique
    fx = load_fixture("example22")
    res = embed_minimal(fx.graph)
    assert res.status == "exact" and res.added_biclique is None
    assert res.certificate.value == 17

    # Q4 needs a biclique
    res = embed_minimal(hypercube(4))
    assert res.status == "exact" and res.added_biclique == (4, 5)
    assert res.host.n == 25 and res.certificate.value == 29

    # each search gets the full budget: min-degree runs out, and best-Z
    # still reaches the Z = -1 sequence that sizes the host
    res = embed_minimal(hypercube(4), budget=5)
    assert res.status == "exact" and res.added_biclique == (4, 5)
    assert verify_certificate(res.host, res.certificate).status == "exact"

    # hopeless budget is inconclusive: best-Z reaches no leaf
    res = embed_minimal(hypercube(4), budget=3)
    assert res.status == "inconclusive" and res.certificate is None

    # min-degree runs out after 5 of its 6 nodes, and best-Z still reaches
    # its first Z >= 0 sequence in 5 nodes
    res = embed_minimal(fx.graph, budget=5)
    assert res.status == "exact" and res.added_biclique is None


def test_certify_routes():
    # isolated vertices are set aside and take the top labels back
    g = Graph(7, list(cycle(5).edges()))
    res = certify(g)
    assert res.host == g and res.certificate.value == 7
    assert res.certificate.witness.labels[5:] == (6, 7)

    # closed forms come first; embed_minimal skips them and certifies C6
    # by its min-degree sequence
    assert certify(cycle(6)).certificate.notes[0].startswith("cycles")
    assert embed_minimal(cycle(6)).certificate.notes[0].startswith("min-degree")
    assert certify(hypercube(6)).status == "bracket"

    # Petersen resists the engines; embed certifies it inside a host
    assert certify(petersen()).status == "inconclusive"
    res = certify(petersen(), embed=True)
    assert res.added_biclique == (3, 4) and res.certificate.value == 20

    with pytest.raises(ValueError):
        certify(Graph(3, []))


def test_certify_embed_host_keeps_isolated_vertices():
    g = disjoint_union(petersen(), Graph(1, []))
    res = certify(g, embed=True)
    assert res.added_biclique == (3, 4)
    assert res.host.n == 18
    assert res.host == disjoint_union(g, complete_bipartite(3, 4))
    assert res.certificate.witness.labels[10] == 18
    assert res.certificate.value == 20
    assert verify_certificate(res.host, res.certificate).status == "exact"


def test_any_degree_embed_runs_each_engine_once(monkeypatch):
    # one best-Z search with the full budget answers both "does h certify
    # itself" and "how large a host"; only the min-degree engine runs before
    # it, and the biclique's sequence is built, not searched
    finds, best_z_budgets = [], []
    find, best_z = deltaseq.find_delta_sequence, deltaseq.best_z_sequence

    def counting_find(h, mode="min-degree", *args, **kwargs):
        finds.append((h.n, mode))
        return find(h, mode, *args, **kwargs)

    def recording_best_z(h, budget, *args, **kwargs):
        best_z_budgets.append(budget)
        return best_z(h, budget, *args, **kwargs)

    monkeypatch.setattr(deltaseq, "find_delta_sequence", counting_find)
    monkeypatch.setattr(deltaseq, "best_z_sequence", recording_best_z)
    res = certify(petersen(), budget=10**6, embed=True)
    assert res.added_biclique == (3, 4) and res.certificate.value == 20
    assert best_z_budgets == [10**6]
    assert finds == [(10, "min-degree")]


@pytest.mark.parametrize("embed, searches", [
    (False, [("min-degree", None), ("any-degree", 3)]),
    (True, [("min-degree", None), ("best-Z", 3)]),
])
def test_certify_runs_one_sequence_stage(monkeypatch, embed, searches):
    # Petersen resists every engine, so the stage runs both of its searches,
    # each on the input itself with the full budget
    calls = []
    find, best_z = deltaseq.find_delta_sequence, deltaseq.best_z_sequence

    def recording_find(h, engine, budget, root_degree=None):
        calls.append((h.n, budget, engine, root_degree))
        return find(h, engine, budget, root_degree)

    def recording_best_z(h, budget, root_degree=None):
        calls.append((h.n, budget, "best-Z", root_degree))
        return best_z(h, budget, root_degree)

    monkeypatch.setattr(deltaseq, "find_delta_sequence", recording_find)
    monkeypatch.setattr(deltaseq, "best_z_sequence", recording_best_z)
    res = certify(petersen(), budget=1000, embed=embed)
    assert calls == [(10, 1000, *call) for call in searches]
    assert (res.added_biclique, res.status) == (((3, 4), "exact") if embed
                                                else (None, "inconclusive"))


@pytest.mark.parametrize("embed", [False, True])
def test_any_degree_certify_gives_the_worked_example_numbering(embed):
    fx = load_fixture("example22")
    res = certify(fx.graph, embed=embed)
    assert res.added_biclique is None and res.host == fx.graph
    assert res.certificate.notes[0].startswith("any-degree sequence")
    assert res.certificate.value == 17 and res.certificate.witness == fx.numbering


@pytest.mark.parametrize("name, embed, replays", [
    ("example21", False, 1),  # its min-degree sequence
    ("q4", True, 3),  # best-Z, the biclique's sequence, the spliced sequence
])
def test_certify_replays_each_sequence_once(monkeypatch, name, embed, replays):
    # every sequence the pipeline labels comes out of replay; labeling it
    # must not replay it again.  Q4 takes the embed route without the cube's
    # closed form.
    g = hypercube(4) if name == "q4" else load_fixture(name).graph
    calls = []
    original = deltaseq.replay

    def counting_replay(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(deltaseq, "replay", counting_replay)
    res = embed_minimal(g) if embed else certify(g)
    assert res.status == "exact"
    assert len(calls) == replays


def test_converse_holds_on_every_atlas_graph():
    # the paper proves only that a nonnegative min-degree sequence gives
    # str = p + delta; on all 1,043 atlas graphs (at most 7 vertices) with
    # no isolated vertex, str = p + delta holds exactly when the graph has
    # such a sequence (a complete graph is its own terminal stage, found at
    # 0 nodes).  Evidence only: no bound rests on it.
    graphs = [Graph(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()]
    graphs = [g for g in graphs if g.n and all(g.adj)]
    assert len(graphs) == 1043
    counts = {"sequence": 0, "p+delta": 0, "zero nodes": 0}
    for g in graphs:
        oracle = exact_strength(g)
        assert oracle.status == "exact", g
        search = find_delta_sequence(g, "min-degree")
        assert search.status != "budget", g
        found = search.status == "found"
        at_p_delta = oracle.value == g.n + g.min_degree()
        assert at_p_delta == found, g
        counts["sequence"] += found
        counts["p+delta"] += at_p_delta
        counts["zero nodes"] += found and search.nodes_explored == 0
    assert counts == {"sequence": 601, "p+delta": 601, "zero nodes": 6}
