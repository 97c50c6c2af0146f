from __future__ import annotations

import random

import pytest

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
from graphstrength.labeling import strength_of
from graphstrength.oracle import exact_strength

from conftest import random_forest, random_graph


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
    assert seq.d1 == 2 and seq.terminal.kind == "isolated"
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


def test_complete_graph_is_rejected_as_terminal():
    with pytest.raises(ValueError):
        find_delta_sequence(complete(4))
    with pytest.raises(ValueError):
        find_delta_sequence(Graph(3, []))


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
        if core.is_complete():
            continue
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
    # complete graphs short-circuit
    res = embed_minimal(complete(5))
    assert res.status == "exact" and res.certificate.value == 9

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

    # hopeless budget is inconclusive
    res = embed_minimal(hypercube(4), budget=5)
    assert res.status == "inconclusive" and res.certificate is None

    # each engine gets the full budget: min-degree runs out after 5 of its 9
    # nodes, and the any-degree search still finds its 4-node sequence
    res = embed_minimal(fx.graph, budget=5)
    assert res.status == "exact" and res.added_biclique is None


def test_certify_routes():
    # isolated vertices are set aside and take the top labels back
    g = Graph(7, list(cycle(5).edges()))
    res = certify(g)
    assert res.host == g and res.certificate.value == 7
    assert res.certificate.witness.labels[5:] == (6, 7)

    # closed forms in auto mode only; the named engine certifies C6 itself
    assert certify(cycle(6)).certificate.notes[0].startswith("cycles")
    assert certify(cycle(6), "min-degree").certificate.notes[0].startswith("min-degree")
    assert certify(hypercube(6)).status == "bracket"

    # Q4 resists the engines; embed certifies it inside a host
    assert certify(hypercube(4), "min-degree").status == "inconclusive"
    res = certify(hypercube(4), "min-degree", embed=True)
    assert res.added_biclique == (4, 5) and res.certificate.value == 29

    with pytest.raises(ValueError):
        certify(Graph(3, []))
    with pytest.raises(ValueError):
        certify(cycle(5), "greedy")
