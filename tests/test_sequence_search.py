"""The sequence DFS against the DFS without its bound table, and brute force.

``deltaseq._search`` skips a child whose vertex set already carries a bound
that rules out a strict improvement.  That may only save nodes: whenever
``conftest.reference_search`` completes, the library's search returns the
same choices and completes too, and it never counts more nodes.  The same
holds with the table capped at any size (``deltaseq.BOUND_TABLE_CAP``).
Capped at 0 the table stores nothing, so the search must return exactly
what the reference returns, node count included: that pins the (degree, id)
candidate order the search's degree levels reproduce.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from math import inf
from unittest import mock

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphstrength import deltaseq
from graphstrength.deltaseq import MODES, best_z_sequence, certify, find_delta_sequence, replay
from graphstrength.graphio import parse_graph6
from graphstrength.graphs import Graph

from conftest import random_graph, reference_search, small_graphs, to_graph

# the incumbent's starting floor in find_delta_sequence and in best_z_sequence
FLOORS = {"find": -1, "best-z": -inf}


def _core(g: Graph) -> Graph | None:
    """g minus its isolated vertices, or None when no sequence search applies."""
    core, _ = g.core()
    return core if core.n else None


@settings(max_examples=400, deadline=None)
@given(
    small_graphs(max_n=10),
    st.sampled_from(MODES),
    st.sampled_from(sorted(FLOORS)),
    st.one_of(st.integers(0, 40), st.just(10**6)),
)
def test_search_matches_the_reference(g, mode, kind, budget):
    _check_against_the_reference(g, mode, kind, budget)


@settings(max_examples=300, deadline=None)
@given(
    small_graphs(max_n=10),
    st.sampled_from(MODES),
    st.sampled_from(sorted(FLOORS)),
    st.one_of(st.integers(0, 40), st.just(10**6)),
    st.sampled_from((0, 1, 8)),
)
def test_capped_table_matches_the_reference(g, mode, kind, budget, cap):
    # a mask the full table leaves out only costs nodes the table would save
    with mock.patch.object(deltaseq, "BOUND_TABLE_CAP", cap):
        _check_against_the_reference(g, mode, kind, budget)


def _check_against_the_reference(g, mode, kind, budget):
    g = _core(g)
    assume(g is not None)
    args = (mode, budget, FLOORS[kind])
    ref = ref_choices, ref_nodes, ref_complete = reference_search(g, *args)
    choices, nodes, complete = deltaseq._search(g, *args)
    if deltaseq.BOUND_TABLE_CAP == 0:
        assert (choices, nodes, complete) == ref
    assert nodes <= ref_nodes
    if ref_complete:
        assert complete and choices == ref_choices
    if complete and not ref_complete:
        # an answer the reference only reaches with more budget
        unlimited = (mode, 10**6, FLOORS[kind])
        assert choices == reference_search(g, *unlimited)[0]


def test_search_matches_the_reference_on_larger_random_graphs():
    # 9-13 vertices: deep enough trees that a mask recurs at a z within one
    # of the incumbent, where an off-by-one in the table changes the answer
    _check_larger_random_graphs()


@pytest.mark.parametrize("cap", [0, 1, 8])
def test_capped_table_matches_the_reference_on_larger_random_graphs(monkeypatch, cap):
    monkeypatch.setattr(deltaseq, "BOUND_TABLE_CAP", cap)
    _check_larger_random_graphs()


@pytest.mark.parametrize("cap", [deltaseq.BOUND_TABLE_CAP, 0], ids=["table", "no-table"])
def test_search_matches_the_reference_on_sparse_regular_graphs(monkeypatch, cap):
    # certify-medium's size: whole degree levels empty out, and stages free
    # isolated vertices late
    monkeypatch.setattr(deltaseq, "BOUND_TABLE_CAP", cap)
    for d in (3, 4):
        for n in (20, 24):
            for seed in range(5):
                _check_complete_searches(to_graph(nx.random_regular_graph(d, n, seed=seed)))


# three cores of G(n, p) draws on which a completed search meets a mask
# again at a running total one above the one its bound was stored at, and
# the subtree there beats the incumbent by exactly one: a bound one too
# tight cuts that improvement.  Only these three of 6,000 draws from
# random.Random(1) (random_graph with n in 15..20, p in 0.15, 0.2, 0.25)
# did so.
ONE_ABOVE_THE_BOUND = (
    "R?@H?_AAC?dIHO_@B?KWGGPgAO_oOG",
    "P?_AAcOGTgC_og[GaK?c?_GG",
    "S??P_UA?_AO???BIG@??CG@?_G_g`??bo",
)


def _check_larger_random_graphs():
    rng = random.Random(11)
    for _ in range(300):
        g = _core(random_graph(rng, rng.randint(9, 13), rng.choice((0.3, 0.4, 0.5))))
        if g is not None:
            _check_complete_searches(g)
    for g6 in ONE_ABOVE_THE_BOUND:
        _check_complete_searches(parse_graph6(g6))


def _check_complete_searches(g):
    for mode in MODES:
        for floor in FLOORS.values():
            args = (mode, 10**6, floor)
            ref = ref_choices, ref_nodes, _ = reference_search(g, *args)
            choices, nodes, complete = deltaseq._search(g, *args)
            assert complete and choices == ref_choices and nodes <= ref_nodes
            if deltaseq.BOUND_TABLE_CAP == 0:
                assert (choices, nodes, complete) == ref


def brute_best_worst_prefix(g: Graph, mode: str) -> float:
    """Largest worst prefix sum over every legal sequence whose first choice
    has minimum degree; -inf if none.

    Plain recursion over vertex sets built from the edge list, trying every
    legal choice at every stage; nothing of the library's search is used.
    """
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)

    def walk(alive: frozenset, z: int, worst: float, stage: int) -> float:
        iso = {v for v in alive if not nbrs[v] & alive}
        rest = alive - iso
        degree = {v: len(nbrs[v] & rest) for v in rest}
        if all(d == len(rest) - 1 for d in degree.values()):  # empty, or a clique
            if stage == 1:  # terminal already: no prefix sum, z1 = 0
                return 0
            return min(worst, z + len(iso) + 1 - max(len(rest) - 1, 0))
        best = -inf
        for v, d in degree.items():
            if (mode == "min-degree" or stage == 1) and d != min(degree.values()):
                continue
            nxt = rest - nbrs[v] - {v}
            if not nxt:
                continue
            nz = z + len(iso) + 1 - d if stage > 1 else 0
            best = max(best, walk(nxt, nz, min(worst, nz) if stage > 1 else worst, stage + 1))
        return best

    return walk(frozenset(range(g.n)), 0, inf, 1)


@settings(max_examples=300, deadline=None)
@given(small_graphs(max_n=7))
def test_search_finds_the_brute_force_optimum(g):
    g = _core(g)
    assume(g is not None)
    for mode in MODES:
        brute = brute_best_worst_prefix(g, mode)
        # the search stops at its first sequence with worst prefix >= 0
        choices, _, complete = deltaseq._search(g, mode, 10**6, -inf)
        assert complete
        if choices is None:
            assert brute == -inf
        else:
            seq = replay(g, choices, mode)
            assert min(seq.min_prefix, 0) == min(brute, 0)
            # the first choice has minimum degree; a complete graph's
            # sequence chooses none, and its d_1 is its degree too
            assert seq.d1 == g.min_degree()
        found = find_delta_sequence(g, mode, 10**6).status == "found"
        assert found == (brute >= 0)
    # best-Z stops at its first sequence with Z >= 0
    seq = best_z_sequence(g, 10**6)[0]
    assert min(seq.min_prefix, 0) == min(brute_best_worst_prefix(g, "any-degree"), 0)


def test_certify_embed_matches_the_reference_search(monkeypatch):
    rng = random.Random(2026)
    graphs = [
        to_graph(nx.random_regular_graph(rng.choice((3, 4)), rng.choice((16, 18, 20)),
                                         seed=rng.randrange(10**6)))
        for _ in range(20)
    ]
    ours = [certify(g, embed=True) for g in graphs]
    monkeypatch.setattr(deltaseq, "_search", reference_search)
    theirs = [certify(g, embed=True) for g in graphs]
    assert sum(res.added_biclique is not None for res in ours) >= 5
    for res, ref in zip(ours, theirs):
        assert res.nodes_explored <= ref.nodes_explored
        assert (res.status, res.host, res.certificate, res.sequence, res.added_biclique) == (
            ref.status, ref.host, ref.certificate, ref.sequence, ref.added_biclique)


def test_search_frees_its_table_on_return():
    # the nested DFS refers to itself, so its closure, table included, is
    # garbage only to the cycle collector; the table must go at return
    torus = _torus(5, 10)
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, nodes, complete = best_z_sequence(torus, 2000)
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
        gc.enable()
    assert (nodes, complete) == (2001, False)
    assert peak > 100_000 and kept < peak // 4


def test_table_cap_bounds_its_memory(monkeypatch):
    # 4000 nodes stay far below the default cap, so the first run is uncapped
    torus = _torus(5, 10)
    peaks = []
    for cap in (deltaseq.BOUND_TABLE_CAP, 16):
        monkeypatch.setattr(deltaseq, "BOUND_TABLE_CAP", cap)
        tracemalloc.start()
        try:
            _, nodes, complete = best_z_sequence(torus, 4000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (nodes, complete) == (4001, False)
    assert peaks[1] < peaks[0] // 4


def _torus(a: int, b: int) -> Graph:
    return Graph(a * b, [(i * b + j, (i + 1) % a * b + j) for i in range(a) for j in range(b)]
                 + [(i * b + j, i * b + (j + 1) % b) for i in range(a) for j in range(b)])
