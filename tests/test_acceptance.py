"""End-to-end acceptance suite.

One test per shipped claim, so `pytest -v tests/test_acceptance.py` reads as a
checklist.  Every numeric target here is exact (tolerance zero) and the stated
time limits are asserted, not aspirational.
"""
from __future__ import annotations

import itertools
import random
from time import perf_counter

import pytest

from graphstrength.bounds import (
    bounds_report,
    hypercube_lower_bound,
    hypercube_upper_bound,
    independence_lower_bound_str,
    two_regular_strength,
    xi_profile,
)
from graphstrength.constructions import (
    double_bipartite,
    hypercube_certificate,
    label_two_regular,
    load_fixture,
)
from graphstrength.deltaseq import (
    best_z_sequence,
    compose_h_plus_t,
    find_delta_sequence,
    forest_delta_sequence,
    label_from_sequence,
)
from graphstrength.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    cycles_union,
    hypercube,
    path,
)
from graphstrength.labeling import (
    LowerBound,
    Numbering,
    StrengthCertificate,
    strength_of,
    verify_certificate,
)
from graphstrength.oracle import exact_strength, feasible_at

from conftest import atlas_connected, random_forest, random_graph


def test_criterion_1_closed_form_families():
    """Paths, cycles, cliques, bicliques, and a five-cycle union, both routes."""

    def check(g: Graph, expected: int, construct) -> None:
        t0 = perf_counter()
        assert exact_strength(g).value == expected
        value, witness = construct(g)
        assert value == expected
        assert strength_of(g, witness) == expected
        assert perf_counter() - t0 < 1.0

    def via_forest(g: Graph):
        seq = forest_delta_sequence(g)
        num = label_from_sequence(g, seq)
        return g.n + seq.d1, num

    def via_two_regular(g: Graph):
        num, cert = label_two_regular(g)
        return cert.value, num

    def via_identity(g: Graph):
        num = Numbering(tuple(range(1, g.n + 1)))
        assert bounds_report(g).best_lower == 2 * g.n - 1
        return strength_of(g, num), num

    def via_sequence(g: Graph):
        res = find_delta_sequence(g, "min-degree")
        assert res.status == "found"
        num = label_from_sequence(g, res.sequence)
        return g.n + res.sequence.d1, num

    for n in range(3, 9):
        check(path(n), n + 1, via_forest)
    for n in range(3, 9):
        check(cycle(n), n + 2, via_two_regular)
    for n in range(2, 8):
        check(complete(n), 2 * n - 1, via_identity)
    for m, n in ((1, 2), (2, 3), (2, 4), (3, 3), (3, 5), (4, 4)):
        check(complete_bipartite(m, n), m + n + m, via_sequence)

    # disjoint union of cycles of lengths 4, 6, 5, 5, 7
    t0 = perf_counter()
    g = cycles_union((4, 6, 5, 5, 7))
    num, cert = label_two_regular(g)
    assert cert.value == 31 and cert.status == "exact"
    assert verify_certificate(g, cert).ok
    # independent route: optimum of each component plus the independence bound
    for c in (4, 6, 5, 5, 7):
        assert exact_strength(cycle(c)).value == c + 2
    assert independence_lower_bound_str(g) == 31
    assert strength_of(g, num) == 31
    assert perf_counter() - t0 < 1.0


def test_criterion_2_hypercube_values():
    t0 = perf_counter()
    for n, value in ((2, 6), (3, 11), (4, 21)):
        cert = hypercube_certificate(n)
        assert cert.status == "exact"
        assert cert.lower.value == cert.upper == value
        # the lower bound really is the expansion bound, recomputed fresh
        assert cert.lower.name == "xi"
        assert 2**n + xi_profile(hypercube(n)).xi == value
        # the upper bound really is the doubling construction's yield
        assert cert.upper == hypercube_upper_bound(n)
        assert strength_of(hypercube(n), cert.witness) == value

    fx = load_fixture("q5")
    assert fx.strength == 40
    assert hypercube_lower_bound(5) == 2**5 + 4 * 5 - 12 == 40
    cert = hypercube_certificate(5)
    assert cert.status == "exact" and cert.upper == 40

    cert = hypercube_certificate(6)
    assert cert.status == "bracket"
    assert (cert.lower.value, cert.upper) == (76, 79)
    assert cert.lower.value == hypercube_lower_bound(6)
    assert cert.upper == strength_of(hypercube(6), load_fixture("q6").numbering)
    assert perf_counter() - t0 < 10.0


def test_criterion_3_sequence_engine_worked_cases():
    # bowtie-with-tail example: minimum-degree search succeeds at strength 14
    t0 = perf_counter()
    g = load_fixture("example21").graph
    res = find_delta_sequence(g, "min-degree")
    assert res.status == "found"
    assert res.sequence.satisfies_condition
    num = label_from_sequence(g, res.sequence)
    assert strength_of(g, num) == g.n + res.sequence.d1 == 14
    assert perf_counter() - t0 < 5.0

    # octahedron-with-trees example: minimum-degree mode exhausts its complete
    # search (no budget hit), any-degree rooted at delta certifies 17
    t0 = perf_counter()
    g = load_fixture("example22").graph
    res = find_delta_sequence(g, "min-degree")
    assert res.status == "exhausted"
    any_res = find_delta_sequence(g, "any-degree", root_degree=g.min_degree())
    assert any_res.status == "found"
    num = label_from_sequence(g, any_res.sequence)
    assert strength_of(g, num) == g.n + g.min_degree() == 17
    assert perf_counter() - t0 < 5.0

    # dimension-4 cube plus K_{4,5}: composed sequence certifies 25 + 4 = 29
    t0 = perf_counter()
    q4 = hypercube(4)
    h_seq, _, complete_search = best_z_sequence(q4, root_degree=4)
    assert complete_search
    t = complete_bipartite(4, 5)
    t_res = find_delta_sequence(t)
    union, seq = compose_h_plus_t(q4, h_seq, t, t_res.sequence)
    assert union.n == 25 and seq.satisfies_condition
    num = label_from_sequence(union, seq)
    assert strength_of(union, num) == 29
    assert perf_counter() - t0 < 5.0


def test_criterion_4_oracle_agrees_with_bounds_and_sequences():
    t0 = perf_counter()
    rng = random.Random(20260815)
    graphs = list(atlas_connected(3, 7))
    while len(graphs) < 994 + 200:
        p = rng.randint(3, 9)
        g = random_graph(rng, p, rng.uniform(0.2, 0.9))
        if g.edge_count:
            graphs.append(g)

    sequence_hits = 0
    for g in graphs:
        res = exact_strength(g)
        report = bounds_report(g)
        assert report.best_lower <= res.value <= report.best_upper, g

        core_ids = [v for v in range(g.n) if g.adj[v]]
        core = g.induced(core_ids)[0] if len(core_ids) < g.n else g
        sr = find_delta_sequence(core, "min-degree")
        if sr.status == "found":
            sequence_hits += 1
            # a successful minimum-degree sequence pins the exact value...
            assert res.value == core.n + core.min_degree(), g
            # ...and its labeling lands exactly on p + d1
            num = label_from_sequence(core, sr.sequence)
            assert strength_of(core, num) == core.n + sr.sequence.d1, g

    assert sequence_hits > 500  # the property clause is exercised, not vacuous
    assert perf_counter() - t0 < 600.0


def test_criterion_5_construction_certificates():
    # doubling: every block identity checked edge-by-edge along both chains
    def checked_double(g: Graph, f: Numbering) -> tuple[Graph, Numbering]:
        m = g.n // 2
        product, doubled = double_bipartite(g, f)
        lab = doubled.labels
        part_x = [v for v in range(g.n) if f.labels[v] <= m]
        part_y = [v for v in range(g.n) if f.labels[v] > m]
        assert all(lab[x] + lab[x + g.n] == 3 * m + 1 for x in part_x)
        assert all(lab[y] + lab[y + g.n] == 5 * m + 1 for y in part_y)
        new_low_half = [lab[x] for x in part_x] + [lab[y + g.n] for y in part_y]
        assert sorted(new_low_half) == list(range(1, 2 * m + 1))  # stays <= 2m
        assert sorted(lab) == list(range(1, 4 * m + 1))  # everything <= 4m
        for u, v in product.edges():
            assert lab[u] + lab[v] <= 5 * m + 1
        assert strength_of(product, doubled) == 5 * m + 1
        return product, doubled

    g, f = hypercube(2), Numbering((1, 3, 4, 2))
    for n in (3, 4, 5):
        g, f = checked_double(g, f)
        assert g == hypercube(n)
    fx = load_fixture("q5")
    product, _ = checked_double(fx.graph, fx.numbering)
    assert product == hypercube(6)

    # two-regular closed form on 100 random specs up to 40 vertices
    rng = random.Random(31)
    for _ in range(100):
        spec = []
        while sum(spec) < 40 - 2:
            spec.append(rng.randint(3, min(9, 40 - sum(spec))))
            if rng.random() < 0.4:
                break
        g = cycles_union(spec)
        _, cert = label_two_regular(g)
        assert cert.value == two_regular_strength(sorted(spec))

    # ...and against the oracle for every spec with at most 12 vertices
    def partitions(total: int, smallest: int):
        if total == 0:
            yield ()
            return
        for first in range(smallest, total + 1):
            if first > 2 and (total - first == 0 or total - first >= 3):
                for rest in partitions(total - first, first):
                    yield (first,) + rest

    specs = [s for p in range(3, 13) for s in partitions(p, 3)]
    assert len(specs) > 20
    for spec in specs:
        g = cycles_union(spec)
        _, cert = label_two_regular(g)
        assert cert.value == exact_strength(g).value, spec


def test_criterion_6_forest_suite():
    rng = random.Random(14)
    for trial in range(500):
        p = rng.randint(2, 14)
        t = random_forest(rng, p)
        seq = forest_delta_sequence(t)
        # every prefix sum nonnegative
        assert seq.satisfies_condition, (trial, t)
        # the final reserve covers the pendant surplus: at least
        # |pendants with a branching neighbor| - |their neighbors|
        pendants = [
            v
            for v in range(t.n)
            if t.degree(v) == 1 and t.degree(t.neighbors(v)[0]) >= 2
        ]
        neighbors = {t.neighbors(v)[0] for v in pendants}
        assert seq.prefix_sums[-1] >= len(pendants) - len(neighbors), (trial, t)
        num = label_from_sequence(t, seq)
        assert strength_of(t, num) == t.n + 1, (trial, t)
        if t.n <= 12:
            assert exact_strength(t).value == t.n + 1, (trial, t)


def test_criterion_7_negative_controls():
    # a corrupted stored numbering is caught, not silently accepted
    fx = load_fixture("q5")
    labels = list(fx.numbering.labels)
    labels[0], labels[5] = labels[5], labels[0]
    forged = StrengthCertificate(
        lower=LowerBound("hypercube", fx.strength),
        upper=fx.strength,
        witness=Numbering(tuple(labels)),
    )
    verdict = verify_certificate(fx.graph, forged)
    assert not verdict.ok
    assert any("witness" in r or "strength" in r for r in verdict.reasons)

    # no numbering of a 4-cycle fits under 5
    res = feasible_at(cycle(4), 5)
    assert res.status == "infeasible"
    assert feasible_at(cycle(4), 6).status == "feasible"

    # a starved search reports "budget", never masquerading as "exhausted"
    starved = find_delta_sequence(hypercube(4), "min-degree", budget=10)
    full = find_delta_sequence(hypercube(4), "min-degree")
    assert starved.status == "budget"
    assert full.status == "exhausted"
    assert starved.status != full.status
