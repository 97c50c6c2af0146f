from __future__ import annotations

import random

import pytest

from graphstrength import labeling
from graphstrength.constructions import hypercube_certificate, load_fixture
from graphstrength.deltaseq import certify
from graphstrength.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    hypercube,
    path,
    star,
    wheel,
)
from graphstrength.labeling import (
    LowerBound,
    Numbering,
    StrengthCertificate,
    UnconfirmedBound,
    extend_over_isolated,
    lower_bound_names,
    recompute_arg,
    recompute_lower_bound,
    strength_of,
    to_dot,
    verify_certificate,
)
from graphstrength.oracle import exact_strength

from conftest import random_graph


def test_strength_of_simple():
    g = path(3)
    assert strength_of(g, Numbering((1, 3, 2))) == 5
    assert strength_of(g, Numbering((1, 2, 3))) == 5
    assert strength_of(g, Numbering((2, 1, 3))) == 4


def test_strength_of_rejects_bad_input():
    g = path(3)
    with pytest.raises(ValueError):
        strength_of(g, Numbering((1, 2)))
    with pytest.raises(ValueError):
        strength_of(g, Numbering((1, 1, 2)))
    with pytest.raises(ValueError):
        strength_of(Graph(2, []), Numbering((1, 2)))


def test_numbering_helpers():
    f = Numbering((3, 1, 2))
    assert f.p == 3 and f.is_bijection()
    assert Numbering.from_json(f.to_json()) == f
    assert not Numbering((1, 1, 3)).is_bijection()


def test_extend_over_isolated():
    g = disjoint_union(path(3), Graph(2, []))  # vertices 3, 4 isolated
    core_numbering = Numbering((2, 1, 3))
    full = extend_over_isolated(g, core_numbering)
    assert full.labels == (2, 1, 3, 4, 5)
    assert strength_of(g, full) == 4


def test_extend_with_interleaved_isolated():
    g = Graph(4, [(1, 3)])  # 0 and 2 isolated
    full = extend_over_isolated(g, Numbering((1, 2)))
    assert full.labels == (3, 1, 4, 2)


def test_certificate_round_trip_and_status():
    g = cycle(4)
    witness = Numbering((1, 3, 2, 4))
    cert = StrengthCertificate(LowerBound("p+delta", 6), 6, witness, ("by hand",))
    assert cert.status == "exact" and cert.value == 6
    again = StrengthCertificate.loads(cert.dumps())
    assert again == cert

    bracket = StrengthCertificate(LowerBound("p+delta", 6), 7, Numbering((1, 2, 3, 4)))
    assert bracket.status == "bracket"
    with pytest.raises(ValueError):
        bracket.value


def test_registry_contains_all_bounds():
    names = lower_bound_names()
    for expected in ("p+delta", "p+edge-connectivity", "independence",
                     "xi", "hypercube", "two-regular", "search"):
        assert expected in names
    with pytest.raises(ValueError):
        recompute_lower_bound(cycle(4), "made-up", ())


def test_verify_certificate_accepts_good():
    g = cycle(4)
    cert = StrengthCertificate(LowerBound("p+delta", 6), 6, Numbering((1, 3, 2, 4)))
    verdict = verify_certificate(g, cert)
    assert verdict.ok and verdict.status == "exact"
    assert verdict.recomputed_lower == 6


def test_verify_certificate_rejects_tampering():
    g = cycle(4)
    good = Numbering((1, 3, 2, 4))
    # upper claim the witness does not attain
    v = verify_certificate(g, StrengthCertificate(LowerBound("p+delta", 6), 5, good))
    assert v.status == "invalid" and any("witness strength" in r for r in v.reasons)
    # lower claim the named bound does not recompute to
    v = verify_certificate(g, StrengthCertificate(LowerBound("p+delta", 7), 7, good))
    assert v.status == "invalid"
    # witness of the wrong size
    v = verify_certificate(g, StrengthCertificate(LowerBound("p+delta", 6), 6, Numbering((1, 2))))
    assert v.status == "invalid"
    # not a bijection
    v = verify_certificate(
        g, StrengthCertificate(LowerBound("p+delta", 6), 6, Numbering((1, 1, 2, 4)))
    )
    assert v.status == "invalid"
    # unknown bound name
    v = verify_certificate(g, StrengthCertificate(LowerBound("nope", 6), 6, good))
    assert v.status == "invalid"


def test_verify_certificate_bracket_status():
    g = cycle(4)
    cert = StrengthCertificate(LowerBound("p+delta", 6), 7, Numbering((1, 2, 3, 4)))
    verdict = verify_certificate(g, cert)
    assert verdict.ok and verdict.status == "bracket"


def test_verify_detects_lower_above_witness():
    g = complete(3)
    # p+delta on K3 recomputes to 5, witness strength is 5; claim 5 with upper 4 is
    # caught by the witness check; an inconsistent pair needs a doctored bound
    cert = StrengthCertificate(LowerBound("search", 6), 5, Numbering((1, 2, 3)))
    verdict = verify_certificate(g, cert)
    assert verdict.status == "invalid"
    assert any("recomputes" in r or "exceeds" in r for r in verdict.reasons)


def test_verify_rejects_a_faulty_bound_one_above_the_witness(monkeypatch):
    # a bound that recomputes to exactly what it claims, one above the
    # witness strength: only the consistency check can catch it
    monkeypatch.setitem(labeling._LOWER_BOUND_REGISTRY, "faulty",
                        lambda g, args, upper: upper + 1)
    cert = StrengthCertificate(LowerBound("faulty", 6), 5, Numbering((1, 2, 3)))
    verdict = verify_certificate(complete(3), cert)
    assert (verdict.status, verdict.reasons) == (
        "invalid", ("lower bound 6 exceeds witness strength 5; inconsistent",))


def test_unconfirmed_bound_surfaces_as_invalid():
    g = cycle(8)
    witness = Numbering(tuple(range(1, 9)))
    # the search bound with a hopeless budget cannot be recomputed
    cert = StrengthCertificate(LowerBound("search", 10, args=(1,)), 16, witness)
    verdict = verify_certificate(g, cert)
    assert verdict.status == "invalid"
    assert any("unconfirmed" in r for r in verdict.reasons)


def test_search_bound_recomputes_exactly():
    assert recompute_lower_bound(cycle(5), "search", ()) == 7
    with pytest.raises(UnconfirmedBound):
        recompute_lower_bound(cycle(8), "search", (1,))


def test_verify_refuses_an_independence_bound_on_a_core_above_the_cap(monkeypatch):
    # the bound ignores its args: its one limit is the 40-vertex core
    def no_search(*_args):
        raise AssertionError("an over-limit core must not start the alpha search")

    def verdict(core: int) -> labeling.CertificateVerdict:
        g = disjoint_union(cycle(core), Graph(3, []))
        witness = Numbering(tuple(range(1, core + 4)))
        lower = LowerBound("independence", 2 * core - 2 * (core // 2) + 1, args=(41,))
        return verify_certificate(g, StrengthCertificate(lower, strength_of(g, witness), witness))

    assert verdict(40).status == "bracket"
    monkeypatch.setattr("graphstrength.bounds._bits", no_search)
    assert verdict(41) == labeling.CertificateVerdict(
        "invalid", ("41 vertices exceeds the independence cap 40",))


@pytest.mark.parametrize("name, args, searcher", [
    ("xi", (5,), "graphstrength.bounds.xi_profile"),
    ("search", (2_000_001,), "graphstrength.oracle.exact_strength"),
])
def test_verify_refuses_oversized_recompute_arguments(monkeypatch, name, args, searcher):
    def no_search(*_args, **_kwargs):
        raise AssertionError("an over-limit argument must not start a search")

    monkeypatch.setattr(searcher, no_search)
    cert = StrengthCertificate(LowerBound(name, 8, args=args), 8, Numbering((1, 6, 2, 5, 3, 4)))
    verdict = verify_certificate(cycle(6), cert)
    assert verdict.status == "invalid"
    assert any("exceeds the limit" in r for r in verdict.reasons)


@pytest.mark.parametrize("args", [([4],), (float("inf"),), ("four",)])
def test_verify_reports_malformed_recompute_arguments(args):
    cert = StrengthCertificate(LowerBound("xi", 8, args=args), 8, Numbering((1, 6, 2, 5, 3, 4)))
    assert verify_certificate(cycle(6), cert).status == "invalid"


@pytest.mark.parametrize("arg", [True, False, 1.5, 4.0, -5, "4", None])
def test_recompute_arg_refuses_anything_but_a_non_negative_int(arg):
    with pytest.raises(ValueError, match="search budget must be a non-negative integer"):
        recompute_arg((arg,), 100, "search budget")


def test_recompute_arg_accepts_a_non_negative_int_up_to_the_limit():
    assert recompute_arg((), 100, "search budget") == 100
    assert recompute_arg((0,), 100, "search budget") == 0
    assert recompute_arg((100,), 100, "search budget") == 100
    with pytest.raises(ValueError, match="exceeds the limit 100"):
        recompute_arg((101,), 100, "search budget")


@pytest.mark.parametrize("arg", [True, 1.5, -5])
def test_verify_rejects_a_malformed_budget_before_searching(monkeypatch, arg):
    def no_search(*_args, **_kwargs):
        raise AssertionError("a malformed argument must not start a search")

    monkeypatch.setattr("graphstrength.oracle.feasible_at", no_search)
    monkeypatch.setattr("graphstrength.oracle.exact_strength", no_search)
    g = cycle(8)
    cert = StrengthCertificate(LowerBound("search", 10, args=(arg,)), 10,
                               Numbering((1, 8, 2, 7, 3, 6, 4, 5)))
    verdict = verify_certificate(g, cert)
    assert verdict.status == "invalid"
    assert verdict.reasons == (f"search budget must be a non-negative integer, got {arg!r}",)


def test_every_emitted_certificate_verifies():
    rng = random.Random(7)
    graphs = [path(5), cycle(7), complete(5), star(4), wheel(6), complete_bipartite(3, 4),
              hypercube(3), hypercube(4), load_fixture("example22").graph,
              Graph(8, list(cycle(5).edges()))]
    graphs += [random_graph(rng, rng.randint(4, 9), 0.4) for _ in range(30)]
    for g in graphs:
        if g.edge_count == 0:
            continue
        for mode in ("auto", "min-degree", "any-degree"):
            for embed in (False, True):
                res = certify(g, mode, embed=embed)
                if res.certificate is not None:
                    verdict = verify_certificate(res.host, res.certificate)
                    assert verdict.status == res.certificate.status, (g, mode, verdict)
        if g.n <= 9:
            cert = exact_strength(g).to_certificate()
            assert verify_certificate(g, cert).status == "exact"
    q6 = certify(hypercube(6)).certificate
    assert verify_certificate(hypercube(6), q6).status == q6.status == "bracket"
    for n in range(1, 8):
        cert = hypercube_certificate(n)
        assert verify_certificate(hypercube(n), cert).status == cert.status


def test_to_dot_shapes():
    g = star(3)
    text = to_dot(g, Numbering((4, 1, 2, 3)))
    assert text.startswith("graph G {")
    assert 'v0 [label="0:4"];' in text
    assert "v0 -- v1;" in text
    bare = to_dot(g)
    assert "label" not in bare
