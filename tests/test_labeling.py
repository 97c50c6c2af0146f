from __future__ import annotations

import json
import random

import pytest

from graphstrength import labeling, oracle
from graphstrength.constructions import hypercube_certificate, load_fixture
from graphstrength.deltaseq import certify, embed_minimal
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
    recompute_lower_bound,
    strength_of,
    to_dot,
    verify_certificate,
)
from graphstrength.oracle import exact_strength

from conftest import petersen, random_graph


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
        recompute_lower_bound(cycle(4), "made-up")


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
                        lambda core, upper: upper + 1)
    cert = StrengthCertificate(LowerBound("faulty", 6), 5, Numbering((1, 2, 3)))
    verdict = verify_certificate(complete(3), cert)
    assert (verdict.status, verdict.reasons) == (
        "invalid", ("lower bound 6 exceeds witness strength 5; inconsistent",))


def test_unconfirmed_bound_surfaces_as_invalid(monkeypatch):
    g = cycle(8)
    witness = Numbering(tuple(range(1, 9)))
    # the search bound with a hopeless budget cannot be recomputed
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 1)
    cert = StrengthCertificate(LowerBound("search", 10), 16, witness)
    verdict = verify_certificate(g, cert)
    assert verdict.status == "invalid"
    assert any("unconfirmed" in r for r in verdict.reasons)


def test_search_bound_recomputes_exactly(monkeypatch):
    assert recompute_lower_bound(cycle(5), "search") == 7
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 1)
    with pytest.raises(UnconfirmedBound):
        recompute_lower_bound(cycle(8), "search")


def test_verify_refuses_an_independence_bound_on_a_core_above_the_cap(monkeypatch):
    # the bound's one limit is the 40-vertex core
    def no_search(*_args):
        raise AssertionError("an over-limit core must not start the alpha search")

    def verdict(core: int) -> labeling.CertificateVerdict:
        g = disjoint_union(cycle(core), Graph(3, []))
        witness = Numbering(tuple(range(1, core + 4)))
        lower = LowerBound("independence", 2 * core - 2 * (core // 2) + 1)
        return verify_certificate(g, StrengthCertificate(lower, strength_of(g, witness), witness))

    assert verdict(40).status == "bracket"
    monkeypatch.setattr("graphstrength.bounds._bits", no_search)
    assert verdict(41) == labeling.CertificateVerdict(
        "invalid", ("41 vertices exceeds the independence cap 40",))


@pytest.mark.parametrize("args", [[], [4], [5], [2_000_001], "four", None])
def test_certificate_args_are_ignored(args):
    # older certificates carry recompute arguments (xi's set size, search's
    # budget); every bound now runs at the library's limits, so no value of
    # them changes the certificate or its verdict
    for g, cert in ((petersen(), exact_strength(petersen()).to_certificate()),
                    (hypercube(3), hypercube_certificate(3))):
        obj = cert.to_json()
        assert "args" not in obj["lower"]
        obj["lower"]["args"] = args
        loaded = StrengthCertificate.loads(json.dumps(obj))
        assert loaded == cert
        assert verify_certificate(g, loaded).status == "exact"


def test_every_emitted_certificate_verifies():
    rng = random.Random(7)
    graphs = [path(5), cycle(7), complete(5), star(4), wheel(6), complete_bipartite(3, 4),
              hypercube(3), hypercube(4), load_fixture("example22").graph,
              Graph(8, list(cycle(5).edges()))]
    graphs += [random_graph(rng, rng.randint(4, 9), 0.4) for _ in range(30)]
    for g in graphs:
        if g.edge_count == 0:
            continue
        results = [certify(g), certify(g, embed=True)]
        if g.core()[0] is g:
            results.append(embed_minimal(g))  # sequences where closed forms apply
        for res in results:
            if res.certificate is not None:
                verdict = verify_certificate(res.host, res.certificate)
                assert verdict.status == res.certificate.status, (g, verdict)
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
