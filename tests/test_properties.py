"""Property tests: certificates and bounds checked against recomputation.

``small_graphs(max_n=7)`` often draws isolated vertices, so every route
below also runs through the split into a core and back.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphstrength import labeling
from graphstrength.bounds import bounds_report
from graphstrength.deltaseq import certify
from graphstrength.graphs import Graph, disjoint_union
from graphstrength.labeling import (
    LowerBound,
    Numbering,
    StrengthCertificate,
    UnconfirmedBound,
    lower_bound_names,
    recompute_lower_bound,
    require,
    strength_of,
    verify_certificate,
)
from graphstrength.oracle import exact_strength

from conftest import brute_strength, small_graphs


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=7))
def test_certify_certificates_reverify_on_their_host(g):
    assume(g.edge_count > 0)
    for mode in ("auto", "min-degree", "any-degree"):
        for embed in (False, True):
            res = certify(g, mode, embed=embed)
            if res.certificate is None:
                assert not embed and res.status == "inconclusive"
                continue
            assert res.host.n >= g.n and res.host.adj[:g.n] == g.adj
            verdict = verify_certificate(res.host, res.certificate)
            assert verdict.status == res.certificate.status == res.status, (mode, embed)


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=7))
def test_every_bound_recomputes_alike_with_isolated_vertices_added(g):
    # recompute_lower_bound hands each bound the core: three isolated
    # vertices change no value, and no refusal either
    assume(g.edge_count > 0)
    padded = disjoint_union(g, Graph(3))
    for name in lower_bound_names():
        outcomes = []
        for h in (g, padded):
            try:
                outcomes.append(recompute_lower_bound(h, name))
            except (ValueError, UnconfirmedBound) as e:
                outcomes.append(f"{type(e).__name__}: {e}")
        require(outcomes[0] == outcomes[1], f"{g.edges()} {name}: {outcomes}")


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=7))
def test_bounds_sandwich_the_oracle_and_brute_force(g):
    assume(g.edge_count > 0)
    report = bounds_report(g)
    value = exact_strength(g).value
    assert report.best_lower <= value == brute_strength(g) <= report.best_upper


# -- the search bound's one refutation against its full rerun ----------------------
#
# verify hands the search bound the checked witness strength s, which it proves
# by the scan start or one refutation at s - 1, falling back to the full scan
# when s - 1 is feasible.  Without that value (``upper`` None) the bound runs
# the full scan, which is how every search certificate was checked before.


def verify_by_full_rerun(g, cert) -> labeling.CertificateVerdict:
    full = labeling.recompute_lower_bound
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(labeling, "recompute_lower_bound",
                   lambda g, name, upper=None: full(g, name))
        return verify_certificate(g, cert)


def shuffled_numbering(g, rnd) -> Numbering:
    labels = list(range(1, g.n + 1))
    rnd.shuffle(labels)
    return Numbering(tuple(labels))


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=7), st.randoms(use_true_random=False))
def test_search_bound_with_a_witness_strength_equals_the_full_rerun(g, rnd):
    assume(g.edge_count > 0)
    value = recompute_lower_bound(g, "search")
    require(value == brute_strength(g), f"{g.edges()}: search gives {value}")
    for upper in (value, strength_of(g, shuffled_numbering(g, rnd))):
        got = recompute_lower_bound(g, "search", upper)
        require(got == value, f"{g.edges()}: with upper {upper} the bound is {got}, not {value}")


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_doctored_search_certificates_get_the_verdicts_of_the_full_rerun(g, rnd):
    assume(g.edge_count > 0)
    cert = exact_strength(g).to_certificate()
    value = cert.upper
    other = shuffled_numbering(g, rnd)
    other_strength = strength_of(g, other)
    doctored = {
        "claim too high": (replace(cert, lower=LowerBound("search", value + 1)), "invalid"),
        "claim too low": (replace(cert, lower=LowerBound("search", value - 1)), "invalid"),
        "upper below its witness": (replace(cert, upper=value - 1), "invalid"),
        "exact at a worse witness": (
            StrengthCertificate(LowerBound("search", other_strength), other_strength, other),
            "exact" if other_strength == value else "invalid",
        ),
        "search on a bracket": (
            StrengthCertificate(LowerBound("search", value), other_strength, other),
            "exact" if other_strength == value else "bracket",
        ),
    }
    for name, (doctored_cert, status) in doctored.items():
        got = verify_certificate(g, doctored_cert)
        want = verify_by_full_rerun(g, doctored_cert)
        require(got == want, f"{g.edges()} {name}: {got} against the full rerun's {want}")
        require(got.status == status, f"{g.edges()} {name}: {got.status}, expected {status}")
