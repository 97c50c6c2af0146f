"""Property tests: certificates and bounds checked against recomputation.

``small_graphs(max_n=7)`` often draws isolated vertices, so every route
below also runs through the split into a core and back.
"""

from __future__ import annotations

from hypothesis import assume, given, settings

from graphstrength.bounds import bounds_report
from graphstrength.deltaseq import certify
from graphstrength.labeling import verify_certificate
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


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=7))
def test_bounds_sandwich_the_oracle_and_brute_force(g):
    assume(g.edge_count > 0)
    report = bounds_report(g)
    value = exact_strength(g).value
    assert report.best_lower <= value == brute_strength(g) <= report.best_upper
