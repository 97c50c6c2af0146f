from __future__ import annotations

import hashlib
import json
import random
import shutil
from pathlib import Path

import pytest

from graphstrength.bounds import two_regular_strength
from graphstrength.constructions import (
    BUNDLED_FIXTURES,
    FixtureError,
    double_bipartite,
    fixture_directory,
    hypercube_certificate,
    label_two_regular,
    load_fixture,
)
from graphstrength.graphs import (
    Graph,
    complete_bipartite,
    cycle,
    cycles_union,
    hypercube,
    path,
)
from graphstrength.labeling import Numbering, strength_of, verify_certificate
from graphstrength.oracle import exact_strength

from conftest import reference_label_two_regular


# -- two-regular ----------------------------------------------------------------


def test_single_even_cycle():
    g = cycle(6)
    num, cert = label_two_regular(g)
    assert cert.status == "exact" and cert.value == 8
    assert verify_certificate(g, cert).ok


def test_single_odd_cycle():
    g = cycle(7)
    num, cert = label_two_regular(g)
    assert cert.value == 9
    assert exact_strength(g).value == 9


def test_mixed_union_matches_formula_and_oracle():
    rng = random.Random(41)
    for _ in range(40):
        lengths = [rng.randint(3, 6) for _ in range(rng.randint(1, 3))]
        g = cycles_union(lengths)
        if g.n > 12:
            continue
        _, cert = label_two_regular(g)
        assert cert.value == two_regular_strength(sorted(lengths))
        assert exact_strength(g).value == cert.value


def test_two_regular_on_scrambled_ids():
    rng = random.Random(6)
    g = cycles_union([5, 3, 4])
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabeled(perm)
    num, cert = label_two_regular(h)
    assert cert.value == 12 + 1 + 2
    assert strength_of(h, num) == cert.value
    assert verify_certificate(h, cert).ok


def test_two_regular_matches_the_interleaved_reference():
    # the top-set numbering gives the hand-interleaved blocks' labels, on
    # cycle unions numbered in order and at random
    rng = random.Random(27)
    for trial in range(600):
        g = cycles_union([rng.randint(3, 12) for _ in range(rng.randint(1, 6))])
        if trial % 2:
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = g.relabeled(perm)
        assert label_two_regular(g)[0] == reference_label_two_regular(g), g.edges()


def test_two_regular_rejects_other_graphs():
    with pytest.raises(ValueError):
        label_two_regular(path(4))
    with pytest.raises(ValueError):
        label_two_regular(Graph(0, []))


def test_odd_cycle_count_drives_the_value():
    # all-even unions sit at p+2; each odd cycle past the first adds one
    assert label_two_regular(cycles_union([4, 6]))[1].value == 12
    assert label_two_regular(cycles_union([3, 4]))[1].value == 9
    assert label_two_regular(cycles_union([3, 3]))[1].value == 9
    assert label_two_regular(cycles_union([3, 3, 3]))[1].value == 13


# -- doubling --------------------------------------------------------------------


def _doubling_invariants(g: Graph, f: Numbering) -> tuple[Graph, Numbering]:
    """Re-derive every block equality the construction promises."""
    m = g.n // 2
    product, doubled = double_bipartite(g, f)
    part_x = [v for v in range(g.n) if f.labels[v] <= m]
    part_y = [v for v in range(g.n) if f.labels[v] > m]
    lab = doubled.labels
    # matching sums: exactly 3m+1 over the low part, exactly 5m+1 over the high part
    assert all(lab[x] + lab[x + g.n] == 3 * m + 1 for x in part_x)
    assert all(lab[y] + lab[y + g.n] == 5 * m + 1 for y in part_y)
    # the four label blocks partition 1..4m
    assert sorted(lab[x] for x in part_x) == list(range(1, m + 1))
    assert sorted(lab[y + g.n] for y in part_y) == list(range(m + 1, 2 * m + 1))
    assert sorted(lab[x + g.n] for x in part_x) == list(range(2 * m + 1, 3 * m + 1))
    assert sorted(lab[y] for y in part_y) == list(range(3 * m + 1, 4 * m + 1))
    # within-part pairs never touch, so their sum conditions hold vacuously
    assert all(not g.has_edge(u, v) for u in part_x for v in part_x if u < v)
    assert all(not g.has_edge(u, v) for u in part_y for v in part_y if u < v)
    # copy-internal edges stay below the matching peaks
    for u, v in g.edges():
        assert lab[u] + lab[v] <= 5 * m + 1
        assert lab[u + g.n] + lab[v + g.n] <= 5 * m
    assert strength_of(product, doubled) == 5 * m + 1
    return product, doubled


def test_doubling_chain_invariants_from_square():
    g, f = hypercube(2), Numbering((1, 3, 4, 2))
    for expect_n in (3, 4, 5):
        g, f = _doubling_invariants(g, f)
        assert g == hypercube(expect_n)
    assert strength_of(g, f) == 41  # doubled Q4 numbering: valid, not optimal


def test_doubling_from_stored_q5():
    fx = load_fixture("q5")
    product, doubled = _doubling_invariants(fx.graph, fx.numbering)
    assert product == hypercube(6)
    assert strength_of(product, doubled) == 81


def test_double_bipartite_rejections():
    with pytest.raises(ValueError):
        double_bipartite(cycle(5), Numbering((1, 2, 3, 4, 5)))
    with pytest.raises(ValueError):
        double_bipartite(cycle(4), Numbering((1, 2, 3, 4)))  # low half not a side
    with pytest.raises(ValueError):
        double_bipartite(cycle(4), Numbering((1, 2, 3)))
    with pytest.raises(ValueError):
        double_bipartite(Graph(0, []), Numbering(()))


def test_double_bipartite_random_balanced():
    rng = random.Random(8)
    for _ in range(60):
        m = rng.randint(1, 7)
        edges = [(x, m + y) for x in range(m) for y in range(m) if rng.random() < 0.5]
        if not edges:
            continue
        g = Graph(2 * m, edges)
        low = list(range(1, m + 1))
        high = list(range(m + 1, 2 * m + 1))
        rng.shuffle(low)
        rng.shuffle(high)
        _doubling_invariants(g, Numbering(tuple(low + high)))


# -- hypercube certificates --------------------------------------------------------


def test_hypercube_certificates_table():
    expected = {
        1: (3, 3, "p+delta"),
        2: (6, 6, "xi"),
        3: (11, 11, "xi"),
        4: (21, 21, "xi"),
        5: (40, 40, "hypercube"),
        6: (76, 79, "hypercube"),
        7: (144, 161, "hypercube"),
        8: (276, 321, "hypercube"),
    }
    for n, (lo, up, name) in expected.items():
        cert = hypercube_certificate(n)
        assert (cert.lower.value, cert.upper) == (lo, up), n
        assert cert.lower.name == name
        assert strength_of(hypercube(n), cert.witness) == cert.upper
        assert verify_certificate(hypercube(n), cert).ok


def test_hypercube_certificate_rejects_dimension_zero():
    with pytest.raises(ValueError):
        hypercube_certificate(0)


# -- fixtures ----------------------------------------------------------------------


def test_all_bundled_fixtures_load():
    for name in BUNDLED_FIXTURES:
        fx = load_fixture(name)
        assert fx.name == name
        assert strength_of(fx.graph, fx.numbering) == fx.strength


def test_fixture_values():
    assert load_fixture("q5").strength == 40
    assert load_fixture("q6").strength == 79
    assert load_fixture("example21").strength == 14
    assert load_fixture("example22").strength == 17


def test_q6_marginal_divergences_are_reported():
    notes = load_fixture("q6").notes
    diverging = [n for n in notes if "stored" in n]
    assert len(diverging) == 3
    assert any("row 110" in n and "77" in n for n in diverging)
    assert any("row 111" in n and "72" in n for n in diverging)
    assert any("col 010" in n and "74" in n for n in diverging)
    # q5 marginals all agree
    assert not [n for n in load_fixture("q5").notes if "stored" in n]


def _copy_fixtures(tmp_path: Path) -> Path:
    for f in fixture_directory().iterdir():
        shutil.copy(f, tmp_path)
    return tmp_path


def test_checksum_tamper_rejected(tmp_path):
    d = _copy_fixtures(tmp_path)
    path = d / "q5.json"
    data = json.loads(path.read_text())
    data["labels"][0] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(FixtureError) as err:
        load_fixture("q5", directory=d)
    assert "checksum" in str(err.value)


def test_tamper_with_fresh_checksum_still_rejected(tmp_path):
    d = _copy_fixtures(tmp_path)
    path = d / "q5.json"
    data = json.loads(path.read_text())
    data["labels"][0], data["labels"][3] = data["labels"][3], data["labels"][0]
    blob = json.dumps(data)
    path.write_text(blob)
    manifest_path = d / "checksums.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["q5.json"] = hashlib.sha256(blob.encode()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(FixtureError) as err:
        load_fixture("q5", directory=d)
    assert "strength" in str(err.value)


def test_non_bijection_fixture_rejected(tmp_path):
    d = _copy_fixtures(tmp_path)
    path = d / "example21.json"
    data = json.loads(path.read_text())
    data["labels"][0] = data["labels"][1]
    blob = json.dumps(data)
    path.write_text(blob)
    manifest_path = d / "checksums.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["example21.json"] = hashlib.sha256(blob.encode()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(FixtureError):
        load_fixture("example21", directory=d)


def test_missing_pieces_are_named(tmp_path):
    with pytest.raises(FixtureError) as err:
        load_fixture("q5", directory=tmp_path)  # no manifest at all
    assert "manifest" in str(err.value)

    d = _copy_fixtures(tmp_path)
    (d / "q5.json").unlink()
    with pytest.raises(FixtureError) as err:
        load_fixture("q5", directory=d)
    assert "missing fixture file" in str(err.value)

    with pytest.raises(FixtureError) as err:
        load_fixture("unlisted", directory=d)
    assert "not listed" in str(err.value)


def test_family_mismatch_rejected(tmp_path):
    d = _copy_fixtures(tmp_path)
    path = d / "q5.json"
    data = json.loads(path.read_text())
    data["family"] = "hypercube:4"
    blob = json.dumps(data)
    path.write_text(blob)
    manifest_path = d / "checksums.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["q5.json"] = hashlib.sha256(blob.encode()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(FixtureError) as err:
        load_fixture("q5", directory=d)
    assert "does not match" in str(err.value)
