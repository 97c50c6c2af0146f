from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import graphstrength
from graphstrength.cli import main
from graphstrength.graphio import write_edgelist, write_graph6
from graphstrength.graphs import Graph, cycle

PETERSEN_G6 = "IheA@GUAo"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- bounds ------------------------------------------------------------------------


def test_bounds_human(capsys):
    code, out, _ = run(capsys, "bounds", "--graph6", PETERSEN_G6)
    assert code == 0
    assert "p+delta" in out and "independence" in out
    assert "strength in [13, 19]" in out


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "complete:5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] and payload["best_lower"] == payload["best_upper"] == 9
    assert {e["name"] for e in payload["entries"]} >= {"p+delta", "2p-1", "xi"}


# -- label: each input kind ----------------------------------------------------------


def test_label_family(capsys):
    code, out, _ = run(capsys, "label", "--family", "path:6")
    assert code == 0
    assert "strength: 7 (exact)" in out


def test_label_graph6(capsys):
    code, out, _ = run(capsys, "label", "--graph6", write_graph6(cycle(5)))
    assert code == 0
    assert "strength: 7 (exact)" in out


def test_label_edges_file(capsys, tmp_path):
    f = tmp_path / "g.edges"
    f.write_text(write_edgelist(cycle(6)))
    code, out, _ = run(capsys, "label", "--edges", str(f))
    assert code == 0
    assert "strength: 8 (exact)" in out


def test_label_edges_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(write_edgelist(cycle(7))))
    code, out, _ = run(capsys, "label", "--edges", "-")
    assert code == 0
    assert "strength: 9 (exact)" in out


def test_label_fixture(capsys):
    code, out, _ = run(capsys, "label", "--fixture", "example21")
    assert code == 0
    assert "strength: 14 (exact)" in out


# -- label: behavior ------------------------------------------------------------------


def test_label_isolated_vertices_noted(capsys):
    # C5 plus two isolated vertices: strength stays 7, top labels parked
    g6 = write_graph6(Graph(7, list(cycle(5).edges())))
    code, out, _ = run(capsys, "label", "--graph6", g6)
    assert code == 0
    assert "strength: 7 (exact)" in out
    assert "2 isolated vertices take the top labels" in out


def test_label_json_is_a_loadable_certificate(capsys):
    code, out, _ = run(capsys, "label", "--family", "cycle:6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == 8 and payload["lower"]["value"] == 8
    assert sorted(payload["witness"]["labels"]) == list(range(1, 7))


def test_label_deterministic(capsys):
    first = run(capsys, "label", "--family", "wheel:6")
    second = run(capsys, "label", "--family", "wheel:6")
    assert first == second


def test_label_dot_output(capsys, tmp_path):
    dot = tmp_path / "out.dot"
    code, _, _ = run(capsys, "label", "--family", "cycle:4", "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph")
    assert 'label="0:1"' in text and "v0 -- v1" in text


def test_label_hypercube_six_is_inconclusive(capsys):
    code, out, _ = run(capsys, "label", "--family", "hypercube:6")
    assert code == 3
    assert "[76, 79]" in out


def test_label_recognizes_scrambled_cube(capsys):
    # auto mode spots the cube even under --graph6 input and certifies 21
    code, out, _ = run(capsys, "label", "--family", "hypercube:4")
    assert code == 0
    assert "strength: 21 (exact)" in out
    assert "recognized as a dimension-4 cube" in out


def test_label_embed(capsys):
    # min-degree alone cannot finish Q4; --embed certifies it inside a host
    code, out, _ = run(capsys, "label", "--family", "hypercube:4",
                       "--mode", "min-degree", "--embed")
    assert code == 0
    assert "K_{4,5}" in out
    assert "strength 29 (exact)" in out


def test_label_embed_without_biclique_prints_plain_certificate(capsys):
    # min-degree exhausts on example22, but the any-degree engine certifies
    # the input itself, so no host is reported
    code, out, _ = run(capsys, "label", "--fixture", "example22",
                       "--mode", "min-degree", "--embed")
    assert code == 0
    assert "strength: 17 (exact)" in out and "any-degree sequence" in out
    assert "host" not in out

    code, out, _ = run(capsys, "label", "--fixture", "example22",
                       "--mode", "min-degree", "--embed", "--json")
    payload = json.loads(out)
    assert "embedded" not in payload and payload["upper"] == 17


@pytest.mark.parametrize("flags", [
    ("--mode", "min-degree"), ("--mode", "any-degree"),
    ("--mode", "min-degree", "--embed"), ("--mode", "any-degree", "--embed"),
])
def test_label_complete_graph_in_every_mode(capsys, flags):
    code, out, _ = run(capsys, "label", "--family", "complete:5", *flags)
    assert code == 0
    assert "strength: 9 (exact)" in out


def test_label_inconclusive_prints_bounds_to_stderr(capsys):
    code, out, err = run(capsys, "label", "--family", "hypercube:4",
                         "--mode", "min-degree")
    assert code == 3
    assert out == ""
    assert "best bounds" in err and "--embed" in err


# -- exact -----------------------------------------------------------------------


def test_exact_small(capsys):
    code, out, _ = run(capsys, "exact", "--family", "cycle:5")
    assert code == 0
    assert "exact strength: 7" in out


def test_exact_budget_bracket(capsys):
    code, out, _ = run(capsys, "exact", "--family", "hypercube:4",
                       "--budget", "10", "--vertex-cap", "16", "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "bracket"
    assert payload["lower"] <= 21 <= payload["upper"]


def test_exact_rejects_oversize(capsys):
    code, _, err = run(capsys, "exact", "--family", "complete:20")
    assert code == 2
    assert "vertex" in err


# -- verify ------------------------------------------------------------------------


def test_verify_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "label", "--family", "cycle:6", "--json")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out, _ = run(capsys, "verify", "--family", "cycle:6",
                       "--certificate", str(cert_file))
    assert code == 0
    assert "verdict: exact" in out


def test_verify_rejects_tampered_certificate(capsys, tmp_path):
    _, out, _ = run(capsys, "label", "--family", "cycle:6", "--json")
    payload = json.loads(out)
    labels = payload["witness"]["labels"]
    labels[0], labels[1] = labels[1], labels[0]
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", "--family", "cycle:6",
                       "--certificate", str(cert_file))
    assert code == 4
    assert "verdict" in out


def test_verify_certificate_from_stdin(capsys, monkeypatch):
    _, cert_json, _ = run(capsys, "label", "--family", "star:5", "--json")
    monkeypatch.setattr("sys.stdin", io.StringIO(cert_json))
    code, out, _ = run(capsys, "verify", "--family", "star:5", "--certificate", "-")
    assert code == 0
    assert "verdict: exact" in out


def test_verify_rejects_infinite_numbers(capsys, monkeypatch):
    _, cert_json, _ = run(capsys, "label", "--family", "cycle:6", "--json")
    payload = cert_json.replace('"upper": 8', '"upper": Infinity')
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, _, err = run(capsys, "verify", "--family", "cycle:6", "--certificate", "-")
    assert code == 2
    assert "bad certificate JSON" in err


def test_verify_against_wrong_graph_fails(capsys, tmp_path):
    _, out, _ = run(capsys, "label", "--family", "cycle:6", "--json")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out, _ = run(capsys, "verify", "--family", "cycle:7",
                       "--certificate", str(cert_file))
    assert code == 4


# -- repro -------------------------------------------------------------------------


def test_repro_list(capsys):
    code, out, _ = run(capsys, "repro", "--list")
    assert code == 0
    names = out.split()
    assert "fixtures" in names and "worked-traces" in names and len(names) == 9


def test_repro_single_check(capsys):
    code, out, _ = run(capsys, "repro", "--filter", "two-regular")
    assert code == 0
    assert out.startswith("ok two-regular")
    assert "1 passed, 0 failed" in out


def test_repro_checks_survive_python_O(tmp_path):
    # a stored q6 row maximum off by one, under a matching checksum
    src = Path(graphstrength.__file__).resolve().parent
    fixtures = tmp_path / "fixtures"
    shutil.copytree(src / "fixtures", fixtures)
    q6 = fixtures / "q6.json"
    data = json.loads(q6.read_text())
    data["row_max"][0] += 1
    q6.write_text(json.dumps(data))
    manifest = json.loads((fixtures / "checksums.json").read_text())
    manifest["q6.json"] = hashlib.sha256(q6.read_bytes()).hexdigest()
    (fixtures / "checksums.json").write_text(json.dumps(manifest))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "graphstrength.cli", "repro",
         "--filter", "fixtures", "--fixture-dir", str(fixtures)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src.parent)},
    )
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert "FAIL fixtures" in proc.stdout


# -- input errors ------------------------------------------------------------------


def test_bad_family_spec(capsys):
    code, _, err = run(capsys, "bounds", "--family", "dodecahedron:5")
    assert code == 2
    assert "dodecahedron" in err

    code, _, err = run(capsys, "bounds", "--family", "cycle:two")
    assert code == 2


def test_garbage_graph6(capsys):
    code, _, err = run(capsys, "label", "--graph6", "D?{!")
    assert code == 2
    assert "graph6" in err.lower()


def test_missing_edges_file(capsys):
    code, _, err = run(capsys, "label", "--edges", "/nonexistent/g.edges")
    assert code == 2


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, "label", "--fixture", "q9")
    assert code == 2


def test_edgeless_graph_rejected(capsys):
    code, _, err = run(capsys, "label", "--graph6", "C?")
    assert code == 2
    assert "no edges" in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "graphstrength" in capsys.readouterr().out
