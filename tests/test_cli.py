from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import graphstrength
from graphstrength import deltaseq, oracle
from graphstrength.cli import EXIT_INPUT, _build_parser, main
from graphstrength.graphio import MAX_EDGELIST_VERTICES, parse_graph6, write_edgelist, write_graph6
from graphstrength.graphs import Graph, complete_bipartite, cycle, disjoint_union
from graphstrength.labeling import LowerBound, StrengthCertificate, require, verify_certificate

from conftest import shallow_stack

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


@pytest.mark.parametrize("flag", ["--alpha-cap", "--xi-max", "--budget"])
def test_bounds_takes_no_limit_flags(capsys, flag):
    # bounds runs at the limits verify recomputes with; there is nothing to set
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--family", "cycle:7", flag, "4"])
    require(exc.value.code == EXIT_INPUT, f"{flag}: exit {exc.value.code}")
    err = capsys.readouterr().err
    require(f"unrecognized arguments: {flag} 4" in err, err)


@pytest.mark.parametrize("command, flag", [("label", "--mode"), ("exact", "--budget")])
def test_label_has_no_mode_and_exact_no_budget(capsys, command, flag):
    # label runs one pipeline, and exact spends the budget verify recomputes with
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", "cycle:7", flag, "4"])
    require(exc.value.code == EXIT_INPUT, f"{command} {flag}: exit {exc.value.code}")
    err = capsys.readouterr().err
    require(f"unrecognized arguments: {flag} 4" in err, err)


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
    # label spots the cube even under --graph6 input and certifies 21
    code, out, _ = run(capsys, "label", "--family", "hypercube:4")
    assert code == 0
    assert "strength: 21 (exact)" in out
    assert "recognized as a dimension-4 cube" in out


def test_label_embed(capsys):
    # no sequence certifies Petersen itself; --embed certifies it inside a host
    code, out, _ = run(capsys, "label", "--graph6", PETERSEN_G6, "--embed")
    assert code == 0
    assert "K_{3,4}" in out
    assert "strength 20 (exact)" in out


def test_label_embed_host_is_input_plus_biclique(capsys, tmp_path):
    # the isolated vertex stays in the host and takes the top label
    g = disjoint_union(parse_graph6(PETERSEN_G6), Graph(1, []))
    code, out, _ = run(capsys, "label", "--graph6", write_graph6(g), "--embed", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["added_biclique"] == [3, 4]
    host = parse_graph6(payload["host_graph6"])
    assert host == disjoint_union(g, complete_bipartite(3, 4))
    assert payload["certificate"]["witness"]["labels"][10] == 18
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(payload["certificate"]))
    code, out, _ = run(capsys, "verify", "--graph6", payload["host_graph6"],
                       "--certificate", str(cert_file))
    assert code == 0 and "verdict: exact" in out


def test_label_embed_without_biclique_prints_plain_certificate(capsys):
    # example22 has no min-degree sequence, but best-Z's any-degree
    # sequence certifies the input itself, so no host is reported
    code, out, _ = run(capsys, "label", "--fixture", "example22", "--embed")
    assert code == 0
    assert "strength: 17 (exact)" in out and "any-degree sequence" in out
    assert "host" not in out

    code, out, _ = run(capsys, "label", "--fixture", "example22", "--embed", "--json")
    payload = json.loads(out)
    assert "embedded" not in payload and payload["upper"] == 17


# the sequence search certifies a complete graph before it counts a node,
# so --budget 0 still gives an exact answer
@pytest.mark.parametrize("flags", [
    (), ("--embed",), ("--budget", "0"), ("--embed", "--budget", "0"),
])
def test_label_complete_graph_in_every_mode(capsys, flags):
    code, out, _ = run(capsys, "label", "--family", "complete:5", *flags)
    assert code == 0
    assert "strength: 9 (exact)" in out


def test_label_inconclusive_prints_bounds_to_stderr(capsys):
    code, out, err = run(capsys, "label", "--graph6", PETERSEN_G6)
    assert code == 3
    assert out == ""
    assert "best bounds" in err and "--embed" in err


def test_label_embed_inconclusive_reports_nodes_not_a_spent_budget(capsys):
    code, out, err = run(capsys, "label", "--graph6", PETERSEN_G6, "--embed", "--budget", "0")
    assert code == 3 and out == ""
    assert err == "inconclusive: no certificate after 1 search nodes\n"


# -- exact -----------------------------------------------------------------------


def test_exact_small(capsys):
    code, out, _ = run(capsys, "exact", "--family", "cycle:5")
    assert code == 0
    assert "exact strength: 7" in out


def test_exact_budget_bracket(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", 10)
    code, out, _ = run(capsys, "exact", "--family", "hypercube:4", "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "bracket"
    assert payload["lower"] <= 21 <= payload["upper"]


def test_exact_bracket_says_why_the_search_stopped(capsys, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(oracle, "DEFAULT_BUDGET", 10)
        code, out, _ = run(capsys, "exact", "--family", "hypercube:4")
    assert code == 3
    assert out == "inconclusive: strength in [20, 31] (budget exhausted after 11 nodes)\n"


def test_exact_on_a_long_path_is_exact_under_a_shallow_stack(capsys):
    with shallow_stack():  # the threshold search keeps its levels on a list
        code, out, _ = run(capsys, "exact", "--family", "path:200")
    assert code == 0
    assert out.startswith("exact strength: 201 (")


def test_exact_certifies_the_six_cube_at_78_and_verify_accepts_it(capsys, tmp_path):
    # above the paper's lower bound 2^6 + 4*6 - 12 = 76 for Q6: p + delta = 70,
    # and the scan refutes 70..77 before 78 is feasible
    code, out, _ = run(capsys, "exact", "--family", "hypercube:6", "--json")
    require(code == 0, out)
    payload = json.loads(out)
    require((payload["status"], payload["upper"], payload["lower"]["value"]) == ("exact", 78, 78),
            out)
    cert_file = tmp_path / "q6.json"
    cert_file.write_text(out)
    code, out, _ = run(capsys, "verify", "--family", "hypercube:6",
                       "--certificate", str(cert_file))
    require(code == 0 and "verdict: exact" in out, out)


def test_exact_has_no_vertex_cap_but_a_budget_limit(capsys):
    code, out, _ = run(capsys, "exact", "--family", "complete:20")
    assert code == 0
    assert "exact strength: 39" in out
    # the budget is the one verify recomputes with; none above it can be asked for
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--family", "cycle:5", "--budget", "2000001"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 2000001" in capsys.readouterr().err


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


def _set_number(cert: dict, field: str, value) -> None:
    """Put ``value`` in one numeric field of certificate JSON."""
    if field == "lower bound value":
        cert["lower"]["value"] = value
    elif field == "upper":
        cert["upper"] = value
    elif field == "p":
        cert["witness"]["p"] = value
    else:
        cert["witness"]["labels"][0] = value


@pytest.mark.parametrize("value", [14.9, "14", True, None])
@pytest.mark.parametrize("field", ["lower bound value", "upper", "p", "label"])
def test_verify_refuses_certificate_numbers_that_are_not_integers(capsys, monkeypatch, field, value):
    _, cert_json, _ = run(capsys, "exact", "--graph6", PETERSEN_G6, "--json")
    require(StrengthCertificate.loads(cert_json).dumps() == cert_json, "real certificate")
    cert = json.loads(cert_json)
    _set_number(cert, field, value)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cert)))
    code, out, err = run(capsys, "verify", "--graph6", PETERSEN_G6, "--certificate", "-")
    require(code == 2 and out == "", f"{field}={value!r}: exit {code}, {out!r}")
    require(f"bad certificate JSON: {field} must be an integer, got {value!r}" in err, err)


@pytest.mark.parametrize("p", [9, 11])
def test_verify_refuses_a_witness_whose_p_is_not_its_length(capsys, monkeypatch, p):
    _, cert_json, _ = run(capsys, "exact", "--graph6", PETERSEN_G6, "--json")
    cert = json.loads(cert_json)
    require(cert["witness"]["p"] == len(cert["witness"]["labels"]) == 10, "real certificate")
    cert["witness"]["p"] = p
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cert)))
    code, out, err = run(capsys, "verify", "--graph6", PETERSEN_G6, "--certificate", "-")
    require(code == 2 and out == "", f"p={p}: exit {code}, {out!r}")
    require("bad certificate JSON: numbering JSON: p does not match labels length" in err, err)


def test_a_maxdeg_certificate_names_an_unknown_bound(capsys, monkeypatch):
    # max degree + 2 is dominated by p + delta on the core, so it is not registered
    _, cert_json, _ = run(capsys, "label", "--family", "cycle:6", "--json")
    cert = StrengthCertificate.loads(cert_json)
    cert = replace(cert, lower=LowerBound("maxdeg+2", 4))
    verdict = verify_certificate(cycle(6), cert)
    require(verdict.status == "invalid", verdict.status)
    require(verdict.reasons[0].startswith("unknown lower bound 'maxdeg+2'"), str(verdict.reasons))
    monkeypatch.setattr("sys.stdin", io.StringIO(cert.dumps()))
    code, out, _ = run(capsys, "verify", "--family", "cycle:6", "--certificate", "-")
    require(code == 4 and "unknown lower bound 'maxdeg+2'" in out, out)


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


def test_repro_runs_every_check(capsys):
    code, out, _ = run(capsys, "repro")
    assert code == 0
    assert out.endswith("9 passed, 0 failed\n")


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


@pytest.mark.parametrize("flag", ["--certificate", "--edges"])
def test_verify_refuses_a_file_that_is_not_utf8(capsys, tmp_path, flag):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe\x00bad")
    graph = ["--edges", str(bad)] if flag == "--edges" else ["--family", "cycle:5"]
    code, out, err = run(capsys, "verify", *graph, "--certificate", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")


def test_verify_refuses_a_deeply_nested_certificate(capsys, tmp_path):
    cert = tmp_path / "deep.json"
    cert.write_text("[" * 100_000)
    code, out, err = run(capsys, "verify", "--family", "cycle:5", "--certificate", str(cert))
    assert code == 2 and out == ""
    assert err.startswith("error: bad certificate JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize("graph", [["--family", "cycle:5"], ["--embed", "--graph6", PETERSEN_G6]])
def test_label_dot_into_a_missing_directory_is_bad_input(capsys, tmp_path, graph):
    dot = tmp_path / "missing" / "x.dot"
    code, out, err = run(capsys, "label", *graph, "--json", "--dot", str(dot))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {dot}: ")


def test_oversized_edge_list_header(capsys, tmp_path):
    f = tmp_path / "huge.edges"
    f.write_text(f"{MAX_EDGELIST_VERTICES + 1} 1\n0 1\n")
    code, out, err = run(capsys, "label", "--json", "--edges", str(f))
    assert code == 2 and out == ""
    assert "line 1" in err and "exceed the limit" in err


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, "label", "--fixture", "q9")
    assert code == 2


def test_edgeless_graph_rejected(capsys):
    code, _, err = run(capsys, "label", "--graph6", "C?")
    assert code == 2
    assert "no edges" in err


def test_parser_defaults_are_library_constants():
    # label's budget defaults to the library's; exact has none to set
    parse = _build_parser().parse_args
    assert not hasattr(parse(["exact", "--family", "cycle:5"]), "budget")
    assert parse(["label", "--family", "cycle:5"]).budget == deltaseq.DEFAULT_BUDGET


# the budget is refused whichever route or output the other flags pick
@pytest.mark.parametrize("argv", [
    ["label", "--budget"], ["label", "--json", "--budget"],
    ["label", "--embed", "--budget"], ["label", "--dot", "-", "--budget"],
    ["label", "--embed", "--json", "--budget"],
])
def test_numeric_flags_refuse_negative_values(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-1", "--family", "cycle:5"])
    err = capsys.readouterr().err
    require(exc.value.code == EXIT_INPUT, f"{argv}: exit {exc.value.code}")
    require(f"argument {argv[-1]}: must be a non-negative integer, got -1" in err, err)
    require(getattr(_build_parser().parse_args([*argv, "0", "--family", "cycle:5"]),
                    argv[-1][2:].replace("-", "_")) == 0, f"{argv} 0")



def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "graphstrength" in capsys.readouterr().out


def test_parser_is_built_once_and_keeps_calls_apart(capsys):
    _build_parser.cache_clear()
    code, out, _ = run(capsys, "label", "--json", "--family", "cycle:5")
    assert code == 0 and out.startswith("{")
    # a flag given to the first call does not carry over to the second
    code, out, _ = run(capsys, "label", "--family", "cycle:5")
    assert code == 0 and not out.startswith("{")
    assert (_build_parser.cache_info().misses, _build_parser.cache_info().hits) == (1, 1)
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["label", "--family", "cycle:5", "--no-such-flag"])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "graphstrength" in capsys.readouterr().out
