"""Checks on the benchmark itself.

    python3 -m pytest -q perfbench

Negative controls for the correctness gate, exact repetition of every count
for a fixed seed, agreement between the metric lists, and the refusal to
run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import corpus
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
GS = workloads.load_library(ROOT)


def _items(workload: str, seed: int = 1):
    return workloads.prepare(workload, corpus.build_corpus(workload, seed), GS)


def _sample(workload: str) -> list:
    """A quick slice of the corpus: every seventh member in cost order, cheap end first."""
    items = sorted(_items(workload), key=lambda it: (it.meta["cost_s"], it.id))
    return items[::7][:15]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_negative_controls_count_as_failures(workload):
    item = _sample(workload)[-1]
    answer = workloads.OPS[workload](GS, item)
    assert workloads.check(workload, item, answer) == []

    # a reference off by one either way; an embedded answer is checked
    # against |host| + the recorded delta
    for shift in (-1, 1):
        lo, hi = item.ref
        wrong_ref = replace(item, ref=(lo + shift, hi + shift),
                            meta=dict(item.meta, delta=item.meta.get("delta", 0) + shift))
        assert workloads.check(workload, wrong_ref, answer)

    if answer.labels is not None:
        # the first swap of two labels that changes the witness's strength
        for u in range(answer.n):
            for v in range(u + 1, answer.n):
                labels = list(answer.labels)
                labels[u], labels[v] = labels[v], labels[u]
                if corpus.max_edge_sum(answer.edges, labels) != answer.upper:
                    break
            else:
                continue
            break
        assert workloads.check(workload, item, replace(answer, labels=labels))


def test_bounds_gate_rejects_claims_beyond_the_reference():
    items = [it for it in _sample("bounds-scan") if it.ref[0] < it.ref[1]]
    assert items
    for item in items[-3:]:
        answer = workloads.OPS["bounds-scan"](GS, item)
        assert workloads.check("bounds-scan", item, answer) == []
        # a best lower bound one higher, or best upper bound one lower,
        # inside the old bracket
        assert workloads.check("bounds-scan", item, replace(answer, lower=answer.lower + 1))
        assert workloads.check("bounds-scan", item, replace(answer, upper=answer.upper - 1))
        # one named lower bound one higher, the best lower bound unchanged
        for name in ("xi", "p+edge-connectivity", "p+delta"):
            entries = [dict(e, value=e["value"] + (e["name"] == name)) for e in answer.notes["entries"]]
            assert entries != answer.notes["entries"]
            assert workloads.check("bounds-scan", item, replace(answer, notes=dict(answer.notes, entries=entries)))


def test_witness_check_rejects_non_bijection():
    answer = workloads.Answer(5, 5, labels=[1, 1, 3], n=3, edges=((0, 1), (1, 2)))
    assert workloads.check_witness(answer) == ["witness is not a bijection onto 1..p"]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_inputs_and_counts_repeat_for_a_fixed_seed(workload):
    assert corpus.digest(corpus.build_corpus(workload, 7)) == corpus.digest(corpus.build_corpus(workload, 7))
    assert corpus.digest(corpus.build_corpus(workload, 7)) != corpus.digest(corpus.build_corpus(workload, 8))
    items = _sample(workload)
    runs = []
    for _ in range(2):
        rec = spans.Recorder()
        result = run.run_pass(GS, workload, items, rec)
        layers = spans.layer_metrics(rec)
        counts = {k: v for k, v in layers.items() if not k.endswith("_s")}
        runs.append((counts, result.exact, result.ratios, result.failures))
    assert runs[0] == runs[1]
    assert runs[0][3] == []


def test_metric_lists_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    computed = set(spans.layer_metrics(spans.Recorder()))
    extra = {"trace.overhead_share", "trace.pass_s", "package.import_s",
             "package.import_networkx_s", "package.src_lines", "host.calib_s"}
    assert per_layer == computed | extra
    mapped = {m for layer in json.loads((Path(__file__).with_name("layers.json")).read_text())["layers"]
              for m in layer["metrics"]}
    assert mapped == per_layer
    assert {w["name"] for w in spec["workloads"]} == set(corpus.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
