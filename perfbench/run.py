"""graphstrength benchmark: one seeded workload, every answer checked.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 30 --trace 0

Run from the repository root; graphstrength is imported from ``src/``.
The workload is a closed loop: one client in this process takes each graph
to a checked answer before starting the next (``jobs=1``, default budgets).
Whole passes over the seeded corpus repeat for about ``--seconds``.

Times are scaled to a reference host speed.  On a 2-CPU share of a
2.1 GHz Xeon host, other tenants' load slowed this process by up to 1.7x
for minutes at a time; CPU time slowed with it, and the minimum over a
run's passes cannot recover the quiet speed when the whole run is slow.
So a fixed probe loop runs before every op (untimed), and each pass's op
times are divided by the median probe time of that pass over
``REFERENCE_PROBE_S``.  The raw figures are printed before the result.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it describe the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
WARMUP_OPS = 5
PROBE_LOOPS = 20_000
# A fixed scale near the probe loop's time on a quiet 2.1 GHz Xeon core under
# CPython 3.11, whose fastest probes took 1.12-1.23 ms: reported times are
# about what such a host would show.
REFERENCE_PROBE_S = 0.00125


def calib(loops: int = 300_000) -> float:
    """Seconds for a fixed pure-Python loop: a reading of host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return time.perf_counter() - start


def slowdown(probes: list[float]) -> float:
    """How many times slower than the reference host the probes ran."""
    return statistics.median(probes) / REFERENCE_PROBE_S


def setup_probe(workload: str, seed: int, importtime: bool = False) -> dict:
    """Set-up in a fresh interpreter, timed from spawn to inputs ready."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "setup_probe.py"), workload, str(seed)]
    probes = [calib(PROBE_LOOPS) for _ in range(15)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    info["raw_setup_s"] = info["ready"] - spawned
    info["setup_s"] = info["raw_setup_s"] / slowdown(probes)
    if importtime:
        info["networkx_s"] = networkx_import_s(proc.stderr)
    return info


def networkx_import_s(importtime_log: str) -> float:
    """Cumulative import time of the top-level networkx package."""
    for line in importtime_log.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "networkx":
            return int(parts[1]) / 1e6
    raise SystemExit("networkx not found in the -X importtime log")


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "graphstrength").rglob("*.py"))


class Pass:
    """Per-op times and outcomes of one pass over the corpus."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ratios: list[float] = []
        self.exact = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.calib: list[float] = []
        self.probes: list[float] = []
        self.slowdown = 1.0

    def scaled(self, i: int) -> float:
        """Op ``i``'s time at the reference host speed."""
        return self.times[i] / self.slowdown


def run_pass(gs, workload: str, items, recorder: spans.Recorder | None = None) -> Pass:
    op = workloads.OPS[workload]
    result = Pass()
    gc.collect()
    result.calib.append(calib())
    if recorder is not None:
        recorder.install()
    try:
        for idx, item in enumerate(items):
            result.probes.append(calib(PROBE_LOOPS))
            if recorder is not None:
                recorder.op = idx
            start = time.perf_counter()
            try:
                answer = op(gs, item)
            except Exception as exc:  # noqa: BLE001 - a raising op is a counted failure
                result.times.append(time.perf_counter() - start)
                result.failures.append((item.id, [f"raised {exc!r}"]))
                continue
            result.times.append(time.perf_counter() - start)
            problems = workloads.check(workload, item, answer)
            if problems:
                result.failures.append((item.id, problems))
                continue
            result.exact += answer.exact
            result.ratios.append(answer.upper / answer.lower)
    finally:
        if recorder is not None:
            recorder.uninstall()
    result.calib.append(calib())
    result.slowdown = slowdown(result.probes)
    return result


def measure(seconds: float, step) -> list:
    """Call ``step`` until another call would end more than half a call past
    ``seconds``, so that a run measures for ``seconds`` on average; at least once."""
    start = time.perf_counter()
    out = [step()]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(out) / 2 > seconds:
            return out
        out.append(step())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    nx_probe = setup_probe(args.workload, args.seed, importtime=True) if args.trace else None

    gs = workloads.load_library(ROOT)
    chosen = corpus.build_corpus(args.workload, args.seed)
    items = workloads.prepare(args.workload, chosen, gs)
    digest = corpus.digest(chosen)
    digest_ok = all(p["digest"] == digest for p in probes)
    print(f"workload {args.workload} seed {args.seed}: {len(items)} graphs, graph6 digest {digest}"
          + ("" if digest_ok else " (a fresh process built different inputs!)"))

    for item in sorted(items, key=lambda it: (it.meta["cost_s"], it.id))[:WARMUP_OPS]:
        workloads.OPS[args.workload](gs, item)

    if args.trace:
        pairs = measure(args.seconds, lambda: (
            run_pass(gs, args.workload, items),
            (rec := spans.Recorder(), run_pass(gs, args.workload, items, rec)),
        ))
        passes = [p for plain, (_, traced) in pairs for p in (plain, traced)]
        per_pass = [spans.layer_metrics(rec) for _, (rec, _) in pairs]
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        metrics.update({
            "trace.overhead_share": statistics.median(
                sum(traced.times) / traced.slowdown / (sum(plain.times) / plain.slowdown) - 1
                for plain, (_, traced) in pairs),
            "trace.pass_s": statistics.median(sum(traced.times) for _, (_, traced) in pairs),
            "package.import_s": statistics.median(p["import_s"] for p in probes),
            "package.import_networkx_s": nx_probe["networkx_s"],
            "package.src_lines": src_lines(),
        })
        print(f"{len(pairs)} untraced/traced pass pairs")
    else:
        passes = measure(args.seconds, lambda: run_pass(gs, args.workload, items))
        per_op = [statistics.median(p.scaled(i) for p in passes) for i in range(len(items))]
        deciles = statistics.quantiles(per_op, n=10)
        raw = [statistics.median(p.times[i] for p in passes) for i in range(len(items))]
        raw_deciles = statistics.quantiles(raw, n=10)
        ratios = [r for p in passes for r in p.ratios]
        attempted = len(items) * len(passes)
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "graphs_per_s": len(items) / sum(per_op),
            "op_p50_ms": deciles[4] * 1e3,
            "op_p90_ms": deciles[8] * 1e3,
            "exact_share": sum(p.exact for p in passes) / attempted,
            # 0 only when no answer passed the gate, and then correct is false
            "upper_over_lower_mean": statistics.fmean(ratios) if ratios else 0.0,
            "ok_share": 1 - sum(len(p.failures) for p in passes) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"{len(passes)} passes; graphs_per_s and op percentiles over {len(items)} graphs, "
              f"each the median of its {len(passes)} scaled timings; "
              f"setup_s is the median of {SETUP_PROBES} fresh processes")
        print(f"raw: graphs_per_s {len(items) / sum(raw):.3f}, op_p50_ms {raw_deciles[4] * 1e3:.3f}, "
              f"op_p90_ms {raw_deciles[8] * 1e3:.3f}, "
              f"setup_s {statistics.median(p['raw_setup_s'] for p in probes):.4f}; the host ran "
              f"{statistics.median(p.slowdown for p in passes):.3f}x slower than the reference")
    metrics["host.calib_s"] = statistics.median(c for p in passes for c in p.calib)

    failures = [f for p in passes for f in p.failures]
    for item_id, problems in failures[:10]:
        print(f"FAILED {item_id}: {'; '.join(problems)}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"benchmark computed no value for {missing}")
    print(json.dumps({
        "correct": not failures and digest_ok,
        "attempted": len(items) * len(passes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
