"""Fresh-process set-up for one workload: import graphstrength, build the corpus.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line: the CLOCK_MONOTONIC reading when the inputs were
ready (the parent subtracts its spawn time, giving set-up from interpreter
start), the time ``import graphstrength`` took, and the corpus digest.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import corpus
import workloads


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    gs = workloads.load_library(Path(__file__).resolve().parent.parent)
    import_s = time.perf_counter() - start
    chosen = corpus.build_corpus(workload, seed)
    items = workloads.prepare(workload, chosen, gs)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps({
        "ready": ready, "import_s": import_s, "digest": corpus.digest(chosen), "items": len(items),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
