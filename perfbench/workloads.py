"""What one op of each workload runs, and the gate that checks its answer.

An op is one graph taken to a checked answer.  Only the calls into the
program are timed; the gate runs afterwards and uses nothing from the
program: it re-derives each witness's strength from the edge list, checks
the witness is a bijection, and compares the answer with the reference
interval recorded in ``reference.json``, whose ends are sound bounds on the
true strength: an answer must not claim more than they prove.  On
``bounds-scan`` each named lower bound is also compared with the value the
reference build computed for it without the program.

* ``exact-small``: library calls ``exact_strength``, ``verify_certificate``
  of its certificate, then ``bounds_report`` as a sandwich check.
* ``certify-medium``: ``cli.main`` in-process, ``label --embed --json`` then
  ``verify --certificate -`` (against the host graph when one was built).
* ``bounds-scan``: ``cli.main`` in-process, ``bounds --json``.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from corpus import Edges, from_graph6, max_edge_sum, min_degree


def load_library(root: Path):
    """Import graphstrength from ``root/src`` and nowhere else."""
    pkg = root / "src" / "graphstrength"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"graphstrength sources not found under {root / 'src'}")
    sys.path.insert(0, str(root / "src"))
    gs = importlib.import_module("graphstrength")
    importlib.import_module("graphstrength.cli")
    if Path(gs.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"imported graphstrength from {gs.__file__}, expected {pkg}")
    return gs


@dataclass
class Item:
    """One corpus member, ready to run."""

    id: str
    n: int
    edges: Edges
    ref: tuple[int, int]
    graph: object = None  # library Graph, for the library workload
    argv: tuple[str, ...] = ()  # graph arguments, for the CLI workloads
    meta: dict = field(default_factory=dict)


@dataclass
class Answer:
    lower: int
    upper: int
    labels: list[int] | None = None  # witness over ``n`` / ``edges`` below
    n: int = 0
    edges: Edges = ()
    verdict: str | None = None
    notes: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


def prepare(workload: str, corpus: list[dict], gs) -> list[Item]:
    items = []
    for m in corpus:
        n, edges = from_graph6(m["g6"])
        item = Item(m["id"], n, edges, tuple(m["ref"]), meta=m)
        if workload == "exact-small":
            item.graph = gs.Graph(n, edges)
        elif "fixture" in m:
            item.argv = ("--fixture", m["fixture"])
        else:
            item.argv = ("--graph6", m["g6"])
        items.append(item)
    return items


def _cli(gs, argv: list[str], stdin_text: str | None = None) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = gs.cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def op_exact_small(gs, item: Item) -> Answer:
    res = gs.oracle.exact_strength(item.graph)
    answer = Answer(res.lower, res.upper, n=item.n, edges=item.edges)
    if res.status == "exact":
        cert = res.to_certificate()
        answer.labels = list(cert.witness.labels)
        answer.verdict = gs.labeling.verify_certificate(item.graph, cert).status
    report = gs.bounds.bounds_report(item.graph)
    answer.notes["sandwich"] = (report.best_lower, report.best_upper)
    return answer


def op_certify_medium(gs, item: Item) -> Answer:
    rc, out = _cli(gs, ["label", "--embed", "--json", *item.argv])
    payload = json.loads(out)
    notes = {"label_rc": rc}
    if payload.get("embedded"):
        cert = payload["certificate"]
        host_g6 = payload["host_graph6"]
        graph_args = ["--graph6", host_g6]
        n, edges = from_graph6(host_g6)
        notes["biclique"] = payload["added_biclique"]
    else:
        cert = payload
        graph_args = list(item.argv)
        n, edges = item.n, item.edges
    vrc, vout = _cli(gs, ["verify", "--json", "--certificate", "-", *graph_args], json.dumps(cert))
    notes["verify_rc"] = vrc
    return Answer(
        cert["lower"]["value"], cert["upper"], list(cert["witness"]["labels"]), n, edges,
        json.loads(vout)["status"], notes,
    )


def op_bounds_scan(gs, item: Item) -> Answer:
    rc, out = _cli(gs, ["bounds", "--json", *item.argv])
    payload = json.loads(out)
    return Answer(payload["best_lower"], payload["best_upper"], n=item.n, edges=item.edges,
                  notes={"rc": rc, "entries": payload["entries"]})


OPS = {
    "exact-small": op_exact_small,
    "certify-medium": op_certify_medium,
    "bounds-scan": op_bounds_scan,
}


# -- the gate -------------------------------------------------------------------


def check_witness(answer: Answer) -> list[str]:
    labels = answer.labels
    if labels is None:
        return []
    if sorted(labels) != list(range(1, answer.n + 1)):
        return ["witness is not a bijection onto 1..p"]
    got = max_edge_sum(answer.edges, labels)
    if got != answer.upper:
        return [f"witness reaches {got}, answer claims upper {answer.upper}"]
    return []


def check_reference(answer: Answer, ref: tuple[int, int]) -> list[str]:
    """The answer must contain the reference interval ``[lo, hi]``.

    ``lo`` is a proven lower bound and ``hi`` a proven upper bound on the
    true strength, so an exact answer must equal an exact reference, and a
    bracket must not claim a lower bound above ``lo`` or an upper bound
    below ``hi``: the reference cannot confirm either.
    """
    lo, hi = ref
    if answer.lower > answer.upper:
        return [f"lower {answer.lower} above upper {answer.upper}"]
    if answer.lower > lo or answer.upper < hi:
        return [f"answer [{answer.lower}, {answer.upper}] does not contain reference [{lo}, {hi}]"]
    return []


def check_lower_entries(answer: Answer, want: dict[str, int]) -> list[str]:
    """Each named lower bound must equal its reference value; ``xi``, whose
    profile may stop at its node budget, must not exceed the value of the
    complete profile.  Names the reference does not know are left to
    ``check_reference``."""
    problems = []
    for e in answer.notes["entries"]:
        ref = want.get(e["name"])
        if e["side"] != "lower" or ref is None:
            continue
        wrong = e["value"] > ref if e["name"] == "xi" else e["value"] != ref
        if wrong:
            problems.append(f"lower bound {e['name']} = {e['value']}, reference {ref}")
    return problems


def check(workload: str, item: Item, answer: Answer) -> list[str]:
    problems = check_witness(answer)
    ref = item.ref
    if workload == "exact-small":
        if answer.labels is None:
            problems.append("no exact result within the default budget")
        elif answer.verdict != "exact":
            problems.append(f"verify says {answer.verdict}")
        lo, hi = answer.notes["sandwich"]
        if not lo <= answer.lower <= answer.upper <= hi:
            problems.append(f"bounds [{lo}, {hi}] do not sandwich [{answer.lower}, {answer.upper}]")
    elif workload == "certify-medium":
        want_rc = 0 if answer.exact else 3
        if answer.notes["label_rc"] != want_rc:
            problems.append(f"label exited {answer.notes['label_rc']}")
        if answer.notes["verify_rc"] != 0 or answer.verdict != ("exact" if answer.exact else "bracket"):
            problems.append(f"verify says {answer.verdict}")
        if "biclique" in answer.notes:
            problems += check_host(item, answer)
            # the host's strength is |host| + delta(input), certified by p + delta
            want = answer.n + item.meta["delta"]
            ref = (want, want)
    else:
        if answer.notes["rc"] != 0:
            problems.append(f"bounds exited {answer.notes['rc']}")
        problems += check_lower_entries(answer, item.meta["lower"])
    return problems + check_reference(answer, ref)


def check_host(item: Item, answer: Answer) -> list[str]:
    """The host must be the input plus a disjoint K_{m,k} on the new ids."""
    m, k = answer.notes["biclique"]
    n = item.n
    if answer.n != n + m + k:
        return [f"host has {answer.n} vertices, input plus K_{{{m},{k}}} has {n + m + k}"]
    want = set(item.edges) | {(n + i, n + m + j) for i in range(m) for j in range(k)}
    if set(answer.edges) != want:
        return ["host is not the input plus a disjoint biclique"]
    if min(m, k) != min_degree(n, item.edges):
        return [f"biclique K_{{{m},{k}}} does not match the input's minimum degree"]
    return []
