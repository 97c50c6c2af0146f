"""Span recorder for the traced run, installed from outside the library.

Each public function of a layer is replaced by a wrapper at its module
attribute and at every other graphstrength module attribute bound to the
same object (``cli`` imports ``bounds_report``, ``find_delta_sequence`` and
others by name, and the package re-exports many).  Calls between layers go
through module globals, so nested calls are caught as well.  Spans live in
memory as ``[name, parent index, start, end, op id]``; a span's self time is
its duration minus the duration of its direct children.
"""

from __future__ import annotations

import functools
import re
import sys
from time import perf_counter

XI_SIZES = (1, 2, 3, 4)

# Bound names as the certificate registry knows them.
RECOMPUTE_BOUNDS = (
    "search", "p+delta", "maxdeg+2", "p+edge-connectivity", "independence",
    "xi", "hypercube", "two-regular", "trivial",
)


def metric_safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name, fn, on_result):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            span = [span_name, rec.stack[-1] if rec.stack else -1, perf_counter(), 0.0, rec.op]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                rec.stack.pop()
            rec.count(span_name + "#calls")
            if on_result is not None:
                on_result(rec, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target function; ``uninstall`` restores the originals."""
        modules = [m for k, m in sys.modules.items() if k == "graphstrength" or k.startswith("graphstrength.")]
        for module_name, attr, name, on_result in _targets():
            original = getattr(sys.modules[f"graphstrength.{module_name}"], attr)
            wrapper = self._wrap(name, original, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._undo):
            setattr(module, key, value)
        self._undo.clear()

    # -- summaries ------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive seconds, self seconds) per span name."""
        incl: dict[str, float] = {}
        self_t: dict[str, float] = {}
        child: list[float] = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child[span[1]] += span[3] - span[2]
        for i, (name, _, start, end, _) in enumerate(self.spans):
            incl[name] = incl.get(name, 0.0) + (end - start)
            self_t[name] = self_t.get(name, 0.0) + (end - start - child[i])
        return incl, self_t


def _share(num: int, den: int) -> float:
    return num / den if den else 0.0


def _on_feasible(rec, args, res):
    rec.count("oracle.nodes", res.nodes_explored)


def _on_exact(rec, args, res):
    if res.status != "exact":
        rec.count("oracle.bracket")


def _xi_scan_name(args) -> str:
    return f"bounds.xi_size{args[2]}"


def _on_xi_scan(rec, args, res):
    rec.count(f"bounds.xi_size{args[2]}_nodes", res[3])
    rec.count("bounds.xi_scans")
    if res[2]:
        rec.count("bounds.xi_complete")


def _on_find(rec, args, res):
    rec.count("deltaseq.find_nodes", res.nodes_explored)
    if res.status == "found":
        rec.count("deltaseq.find_found")


def _on_best_z(rec, args, res):
    rec.count("deltaseq.best_z_nodes", res[1])
    if res[2]:
        rec.count("deltaseq.best_z_complete")


def _recompute_name(args) -> str:
    return f"labeling.recompute.{metric_safe(str(args[1]))}"


def _targets():
    """(module, function, span name, result hook) for every traced call."""
    return (
        ("oracle", "automorphism_orbits", "oracle.orbits", None),
        ("oracle", "feasible_at", "oracle.feasible", _on_feasible),
        ("oracle", "exact_strength", "oracle.exact", _on_exact),
        ("bounds", "bounds_report", "bounds.report", None),
        ("bounds", "xi_profile", "bounds.xi", None),
        ("bounds", "_xi_scan", _xi_scan_name, _on_xi_scan),
        ("bounds", "edge_connectivity", "bounds.edge_connectivity", None),
        ("bounds", "independence_number", "bounds.independence", None),
        ("bounds", "recognize_hypercube", "bounds.recognize_hypercube", None),
        ("deltaseq", "find_delta_sequence", "deltaseq.find", _on_find),
        ("deltaseq", "best_z_sequence", "deltaseq.best_z", _on_best_z),
        ("deltaseq", "embed_minimal", "deltaseq.embed", None),
        ("deltaseq", "label_from_sequence", "deltaseq.label_from_sequence", None),
        ("constructions", "hypercube_certificate", "constructions.hypercube_certificate", None),
        ("constructions", "label_two_regular", "constructions.label_two_regular", None),
        ("constructions", "load_fixture", "constructions.load_fixture", None),
        ("labeling", "verify_certificate", "labeling.verify", None),
        ("labeling", "recompute_lower_bound", _recompute_name, None),
        ("graphio", "parse_graph6", "graphio.parse", None),
        ("cli", "main", "cli.main", None),
    )


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    incl, self_t = rec.totals()
    c = rec.counts

    def calls(span: str) -> int:
        return c.get(span + "#calls", 0)

    out = {
        "oracle.orbits_s": incl.get("oracle.orbits", 0.0),
        "oracle.orbits_calls": calls("oracle.orbits"),
        "oracle.search_self_s": self_t.get("oracle.feasible", 0.0),
        "oracle.feasible_calls": calls("oracle.feasible"),
        "oracle.nodes": c.get("oracle.nodes", 0),
        "oracle.bracket_share": _share(c.get("oracle.bracket", 0), calls("oracle.exact")),
        "bounds.xi_s": incl.get("bounds.xi", 0.0),
        "bounds.xi_calls": calls("bounds.xi"),
        "bounds.xi_complete_share": _share(c.get("bounds.xi_complete", 0), c.get("bounds.xi_scans", 0)),
        "bounds.edge_connectivity_s": incl.get("bounds.edge_connectivity", 0.0),
        "bounds.independence_s": incl.get("bounds.independence", 0.0),
        "bounds.recognize_hypercube_s": incl.get("bounds.recognize_hypercube", 0.0),
        "deltaseq.find_s": incl.get("deltaseq.find", 0.0),
        "deltaseq.find_calls": calls("deltaseq.find"),
        "deltaseq.find_nodes": c.get("deltaseq.find_nodes", 0),
        "deltaseq.find_found_share": _share(c.get("deltaseq.find_found", 0), calls("deltaseq.find")),
        "deltaseq.best_z_s": incl.get("deltaseq.best_z", 0.0),
        "deltaseq.best_z_calls": calls("deltaseq.best_z"),
        "deltaseq.best_z_nodes": c.get("deltaseq.best_z_nodes", 0),
        "deltaseq.best_z_complete_share": _share(
            c.get("deltaseq.best_z_complete", 0), calls("deltaseq.best_z")
        ),
        "deltaseq.embed_s": incl.get("deltaseq.embed", 0.0),
        "deltaseq.label_from_sequence_s": incl.get("deltaseq.label_from_sequence", 0.0),
        "constructions.hypercube_certificate_s": incl.get("constructions.hypercube_certificate", 0.0),
        "constructions.label_two_regular_s": incl.get("constructions.label_two_regular", 0.0),
        "constructions.load_fixture_s": incl.get("constructions.load_fixture", 0.0),
        "labeling.verify_s": incl.get("labeling.verify", 0.0),
        "labeling.verify_calls": calls("labeling.verify"),
        "graphio.parse_s": incl.get("graphio.parse", 0.0),
        "cli.self_s": self_t.get("cli.main", 0.0),
    }
    for i in XI_SIZES:
        out[f"bounds.xi_size{i}_s"] = incl.get(f"bounds.xi_size{i}", 0.0)
        out[f"bounds.xi_size{i}_nodes"] = c.get(f"bounds.xi_size{i}_nodes", 0)
    for bound in RECOMPUTE_BOUNDS:
        name = f"labeling.recompute.{metric_safe(bound)}"
        out[name + "_s"] = incl.get(name, 0.0)
    return out
