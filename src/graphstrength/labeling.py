"""Vertex numberings, their strength, and checkable strength certificates.

A numbering of a graph on p vertices is a bijection onto {1, ..., p}; its
strength is the largest label sum over the edges.  The strength of the graph
is the minimum of that over all numberings.  ``top_set_numbering`` builds
the oracle's witnesses and the delta-sequence and 2-regular numberings.  A
StrengthCertificate pins the graph's strength between a named, recomputable
lower bound and the strength of an explicit witness numbering; when the two
meet the value is exact.

Lower bounds are referenced by name so a certificate can be re-verified from
scratch: other modules register their bound computations in a small registry
at import time, and verify_certificate recomputes every claim it sees.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .graphs import Graph, _bits


@dataclass(frozen=True)
class Numbering:
    """labels[v] is the label of vertex v; a valid numbering uses 1..p once each."""

    labels: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.labels)

    def is_bijection(self) -> bool:
        return sorted(self.labels) == list(range(1, len(self.labels) + 1))

    def to_json(self) -> dict:
        return {"p": self.p, "labels": list(self.labels)}

    @staticmethod
    def from_json(obj: dict) -> "Numbering":
        labels = tuple(_json_int(x, "label") for x in obj["labels"])
        if _json_int(obj.get("p", len(labels)), "p") != len(labels):
            raise ValueError("numbering JSON: p does not match labels length")
        return Numbering(labels)


def _json_int(value: object, what: str) -> int:
    """A number read from certificate JSON, which must be a real int: a
    float, string, bool or null is refused, not coerced."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def strength_of(g: Graph, numbering: Numbering) -> int:
    """max f(u)+f(v) over the edges of g; rejects non-bijective numberings."""
    if numbering.p != g.n:
        raise ValueError(f"numbering covers {numbering.p} vertices, graph has {g.n}")
    if not numbering.is_bijection():
        raise ValueError("numbering is not a bijection onto 1..p")
    if g.edge_count == 0:
        raise ValueError("strength is undefined for graphs with no edges")
    f = numbering.labels
    return max(f[u] + f[v] for u, v in g.edges())


def extend_over_isolated(g: Graph, core_numbering: Numbering) -> Numbering:
    """Lift a numbering of g's non-isolated part to all of g.

    Isolated vertices take the leftover top labels, so no edge sum changes:
    the strength of g equals the strength of its non-isolated part.
    ``core_numbering`` numbers ``g.core()``, whose ids keep g's order.
    """
    ids = g.core()[1]
    if core_numbering.p != len(ids):
        raise ValueError(
            f"core numbering covers {core_numbering.p} vertices, graph has {len(ids)} non-isolated"
        )
    labels = [0] * g.n
    for v, label in zip(ids, core_numbering.labels):
        labels[v] = label
    for label, v in enumerate(g.isolated_vertices(), start=len(ids) + 1):
        labels[v] = label
    return Numbering(tuple(labels))


def top_set_numbering(g: Graph, chain: Sequence[int]) -> Numbering:
    """The top-set lemma's numbering of an ordered independent chain.

    ``chain[k]`` takes label p - k and its unlabelled neighbours the next
    labels up from 1, by id; the rest take the labels between, by id.  If
    the chain has at least p - t//2 vertices and its first k have at most
    max(0, t - p + k - 1) neighbours for each k, the strength is at most t.
    A chain that repeats a vertex or is not independent raises ValueError.
    """
    p = g.n
    labels = [0] * p
    low = 0
    for k, v in enumerate(chain):
        if labels[v]:
            raise ValueError(f"chain vertex {v} is already labelled; the chain is not independent")
        labels[v] = p - k
        for w in _bits(g.adj[v]):
            if not labels[w]:
                low += 1
                labels[w] = low
    for v in range(p):
        if not labels[v]:
            low += 1
            labels[v] = low
    return Numbering(tuple(labels))


def require(ok: bool, message: str) -> None:
    """A check that, unlike ``assert``, still runs under ``python -O``."""
    if not ok:
        raise AssertionError(message)


# -- certificates ------------------------------------------------------------

# name -> fn(core, upper) -> int; populated by bounds/oracle modules at import.
_LOWER_BOUND_REGISTRY: dict[str, Callable[[Graph, int | None], int]] = {}


class UnconfirmedBound(Exception):
    """A lower-bound recomputation ran out of budget (neither confirms nor refutes)."""


class BudgetExhausted(Exception):
    """A node-budgeted search ran out of nodes.  Raised from the search's own
    counter and caught in its public function, which reports a status."""


def register_lower_bound(name: str, fn: Callable[[Graph, int | None], int]) -> None:
    """Register ``fn(core, upper)``, the bound's value on a graph with no
    isolated vertices, at the library's own limits.  ``upper`` is None or the
    strength of a numbering of the graph, computed from it (so strength <=
    upper); a bound may use it to reach its value more cheaply."""
    _LOWER_BOUND_REGISTRY[name] = fn


def lower_bound_names() -> tuple[str, ...]:
    return tuple(sorted(_LOWER_BOUND_REGISTRY))


def recompute_lower_bound(g: Graph, name: str, upper: int | None = None) -> int:
    """The named bound's value on g, computed on ``g.core()``: isolated
    vertices touch no edge sum.  ``upper`` as in ``register_lower_bound``."""
    try:
        fn = _LOWER_BOUND_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown lower bound {name!r}; known: {', '.join(lower_bound_names())}"
        ) from None
    return fn(g.core()[0], upper)


@dataclass(frozen=True)
class LowerBound:
    name: str
    value: int

    def to_json(self) -> dict:
        return {"name": self.name, "value": self.value}

    @staticmethod
    def from_json(obj: dict) -> "LowerBound":
        # older certificates carry "args"; every bound now runs at the
        # library's limits, so they are ignored
        return LowerBound(str(obj["name"]), _json_int(obj["value"], "lower bound value"))


@dataclass(frozen=True)
class StrengthCertificate:
    """lower.value <= strength <= upper, with ``witness`` attaining ``upper``."""

    lower: LowerBound
    upper: int
    witness: Numbering
    notes: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        return "exact" if self.lower.value == self.upper else "bracket"

    @property
    def value(self) -> int:
        """The certified strength; only meaningful when status is "exact"."""
        if self.status != "exact":
            raise ValueError(f"bracket certificate [{self.lower.value}, {self.upper}]")
        return self.upper

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "lower": self.lower.to_json(),
            "upper": self.upper,
            "witness": self.witness.to_json(),
            "notes": list(self.notes),
        }

    @staticmethod
    def from_json(obj: dict) -> "StrengthCertificate":
        return StrengthCertificate(
            lower=LowerBound.from_json(obj["lower"]),
            upper=_json_int(obj["upper"], "upper"),
            witness=Numbering.from_json(obj["witness"]),
            notes=tuple(str(s) for s in obj.get("notes", ())),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def loads(text: str) -> "StrengthCertificate":
        return StrengthCertificate.from_json(json.loads(text))


@dataclass(frozen=True)
class CertificateVerdict:
    status: str  # "exact" | "bracket" | "invalid"
    reasons: tuple[str, ...] = ()
    recomputed_lower: int | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("exact", "bracket")


def verify_certificate(g: Graph, cert: StrengthCertificate) -> CertificateVerdict:
    """Recheck a certificate from scratch against g.

    The witness must be a bijection whose strength equals ``upper``, and the
    named lower bound must recompute to the claimed value; the recompute is
    handed the witness strength computed here, never the claimed ``upper``.
    Any mismatch, or a lower bound above the witness strength, makes the
    verdict "invalid".
    """
    reasons: list[str] = []
    if cert.witness.p != g.n:
        return CertificateVerdict(
            "invalid", (f"witness covers {cert.witness.p} vertices, graph has {g.n}",)
        )
    if not cert.witness.is_bijection():
        return CertificateVerdict("invalid", ("witness is not a bijection onto 1..p",))
    if g.edge_count == 0:
        return CertificateVerdict("invalid", ("graph has no edges; strength undefined",))
    actual = strength_of(g, cert.witness)
    if actual != cert.upper:
        reasons.append(f"witness strength is {actual}, certificate claims {cert.upper}")
    recomputed: int | None = None
    try:
        recomputed = recompute_lower_bound(g, cert.lower.name, actual)
    except UnconfirmedBound as e:
        reasons.append(f"lower bound {cert.lower.name!r} unconfirmed: {e}")
        return CertificateVerdict("invalid", tuple(reasons))
    except ValueError as e:  # unknown name, or the graph is not the bound's kind
        reasons.append(str(e))
        return CertificateVerdict("invalid", tuple(reasons))
    if recomputed != cert.lower.value:
        reasons.append(
            f"lower bound {cert.lower.name!r} recomputes to {recomputed}, "
            f"certificate claims {cert.lower.value}"
        )
    if recomputed is not None and recomputed > actual:
        reasons.append(
            f"lower bound {recomputed} exceeds witness strength {actual}; inconsistent"
        )
    if reasons:
        return CertificateVerdict("invalid", tuple(reasons), recomputed)
    status = "exact" if recomputed == actual else "bracket"
    return CertificateVerdict(status, (), recomputed)


def to_dot(g: Graph, numbering: Numbering | None = None) -> str:
    """Graphviz source; vertices show their label when a numbering is given."""
    lines = ["graph G {"]
    for v in range(g.n):
        if numbering is not None:
            lines.append(f'  v{v} [label="{v}:{numbering.labels[v]}"];')
        else:
            lines.append(f"  v{v};")
    lines.extend(f"  v{u} -- v{v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
