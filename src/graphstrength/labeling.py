"""Vertex numberings, their strength, and checkable strength certificates.

A numbering of a graph on p vertices is a bijection onto {1, ..., p}; its
strength is the largest label sum over the edges.  The strength of the graph
is the minimum of that over all numberings.  A StrengthCertificate pins the
graph's strength between a named, recomputable lower bound and the strength
of an explicit witness numbering; when the two meet the value is exact.

Lower bounds are referenced by name so a certificate can be re-verified from
scratch: other modules register their bound computations in a small registry
at import time, and verify_certificate recomputes every claim it sees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .graphs import Graph


@dataclass(frozen=True)
class Numbering:
    """labels[v] is the label of vertex v; a valid numbering uses 1..p once each."""

    labels: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.labels)

    def is_bijection(self) -> bool:
        return sorted(self.labels) == list(range(1, len(self.labels) + 1))

    def vertex_with_label(self, label: int) -> int:
        return self.labels.index(label)

    def to_json(self) -> dict:
        return {"p": self.p, "labels": list(self.labels)}

    @staticmethod
    def from_json(obj: dict) -> "Numbering":
        labels = tuple(int(x) for x in obj["labels"])
        if int(obj.get("p", len(labels))) != len(labels):
            raise ValueError("numbering JSON: p does not match labels length")
        return Numbering(labels)


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
    ``core_numbering`` must number g's non-isolated vertices in increasing
    vertex-id order.
    """
    core = [v for v in range(g.n) if g.adj[v]]
    if core_numbering.p != len(core):
        raise ValueError(
            f"core numbering covers {core_numbering.p} vertices, "
            f"graph has {len(core)} non-isolated"
        )
    labels = [0] * g.n
    for idx, v in enumerate(core):
        labels[v] = core_numbering.labels[idx]
    nxt = len(core) + 1
    for v in range(g.n):
        if not g.adj[v]:
            labels[v] = nxt
            nxt += 1
    return Numbering(tuple(labels))


def require(ok: bool, message: str) -> None:
    """A check that, unlike ``assert``, still runs under ``python -O``."""
    if not ok:
        raise AssertionError(message)


# -- certificates ------------------------------------------------------------

# name -> fn(g, args) -> int; populated by bounds/oracle modules at import.
_LOWER_BOUND_REGISTRY: dict[str, Callable[[Graph, tuple], int]] = {}


class UnconfirmedBound(Exception):
    """A lower-bound recomputation ran out of budget (neither confirms nor refutes)."""


def register_lower_bound(name: str, fn: Callable[[Graph, tuple], int]) -> None:
    _LOWER_BOUND_REGISTRY[name] = fn


def lower_bound_names() -> tuple[str, ...]:
    return tuple(sorted(_LOWER_BOUND_REGISTRY))


def recompute_arg(args: tuple, default: int, what: str) -> int:
    """A bound's recompute argument, or ``default`` when absent.  It comes
    from untrusted certificate JSON, so a larger search than the library
    default is refused before it starts."""
    value = int(args[0]) if args else default
    if value > default:
        raise ValueError(f"{what} {value} exceeds the limit {default}")
    return value


def recompute_lower_bound(g: Graph, name: str, args: tuple) -> int:
    try:
        fn = _LOWER_BOUND_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown lower bound {name!r}; known: {', '.join(lower_bound_names())}"
        ) from None
    return fn(g, args)


@dataclass(frozen=True)
class LowerBound:
    name: str
    value: int
    args: tuple = ()

    def to_json(self) -> dict:
        return {"name": self.name, "value": self.value, "args": list(self.args)}

    @staticmethod
    def from_json(obj: dict) -> "LowerBound":
        return LowerBound(str(obj["name"]), int(obj["value"]), tuple(obj.get("args", ())))


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
            upper=int(obj["upper"]),
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
    named lower bound must recompute to the claimed value.  Any mismatch, or
    a lower bound above the witness strength, makes the verdict "invalid".
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
        recomputed = recompute_lower_bound(g, cert.lower.name, cert.lower.args)
    except UnconfirmedBound as e:
        reasons.append(f"lower bound {cert.lower.name!r} unconfirmed: {e}")
        return CertificateVerdict("invalid", tuple(reasons))
    except (TypeError, ValueError, OverflowError) as e:  # unknown name, malformed args
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
