"""Closed-form numberings and stored reference numberings.

Three construction routes live here, each producing a certificate whose
witness can be re-checked edge by edge:

* ``label_two_regular`` -- disjoint unions of cycles: the top-set
  numbering (``labeling.top_set_numbering``) of every second vertex of each
  cycle, even cycles first.  An even cycle's sums alternate p+1 / p+2; an
  odd one takes one more low label than high, which pushes the j-th odd
  cycle's sums to p+j / p+j+1.  The result is exactly max(p+2, p+1+k)
  where k counts odd cycles, and that value is also a valid lower bound
  (p+delta when k=0, the independence-number bound otherwise), so the
  certificate is exact.

* ``double_bipartite`` -- given a balanced bipartite graph on parts X, Y of
  size m whose numbering f puts 1..m on X, builds a numbering F of G x K2
  with strength exactly 5m+1.  The four label blocks are

      F(x, 0) = f(x)            in [1, m]
      F(y, 1) = 3m+1 - f(y)     in [m+1, 2m]
      F(x, 1) = 3m+1 - f(x)     in [2m+1, 3m]
      F(y, 0) = 2m + f(y)       in [3m+1, 4m]

  Matching edges over X sum to exactly 3m+1 and over Y to exactly 5m+1;
  copy-internal edges never exceed them, because the part structure forces
  every input edge sum to at most m + 2m = 3m.  The doubled graph is again
  balanced bipartite with labels 1..2m on one part, so the step iterates.

* ``hypercube_certificate`` -- Q_n.  Dimensions 2..4 double up from a
  4-cycle base numbering and the neighborhood-expansion lower bound closes
  the gap (6, 11, 21).  Dimensions 5 and 6 use stored table numberings
  (exact 40, bracket [76, 79]).  Higher dimensions double the stored
  64-vertex numbering, giving the bracket [formula, 5 * 2^(n-2) + 1].

Stored numberings live in ``fixtures/`` as JSON with a checksum manifest;
``load_fixture`` refuses anything whose bytes, bijection, or claimed
strength fail re-verification.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .bounds import (
    HYPERCUBE_TABLE_UPPER,
    hypercube_lower_bound,
    hypercube_upper_bound,
    two_regular_cycle_lengths,
    two_regular_strength,
)
from .graphs import Graph, cartesian_product_k2, hypercube
from .graphio import parse_graph6
from .labeling import (LowerBound, Numbering, StrengthCertificate, require, strength_of,
                       top_set_numbering)

# -- two-regular graphs -------------------------------------------------------


def _ring(g: Graph, comp: tuple[int, ...]) -> list[int]:
    """Vertices of a cycle component in ring order, starting at the minimum
    id and stepping first to its smaller neighbor."""
    start = comp[0]
    ring = [start, min(g.neighbors(start))]
    while len(ring) < len(comp):
        prev, cur = ring[-2], ring[-1]
        a, b = g.neighbors(cur)
        ring.append(b if a == prev else a)
    return ring


def label_two_regular(g: Graph) -> tuple[Numbering, StrengthCertificate]:
    """Optimal numbering of a disjoint union of cycles: ``top_set_numbering``
    of ``_ring(g, c)[1::2]`` for each cycle c, even cycles first, each group
    by (length, min id).  Strength is max(p+2, p+1+k) with k the number of
    odd cycles, checked against ``two_regular_strength``; the certificate
    is exact.
    """
    lengths = two_regular_cycle_lengths(g)
    if lengths is None:
        raise ValueError("graph is not 2-regular (a disjoint union of cycles)")
    comps = sorted(g.components(), key=lambda c: (len(c) % 2, len(c), c[0]))
    numbering = top_set_numbering(g, [v for c in comps for v in _ring(g, c)[1::2]])
    value = two_regular_strength(lengths)
    got = strength_of(g, numbering)
    if got != value:
        raise AssertionError(f"two-regular numbering reached {got}, wanted {value}")
    k = sum(1 for c in lengths if c % 2)
    cert = StrengthCertificate(
        lower=LowerBound("two-regular", value),
        upper=value,
        witness=numbering,
        notes=(f"cycles {tuple(lengths)}; {k} odd",),
    )
    return numbering, cert


# -- doubling a balanced bipartite numbering ----------------------------------


def double_bipartite(g: Graph, f: Numbering) -> tuple[Graph, Numbering]:
    """Double a balanced bipartite numbering across G x K2.

    Requires parts of equal size m with labels 1..m on one part.  Returns
    (product, F) with strength exactly 5m + 1 and labels 1..2m on one part
    of the product, so the construction can be applied repeatedly.  Copy c
    of vertex v is v + c * g.n.
    """
    if f.p != g.n:
        raise ValueError(f"numbering covers {f.p} vertices, graph has {g.n}")
    if g.n % 2 or g.n == 0:
        raise ValueError("need an even number of vertices split into equal parts")
    m = g.n // 2
    part_x = frozenset(v for v in range(g.n) if f.labels[v] <= m)
    part_y = frozenset(range(g.n)) - part_x
    if len(part_x) != m:
        raise ValueError("labels 1..m must land on exactly m vertices")
    for u, v in g.edges():
        if (u in part_x) == (v in part_x):
            raise ValueError(
                "labels 1..m must form one side of a bipartition "
                f"(edge {u}-{v} stays inside a part)"
            )
    # With 1..m on one side and m+1..2m on the other, no edge sum can exceed
    # m + 2m; that ceiling is what keeps the copy-internal sums below 5m+1.
    require(strength_of(g, f) <= 3 * m, "input edge sums exceed 3m")

    p = g.n
    product = cartesian_product_k2(g)
    labels = [0] * (2 * p)
    for x in part_x:
        labels[x] = f.labels[x]
        labels[x + p] = 3 * m + 1 - f.labels[x]
    for y in part_y:
        labels[y] = 2 * m + f.labels[y]
        labels[y + p] = 3 * m + 1 - f.labels[y]
    doubled = Numbering(tuple(labels))

    # Edge-by-edge invariants.  Matching edges hit their two levels exactly;
    # copy-internal edges stay at or below them.
    for x in part_x:
        require(labels[x] + labels[x + p] == 3 * m + 1, "an X matching edge misses 3m+1")
    for y in part_y:
        require(labels[y] + labels[y + p] == 5 * m + 1, "a Y matching edge misses 5m+1")
    for u, v in g.edges():
        # copy 0: 2m + f(u) + f(v); copy 1: 6m+2 - f(u) - f(v)
        require(labels[u] + labels[v] <= 5 * m + 1, "a copy-0 edge exceeds 5m+1")
        require(labels[u + p] + labels[v + p] <= 5 * m, "a copy-1 edge exceeds 5m")
    require(strength_of(product, doubled) == 5 * m + 1, "doubled strength is not 5m+1")
    new_x = sorted(part_x) + [y + p for y in sorted(part_y)]
    require(sorted(labels[v] for v in new_x) == list(range(1, 2 * m + 1)),
            "labels 1..2m do not form one part of the product")
    return product, doubled


# -- hypercubes ---------------------------------------------------------------

# Q2 with vertex ids as coordinate bitvectors; {0, 3} is one part and gets
# labels {1, 2}, so the doubling step applies directly.
_Q2_BASE = (1, 3, 4, 2)


def hypercube_certificate(n: int) -> StrengthCertificate:
    """Certificate for Q_n on canonical bitvector vertex ids.

    Exact for n <= 5.  From n = 6 on it is a bracket: [76, 79] from the
    stored table at 6, [lower formula, 5 * 2^(n-2) + 1] beyond.
    """
    if n < 1:
        raise ValueError("need dimension >= 1 (Q_0 has no edges)")
    if n == 1:
        return StrengthCertificate(
            lower=LowerBound("p+delta", 3),
            upper=3,
            witness=Numbering((1, 2)),
            notes=("single edge",),
        )
    if n <= 4:
        g, f = hypercube(2), Numbering(_Q2_BASE)
        for _ in range(2, n):
            g, f = double_bipartite(g, f)
        lower = LowerBound("xi", hypercube_lower_bound(n))
        notes = ("doubled from a 4-cycle base numbering",)
    elif n <= 6:
        fx = load_fixture("q5" if n == 5 else "q6")
        g, f = fx.graph, fx.numbering
        lower = LowerBound("hypercube", hypercube_lower_bound(n))
        notes = ("stored table numbering",) + fx.notes
    else:
        fx = load_fixture("q6")
        g, f = fx.graph, fx.numbering
        for _ in range(6, n):
            g, f = double_bipartite(g, f)
        lower = LowerBound("hypercube", hypercube_lower_bound(n))
        notes = ("doubled from the stored 64-vertex table numbering",)
    require(g == hypercube(n), f"doubling did not build the {n}-cube")
    upper = strength_of(g, f)
    want = HYPERCUBE_TABLE_UPPER.get(n, hypercube_upper_bound(n))
    require(upper == want, f"Q{n} numbering reached {upper}, not {want}")
    return StrengthCertificate(lower=lower, upper=upper, witness=f, notes=notes)


# -- stored numberings --------------------------------------------------------

BUNDLED_FIXTURES = ("q5", "q6", "example21", "example22")


class FixtureError(ValueError):
    """A stored numbering failed loading or re-verification."""


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    numbering: Numbering
    strength: int
    notes: tuple[str, ...] = ()


def fixture_directory() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


def _marginal_notes(name: str, g: Graph, labels: tuple[int, ...], data: dict) -> list[str]:
    """Re-derive the stored per-row/per-column edge maxima.

    Rows and columns are bit-string headers; a cell's vertex id reads the
    column bits then the row bits as one binary word.  Each stored maximum is
    over the edges induced by that row's (or column's) cells.  Divergence is
    reported, not fatal: the cell labels are the authoritative data.
    """
    rows, cols = data["rows"], data["cols"]
    row_bits = len(rows[0])
    notes = []
    for axis, headers, stored in (("row", rows, data["row_max"]), ("col", cols, data["col_max"])):
        for header, want in zip(headers, stored):
            if axis == "row":
                cells = [int(c, 2) << row_bits | int(header, 2) for c in cols]
            else:
                cells = [int(header, 2) << row_bits | int(r, 2) for r in rows]
            got = max(
                (labels[u] + labels[v] for u in cells for v in cells if u < v and g.has_edge(u, v)),
                default=0,
            )
            if got != want:
                notes.append(
                    f"{name}: stored {axis} {header} maximum {want}, labels give {got}"
                )
    return notes


def load_fixture(name: str, directory: Path | str | None = None) -> Fixture:
    """Load and re-verify a stored numbering.

    Checks, in order: the checksum manifest knows the file and the bytes
    match; the labels are a bijection attaining the stored strength; any
    declared graph family matches the graph; any stored row/column maxima
    still agree with the labels (divergence is recorded in notes).
    """
    fdir = Path(directory) if directory is not None else fixture_directory()
    path = fdir / f"{name}.json"
    manifest_path = fdir / "checksums.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise FixtureError(f"missing checksum manifest {manifest_path}") from None
    except json.JSONDecodeError as exc:
        raise FixtureError(f"unreadable checksum manifest {manifest_path}: {exc}") from None
    if path.name not in manifest:
        raise FixtureError(f"{path.name} is not listed in {manifest_path}")
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise FixtureError(f"missing fixture file {path}") from None
    digest = hashlib.sha256(raw).hexdigest()
    if digest != manifest[path.name]:
        raise FixtureError(f"checksum mismatch for {path}: file was modified")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"unreadable fixture {path}: {exc}") from None

    for key in ("name", "graph6", "labels", "strength"):
        if key not in data:
            raise FixtureError(f"{path} is missing field {key!r}")
    g = parse_graph6(data["graph6"])
    labels = tuple(int(x) for x in data["labels"])
    if len(labels) != g.n:
        raise FixtureError(f"{path}: {len(labels)} labels for {g.n} vertices")
    numbering = Numbering(labels)
    try:
        got = strength_of(g, numbering)
    except ValueError as exc:
        raise FixtureError(f"{path}: {exc}") from None
    if got != int(data["strength"]):
        raise FixtureError(
            f"{path}: stored strength {data['strength']} but labels give {got}"
        )

    notes: list[str] = []
    family = data.get("family")
    if family is not None:
        kind, _, arg = str(family).partition(":")
        if kind != "hypercube":
            raise FixtureError(f"{path}: unknown family {family!r}")
        if g != hypercube(int(arg)):
            raise FixtureError(f"{path}: graph does not match {family}")
        notes.append(family)
    if "rows" in data:
        notes.extend(_marginal_notes(str(data["name"]), g, labels, data))
    return Fixture(
        name=str(data["name"]),
        graph=g,
        numbering=numbering,
        strength=got,
        notes=tuple(notes),
    )
