"""Command-line front end.

Subcommands:

* ``bounds``  -- print every applicable lower/upper bound for a graph, each
                 computed at the limits ``verify`` recomputes it with.
* ``label``   -- find an optimal (or certified) numbering and print the
                 certificate; recognized families use their closed forms,
                 everything else goes through the reduction-sequence engines.
* ``exact``   -- exhaustive threshold search within a node budget.
* ``verify``  -- recheck a certificate JSON against a graph from scratch.
* ``repro``   -- run the built-in reproduction checks (fixtures, closed
                 forms, worked traces, doubling invariants, negative
                 controls) and report ok/FAIL per check.

Exit codes: 0 success, 2 bad input, 3 inconclusive (bracket, not exact),
4 verification or reproduction failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from .bounds import bounds_report
from .constructions import (
    BUNDLED_FIXTURES,
    FixtureError,
    double_bipartite,
    hypercube_certificate,
    label_two_regular,
    load_fixture,
)
from .deltaseq import (
    DEFAULT_BUDGET,
    certify,
    embed_minimal,
    find_delta_sequence,
    label_from_sequence,
)
from .graphio import EdgeListError, Graph6Error, parse_graph6, read_edgelist, write_graph6
from .graphs import Graph, family_names, generate
from .labeling import (
    Numbering,
    StrengthCertificate,
    require,
    strength_of,
    to_dot,
    verify_certificate,
)
from .oracle import DEFAULT_BUDGET as EXACT_BUDGET, exact_strength, stop_reason

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_FAILED = 4


class InputError(Exception):
    pass


# -- graph input ----------------------------------------------------------------


def parse_family(spec: str) -> Graph:
    """Build a graph from ``kind:arg,arg,...`` (e.g. ``cycle:7``,
    ``complete-bipartite:3,5``, ``two-regular:4,6,5,5,7``)."""
    kind, sep, rest = spec.partition(":")
    kind = kind.strip()
    if not sep or not rest.strip():
        raise InputError(
            f"family spec {spec!r} needs arguments, e.g. 'cycle:7'; "
            f"known families: {', '.join(family_names())}"
        )
    args = []
    for pos, piece in enumerate(rest.split(","), start=1):
        try:
            args.append(int(piece.strip()))
        except ValueError:
            raise InputError(
                f"family spec {spec!r}: argument {pos} ({piece.strip()!r}) "
                "is not an integer"
            ) from None
    try:
        return generate(kind, args)
    except ValueError as e:
        raise InputError(str(e)) from None


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.family:
        return parse_family(args.family)
    if args.graph6:
        try:
            return parse_graph6(args.graph6)
        except Graph6Error as e:
            raise InputError(f"bad graph6 input: {e}") from None
    if args.edges:
        try:
            text = sys.stdin.read() if args.edges == "-" else Path(args.edges).read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read {args.edges}: {e}") from None
        try:
            return read_edgelist(text)
        except EdgeListError as e:
            raise InputError(f"bad edge list {args.edges}: {e}") from None
    if args.fixture:
        try:
            return load_fixture(args.fixture, directory=args.fixture_dir).graph
        except FixtureError as e:
            raise InputError(str(e)) from None
    raise InputError("no graph given (use --family, --graph6, --edges or --fixture)")


def _add_graph_arguments(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--family", metavar="KIND:ARGS", help="e.g. cycle:7, hypercube:4")
    grp.add_argument("--graph6", metavar="STR", help="graph6-encoded graph")
    grp.add_argument("--edges", metavar="FILE", help="edge-list file ('-' for stdin)")
    grp.add_argument("--fixture", metavar="NAME",
                     help=f"stored graph: {', '.join(BUNDLED_FIXTURES)}")
    sub.add_argument("--fixture-dir", metavar="DIR", default=None,
                     help="load fixtures from this directory instead of the bundled one")


# -- output helpers ---------------------------------------------------------------


def _print_certificate(g: Graph, cert: StrengthCertificate, as_json: bool) -> int:
    if as_json:
        print(cert.dumps(), end="")
    else:
        print(f"graph: {g.n} vertices, {g.edge_count} edges")
        if cert.status == "exact":
            print(f"strength: {cert.upper} (exact)")
        else:
            print(f"strength in [{cert.lower.value}, {cert.upper}] (bracket)")
        print(f"lower bound: {cert.lower.name} = {cert.lower.value}")
        print(f"labels: {list(cert.witness.labels)}")
        for note in cert.notes:
            print(f"note: {note}")
    return EXIT_OK if cert.status == "exact" else EXIT_INCONCLUSIVE


def _write_dot(path: str, g: Graph, numbering: Numbering) -> None:
    text = to_dot(g, numbering)
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from None


# -- subcommand: bounds ------------------------------------------------------------


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = bounds_report(g)
    if args.json:
        payload = {
            "p": report.p,
            "core_p": report.core_p,
            "best_lower": report.best_lower,
            "best_upper": report.best_upper,
            "exact": report.exact,
            "entries": [
                {"name": e.name, "side": e.side, "value": e.value, "detail": e.detail}
                for e in report.entries
            ],
            "notes": list(report.notes),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render())
    return EXIT_OK


# -- subcommand: label -------------------------------------------------------------


def _cmd_label(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        res = certify(g, args.mode, args.budget, args.embed)
    except ValueError as e:
        raise InputError(str(e)) from None
    if res.added_biclique is not None:
        m, n = res.added_biclique
        if args.dot:
            _write_dot(args.dot, res.host, res.certificate.witness)
        if args.json:
            payload = {
                "embedded": True,
                "added_biclique": [m, n],
                "host_graph6": write_graph6(res.host),
                "certificate": res.certificate.to_json(),
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print("no exact certificate for the input graph itself;")
            print(f"certified a host (input plus K_{{{m},{n}}}): {res.host.n} vertices, "
                  f"strength {res.certificate.value} (exact)")
            print(f"host graph6: {write_graph6(res.host)}")
            print(f"host labels: {list(res.certificate.witness.labels)}")
        return EXIT_OK
    if res.certificate is not None:
        if args.dot:
            _write_dot(args.dot, g, res.certificate.witness)
        return _print_certificate(g, res.certificate, args.json)
    if args.embed:
        print(f"inconclusive: no certificate after {res.nodes_explored} search nodes",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    print("no exact numbering route succeeded; best bounds:", file=sys.stderr)
    print(bounds_report(res.host).render(), file=sys.stderr)
    print("hint: try --embed, a larger --budget, or 'exact' on small graphs",
          file=sys.stderr)
    return EXIT_INCONCLUSIVE


# -- subcommand: exact -------------------------------------------------------------


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        res = exact_strength(g, budget=args.budget)
    except ValueError as e:
        raise InputError(str(e)) from None
    if res.status == "exact":
        if args.json:
            print(res.to_certificate().dumps(), end="")
        else:
            print(f"exact strength: {res.value} ({res.nodes_explored} nodes explored)")
            print(f"labels: {list(res.witness.labels)}")
        return EXIT_OK
    if args.json:
        print(json.dumps({"status": "bracket", "lower": res.lower, "upper": res.upper,
                          "nodes_explored": res.nodes_explored}, indent=2, sort_keys=True))
    else:
        print(f"inconclusive: strength in [{res.lower}, {res.upper}] "
              f"({stop_reason(res, args.budget)})")
    return EXIT_INCONCLUSIVE


# -- subcommand: verify ------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        text = sys.stdin.read() if args.certificate == "-" else Path(args.certificate).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {args.certificate}: {e}") from None
    try:
        cert = StrengthCertificate.loads(text)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
        raise InputError(f"bad certificate JSON: {e}") from None
    verdict = verify_certificate(g, cert)
    if args.json:
        print(json.dumps({"status": verdict.status, "reasons": list(verdict.reasons),
                          "recomputed_lower": verdict.recomputed_lower},
                         indent=2, sort_keys=True))
    else:
        print(f"verdict: {verdict.status}")
        for reason in verdict.reasons:
            print(f"  {reason}")
    return EXIT_OK if verdict.ok else EXIT_FAILED


# -- subcommand: repro -------------------------------------------------------------


def _check_fixtures(rng: random.Random, fixture_dir: str | None) -> None:
    for name in BUNDLED_FIXTURES:
        fx = load_fixture(name, directory=fixture_dir)
        require(fx.strength == strength_of(fx.graph, fx.numbering), f"{name}: strength drifted")
    q6 = load_fixture("q6", directory=fixture_dir)
    diverging = [n for n in q6.notes if "stored" in n]
    require(len(diverging) == 3, f"expected 3 stored-maximum divergences, saw {diverging}")


def _check_fixture_tamper(rng: random.Random, fixture_dir: str | None) -> None:
    from .constructions import fixture_directory

    src = Path(fixture_dir) if fixture_dir else fixture_directory()
    with tempfile.TemporaryDirectory() as tmp:
        for f in src.iterdir():
            shutil.copy(f, tmp)
        path = Path(tmp) / "q5.json"
        data = json.loads(path.read_text())
        data["labels"][0], data["labels"][1] = data["labels"][1], data["labels"][0]
        path.write_text(json.dumps(data, indent=1) + "\n")
        try:
            load_fixture("q5", directory=tmp)
            raise AssertionError("tampered fixture accepted (checksum)")
        except FixtureError as e:
            require("checksum" in str(e), str(e))
        # even with a matching checksum, the strength re-check must fire
        manifest_path = Path(tmp) / "checksums.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["q5.json"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
        try:
            load_fixture("q5", directory=tmp)
            raise AssertionError("tampered fixture accepted (strength)")
        except FixtureError as e:
            require("strength" in str(e), str(e))


def _check_closed_forms(rng: random.Random, fixture_dir: str | None) -> None:
    from .graphs import complete, complete_bipartite, cycle, fan, path, star, wheel

    cases = [
        (path(6), 7), (path(8), 9),
        (cycle(6), 8), (cycle(7), 9),
        (complete(5), 9), (complete(6), 11),
        (complete_bipartite(2, 4), 8), (complete_bipartite(3, 3), 9),
        (star(7), 9),
        (wheel(5), 9), (wheel(6), 10),
        (fan(4), 7), (fan(5), 8),
    ]
    for g, want in cases:
        res = exact_strength(g)
        require(res.status == "exact" and res.value == want, f"{g}: want {want}, got {res}")


def _check_worked_traces(rng: random.Random, fixture_dir: str | None) -> None:
    ex21 = load_fixture("example21", directory=fixture_dir)
    res = find_delta_sequence(ex21.graph, "min-degree")
    require(res.status == "found" and res.sequence.satisfies_condition, f"example21: {res}")
    require(label_from_sequence(ex21.graph, res.sequence) == ex21.numbering, "example21 labels")
    require(strength_of(ex21.graph, ex21.numbering) == 14, "example21 strength is not 14")

    ex22 = load_fixture("example22", directory=fixture_dir)
    res = find_delta_sequence(ex22.graph, "min-degree")
    require(res.status == "exhausted", f"example22 min-degree search: {res.status}")
    res = find_delta_sequence(ex22.graph, "any-degree",
                              root_degree=ex22.graph.min_degree())
    require(res.status == "found" and res.sequence.satisfies_condition, f"example22: {res}")
    require(label_from_sequence(ex22.graph, res.sequence) == ex22.numbering, "example22 labels")
    require(strength_of(ex22.graph, ex22.numbering) == 17, "example22 strength is not 17")


def _check_cube_certificates(rng: random.Random, fixture_dir: str | None) -> None:
    from .graphs import hypercube

    expected = {1: (3, 3), 2: (6, 6), 3: (11, 11), 4: (21, 21),
                5: (40, 40), 6: (76, 79)}
    for n, (lo, up) in expected.items():
        cert = hypercube_certificate(n)
        got = (cert.lower.value, cert.upper)
        require(got == (lo, up), f"Q{n}: certificate {got}, expected {(lo, up)}")
        verdict = verify_certificate(hypercube(n), cert)
        require(verdict.ok, f"Q{n}: {verdict.reasons}")


def _check_doubling(rng: random.Random, fixture_dir: str | None) -> None:
    from .graphs import hypercube

    g, f = hypercube(2), Numbering((1, 3, 4, 2))
    for n in (3, 4):
        g, f = double_bipartite(g, f)
        require(g == hypercube(n), f"doubling Q{n - 1} did not give Q{n}")
        # 5m+1 with m = |X| before doubling
        require(strength_of(g, f) == 5 * (g.n // 4) + 1, f"doubled Q{n} strength")
    require(strength_of(g, f) == 21, "doubled Q4 strength is not 21")


def _check_two_regular(rng: random.Random, fixture_dir: str | None) -> None:
    from .bounds import two_regular_strength
    from .graphs import cycles_union

    showcase = cycles_union([4, 6, 5, 5, 7])
    _, cert = label_two_regular(showcase)
    require(cert.value == 31 and verify_certificate(showcase, cert).ok, "showcase is not 31")
    for _ in range(25):
        lengths = [rng.randint(3, 9) for _ in range(rng.randint(1, 5))]
        g = cycles_union(lengths)
        _, cert = label_two_regular(g)
        require(cert.value == two_regular_strength(sorted(lengths)), f"cycles {lengths}")
        require(verify_certificate(g, cert).ok, f"cycles {lengths}: certificate rejected")


def _check_embedding(rng: random.Random, fixture_dir: str | None) -> None:
    from .graphs import hypercube

    res = embed_minimal(hypercube(4))
    require(res.status == "exact" and res.added_biclique == (4, 5), f"Q4 embedding: {res.status}")
    require(res.host.n == 25 and res.certificate.value == 29, "Q4 host is not 25 vertices at 29")
    require(verify_certificate(res.host, res.certificate).ok, "Q4 host certificate rejected")


def _check_bounds_sandwich(rng: random.Random, fixture_dir: str | None) -> None:
    for _ in range(12):
        p = rng.randint(4, 8)
        edges = [(u, v) for u in range(p) for v in range(u + 1, p)
                 if rng.random() < 0.45]
        g = Graph(p, edges)
        if g.edge_count == 0:
            continue
        report = bounds_report(g)
        res = exact_strength(g)
        require(res.status == "exact", f"{edges}: oracle gave {res.status}")
        require(report.best_lower <= res.value <= report.best_upper, f"{edges}: {report}")


_REPRO_CHECKS = (
    ("fixtures", _check_fixtures),
    ("fixture-tamper", _check_fixture_tamper),
    ("closed-forms", _check_closed_forms),
    ("worked-traces", _check_worked_traces),
    ("cube-certificates", _check_cube_certificates),
    ("doubling", _check_doubling),
    ("two-regular", _check_two_regular),
    ("embedding", _check_embedding),
    ("bounds-sandwich", _check_bounds_sandwich),
)


def _cmd_repro(args: argparse.Namespace) -> int:
    names = [n for n, _ in _REPRO_CHECKS if args.filter in n]
    if args.list:
        for n in names:
            print(n)
        return EXIT_OK
    if not names:
        raise InputError(f"no repro check matches {args.filter!r}")
    failed = 0
    for name, fn in _REPRO_CHECKS:
        if args.filter not in name:
            continue
        rng = random.Random(args.seed)
        start = time.perf_counter()
        try:
            fn(rng, args.fixture_dir)
        except Exception as e:  # noqa: BLE001 - report and keep going
            failed += 1
            print(f"FAIL {name}: {e}")
        else:
            print(f"ok {name} ({time.perf_counter() - start:.2f}s)")
    total = len(names)
    print(f"{total - failed} passed, {failed} failed")
    return EXIT_FAILED if failed else EXIT_OK


# -- entry point -------------------------------------------------------------------


def non_negative_int(text: str) -> int:
    """The argparse type of every budget."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it costs about 20 times what
    parsing one command line with it does, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="graphstrength",
        description="Vertex numberings minimizing the largest edge label sum.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("bounds", help="print lower/upper bounds at verify's limits")
    _add_graph_arguments(sub)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(fn=_cmd_bounds)

    sub = subs.add_parser("label", help="construct a certified numbering")
    _add_graph_arguments(sub)
    sub.add_argument("--mode", choices=("auto", "min-degree", "any-degree"),
                     default="auto",
                     help="auto tries closed forms first, then both engines")
    sub.add_argument("--budget", type=non_negative_int, default=DEFAULT_BUDGET)
    sub.add_argument("--embed", action="store_true",
                     help="if the graph itself resists, certify it inside a host")
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--dot", metavar="FILE", help="write Graphviz source ('-' = stdout)")
    sub.set_defaults(fn=_cmd_label)

    sub = subs.add_parser("exact", help="exhaustive search within a node budget")
    _add_graph_arguments(sub)
    sub.add_argument("--budget", type=non_negative_int, default=EXACT_BUDGET,
                     help="node budget, at most the default")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(fn=_cmd_exact)

    sub = subs.add_parser("verify", help="recheck a certificate JSON")
    _add_graph_arguments(sub)
    sub.add_argument("--certificate", required=True, metavar="FILE",
                     help="certificate JSON ('-' = stdin)")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(fn=_cmd_verify)

    sub = subs.add_parser("repro", help="run the built-in reproduction checks")
    sub.add_argument("--filter", default="", help="run only checks containing this")
    sub.add_argument("--list", action="store_true", help="list check names")
    sub.add_argument("--seed", type=int, default=2026)
    sub.add_argument("--fixture-dir", default=None,
                     help="load fixtures from this directory instead of the bundled one")
    sub.set_defaults(fn=_cmd_repro)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
