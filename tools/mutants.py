"""Mutation controls for the certificate path.

Each mutant below is one exact text edit (old -> new) in one file of the
package, with the test files expected to catch it.  The script first runs
every listed test file on an unmutated copy of ``src/`` and ``tests/``, which
must pass.  It then applies each mutant to a fresh copy and runs only that
mutant's test files: a mutant is killed when they fail, and survives when
they pass.  An old text that is missing, or found more than once, is an
error, not a pass.  Exit status 1 means some mutant survived or could not
be applied; 0 means every listed mutant was killed.

Equivalent mutants, edits that cannot change any result, are listed in
``EQUIVALENT`` with the reason.  They are never run, but their old text
must still be there once.

Run from anywhere:

    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/graphstrength"
# a mutant that hangs its tests counts as killed once this many seconds pass
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to PACKAGE
    old: str
    new: str
    tests: tuple[str, ...]  # relative to tests/


MUTANTS = (
    Mutant("strength_of-min-edge-sum", "labeling.py",
           "return max(f[u] + f[v] for u, v in g.edges())",
           "return min(f[u] + f[v] for u, v in g.edges())",
           ("test_labeling.py",)),
    Mutant("is_bijection-accepts-repeats", "labeling.py",
           "return sorted(self.labels) == list(range(1, len(self.labels) + 1))",
           "return set(self.labels) <= set(range(1, len(self.labels) + 1))",
           ("test_labeling.py",)),
    Mutant("verify-accepts-lower-one-above-witness", "labeling.py",
           "if recomputed is not None and recomputed > actual:",
           "if recomputed is not None and recomputed > actual + 1:",
           ("test_labeling.py",)),
    Mutant("recompute-on-uncut-graph", "labeling.py",
           "return fn(g.core()[0], upper)",
           "return fn(g, upper)",
           ("test_properties.py",)),
    Mutant("p+delta-one-high", "bounds.py",
           'register_lower_bound("p+delta", lambda core, upper: core.n + core.min_degree())',
           'register_lower_bound("p+delta", lambda core, upper: core.n + core.min_degree() + 1)',
           ("test_labeling.py",)),
    Mutant("edge-connectivity-one-high", "bounds.py",
           "lambda core, upper: core.n + edge_connectivity(core))",
           "lambda core, upper: core.n + edge_connectivity(core) + 1)",
           ("test_bounds.py",)),
    Mutant("kappa-undo-resets-only-fwd", "bounds.py",
           "fwd[v] = back[v] = adj[v]",
           "fwd[v] = adj[v]",
           ("test_bounds.py",)),
    Mutant("kappa-path-starts-off-the-sources", "bounds.py",
           "hit = levels[-1] & sources\n",
           "hit = levels[-1]\n",
           ("test_bounds.py",)),
    Mutant("kappa-path-stops-a-level-before-the-target", "bounds.py",
           "for level in reversed(levels[:-1]):",
           "for level in reversed(levels[1:-1]):",
           ("test_bounds.py",)),
    Mutant("kappa-flow-runs-past-the-least", "bounds.py",
           "        while flow < best:\n",
           "        while flow <= best:\n",
           ("test_bounds.py",)),
    Mutant("independence-bound-one-high", "bounds.py",
           "return 2 * g.n - 2 * alpha + 1",
           "return 2 * g.n - 2 * alpha + 2",
           ("test_bounds.py",)),
    Mutant("alpha-cover-bound-one-low", "bounds.py",
           "if size + cover_bound(mask) <= best_size:",
           "if size + cover_bound(mask) - 1 <= best_size:",
           ("test_bounds.py",)),
    Mutant("xi-term-plus-two", "bounds.py",
           "self.x[i - 1] - i + 1",
           "self.x[i - 1] - i + 2",
           ("test_bounds.py",)),
    Mutant("xi-counts-incomplete-sizes", "bounds.py",
           "            if self.complete[i - 1]\n",
           "            if True\n",
           ("test_bounds.py",)),
    Mutant("xi-prune-one-too-eager", "bounds.py",
           "            if c - left >= best:\n",
           "            if c - left >= best - 1:\n",
           ("test_xi_scan.py",)),
    Mutant("xi-exterior-rule-one-too-eager", "bounds.py",
           "floor = ext.bit_count() - left\n",
           "floor = ext.bit_count() - left + 1\n",
           ("test_xi_scan.py",)),
    Mutant("xi-second-row-counts-one-hit", "bounds.py",
           "            hit2 |= hit1 & b\n",
           "            hit2 |= b\n",
           ("test_xi_scan.py",)),
    Mutant("xi-hit-rule-k-one-high", "bounds.py",
           "k = floor + delta - best + 1  #",
           "k = floor + delta - best + 2  #",
           ("test_xi_scan.py",)),
    Mutant("xi-third-row-counts-two-hits", "bounds.py",
           "            hit3 |= hit2 & b\n",
           "            hit3 |= hit1 & b\n",
           ("test_xi_scan.py",)),
    Mutant("xi-k-three-pick-admits-one-hit-exterior", "bounds.py",
           "else (ext & hit2) | hit3 if k == 3",
           "else (ext & hit1) | hit3 if k == 3",
           ("test_xi_scan.py",)),
    Mutant("xi-bulk-count-one-position-short", "bounds.py",
           "base += cend - v - 1\n",
           "base += cend - v - 2\n",
           ("test_xi_scan.py",)),
    Mutant("xi-profile-searches-unequal-balls", "bounds.py",
           "len({row.bit_count() for row in table[0]}) == 1 and is_vertex_transitive(g)",
           "is_vertex_transitive(g)",
           ("test_bounds.py",)),
    Mutant("plesnik-branch-at-diameter-three", "bounds.py",
           "all(row == full for row in table[0])",
           "any(row == full for row in table[0])",
           ("test_bounds.py",)),
    Mutant("hypercube-bound-one-high", "bounds.py",
           "return hypercube_lower_bound(got[0])",
           "return hypercube_lower_bound(got[0]) + 1",
           ("test_labeling.py", "test_constructions.py")),
    Mutant("two-regular-bound-one-high", "bounds.py",
           "    return two_regular_strength(lengths)\n\n\nregister_lower_bound",
           "    return two_regular_strength(lengths) + 1\n\n\nregister_lower_bound",
           ("test_labeling.py", "test_constructions.py")),
    Mutant("feasible-room-one-high", "oracle.py",
           "room = max(0, t - p + len(stack)) - near.bit_count()",
           "room = max(0, t - p + len(stack) + 1) - near.bit_count()",
           ("test_oracle.py",)),
    Mutant("feasible-candidate-from-the-neighbourhood", "oracle.py",
           "_bits((pool & ~(chosen | near)) >> after << after)",
           "_bits((pool & ~chosen) >> after << after)",
           ("test_oracle.py",)),
    Mutant("feasible-memo-reads-the-parent", "oracle.py",
           "(chosen | 1 << v) not in dead",
           "chosen not in dead",
           ("test_oracle.py",)),
    Mutant("feasible-distance-two-at-delta", "oracle.py",
           "pool = near2 if room < delta else g.full_mask",
           "pool = near2 if room <= delta else g.full_mask",
           ("test_oracle.py",)),
    Mutant("top-set-neighbours-by-id", "labeling.py",
           "        for w in _bits(g.adj[v]):\n",
           "        for w in sorted(_bits(g.adj[v]), reverse=True):\n",
           ("test_labeling.py", "test_deltaseq.py")),
    Mutant("refine-skips-the-automorphism-check", "oracle.py",
           "if not _is_automorphism(g, [where[c] for c in colorings[0]]):",
           "if False:",
           ("test_oracle.py",)),
    Mutant("json-int-accepts-bool", "labeling.py",
           "if type(value) is not int:",
           "if not isinstance(value, int):",
           ("test_cli.py",)),
    Mutant("numbering-json-ignores-p", "labeling.py",
           '        if _json_int(obj.get("p", len(labels)), "p") != len(labels):\n'
           '            raise ValueError("numbering JSON: p does not match labels length")\n',
           '        _json_int(obj.get("p", len(labels)), "p")\n',
           ("test_cli.py",)),
    Mutant("search-bound-accepts-spent-refutation", "oracle.py",
           '        if res.status == "infeasible":\n            return upper\n',
           '        if res.status != "feasible":\n            return upper\n',
           ("test_budget.py",)),
    Mutant("sequence-bound-table-one-low", "deltaseq.py",
           "bound[nxt] = best - nz\n",
           "bound[nxt] = best - nz - 1\n",
           ("test_sequence_search.py",)),
    Mutant("sequence-stage-one-admits-delta-plus-one", "deltaseq.py",
           "dmin + 1 if min_degree or stage == 1 else len(levels)",
           "dmin + 1 if min_degree else min(dmin + 2, len(levels)) if stage == 1 else len(levels)",
           ("test_sequence_search.py",)),
    Mutant("sequence-clique-not-found", "deltaseq.py",
           "return (), 0, True  # one clique",
           "return None, 0, True  # one clique",
           ("test_deltaseq.py",)),
    Mutant("sequence-chain-isolated-ascending", "deltaseq.py",
           "[*step.isolated[::-1], step.chosen]",
           "[*step.isolated, step.chosen]",
           ("test_deltaseq.py",)),
    Mutant("next-levels-recounts-against-the-untouched", "deltaseq.py",
           "child[(adj[u.bit_length() - 1] & nxt).bit_count()] |= u",
           "child[(adj[u.bit_length() - 1] & keep).bit_count()] |= u",
           ("test_deltaseq.py",)),
    Mutant("forest-pairs-not-seeded-from-the-input", "deltaseq.py",
           "    old = pairs = 0  #",
           "    old, pairs = levels[1], 0  #",
           ("test_deltaseq.py",)),
    Mutant("two-regular-odd-cycles-first", "constructions.py",
           "key=lambda c: (len(c) % 2, len(c), c[0])",
           "key=lambda c: (1 - len(c) % 2, len(c), c[0])",
           ("test_constructions.py",)),
)

# (name, file, old, new, why no test can kill it)
EQUIVALENT = (
    ("feasible-dead-set-recorded-on-entry", "oracle.py",
     "        chosen |= 1 << v\n",
     "        if len(dead) < DEAD_SET_CAP:\n            dead.add(chosen)\n        chosen |= 1 << v\n",
     "a set is recorded before its extensions are explored, but only sets on the stack are, and "
     "the search finishes a set's subtree before any other order can reach the set, so no lookup "
     "sees the early entry until DEAD_SET_CAP sets are held; checked equal, node counts included, "
     "on 19,288 feasible_at calls"),
)


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[str, float]:
    """'pass', 'fail' or 'timeout' for the test files on a copied tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *(f"tests/{t}" for t in tests)]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if done.returncode == 0:
        return "pass", elapsed
    if done.returncode != 1:  # not a test failure: collection or usage error
        sys.stdout.write(done.stdout[-2000:] + done.stderr[-2000:])
    return "fail", elapsed


def _apply(tree: Path, m: Mutant) -> str | None:
    """Apply the edit; an error message when its old text is not there once."""
    target = tree / PACKAGE / m.path
    text = target.read_text()
    found = text.count(m.old)
    if found != 1:
        return f"old text found {found} times in {m.path}"
    target.write_text(text.replace(m.old, m.new))
    return None


def main() -> int:
    bad = []
    for name, path, old, _, _ in EQUIVALENT:  # a stale entry is an error too
        if (ROOT / PACKAGE / path).read_text().count(old) != 1:
            print(f"{name}: error: equivalent mutant's old text is not in {path} once")
            bad.append(name)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        tests = tuple(sorted({t for m in MUTANTS for t in m.tests}))
        outcome, elapsed = _run_tests(base, tests)
        print(f"unmutated: {outcome} ({elapsed:.1f} s) on {', '.join(tests)}", flush=True)
        if outcome != "pass":
            return 1
        for k, m in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{k}"
            shutil.copytree(base, tree)
            error = _apply(tree, m)
            if error is None:
                outcome, elapsed = _run_tests(tree, m.tests)
                status = "survived" if outcome == "pass" else f"killed ({outcome})"
            else:
                status, elapsed = f"error: {error}", 0.0
            print(f"{m.name}: {status} [{elapsed:.1f} s]", flush=True)
            if not status.startswith("killed"):
                bad.append(m.name)
            shutil.rmtree(tree)
    print(f"{sum(m.name not in bad for m in MUTANTS)} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
