"""Reduction sequences: peel a graph to nothing, certify its strength.

Stage 1 is the whole graph.  Each stage splits off its isolated vertices
(m_i of them), then deletes the closed neighborhood of one chosen vertex of
the remaining graph; the process stops when what remains is only isolated
vertices, or isolated vertices plus one clique.  Writing d_i for the chosen
vertex's current degree, each stage from the second onward contributes
y_i = m_i + 1 - d_i, and the running totals z_i = y_2 + ... + y_i are the
whole story: if every z_i (terminal stage included) is nonnegative, an
explicit numbering built from the sequence achieves strength p + d_1: the
top-set numbering (``labeling.top_set_numbering``) of each stage's isolated
vertices, ids descending, then its chosen vertex, and last the terminal's
isolated vertices, ids descending.

Strength is always at least p + delta, so the numbering is optimal
whenever d_1 is the graph's minimum degree, whatever the degrees of the
later choices.  Every search here starts at a minimum-degree vertex; in
min-degree mode every later choice has minimum degree too, and in
any-degree mode later choices may take any degree, so its tree holds every
min-degree sequence.

Searches here are deterministic: candidates are tried by (degree, id)
ascending, budgets count choice applications, and "exhausted" is reported
only when the whole pruned tree was actually explored within budget.  Every
walk (``_search``, ``replay``, the forest route) reads the same degree
levels, one vertex mask per residual degree, and steps with
``_next_levels``, which recounts only the vertices next to the deleted
neighbourhood, so a walk costs the vertices each stage touches.  Both
searches run one DFS, ``_search``.  It keeps, for one call, a table of
proven bounds keyed by the set of vertices that remain; a subtree the table
rules out holds no strict improvement on the incumbent, so the table only
saves nodes and never changes what a completed search returns.  It stops
taking new sets at ``BOUND_TABLE_CAP`` entries, which bounds its memory.

``certify`` is the one labeling pipeline: closed forms, then one
any-degree search (best-Z with ``embed``, which certifies the graph itself
or sizes a biclique host); the ``label`` command only formats its result.
``embed_minimal`` is its embed route without the closed forms.  A complete
graph has no route of its own: it is one terminal stage, which the search
returns before it counts a node, at p + d_1 = 2p - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

from .bounds import recognize_hypercube, two_regular_cycle_lengths
from .constructions import hypercube_certificate, label_two_regular
from .graphs import Graph, _bits, complete_bipartite, disjoint_union
from .labeling import (
    BudgetExhausted,
    LowerBound,
    Numbering,
    StrengthCertificate,
    extend_over_isolated,
    strength_of,
    top_set_numbering,
)

DEFAULT_BUDGET = 10**6
# most vertex sets _search's bound table holds, which bounds its memory
BOUND_TABLE_CAP = 1 << 16

MODES = ("min-degree", "any-degree")


@dataclass(frozen=True)
class DeltaStep:
    """One peeling stage: m isolated vertices split off, then N[chosen] deleted."""

    chosen: int
    d: int
    m: int
    isolated: tuple[int, ...]
    neighbors: tuple[int, ...]
    y: int  # m + 1 - d; 0 by convention at stage 1
    z: int  # y_2 + ... + y_i; 0 at stage 1


@dataclass(frozen=True)
class Terminal:
    """The final stage: isolated vertices plus at most one clique."""

    m: int
    isolated: tuple[int, ...]
    clique: tuple[int, ...]
    y: int
    z: int

    @property
    def r(self) -> int:
        return len(self.clique)


@dataclass(frozen=True)
class DeltaSequence:
    p: int
    mode: str
    steps: tuple[DeltaStep, ...]
    terminal: Terminal

    @property
    def d1(self) -> int:
        """Degree of the first chosen vertex; r-1 if the graph was only a clique."""
        return self.steps[0].d if self.steps else max(self.terminal.r - 1, 0)

    @property
    def prefix_sums(self) -> tuple[int, ...]:
        """z_2, ..., z_s (interior stages after the first, then the terminal)."""
        return tuple(s.z for s in self.steps[1:]) + (self.terminal.z,)

    @property
    def satisfies_condition(self) -> bool:
        return all(z >= 0 for z in self.prefix_sums)

    @property
    def min_prefix(self) -> int:
        return min(self.prefix_sums)

    def choices(self) -> tuple[int, ...]:
        return tuple(s.chosen for s in self.steps)

    def render(self) -> str:
        """One-line arrow chain, e.g. (d1=2) -> (m2=1, d2=2, z2=0) -> 2K1."""
        parts = []
        for i, s in enumerate(self.steps, start=1):
            if i == 1:
                parts.append(f"(d1={s.d})")
            else:
                parts.append(f"(m{i}={s.m}, d{i}={s.d}, z{i}={s.z})")
        t = self.terminal
        s = len(self.steps) + 1
        tail = f"{t.m}K1" if not t.clique else f"{t.m}K1+K{t.r}"
        parts.append(f"({tail}, z{s}={t.z})")
        return " -> ".join(parts)


def _root_levels(g: Graph) -> list[int]:
    """Stage 1's levels: one vertex mask per degree 0..max degree."""
    levels = [0] * (g.max_degree() + 1)
    for v in range(g.n):
        levels[g.adj[v].bit_count()] |= 1 << v
    return levels


def _lowest_degree(levels: list[int], residual: int) -> int | None:
    """The stage's lowest degree, or None when the stage is terminal: empty,
    or one clique, as degrees stay below r = |residual|."""
    d = 1
    while residual and not levels[d]:
        d += 1
    return None if d >= residual.bit_count() - 1 else d


def _next_levels(adj: list[int], levels: list[int], nv: int, nxt: int) -> tuple[list[int], int]:
    """The next stage once N[v] is deleted, nv = N(v) in the stage and nxt
    the survivors: its levels and its vertices that are not isolated.  Only
    the survivors next to N(v) lose degree, so those drop out of the
    stage's levels and are recounted once; level 0 is the new isolated
    vertices."""
    touched = 0
    while nv:
        u = nv & -nv
        nv ^= u
        touched |= adj[u.bit_length() - 1]
    touched &= nxt
    keep = nxt & ~touched
    child = [lv & keep for lv in levels]
    while touched:
        u = touched & -touched
        touched ^= u
        child[(adj[u.bit_length() - 1] & nxt).bit_count()] |= u
    return child, nxt & ~child[0]


def replay(g: Graph, choices: tuple[int, ...] | list[int], mode: str = "min-degree") -> DeltaSequence:
    """Rebuild and validate the full sequence a list of chosen vertices induces.

    This is the single source of truth for stage bookkeeping: searches,
    hand-written choice lists, and spliced sequences all come through here.
    It reads the degree levels every walk shares: level 0 holds m_i and the
    isolated vertices, d_min is the lowest nonempty level.  Raises
    ValueError when a choice is illegal for the mode, when the walk ends
    somewhere that is not a terminal stage, or when a choice would delete
    the entire remaining graph.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if g.n == 0:
        raise ValueError("empty graph has no reduction sequence")
    if not all(g.adj[v] for v in range(g.n)):
        raise ValueError("strip isolated vertices first (stage 1 must have none)")
    adj = g.adj
    levels = _root_levels(g)
    residual = g.full_mask
    steps: list[DeltaStep] = []
    z = 0
    for idx, u in enumerate(choices, start=1):
        dmin = _lowest_degree(levels, residual)
        if dmin is None:
            raise ValueError(
                f"stage {idx} is already terminal; {len(choices) - idx + 1} choices left over"
            )
        if not residual >> u & 1:
            raise ValueError(f"choice {u} at stage {idx} is not in the remaining graph")
        nv = adj[u] & residual
        d = nv.bit_count()
        if mode == "min-degree" and d != dmin:
            raise ValueError(
                f"choice {u} at stage {idx} has degree {d}, minimum is {dmin}"
            )
        nxt = residual & ~(nv | 1 << u)
        if not nxt:
            raise ValueError(
                f"choice {u} at stage {idx} deletes the whole remaining graph"
            )
        m = levels[0].bit_count()
        y = 0 if idx == 1 else m + 1 - d
        z = z + y
        steps.append(
            DeltaStep(
                chosen=u,
                d=d,
                m=m,
                isolated=tuple(_bits(levels[0])),
                neighbors=tuple(_bits(nv)),
                y=y,
                z=z,
            )
        )
        levels, residual = _next_levels(adj, levels, nv, nxt)
    if _lowest_degree(levels, residual) is not None:
        raise ValueError(
            f"choices ran out at stage {len(choices) + 1}: remaining graph is not terminal"
        )
    m = levels[0].bit_count()
    d_term = max(residual.bit_count() - 1, 0)
    y = m + 1 - d_term
    if not choices:
        y, z = 0, 0  # the whole graph was terminal; nothing to balance
    else:
        z = z + y
    terminal = Terminal(
        m=m, isolated=tuple(_bits(levels[0])), clique=tuple(_bits(residual)), y=y, z=z
    )
    return DeltaSequence(p=g.n, mode=mode, steps=tuple(steps), terminal=terminal)


@dataclass(frozen=True)
class DeltaSearchResult:
    status: str  # "found" | "exhausted" | "budget"
    sequence: DeltaSequence | None
    nodes_explored: int


def _search(
    g: Graph, mode: str, budget: int, floor: float
) -> tuple[tuple[int, ...] | None, int, bool]:
    """Depth-first search for the sequence whose worst prefix sum is largest,
    up to 0.

    Candidates go by (degree, id): only minimum-degree ones at stage 1,
    which fixes d_1 = delta, and at every stage in min-degree mode.  A
    branch is cut once its worst prefix sum cannot beat the incumbent,
    which starts at ``floor``; the search stops once the incumbent reaches
    0, as no caller needs more.  Returns (incumbent's choices or None,
    nodes explored, complete); complete is False when the budget ran out or
    the search, one call deep per stage, reached the recursion limit.  A
    single clique is terminal already: its sequence makes no choice and has
    Z = 0, found at no node.

    A node holds its stage's ``levels`` (level 0: the isolated vertices), so
    the (degree, id) order is the levels walked upward from the lowest
    nonempty one, ids ascending.

    From stage 2 on, what lies below a node depends only on its vertex set
    (the mask): the best worst-prefix a continuation can add to the running
    total z is a function R(mask).  When a child's subtree was explored to
    the end (no budget exit, no return at 0) and the child's running
    minimum still beats the incumbent afterwards, branch and bound has
    proven R(child) <= best - z(child).  ``bound`` keeps the least such
    value per mask, and a later child whose z plus its mask's bound cannot
    beat the incumbent is skipped without being counted.  No leaf under it
    could strictly beat the incumbent, and only a strict improvement
    replaces the incumbent, so the incumbents follow one another exactly as
    without the table: a search that completes without it returns the same
    choices and completes with it, in no more nodes, and a search that ran
    out of budget without it may get further.  The table lives for one call
    and takes new masks only while it holds fewer than ``BOUND_TABLE_CAP``
    entries; masks already stored keep being tightened.  A mask left out
    only costs the nodes the table would have saved, so the cap bounds its
    memory without changing what a completed search returns.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if g.n == 0 or not all(g.adj[v] for v in range(g.n)):
        raise ValueError("strip isolated vertices first")
    adj = g.adj
    root = _root_levels(g)
    if len(root) == g.n and root[-1] == g.full_mask:
        return (), 0, True  # one clique: terminal already, Z = 0
    min_degree = mode == "min-degree"
    nodes = 0
    best: float = floor
    best_choices: tuple[int, ...] | None = None
    choices: list[int] = []
    bound: dict[int, float] = {}

    def search(levels: list[int], residual: int, z: int, worst: float, stage: int) -> bool:
        """Explore below this stage; True once the incumbent reaches 0."""
        nonlocal nodes, best, best_choices
        m = levels[0].bit_count()
        dmin = _lowest_degree(levels, residual)
        if dmin is None:
            final = min(worst, z + m + 1 - max(residual.bit_count() - 1, 0))
            if final > best:
                best, best_choices = final, tuple(choices)
            return best >= 0
        for d in range(dmin, dmin + 1 if min_degree or stage == 1 else len(levels)):
            if stage == 1:
                # stage 1 only fixes d_1; prefix sums start at stage 2
                nz, nworst = 0, worst
            else:
                nz = z + m + 1 - d
                nworst = min(worst, nz)
            rest = levels[d]
            while rest:  # ids ascending, _bits inlined
                if nworst <= best:
                    return False  # nz only falls as the degree rises
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                nv = adj[v] & residual
                nxt = residual & ~(nv | low)
                if not nxt or nz + bound.get(nxt, inf) <= best:
                    continue
                nodes += 1
                if nodes > budget:
                    raise BudgetExhausted
                child, below = _next_levels(adj, levels, nv, nxt)
                choices.append(v)
                if search(child, below, nz, nworst, stage + 1):
                    return True
                choices.pop()
                if (nworst > best and best - nz < bound.get(nxt, inf)
                        and (len(bound) < BOUND_TABLE_CAP or nxt in bound)):
                    bound[nxt] = best - nz
        return False

    try:
        # worst prefix of a real sequence can't exceed p; +1 clears the cap
        search(root, g.full_mask, 0, g.n + 1, 1)
    except (BudgetExhausted, RecursionError):
        return best_choices, nodes, False
    finally:
        # search refers to itself, so its closure (the table with it) would
        # outlive this call until the cycle collector runs
        bound.clear()
    return best_choices, nodes, True


def find_delta_sequence(
    g: Graph, mode: str = "min-degree", budget: int = DEFAULT_BUDGET
) -> DeltaSearchResult:
    """Depth-first search for a sequence with all prefix sums nonnegative
    whose first chosen vertex has minimum degree, so that it certifies
    strength p + delta.

    The incumbent starts at -1, so a stage whose running total already
    dipped below zero is cut at once: it can never recover admissibility.
    The cut is exact, so "exhausted" really means no such sequence exists,
    and the search stops at the first one it finds.  Min-degree mode keeps
    every later choice at minimum degree too; any-degree mode lets choices
    from stage 2 on take any degree, and its tree holds every min-degree
    sequence, tried first at each stage.
    """
    choices, nodes, complete = _search(g, mode, budget, -1)
    if choices is not None:
        return DeltaSearchResult("found", replay(g, choices, mode), nodes)
    return DeltaSearchResult("exhausted" if complete else "budget", None, nodes)


def best_z_sequence(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[DeltaSequence | None, int, bool]:
    """Any-degree sequence with d_1 = delta maximizing the worst prefix sum
    Z, up to Z = 0.

    The incumbent starts at -inf, so the first sequence found sets it, and
    the search stops at the first one with Z >= 0: a host uses only
    min(Z, 0).  Returns (sequence, nodes_explored, complete); ``complete``
    is False when the budget ran out, in which case the best sequence found
    so far (if any) is still returned - any sequence is usable, a better one
    only shrinks the host built from it.
    """
    choices, nodes, complete = _search(g, "any-degree", budget, -inf)
    seq = replay(g, choices, "any-degree") if choices is not None else None
    return seq, nodes, complete


def label_from_sequence(g: Graph, seq: DeltaSequence) -> Numbering:
    """The explicit numbering a nonnegative sequence promises: strength p + d_1.

    The top-set numbering of the sequence's chain: the first chosen vertex
    takes label p and its neighbors 1..d_1; each later stage's isolated
    vertices, then its chosen vertex, take the next labels down from the
    top, and its neighbors the next labels up from the bottom; a terminal
    clique takes what is left in the middle.  The nonnegative prefix sums
    keep every edge's sum at or below p + d_1, and the top edge attains it.
    """
    if replay(g, seq.choices(), seq.mode) != seq:
        raise ValueError("sequence was not produced from this graph")
    return _numbering(g, seq)


def _numbering(g: Graph, seq: DeltaSequence) -> Numbering:
    """``label_from_sequence`` for a sequence ``replay`` built from g itself,
    as every sequence of ``certify`` is.  The prefix sums, the leftover
    vertices (the terminal clique) and the strength are still checked."""
    if not seq.satisfies_condition:
        raise ValueError(
            f"sequence has a negative prefix sum ({seq.min_prefix}); "
            "it certifies nothing"
        )
    p = g.n
    chain: list[int] = []
    for step in seq.steps:
        chain += [*step.isolated[::-1], step.chosen]
    chain += seq.terminal.isolated[::-1]
    numbering = top_set_numbering(g, chain)
    low = sum(len(step.neighbors) for step in seq.steps)
    leftover = sorted(numbering.labels[v] for v in seq.terminal.clique)
    if leftover != list(range(low + 1, p - len(chain) + 1)):
        raise AssertionError("stage bookkeeping out of sync with label supply")
    achieved = strength_of(g, numbering)
    if achieved != p + seq.d1:
        raise AssertionError(
            f"constructed numbering has strength {achieved}, expected {p + seq.d1}"
        )
    return numbering


def forest_delta_sequence(t: Graph) -> DeltaSequence:
    """Minimum-degree sequence of a forest with every prefix sum nonnegative.

    With no isolated vertex, every stage that is not terminal has minimum
    degree 1, so each choice has y_i = m_i + 1 - 1 = m_i >= 0, and a
    terminal stage holds at most a K_2, so its y is at least 0 too: every
    pendant peeling has nonnegative prefix sums, the strength is p + 1, and
    the min-degree DFS never backtracks on a forest.  The rule here (the
    lowest pendant whose neighbor has degree at least 2, else the lowest
    pendant) only fixes which sequence is returned, and stays so
    certificates do not change.  ``pairs`` holds the pendants whose neighbor
    is one too: K_2 components, which no choice touches until they are
    picked.
    """
    if not t.is_forest():
        raise ValueError("not a forest")
    if t.n == 0 or not all(t.adj[v] for v in range(t.n)):
        raise ValueError("strip isolated vertices first")
    adj = t.adj
    choices: list[int] = []
    levels = _root_levels(t)
    residual = t.full_mask
    old = pairs = 0  # the last stage's pendants: none, so the input's K_2s seed pairs
    while _lowest_degree(levels, residual) is not None:
        pendants = levels[1]  # a forest that is not terminal has one
        for w in _bits(pendants & ~old):
            if adj[w] & pendants:
                pairs |= 1 << w | adj[w] & pendants
        old = pendants
        rest = pendants & ~pairs or pendants
        pick = (rest & -rest).bit_length() - 1
        choices.append(pick)
        nv = adj[pick] & residual
        nxt = residual & ~(nv | 1 << pick)
        levels, residual = _next_levels(adj, levels, nv, nxt)
    seq = replay(t, choices, "min-degree")
    if not seq.satisfies_condition:
        raise AssertionError("forest peeling produced a negative prefix sum")
    return seq


def compose_h_plus_t(
    h: Graph, h_seq: DeltaSequence, t: Graph, t_seq: DeltaSequence
) -> tuple[Graph, DeltaSequence]:
    """Splice sequences of T and H into one sequence of their disjoint union.

    T's stages run first; a terminal clique of T is consumed by choosing one
    of its vertices; then H's stages run, with T's leftover isolated vertices
    absorbed along the way.  The splice keeps every prefix sum nonnegative
    exactly when T's final total covers H's worst dip below d_1(H):
    z_final(T) >= d1(H) - Z where Z = min(0, worst prefix sum of H's
    sequence).  On success the union graph's sequence starts at degree
    d_1(T), so it certifies strength |H| + |T| + d_1(T) whenever d_1(T) is
    the union's minimum degree.
    """
    if not t_seq.satisfies_condition:
        raise ValueError("the T sequence must itself have nonnegative prefix sums")
    z_final = t_seq.terminal.z
    z_cap = min(min(h_seq.prefix_sums), 0)
    # consuming T's terminal clique is a stage of its own whose total lands
    # back on z_final(T) with +1 to spare before H's first choice
    discount = 1 if t_seq.terminal.clique else 0
    need = h_seq.d1 - z_cap - discount
    if z_final < need:
        raise ValueError(
            f"T's final total {z_final} cannot absorb H's demand {need} "
            f"(d1(H)={h_seq.d1}, worst H prefix {z_cap}); deficit {need - z_final}"
        )
    union = disjoint_union(h, t)
    spliced = [c + h.n for c in t_seq.choices()]
    if t_seq.terminal.clique:
        spliced.append(min(t_seq.terminal.clique) + h.n)
    spliced.extend(h_seq.choices())
    seq = replay(union, spliced, "any-degree")
    if not seq.satisfies_condition:
        raise AssertionError("spliced sequence lost nonnegativity; deficit check wrong")
    return union, seq


@dataclass(frozen=True)
class EmbedResult:
    """``certificate`` numbers ``host``: the input, or the input plus a
    disjoint K_{m,n} on the next ids when ``added_biclique`` is (m, n).  With
    no certificate, ``host`` is the non-isolated part that was searched."""

    status: str  # "exact" | "bracket" | "inconclusive"
    host: Graph
    certificate: StrengthCertificate | None
    sequence: DeltaSequence | None
    added_biclique: tuple[int, int] | None
    nodes_explored: int


def _p_delta_certificate(h: Graph, witness: Numbering, upper: int, note: str) -> StrengthCertificate:
    return StrengthCertificate(LowerBound("p+delta", h.n + h.min_degree()), upper, witness, (note,))


def _sequence_result(h: Graph, seq: DeltaSequence, note: str, nodes: int,
                     added: tuple[int, int] | None = None) -> EmbedResult:
    """h at p + d_1 by seq's numbering, whose strength ``_numbering`` checks."""
    cert = _p_delta_certificate(h, _numbering(h, seq), h.n + seq.d1, note)
    return EmbedResult(cert.status, h, cert, seq, added, nodes)


def _closed_form_certificate(h: Graph) -> StrengthCertificate | None:
    """Unions of cycles, forests and recognized cubes of dimension >= 2."""
    if two_regular_cycle_lengths(h) is not None:
        return label_two_regular(h)[1]
    if h.is_forest():
        seq = forest_delta_sequence(h)
        return _p_delta_certificate(h, _numbering(h, seq), h.n + 1,
                                    f"leaf-peeling sequence: {seq.render()}")
    cube = recognize_hypercube(h)
    if cube is None or cube[0] < 2:
        return None
    n, words = cube
    cert = hypercube_certificate(n)
    return replace(cert, witness=Numbering(tuple(cert.witness.labels[w] for w in words)),
                   notes=cert.notes + (f"recognized as a dimension-{n} cube",))


def embed_minimal(h: Graph, budget: int = DEFAULT_BUDGET) -> EmbedResult:
    """Certify strength p + delta for h itself or for h plus one biclique.

    The embed route of ``certify`` without its closed forms, for a graph
    with no isolated vertex: ``_sequence_stage`` with ``embed``.
    """
    if h.edge_count == 0 or not all(h.adj[v] for v in range(h.n)):
        raise ValueError("host must have minimum degree at least 1")
    return _sequence_stage(h, budget, True)


def _sequence_stage(h: Graph, budget: int, embed: bool) -> EmbedResult:
    """One any-degree search from a minimum-degree vertex, with the full
    budget: ``find_delta_sequence`` keeps only sequences with Z >= 0, and
    with ``embed`` ``best_z_sequence`` keeps the largest Z however
    negative.  Z >= 0 certifies h itself at p + delta, and Z < 0 certifies
    h plus K_{delta, d_1 - Z} at |union| + delta exactly."""
    if embed:
        h_seq, spent, _ = best_z_sequence(h, budget)
    else:
        res = find_delta_sequence(h, "any-degree", budget)
        h_seq, spent = res.sequence, res.nodes_explored
    if h_seq is None:
        return EmbedResult("inconclusive", h, None, None, None, spent)
    if h_seq.min_prefix >= 0:
        return _sequence_result(h, h_seq, f"any-degree sequence: {h_seq.render()}", spent)
    m, n = h.min_degree(), h_seq.d1 - h_seq.min_prefix
    # n > m, so vertex m is K_{m,n}'s first minimum-degree vertex, and
    # deleting N[m] leaves n - 1 isolated vertices: z = n
    biclique = complete_bipartite(m, n)
    union, seq = compose_h_plus_t(h, h_seq, biclique, replay(biclique, (m,)))
    note = f"host extended by K_{{{m},{n}}}; spliced sequence: {seq.render()}"
    return _sequence_result(union, seq, note, spent, (m, n))


def certify(g: Graph, budget: int = DEFAULT_BUDGET, embed: bool = False) -> EmbedResult:
    """Certified strength of g: the one labeling pipeline.

    Sets isolated vertices aside, tries the closed forms (cycle unions,
    forests, recognized cubes), then runs ``_sequence_stage``'s one search,
    which with ``embed`` certifies either the input itself or the input
    plus one biclique on the next ids.  The witness is lifted back over the
    isolated vertices, which take the top labels.  The search gets the
    full ``budget``.  Raises ValueError on a graph with no edges.
    """
    core, _ = g.core()
    if core.n == 0:
        raise ValueError("graph has no edges; strength is undefined")
    cert = _closed_form_certificate(core)
    if cert is not None:
        res = EmbedResult(cert.status, core, cert, None, None, 0)
    else:
        res = _sequence_stage(core, budget, embed)
    if core is g or res.certificate is None:
        return res
    host = g
    if res.added_biclique is not None:
        m, n = res.added_biclique
        host = disjoint_union(g, complete_bipartite(m, n))
    cert = res.certificate
    lifted = replace(cert, witness=extend_over_isolated(host, cert.witness),
                     notes=cert.notes + (f"{g.n - core.n} isolated vertices take the top labels",))
    return replace(res, host=host, certificate=lifted)
