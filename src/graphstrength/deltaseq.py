"""Reduction sequences: peel a graph to nothing, certify its strength.

Stage 1 is the whole graph.  Each stage splits off its isolated vertices
(m_i of them), then deletes the closed neighborhood of one chosen vertex of
the remaining graph; the process stops when what remains is only isolated
vertices, or isolated vertices plus one clique.  Writing d_i for the chosen
vertex's current degree, each stage from the second onward contributes
y_i = m_i + 1 - d_i, and the running totals z_i = y_2 + ... + y_i are the
whole story: if every z_i (terminal stage included) is nonnegative, an
explicit numbering built from the sequence achieves strength p + d_1.

When every chosen vertex has minimum degree, d_1 is the graph's minimum
degree and the numbering is optimal (strength is always at least p + delta).
Choices of arbitrary degree still give the upper bound p + d_1, which is
again optimal whenever d_1 equals the minimum degree.

Searches here are deterministic: candidates are tried by (degree, id)
ascending, budgets count choice applications, and "exhausted" is reported
only when the whole pruned tree was actually explored within budget.

``certify`` is the labeling pipeline: closed forms first, then these
searches, then a biclique host; the ``label`` command only formats its
result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

from .bounds import recognize_hypercube, two_regular_cycle_lengths
from .constructions import hypercube_certificate, label_two_regular
from .graphs import Graph, _bits, complete_bipartite, disjoint_union
from .labeling import (
    LowerBound,
    Numbering,
    StrengthCertificate,
    extend_over_isolated,
    strength_of,
)

DEFAULT_BUDGET = 10**6

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

    @property
    def kind(self) -> str:
        return "clique" if self.clique else "isolated"


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


def _split_isolated(g: Graph, mask: int) -> tuple[int, int]:
    iso = 0
    for v in _bits(mask):
        if not g.adj[v] & mask:
            iso |= 1 << v
    return iso, mask ^ iso


def _residual_degree(g: Graph, mask: int, v: int) -> int:
    return (g.adj[v] & mask).bit_count()


def _is_clique(g: Graph, mask: int) -> bool:
    for v in _bits(mask):
        if (g.adj[v] & mask) | 1 << v != mask:
            return False
    return True


def replay(g: Graph, choices: tuple[int, ...] | list[int], mode: str = "min-degree") -> DeltaSequence:
    """Rebuild and validate the full sequence a list of chosen vertices induces.

    This is the single source of truth for stage bookkeeping: searches,
    hand-written choice lists, and spliced sequences all come through here.
    Raises ValueError when a choice is illegal for the mode, when the walk
    ends somewhere that is not a terminal stage, or when a choice would
    delete the entire remaining graph.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if g.n == 0:
        raise ValueError("empty graph has no reduction sequence")
    if not all(g.adj[v] for v in range(g.n)):
        raise ValueError("strip isolated vertices first (stage 1 must have none)")
    mask = g.full_mask
    steps: list[DeltaStep] = []
    z = 0
    for idx, u in enumerate(choices, start=1):
        iso, residual = _split_isolated(g, mask)
        if not residual or _is_clique(g, residual):
            raise ValueError(
                f"stage {idx} is already terminal; {len(choices) - idx + 1} choices left over"
            )
        if not residual >> u & 1:
            raise ValueError(f"choice {u} at stage {idx} is not in the remaining graph")
        d = _residual_degree(g, residual, u)
        if mode == "min-degree":
            dmin = min(_residual_degree(g, residual, w) for w in _bits(residual))
            if d != dmin:
                raise ValueError(
                    f"choice {u} at stage {idx} has degree {d}, minimum is {dmin}"
                )
        nxt = residual & ~(g.adj[u] | 1 << u)
        if not nxt:
            raise ValueError(
                f"choice {u} at stage {idx} deletes the whole remaining graph"
            )
        m = iso.bit_count()
        y = 0 if idx == 1 else m + 1 - d
        z = z + y
        steps.append(
            DeltaStep(
                chosen=u,
                d=d,
                m=m,
                isolated=tuple(_bits(iso)),
                neighbors=tuple(_bits(g.adj[u] & residual)),
                y=y,
                z=z,
            )
        )
        mask = nxt
    iso, residual = _split_isolated(g, mask)
    if residual and not _is_clique(g, residual):
        raise ValueError(
            f"choices ran out at stage {len(choices) + 1}: remaining graph is not terminal"
        )
    m = iso.bit_count()
    r = residual.bit_count()
    d_term = max(r - 1, 0)
    y = m + 1 - d_term
    if not choices:
        y, z = 0, 0  # the whole graph was terminal; nothing to balance
    else:
        z = z + y
    terminal = Terminal(
        m=m, isolated=tuple(_bits(iso)), clique=tuple(_bits(residual)), y=y, z=z
    )
    return DeltaSequence(p=g.n, mode=mode, steps=tuple(steps), terminal=terminal)


@dataclass(frozen=True)
class DeltaSearchResult:
    status: str  # "found" | "exhausted" | "budget"
    sequence: DeltaSequence | None
    nodes_explored: int


class _Budget(Exception):
    pass


def _search(
    g: Graph, mode: str, budget: int, root_degree: int | None, floor: float, target: float
) -> tuple[tuple[int, ...] | None, int, bool]:
    """Depth-first search for the sequence whose worst prefix sum is largest.

    Candidates go by (degree, id), only minimum-degree ones in min-degree
    mode.  A branch is cut once its worst prefix sum cannot beat the
    incumbent, which starts at ``floor``; the search stops once the
    incumbent reaches ``target``.  Returns (incumbent's choices or None,
    nodes explored, complete); complete is False when the budget ran out.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if g.n == 0 or not all(g.adj[v] for v in range(g.n)):
        raise ValueError("strip isolated vertices first")
    if _is_clique(g, g.full_mask):
        raise ValueError("graph is a single clique: already terminal, "
                         "strength is 2p-1 directly")
    adj = g.adj
    nodes = 0
    best: float = floor
    best_choices: tuple[int, ...] | None = None
    choices: list[int] = []

    def search(mask: int, z: int, worst: float, stage: int) -> bool:
        """Explore below this stage; True once the target is reached."""
        nonlocal nodes, best, best_choices
        iso, residual = _split_isolated(g, mask)
        m = iso.bit_count()
        if not residual or _is_clique(g, residual):
            final = min(worst, z + m + 1 - max(residual.bit_count() - 1, 0))
            if final > best:
                best, best_choices = final, tuple(choices)
            return best >= target
        degree = {v: (adj[v] & residual).bit_count() for v in _bits(residual)}
        pool = sorted(degree, key=degree.__getitem__)  # stable: ties by id
        if mode == "min-degree":
            pool = [v for v in pool if degree[v] == degree[pool[0]]]
        if stage == 1 and root_degree is not None:
            pool = [v for v in pool if degree[v] == root_degree]
        for v in pool:
            # stage 1 only fixes d_1; prefix sums start at stage 2
            nz = z + m + 1 - degree[v] if stage > 1 else 0
            nworst = min(worst, nz) if stage > 1 else worst
            if nworst <= best:
                continue
            nxt = residual & ~(adj[v] | 1 << v)
            if not nxt:
                continue
            nodes += 1
            if nodes > budget:
                raise _Budget
            choices.append(v)
            if search(nxt, nz, nworst, stage + 1):
                return True
            choices.pop()
        return False

    try:
        # worst prefix of a real sequence can't exceed p; +1 clears the cap
        search(g.full_mask, 0, g.n + 1, 1)
    except _Budget:
        return best_choices, nodes, False
    return best_choices, nodes, True


def find_delta_sequence(
    g: Graph,
    mode: str = "min-degree",
    budget: int = DEFAULT_BUDGET,
    root_degree: int | None = None,
) -> DeltaSearchResult:
    """Depth-first search for a sequence with all prefix sums nonnegative.

    A stage whose running total already dipped below zero can never recover
    admissibility, so such branches are cut immediately; the cut is exact, so
    "exhausted" really means no admissible sequence exists.  In any-degree
    mode, ``root_degree`` restricts the first chosen vertex's degree (useful
    when only d_1 = delta certifies an exact value).
    """
    choices, nodes, complete = _search(g, mode, budget, root_degree, -1, 0)
    if choices is not None:
        return DeltaSearchResult("found", replay(g, choices, mode), nodes)
    return DeltaSearchResult("exhausted" if complete else "budget", None, nodes)


def best_z_sequence(
    g: Graph, budget: int = DEFAULT_BUDGET, root_degree: int | None = None
) -> tuple[DeltaSequence | None, int, bool]:
    """Any-degree sequence maximizing the worst prefix sum.

    Returns (sequence, nodes_explored, complete); ``complete`` is False when
    the budget ran out, in which case the best sequence found so far (if any)
    is still returned - any sequence is usable, a better one only shrinks the
    helper graph built from it.  Branches whose running minimum cannot beat
    the incumbent are cut.
    """
    choices, nodes, complete = _search(g, "any-degree", budget, root_degree, -inf, inf)
    seq = replay(g, choices, "any-degree") if choices is not None else None
    return seq, nodes, complete


def label_from_sequence(g: Graph, seq: DeltaSequence) -> Numbering:
    """The explicit numbering a nonnegative sequence promises: strength p + d_1.

    First chosen vertex takes label p and its neighbors take 1..d_1; each
    later stage hands its isolated vertices the next labels down from the
    top, its chosen vertex the next one below those, and its neighbors the
    next labels up from the bottom; a terminal clique takes what is left in
    the middle.  The nonnegative prefix sums are exactly what keeps every
    edge's sum at or below p + d_1, and the top edge attains it.
    """
    if replay(g, seq.choices(), seq.mode) != seq:
        raise ValueError("sequence was not produced from this graph")
    if not seq.satisfies_condition:
        raise ValueError(
            f"sequence has a negative prefix sum ({seq.min_prefix}); "
            "it certifies nothing"
        )
    p = g.n
    labels = [0] * p
    high = p
    low = 1
    for step in seq.steps:
        for v in sorted(step.isolated, reverse=True):
            labels[v] = high
            high -= 1
        labels[step.chosen] = high
        high -= 1
        for v in sorted(step.neighbors):
            labels[v] = low
            low += 1
    for v in sorted(seq.terminal.isolated, reverse=True):
        labels[v] = high
        high -= 1
    clique = sorted(seq.terminal.clique)
    if len(clique) != high - low + 1:
        raise AssertionError("stage bookkeeping out of sync with label supply")
    for v in clique:
        labels[v] = low
        low += 1
    numbering = Numbering(tuple(labels))
    achieved = strength_of(g, numbering)
    if achieved != p + seq.d1:
        raise AssertionError(
            f"constructed numbering has strength {achieved}, expected {p + seq.d1}"
        )
    return numbering


def forest_delta_sequence(t: Graph) -> DeltaSequence:
    """Minimum-degree sequence of a forest with every prefix sum nonnegative.

    Pick a pendant vertex whose neighbor has degree at least 2 when one
    exists (deleting its closed neighborhood frees that neighbor's other
    children as isolated vertices); otherwise the remaining forest is a
    perfect matching and any pendant does.  Every forest with at least one
    edge and no isolated vertices admits this, so its strength is p + 1.
    """
    if not t.is_forest():
        raise ValueError("not a forest")
    if t.n == 0 or not all(t.adj[v] for v in range(t.n)):
        raise ValueError("strip isolated vertices first")
    choices: list[int] = []
    mask = t.full_mask
    while True:
        iso, residual = _split_isolated(t, mask)
        if not residual or _is_clique(t, residual):
            break
        pick = None
        for v in _bits(residual):
            if _residual_degree(t, residual, v) != 1:
                continue
            nbr = next(_bits(t.adj[v] & residual))
            if _residual_degree(t, residual, nbr) >= 2:
                pick = v
                break
        if pick is None:
            pick = next(
                v for v in _bits(residual) if _residual_degree(t, residual, v) == 1
            )
        choices.append(pick)
        mask = residual & ~(t.adj[pick] | 1 << pick)
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
    """``certificate`` numbers ``host``: the input, or its non-isolated part
    plus a disjoint K_{m,n} when ``added_biclique`` is (m, n).  With no
    certificate, ``host`` is the non-isolated part that was searched."""

    status: str  # "exact" | "bracket" | "inconclusive"
    host: Graph
    certificate: StrengthCertificate | None
    sequence: DeltaSequence | None
    added_biclique: tuple[int, int] | None
    nodes_explored: int


def _p_delta_certificate(h: Graph, witness: Numbering, note: str) -> StrengthCertificate:
    lower = LowerBound("p+delta", h.n + h.min_degree())
    return StrengthCertificate(lower, strength_of(h, witness), witness, (note,))


def _complete_certificate(h: Graph) -> StrengthCertificate | None:
    if not h.is_complete():
        return None
    witness = Numbering(tuple(range(1, h.n + 1)))
    return _p_delta_certificate(h, witness, "complete graph: every numbering attains 2p-1")


def _closed_form_certificate(h: Graph) -> StrengthCertificate | None:
    """Unions of cycles, forests and recognized cubes of dimension >= 2."""
    if two_regular_cycle_lengths(h) is not None:
        return label_two_regular(h)[1]
    if h.is_forest():
        seq = forest_delta_sequence(h)
        witness = label_from_sequence(h, seq)
        return _p_delta_certificate(h, witness, f"leaf-peeling sequence: {seq.render()}")
    cube = recognize_hypercube(h)
    if cube is None or cube[0] < 2:
        return None
    n, words = cube
    cert = hypercube_certificate(n)
    return replace(cert, witness=Numbering(tuple(cert.witness.labels[w] for w in words)),
                   notes=cert.notes + (f"recognized as a dimension-{n} cube",))


def _engine_certificate(h: Graph, engines: tuple[str, ...], budget: int) -> EmbedResult:
    """Each engine in turn, each with the full budget; any-degree is rooted
    at a minimum-degree vertex, so a found sequence certifies p + delta."""
    delta = h.min_degree()
    spent = 0
    for engine in engines:
        root = None if engine == "min-degree" else delta
        res = find_delta_sequence(h, engine, budget, root_degree=root)
        spent += res.nodes_explored
        if res.status == "found":
            witness = label_from_sequence(h, res.sequence)
            note = f"{engine} sequence: {res.sequence.render()}"
            return EmbedResult("exact", h, _p_delta_certificate(h, witness, note),
                               res.sequence, None, spent)
    return EmbedResult("inconclusive", h, None, None, None, spent)


def embed_minimal(h: Graph, budget: int = DEFAULT_BUDGET) -> EmbedResult:
    """Certify strength p + delta for h itself or for h plus one biclique.

    Tries, in order: a minimum-degree sequence of h; an any-degree sequence
    rooted at a minimum-degree vertex; and finally a search for the
    any-degree sequence with the best worst prefix sum Z, attaching
    K_{delta, delta - min(Z, 0)} whose own sequence's final total absorbs the
    dip, so the union is certified at |union| + delta exactly.  Complete
    graphs short-circuit: every numbering of K_p has strength 2p - 1.

    Budget rule: each engine search gets the full ``budget``, and the best-Z
    search gets what the two engine searches left.
    """
    if h.edge_count == 0 or not all(h.adj[v] for v in range(h.n)):
        raise ValueError("host must have minimum degree at least 1")
    cert = _complete_certificate(h)
    if cert is not None:
        return EmbedResult("exact", h, cert, None, None, 0)
    res = _engine_certificate(h, MODES, budget)
    left = budget - res.nodes_explored
    if res.certificate is not None or left <= 0:
        return res
    delta = h.min_degree()
    h_seq, nodes, _ = best_z_sequence(h, left, root_degree=delta)
    spent = res.nodes_explored + nodes
    if h_seq is None:
        return EmbedResult("inconclusive", h, None, None, None, spent)
    z_cap = min(h_seq.min_prefix, 0)
    m, n = delta, max(h_seq.d1 - z_cap, delta)
    biclique = complete_bipartite(m, n)
    t_res = find_delta_sequence(biclique, "min-degree", budget)
    if t_res.status != "found":  # pragma: no cover - bicliques always reduce
        raise AssertionError("biclique sequence search failed")
    union, seq = compose_h_plus_t(h, h_seq, biclique, t_res.sequence)
    witness = label_from_sequence(union, seq)
    note = f"host extended by K_{{{m},{n}}}; spliced sequence: {seq.render()}"
    cert = _p_delta_certificate(union, witness, note)
    if cert.status != "exact":  # pragma: no cover - d1 = delta by construction
        raise AssertionError("spliced certificate should be exact")
    return EmbedResult("exact", union, cert, seq, (m, n), spent)


def certify(
    g: Graph, mode: str = "auto", budget: int = DEFAULT_BUDGET, embed: bool = False
) -> EmbedResult:
    """Certified strength of g: the one labeling pipeline.

    Sets isolated vertices aside and certifies a complete graph, in every
    mode.  ``auto`` then tries the closed forms (cycle unions, forests,
    recognized cubes) and both sequence engines; the other modes try only
    their engine.  With ``embed``, a graph no engine certifies goes to
    ``embed_minimal`` for a host with one added biclique.  The witness is
    lifted back over the isolated vertices, which take the top labels.
    Budget rule as in ``embed_minimal``.  Raises ValueError on a graph with
    no edges or an unknown mode.
    """
    if mode not in ("auto",) + MODES:
        raise ValueError(f"mode must be 'auto' or one of {MODES}")
    core_ids = [v for v in range(g.n) if g.adj[v]]
    if not core_ids:
        raise ValueError("graph has no edges; strength is undefined")
    core = g if len(core_ids) == g.n else g.induced(core_ids)[0]
    cert = _complete_certificate(core)
    if cert is None and mode == "auto":
        cert = _closed_form_certificate(core)
    if cert is not None:
        res = EmbedResult(cert.status, core, cert, None, None, 0)
    elif embed and mode != "any-degree":
        # embed_minimal runs min-degree, then any-degree, then the host search
        res = embed_minimal(core, budget)
    else:
        res = _engine_certificate(core, MODES if mode == "auto" else (mode,), budget)
        if embed and res.certificate is None:
            res = embed_minimal(core, budget)
    if core is g or res.certificate is None or res.added_biclique is not None:
        return res
    cert = res.certificate
    lifted = replace(cert, witness=extend_over_isolated(g, cert.witness),
                     notes=cert.notes + (f"{g.n - core.n} isolated vertices take the top labels",))
    return replace(res, host=g, certificate=lifted)
