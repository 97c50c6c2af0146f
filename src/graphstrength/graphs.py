"""Finite simple undirected graphs on vertex set {0, ..., n-1}.

The Graph type stores one adjacency bitmask per vertex (Python ints, so any
order works); everything downstream - labelings, reduction sequences, the
exact solver - leans on cheap mask arithmetic.  Vertices are always dense
integer ids; helpers that delete vertices return an induced copy plus the
id mapping instead of mutating.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def _bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph: ``adj[v]`` is the neighbor bitmask of ``v``."""

    __slots__ = ("n", "adj", "edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.adj = tuple(masks)
        self.edge_count = sum(map(int.bit_count, masks)) // 2

    @classmethod
    def _from_masks(cls, masks: list[int]) -> "Graph":
        """The graph with these adjacency masks, which the caller has built
        symmetric and free of loops."""
        g = cls.__new__(cls)
        g.n, g.adj = len(masks), tuple(masks)
        g.edge_count = sum(map(int.bit_count, masks)) // 2
        return g

    # -- basic accessors ---------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return list(map(int.bit_count, self.adj))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u, m in enumerate(self.adj):
            m >>= u + 1  # neighbour v > u sits at bit v - u - 1
            while m:
                low = m & -m
                out.append((u, u + low.bit_length()))
                m ^= low
        return out

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("min degree of the empty graph is undefined")
        return min(map(int.bit_count, self.adj))

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("max degree of the empty graph is undefined")
        return max(self.degrees())

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.adj[v])

    def core(self) -> tuple["Graph", list[int]]:
        """The graph minus its isolated vertices (they touch no edge sum) and
        the new-id -> old-id map; ``self`` when no vertex is isolated."""
        if all(self.adj):
            return self, list(range(self.n))
        return self.induced([v for v in range(self.n) if self.adj[v]])

    # -- structure ---------------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, ordered by minimum id."""
        seen = 0
        out: list[tuple[int, ...]] = []
        for v in range(self.n):
            if seen >> v & 1:
                continue
            comp = new = 1 << v
            while new:  # expand only the vertices added last round
                reach = 0
                for u in _bits(new):
                    reach |= self.adj[u]
                new = reach & ~comp
                comp |= new
            seen |= comp
            out.append(tuple(_bits(comp)))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_forest(self) -> bool:
        return self.edge_count == self.n - len(self.components())

    def is_regular(self, k: int | None = None) -> bool:
        degs = set(self.degrees())
        if len(degs) > 1:
            return False
        return k is None or degs == {k} or (not degs and k == 0)

    def induced(self, vertices: Sequence[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph on ``vertices`` plus the new-id -> old-id map.

        ``vertices`` is deduplicated and sorted, so new ids preserve old order.
        """
        keep = sorted(set(vertices))
        index = {old: new for new, old in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u in keep
            for v in _bits(self.adj[u])
            if u < v and v in index
        ]
        return Graph(len(keep), edges), keep

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """Copy with vertex v renamed perm[v]; ``perm`` must be a permutation."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertex ids")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges()])

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; vertex ids of later operands are shifted past earlier ones."""
    n = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges())
        n += g.n
    return Graph(n, edges)


def cartesian_product_k2(g: Graph) -> Graph:
    """Cartesian product G x K2: copy c of vertex v is ``v + c * g.n``.

    Two copies of G plus a perfect matching between them.  With this id
    convention, iterating from a single edge reproduces ``hypercube`` ids
    exactly (each product step appends one high bit).
    """
    n = g.n
    edges = [(u, v) for u, v in g.edges()]
    edges += [(u + n, v + n) for u, v in g.edges()]
    edges += [(v, v + n) for v in range(n)]
    return Graph(2 * n, edges)


# -- families ---------------------------------------------------------------


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n}: part X = {0..m-1}, part Y = {m..m+n-1}."""
    if m < 1 or n < 1:
        raise ValueError("both parts must be nonempty")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def star(leaves: int) -> Graph:
    """K_{1,leaves} with the hub at vertex 0."""
    if leaves < 1:
        raise ValueError("star needs at least 1 leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def wheel(rim: int) -> Graph:
    """Hub 0 joined to every vertex of the cycle 1..rim."""
    if rim < 3:
        raise ValueError("wheel rim needs at least 3 vertices")
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph(rim + 1, edges)


def fan(blades: int) -> Graph:
    """Hub 0 joined to every vertex of the path 1..blades."""
    if blades < 1:
        raise ValueError("fan needs at least 1 path vertex")
    edges = [(0, i) for i in range(1, blades + 1)]
    edges += [(i, i + 1) for i in range(1, blades)]
    return Graph(blades + 1, edges)


def hypercube(n: int) -> Graph:
    """Q_n on 2^n vertices; vertex ids are the coordinate bitvectors."""
    if n < 0:
        raise ValueError("hypercube dimension must be nonnegative")
    size = 1 << n
    edges = [(v, v | 1 << b) for v in range(size) for b in range(n) if not v >> b & 1]
    return Graph(size, edges)


def one_point_union(lengths: Sequence[int]) -> Graph:
    """Cycles of the given lengths glued at the single shared vertex 0."""
    if not lengths:
        raise ValueError("need at least one cycle length")
    edges: list[tuple[int, int]] = []
    nxt = 1
    for c in lengths:
        if c < 3:
            raise ValueError("cycle length must be at least 3")
        ring = [0] + list(range(nxt, nxt + c - 1))
        nxt += c - 1
        edges += [(ring[i], ring[(i + 1) % c]) for i in range(c)]
    return Graph(nxt, edges)


def cycles_union(lengths: Sequence[int]) -> Graph:
    """Disjoint union of cycles with the given lengths (a 2-regular graph)."""
    if not lengths:
        raise ValueError("need at least one cycle length")
    return disjoint_union(*(cycle(c) for c in lengths))


_FAMILIES = {
    "path": (path, 1, 1),
    "cycle": (cycle, 1, 1),
    "complete": (complete, 1, 1),
    "complete-bipartite": (complete_bipartite, 2, 2),
    "star": (star, 1, 1),
    "wheel": (wheel, 1, 1),
    "fan": (fan, 1, 1),
    "hypercube": (hypercube, 1, 1),
    "one-point-union": (lambda *a: one_point_union(a), 1, None),
    "two-regular": (lambda *a: cycles_union(a), 1, None),
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def generate(kind: str, args: Sequence[int]) -> Graph:
    """Build a named family member, e.g. generate("hypercube", [4])."""
    try:
        fn, lo, hi = _FAMILIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown family {kind!r}; known: {', '.join(family_names())}"
        ) from None
    if len(args) < lo or (hi is not None and len(args) > hi):
        want = f"exactly {lo}" if lo == hi else f"at least {lo}"
        raise ValueError(f"family {kind!r} takes {want} argument(s), got {len(args)}")
    return fn(*args)
