"""Reading and writing graphs: graph6 strings and a plain edge-list format.

graph6 is the usual printable-ASCII encoding: a vertex count N(n) followed by
the upper triangle of the adjacency matrix, column by column, packed into
6-bit groups offset by 63.  Parse errors always carry the byte offset into
the input string, because "somewhere in this blob" is useless for the long
strings these files tend to hold.

The edge-list format is one header line ``n m`` followed by m lines ``u v``
(0-based endpoints).  Blank lines and ``#`` comments are skipped.
"""

from __future__ import annotations

from .graphs import Graph

_HEADER = ">>graph6<<"
# Largest n an edge-list header may declare: the header alone sizes the graph.
# graph6 needs no such limit, as its data length bounds n.
MAX_EDGELIST_VERTICES = 2**16


class Graph6Error(ValueError):
    """graph6 parse failure; ``offset`` is the byte index into the input."""

    def __init__(self, offset: int, message: str) -> None:
        super().__init__(f"graph6: {message} (byte offset {offset})")
        self.offset = offset


class EdgeListError(ValueError):
    """Edge-list parse failure; ``line`` is the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"edge list, line {line}: {message}")
        self.line = line


def _byte(s: str, i: int) -> int:
    b = ord(s[i])
    if not 63 <= b <= 126:
        raise Graph6Error(i, f"byte {b} outside the printable graph6 range 63..126")
    return b


def _read_order(s: str, i: int, end: int) -> tuple[int, int]:
    """Decode N(n) starting at offset i; return (n, offset after it)."""
    if i >= end:
        raise Graph6Error(i, "missing vertex count")
    b = _byte(s, i)
    if b != 126:
        return b - 63, i + 1
    if i + 1 < end and ord(s[i + 1]) == 126:
        width, i = 6, i + 2
    else:
        width, i = 3, i + 1
    if i + width > end:
        raise Graph6Error(end, f"truncated vertex count: need {width} more bytes")
    n = 0
    for k in range(width):
        n = n << 6 | (_byte(s, i + k) - 63)
    return n, i + width


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional ``>>graph6<<`` header allowed)."""
    end = len(text)
    while end > 0 and text[end - 1] in "\r\n \t":
        end -= 1
    i = len(_HEADER) if text.startswith(_HEADER) else 0
    n, i = _read_order(text, i, end)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if end - i < nbytes:
        raise Graph6Error(
            end, f"truncated adjacency data: need {nbytes} bytes, found {end - i}"
        )
    if end - i > nbytes:
        raise Graph6Error(i + nbytes, "trailing data after adjacency bits")
    edges = []
    bit = 0
    u, v = 0, 1
    for k in range(nbytes):
        b = _byte(text, i + k) - 63
        for shift in (5, 4, 3, 2, 1, 0):
            if bit >= nbits:
                if b >> shift & 1:
                    raise Graph6Error(i + k, "nonzero padding bits")
                continue
            if b >> shift & 1:
                edges.append((u, v))
            bit += 1
            u += 1
            if u == v:
                u, v = 0, v + 1
    return Graph(n, edges)


def write_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no header)."""
    n = g.n
    if n <= 62:
        order = chr(n + 63)
    elif n <= 258047:
        order = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    elif n <= 68719476735:
        order = "~~" + "".join(chr((n >> s & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    else:
        raise ValueError("graph too large for graph6")
    bits: list[int] = []
    for v in range(1, n):
        row = g.adj[v]
        bits.extend(row >> u & 1 for u in range(v))
    while len(bits) % 6:
        bits.append(0)
    chunks = (
        (bits[k] << 5 | bits[k + 1] << 4 | bits[k + 2] << 3
         | bits[k + 3] << 2 | bits[k + 4] << 1 | bits[k + 5])
        for k in range(0, len(bits), 6)
    )
    return order + "".join(chr(c + 63) for c in chunks)


def read_edgelist(text: str) -> Graph:
    """Parse the ``n m`` / ``u v`` edge-list format; an edge may appear once,
    in either orientation."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    first_line: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(lineno, f"expected two integers, got {len(parts)} tokens")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(lineno, f"non-integer token in {line!r}") from None
        if header is None:
            if a < 0 or b < 0:
                raise EdgeListError(lineno, "header counts must be nonnegative")
            if a > MAX_EDGELIST_VERTICES:
                raise EdgeListError(lineno, f"{a} vertices exceed the limit {MAX_EDGELIST_VERTICES}")
            header = (a, b)
            continue
        if len(edges) == header[1]:
            raise EdgeListError(lineno, f"more than the declared {header[1]} edges")
        if not (0 <= a < header[0] and 0 <= b < header[0]):
            raise EdgeListError(lineno, f"endpoint out of range 0..{header[0] - 1}")
        if a == b:
            raise EdgeListError(lineno, "loops are not allowed")
        seen = first_line.setdefault((min(a, b), max(a, b)), lineno)
        if seen != lineno:
            raise EdgeListError(lineno, f"edge {a} {b} repeats the edge on line {seen}")
        edges.append((a, b))
    if header is None:
        raise EdgeListError(1, "missing 'n m' header line")
    if len(edges) != header[1]:
        raise EdgeListError(lineno, f"declared {header[1]} edges but found {len(edges)}")
    return Graph(header[0], edges)


def write_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
