from __future__ import annotations

import random

import networkx as nx
import pytest

from graphstrength.graphio import (
    MAX_EDGELIST_VERTICES,
    EdgeListError,
    Graph6Error,
    parse_graph6,
    read_edgelist,
    write_edgelist,
    write_graph6,
)
from graphstrength.graphs import Graph, complete, cycle, hypercube, star

from conftest import random_graph, to_graph


def test_known_encodings():
    assert write_graph6(Graph(1, [])) == "@"
    assert parse_graph6("@") == Graph(1, [])
    # 5 vertices, edges only from the last vertex to all others
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.degrees()) == [1, 1, 1, 1, 4]


def test_roundtrip_families():
    for g in (cycle(4), cycle(7), complete(6), star(9), hypercube(4)):
        assert parse_graph6(write_graph6(g)) == g


def test_roundtrip_random_and_cross_check():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 20), rng.random())
        text = write_graph6(g)
        assert parse_graph6(text) == g
        # independent decoder agreement
        nxg = nx.from_graph6_bytes(text.encode())
        assert to_graph(nxg) == g


def test_large_order_forms():
    g = Graph(63, [(0, 62)])
    text = write_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text) == g
    nxg = nx.from_graph6_bytes(text.encode())
    assert to_graph(nxg) == g


@pytest.mark.parametrize("n", [63, 64, 100, 200])
def test_roundtrip_and_cross_check_past_one_byte_orders(n):
    # the columns of vertices 62 and up straddle byte boundaries at every
    # offset, and n >= 63 takes the four-byte order
    rng = random.Random(n)
    for p in (0.05, 0.5, 0.95):
        g = random_graph(rng, n, p)
        text = write_graph6(g)
        assert parse_graph6(text) == g
        assert to_graph(nx.from_graph6_bytes(text.encode())) == g


def test_header_and_whitespace():
    text = ">>graph6<<" + write_graph6(cycle(5))
    assert parse_graph6(text) == cycle(5)
    assert parse_graph6(write_graph6(cycle(5)) + "\n") == cycle(5)


def test_graph6_error_offsets():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("")
    assert "missing" in str(err.value)

    with pytest.raises(Graph6Error) as err:
        parse_graph6("D?")  # five vertices need ten bits: one more byte
    assert err.value.offset == 2

    with pytest.raises(Graph6Error) as err:
        parse_graph6(write_graph6(cycle(5)) + "!")
    assert "trailing" in str(err.value)

    with pytest.raises(Graph6Error) as err:
        parse_graph6("D?|")  # same as D?{ but with a nonzero padding bit
    assert "padding" in str(err.value)

    with pytest.raises(Graph6Error) as err:
        parse_graph6("D?\x1f")  # byte below the graph6 range
    assert err.value.offset == 2

    # a byte above the range in the middle of the data: the first bad byte
    # is reported, though the padding of the last byte is bad too
    text = write_graph6(cycle(41))  # 820 bits: two padding bits
    padded = text[:-1] + chr(63 + (ord(text[-1]) - 63 | 1))
    bad = padded[:100] + "\x7f" + padded[101:]
    with pytest.raises(Graph6Error) as err:
        parse_graph6(bad)
    assert err.value.offset == 100
    assert str(err.value) == (
        "graph6: byte 127 outside the printable graph6 range 63..126 (byte offset 100)")
    with pytest.raises(Graph6Error) as err:
        parse_graph6(padded)
    assert err.value.offset == len(text) - 1
    assert "nonzero padding bits" in str(err.value)


def test_edgelist_roundtrip():
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 15), 0.4)
        assert read_edgelist(write_edgelist(g)) == g


def test_edgelist_comments_and_blanks():
    g = read_edgelist("# triangle plus spare vertex\n4 3\n\n0 1\n1 2\n# middle\n2 0\n")
    assert g == Graph(4, [(0, 1), (1, 2), (0, 2)])


def test_edgelist_errors_carry_line_numbers():
    with pytest.raises(EdgeListError) as err:
        read_edgelist("")
    assert "header" in str(err.value)

    with pytest.raises(EdgeListError) as err:
        read_edgelist("3 1\n0 x\n")
    assert err.value.line == 2

    with pytest.raises(EdgeListError) as err:
        read_edgelist("3 2\n0 1\n")
    assert "declared 2 edges but found 1" in str(err.value)
    assert err.value.line == 2  # the last line read, not line 0

    with pytest.raises(EdgeListError) as err:
        read_edgelist("3 1\n0 1\n1 2\n")
    assert err.value.line == 3

    with pytest.raises(EdgeListError) as err:
        read_edgelist("3 1\n0 3\n")
    assert err.value.line == 2

    with pytest.raises(EdgeListError) as err:
        read_edgelist("3 1\n0 1 2\n")
    assert err.value.line == 2


def test_edgelist_refuses_a_repeated_edge():
    # in either orientation; the repeat would load as fewer edges than declared
    for text, line, repeat in (("3 3\n0 1\n1 0\n1 2\n", 3, "1 0"),
                               ("3 3\n0 1\n1 2\n0 1\n", 4, "0 1")):
        with pytest.raises(EdgeListError) as err:
            read_edgelist(text)
        assert err.value.line == line
        assert f"edge {repeat} repeats the edge on line 2" in str(err.value)


def test_edgelist_vertex_count_limit():
    g = read_edgelist(f"{MAX_EDGELIST_VERTICES} 1\n0 1\n")
    assert g.n == MAX_EDGELIST_VERTICES and g.edge_count == 1
    # refused at the header, before anything is sized by it
    for n in (MAX_EDGELIST_VERTICES + 1, 10**10):
        with pytest.raises(EdgeListError) as err:
            read_edgelist(f"{n} 1\n0 1\n")
        assert err.value.line == 1 and "exceed the limit" in str(err.value)
