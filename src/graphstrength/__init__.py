"""Vertex numberings minimizing the largest edge label sum.

A numbering of a graph on p vertices is a bijection onto 1..p; its strength
is the largest sum an edge's endpoints receive, and the graph's strength is
the minimum over all numberings.  The package computes certified values:
lower bounds that can be recomputed from scratch, explicit numberings as
upper-bound witnesses, and exact results whenever the two meet.
"""

from . import bounds, constructions, deltaseq, graphio, graphs, labeling, oracle
from .bounds import BoundsReport, bounds_report
from .constructions import (
    FixtureError,
    double_bipartite,
    hypercube_certificate,
    label_two_regular,
    load_fixture,
)
from .deltaseq import (
    DeltaSequence,
    certify,
    embed_minimal,
    find_delta_sequence,
    forest_delta_sequence,
    label_from_sequence,
    replay,
)
from .graphio import parse_graph6, read_edgelist, write_edgelist, write_graph6
from .graphs import Graph, cycles_union, disjoint_union, generate, hypercube
from .labeling import (
    LowerBound,
    Numbering,
    StrengthCertificate,
    UnconfirmedBound,
    strength_of,
    verify_certificate,
)
from .oracle import exact_strength

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "DeltaSequence",
    "FixtureError",
    "Graph",
    "LowerBound",
    "Numbering",
    "StrengthCertificate",
    "UnconfirmedBound",
    "bounds",
    "bounds_report",
    "certify",
    "constructions",
    "cycles_union",
    "deltaseq",
    "disjoint_union",
    "double_bipartite",
    "embed_minimal",
    "exact_strength",
    "find_delta_sequence",
    "forest_delta_sequence",
    "generate",
    "graphio",
    "graphs",
    "hypercube",
    "hypercube_certificate",
    "label_from_sequence",
    "label_two_regular",
    "load_fixture",
    "oracle",
    "parse_graph6",
    "read_edgelist",
    "replay",
    "strength_of",
    "verify_certificate",
    "write_edgelist",
    "write_graph6",
]
