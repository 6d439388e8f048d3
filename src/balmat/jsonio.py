"""The JSON documents of the CLI: a decoder for each document some command
reads (hypergraph, complex, graph, d-interval families, cake partition) and
an encoder for each one some command writes (hypergraph, weights,
d-interval, cake partition).

Rationals travel as strings "p/q" (or "p"); all dumps are key-sorted and
newline-terminated so outputs are byte-deterministic.
"""

from __future__ import annotations

import json
from typing import Any

from .cakecheck import Partition
from .dinterval import DInterval, DIntervalFamilies
from .hypergraph import PartiteHypergraph, WeightFunction
from .rational import checked, format_rational, parse_rational
from .topology import Graph, SimplicialComplex


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# --- hypergraphs and weights ------------------------------------------------


def hypergraph_to_json(h: PartiteHypergraph) -> dict:
    return {"sides": list(h.side_sizes), "edges": [list(e) for e in h.edges]}


def _ints(row, what) -> tuple:
    return tuple(checked(x, int, what) for x in checked(row, list, what))


def _int_rows(rows, what) -> list:
    return [_ints(row, what) for row in checked(rows, list, what + "s")]


def _rational(x, what):
    return parse_rational(checked(x, str, what))


def _fields(data, what, *keys) -> list:
    """The values of keys in the JSON object data, which the document `what`
    must be; a ValueError names the document and the first missing key."""
    data = checked(data, dict, what)
    for key in keys:
        if key not in data:
            raise ValueError(f"{what}: missing key {key!r}")
    return [data[key] for key in keys]


def hypergraph_from_json(data: dict) -> PartiteHypergraph:
    """Strict decoding, like every decoder here: objects and lists where they
    belong, every coordinate an int (not a bool, not a float) and every
    rational a string; anything else is a ValueError."""
    sides, edges = _fields(data, "hypergraph", "sides", "edges")
    return PartiteHypergraph(_ints(sides, "side size"), _int_rows(edges, "edge"))


def weights_to_json(f: WeightFunction) -> dict:
    return {"weights": [{"edge": list(e), "w": format_rational(w)}
                        for e, w in f.weights]}


# --- graphs and complexes ---------------------------------------------------


def graph_from_json(data: dict) -> Graph:
    vertices, edges = _fields(data, "graph", "vertices", "edges")
    return Graph(checked(vertices, int, "vertices"), _int_rows(edges, "edge"))


def complex_from_json(data: dict) -> SimplicialComplex:
    vertices, facets = _fields(data, "complex", "vertices", "facets")
    return SimplicialComplex(checked(vertices, int, "vertices"),
                             [frozenset(f) for f in _int_rows(facets, "facet")])


# --- d-intervals ------------------------------------------------------------


def dinterval_to_json(iv: DInterval) -> dict:
    return {"parts": [[format_rational(lo), format_rational(hi)]
                      for lo, hi in iv.parts]}


def dinterval_from_json(data: dict) -> DInterval:
    (parts,) = _fields(data, "d-interval", "parts")
    return DInterval([[_rational(x, "endpoint") for x in checked(part, list, "part")]
                      for part in checked(parts, list, "parts")])


def families_from_json(data: dict) -> DIntervalFamilies:
    d, families = _fields(data, "d-interval families", "d", "families")
    return DIntervalFamilies(
        checked(d, int, "d"),
        [[dinterval_from_json(item) for item in checked(fam, list, "family")]
         for fam in checked(families, list, "families")])


# --- cake partitions --------------------------------------------------------


def partition_to_json(p: Partition) -> list:
    return [[format_rational(x) for x in cake] for cake in p.cakes]


def partition_from_json(data: list) -> Partition:
    return Partition([[_rational(x, "slice length") for x in checked(cake, list, "cake")]
                      for cake in checked(data, list, "partition")])
