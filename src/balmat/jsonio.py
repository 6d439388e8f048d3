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


def hypergraph_from_json(data: dict) -> PartiteHypergraph:
    """Strict decoding, like every decoder here: objects and lists where they
    belong, every coordinate an int (not a bool, not a float) and every
    rational a string; anything else is a ValueError."""
    data = checked(data, dict, "hypergraph")
    return PartiteHypergraph(_ints(data["sides"], "side size"),
                             _int_rows(data["edges"], "edge"))


def weights_to_json(f: WeightFunction) -> dict:
    return {"weights": [{"edge": list(e), "w": format_rational(w)}
                        for e, w in f.weights]}


# --- graphs and complexes ---------------------------------------------------


def graph_from_json(data: dict) -> Graph:
    data = checked(data, dict, "graph")
    return Graph(checked(data["vertices"], int, "vertices"), _int_rows(data["edges"], "edge"))


def complex_from_json(data: dict) -> SimplicialComplex:
    data = checked(data, dict, "complex")
    return SimplicialComplex(checked(data["vertices"], int, "vertices"),
                             [frozenset(f) for f in _int_rows(data["facets"], "facet")])


# --- d-intervals ------------------------------------------------------------


def dinterval_to_json(iv: DInterval) -> dict:
    return {"parts": [[format_rational(lo), format_rational(hi)]
                      for lo, hi in iv.parts]}


def dinterval_from_json(data: dict) -> DInterval:
    parts = checked(checked(data, dict, "d-interval")["parts"], list, "parts")
    return DInterval([[_rational(x, "endpoint") for x in checked(part, list, "part")]
                      for part in parts])


def families_from_json(data: dict) -> DIntervalFamilies:
    data = checked(data, dict, "d-interval families")
    return DIntervalFamilies(
        checked(data["d"], int, "d"),
        [[dinterval_from_json(item) for item in checked(fam, list, "family")]
         for fam in checked(data["families"], list, "families")])


# --- cake partitions --------------------------------------------------------


def partition_to_json(p: Partition) -> list:
    return [[format_rational(x) for x in cake] for cake in p.cakes]


def partition_from_json(data: list) -> Partition:
    return Partition([[_rational(x, "slice length") for x in checked(cake, list, "cake")]
                      for cake in checked(data, list, "partition")])
