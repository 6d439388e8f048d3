"""JSON encoding/decoding for the core objects.

Rationals travel as strings "p/q" (or "p"); all dumps are key-sorted and
newline-terminated so outputs are byte-deterministic.
"""

from __future__ import annotations

import itertools
import json
from typing import Any

from .cakecheck import Partition
from .dinterval import DInterval, DIntervalFamilies
from .hypergraph import Multigraph, PartiteHypergraph, WeightFunction
from .rational import format_rational, parse_rational
from .topology import Graph, SimplicialComplex


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# --- hypergraphs and weights ------------------------------------------------


def hypergraph_to_json(h: PartiteHypergraph) -> dict:
    return {"sides": list(h.side_sizes), "edges": [list(e) for e in h.edges]}


def hypergraph_from_json(data: dict) -> PartiteHypergraph:
    """Strict decoding: an object whose sides and edges are lists, every
    coordinate an int (not a bool, not a float); anything else is a
    ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a hypergraph must be a JSON object")
    sides, edges = data["sides"], data["edges"]
    if not isinstance(sides, list) or not isinstance(edges, list) \
            or not all(isinstance(e, list) for e in edges):
        raise ValueError("hypergraph sides and edges must be lists of integers")
    for x in itertools.chain(sides, *edges):
        if type(x) is not int:
            raise ValueError(f"hypergraph coordinate {x!r} is not an integer")
    return PartiteHypergraph(sides, [tuple(e) for e in edges])


def weights_to_json(f: WeightFunction) -> dict:
    return {"weights": [{"edge": list(e), "w": format_rational(w)}
                        for e, w in f.weights]}


def weights_from_json(data: dict) -> WeightFunction:
    return WeightFunction({tuple(item["edge"]): parse_rational(item["w"])
                           for item in data["weights"]})


def multigraph_to_json(mg: Multigraph) -> dict:
    return {"b": mg.b_size, "c": mg.c_size,
            "edges": [[b, c, lab] for b, c, lab in mg.edges]}


def multigraph_from_json(data: dict) -> Multigraph:
    return Multigraph(data["b"], data["c"],
                      [(b, c, lab) for b, c, lab in data["edges"]])


# --- graphs and complexes ---------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    return {"vertices": g.vertex_count,
            "edges": sorted(sorted(e) for e in g.edges)}


def graph_from_json(data: dict) -> Graph:
    return Graph(data["vertices"], [tuple(e) for e in data["edges"]])


def complex_to_json(c: SimplicialComplex) -> dict:
    return {"vertices": c.vertex_count,
            "facets": sorted(sorted(f) for f in c.facets)}


def complex_from_json(data: dict) -> SimplicialComplex:
    return SimplicialComplex(data["vertices"],
                             [frozenset(f) for f in data["facets"]])


# --- d-intervals ------------------------------------------------------------


def dinterval_to_json(iv: DInterval) -> dict:
    return {"parts": [[format_rational(lo), format_rational(hi)]
                      for lo, hi in iv.parts]}


def dinterval_from_json(data: dict) -> DInterval:
    return DInterval([(parse_rational(lo), parse_rational(hi))
                      for lo, hi in data["parts"]])


def families_to_json(fams: DIntervalFamilies) -> dict:
    return {"d": fams.d,
            "families": [[dinterval_to_json(iv) for iv in fam]
                         for fam in fams.families]}


def families_from_json(data: dict) -> DIntervalFamilies:
    return DIntervalFamilies(
        data["d"],
        [[dinterval_from_json(item) for item in fam] for fam in data["families"]])


# --- cake partitions --------------------------------------------------------


def partition_to_json(p: Partition) -> list:
    return [[format_rational(x) for x in cake] for cake in p.cakes]


def partition_from_json(data: list) -> Partition:
    return Partition([[parse_rational(x) for x in cake] for cake in data])
