"""Exact invariants of fractionally balanced d-partite hypergraphs.

Matching numbers (integral and fractional), balance certificates, rational
homology of independence/matching complexes, the deletion/explosion game,
cone generators, cake-division counterexample checks, d-interval piercing,
and a batch verification suite — all in exact rational arithmetic.
"""

from .hypergraph import (Multigraph, PartiteHypergraph, WeightFunction,
                         balanced_certificate, degrees, is_balanced,
                         neighborhood, nu, nu_star, random_balanced)
from .rational import format_rational, parse_rational, rank_of_rows
from .topology import (Eta, Graph, SimplicialComplex, betti, con_certificate,
                       eta, hall_check, independence_complex, line_graph,
                       matching_complex, psi)

__all__ = [
    "Eta", "Graph", "Multigraph", "PartiteHypergraph",
    "SimplicialComplex", "WeightFunction", "balanced_certificate", "betti",
    "con_certificate", "degrees", "eta", "format_rational", "hall_check",
    "independence_complex", "is_balanced", "line_graph", "matching_complex",
    "neighborhood", "nu", "nu_star", "parse_rational", "psi",
    "random_balanced", "rank_of_rows",
]

__version__ = "0.1.0"
