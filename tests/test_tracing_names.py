"""The benchmark's tracer finds balmat's functions by name and reads a few
things off their arguments and results; a rename, or a change to what the
collectors read, must fail here rather than only show up in traced runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from balmat.rational import LPProblem
from balmat.topology import Graph, SimplicialComplex

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()

# layer -> (arguments of one real call, the extra counts its collector gives
# for that call when the span took DURATION seconds)
DURATION = 0.5
CALLS = {
    "rational.rank_of_rows": (([{0: 1, 1: 2}, {1: 3}],), {"nnz": 3}),
    "rational.lp_solve": ((LPProblem(2, [([1, 2], 4), ([3, 1], 6)], [1, 1]),),
                          {"cells": 4, "infeasible": 0}),
    "topology.betti": ((SimplicialComplex(2, [{1}, {2}]), 0),
                       {"nonzero": 1, "nonzero_s": DURATION}),
    "topology.independence_complex": ((Graph(3, [(1, 2)]),), {"facets": 2}),
    "topology.canonical_key": ((frozenset({frozenset({1, 2}), frozenset({2, 3})}),),
                               {"distinct": 1, "labeled": 0}),
}


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in TRACING_MODULE.LAYERS])
def test_traced_name_resolves(module, attr):
    assert getattr(importlib.import_module(module), attr, None) is not None


def test_every_collector_has_a_call():
    assert set(CALLS) == set(TRACING_MODULE.EXTRAS)


@pytest.mark.parametrize("layer", sorted(CALLS))
def test_collector_reads_a_real_call(layer):
    """Each collector runs once on a real call's arguments and result, as the
    tracer's wrapper would pass them, with no wrapper installed."""
    (module, attr), = [(m, a) for m, a, name in TRACING_MODULE.LAYERS if name == layer]
    args, expected = CALLS[layer]
    result = getattr(importlib.import_module(module), attr)(*args)
    names, collect = TRACING_MODULE.EXTRAS[layer]
    stats = {n: 0.0 if n.endswith("_s") else 0 for n in names}
    collect(stats, args, result, DURATION)
    assert {n: stats[n] for n in names} == expected
