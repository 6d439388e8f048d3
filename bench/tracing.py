"""Per-layer spans around balmat's functions, installed from outside the package.

`Tracer.install()` replaces every module attribute of a loaded `balmat.*`
module that is bound to a traced function object with one wrapper, so
copies made by `from .rational import rank_of_rows` are wrapped as well.
Each wrapper records calls and self time (span duration minus the time of
the traced spans it encloses) plus a few layer-specific counts.  Nothing in
the package itself changes, and spans are only recorded while `active`.

Spans are timed on the clock the benchmark's items are timed on.
"""

from __future__ import annotations

import sys

# (module, attribute, layer name); the layer is `<module>.<function>`.
LAYERS = [
    ("balmat.rational", "rank_of_rows", "rational.rank_of_rows"),
    ("balmat.rational", "lp_solve", "rational.lp_solve"),
    ("balmat.topology", "betti", "topology.betti"),
    ("balmat.topology", "eta", "topology.eta"),
    ("balmat.topology", "independence_complex", "topology.independence_complex"),
    ("balmat.topology", "_canonical_edges", "topology.canonical_key"),
    ("balmat.topology", "psi", "topology.psi"),
    ("balmat.topology", "hall_check", "topology.hall_check"),
    ("balmat.topology", "con_certificate", "topology.con_certificate"),
    ("balmat.hypergraph", "nu_star", "hypergraph.nu_star"),
    ("balmat.hypergraph", "balanced_certificate", "hypergraph.balanced_certificate"),
    ("balmat.hypergraph", "nu", "hypergraph.nu"),
    ("balmat.search", "canonical_form", "search.canonical_form"),
    ("balmat.search", "bm_search_sampled", "search.bm_search_sampled"),
    ("balmat.search", "bm_search_exhaustive", "search.bm_search_exhaustive"),
    ("balmat.cakecheck", "nu_D", "cakecheck.nu_D"),
    ("balmat.dinterval", "coverable", "dinterval.coverable"),
    ("balmat.dinterval", "rainbow_matching", "dinterval.rainbow_matching"),
]


def _rank_nnz(stats, args, result, duration):
    rows = args[0]
    stats["nnz"] += sum(len(r) if isinstance(r, dict) else sum(1 for x in r if x)
                        for r in rows)


def _lp_cells(stats, args, result, duration):
    problem = args[0]
    stats["cells"] += len(problem.constraints) * problem.variables
    infeasible = getattr(sys.modules["balmat.rational"], "INFEASIBLE", None)
    stats["infeasible"] += result is infeasible


def _betti_nonzero(stats, args, result, duration):
    if result != 0:
        stats["nonzero"] += 1
        stats["nonzero_s"] += duration


def _facets(stats, args, result, duration):
    stats["facets"] += len(result.facets)


def _keys(stats, args, result, duration):
    seen = stats.setdefault("_seen", set())
    seen.add(result)
    stats["distinct"] = len(seen)
    stats["labeled"] += result[0] == "labeled"


# Extra counts per layer: (names, collector(stats, args, result, duration)).
# `betti.nonzero_s` is the full span time of Betti numbers that came out
# nonzero: the rank work a vanishing-only shortcut could not skip.
EXTRAS = {
    "rational.rank_of_rows": (("nnz",), _rank_nnz),
    "rational.lp_solve": (("cells", "infeasible"), _lp_cells),
    "topology.betti": (("nonzero", "nonzero_s"), _betti_nonzero),
    "topology.independence_complex": (("facets",), _facets),
    "topology.canonical_key": (("distinct", "labeled"), _keys),
}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.active = False
        self.stack = []  # enclosed-span time accumulated per open span
        self.stats = {}
        self.missing = []

    def install(self):
        """Wrap every binding of each traced function in loaded balmat modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "balmat" or name.startswith("balmat."))]
        for module_name, attr, layer in LAYERS:
            home = sys.modules.get(module_name)
            fn = getattr(home, attr, None) if home is not None else None
            if fn is None:
                self.missing.append(layer)
                continue
            names, collect = EXTRAS.get(layer, ((), None))
            stats = {"calls": 0, "self_s": 0.0}
            stats.update({n: 0.0 if n.endswith("_s") else 0 for n in names})
            self.stats[layer] = stats
            wrapper = self._wrap(fn, stats, collect)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)

    def _wrap(self, fn, stats, collect):
        tracer = self
        clock = self.clock

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stats["self_s"] += duration - stack.pop()
                stats["calls"] += 1
                if stack:
                    stack[-1] += duration
            if collect is not None:
                t1 = clock()
                collect(stats, args, result, duration)
                if stack:
                    # Counting cost is charged to no layer's self time.
                    stack[-1] += clock() - t1
            return result

        return traced

    def report(self):
        """Flat `<layer>.<stat>` counts and self times."""
        return {f"{layer}.{key}": value for layer, stats in self.stats.items()
                for key, value in stats.items() if not key.startswith("_")}
