"""Command-line interface.

Every subcommand reads JSON from files, writes a JSON result to stdout (and
to --out when given), and exits 0 on success, 1 on a failed check, 2 on
usage errors.  All output is byte-deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import constructions as cons
from . import jsonio
from .cakecheck import grid_max, instance_2n2_nn, instance_nn_2n2, nu_D
from .dinterval import coverable, rainbow_matching
from .hilbert import hilbert_basis, CapExceeded
from .hypergraph import WeightFunction, balanced_certificate, nu, nu_star
from .rational import format_rational
from .topology import INFINITE, eta, hall_check, psi
from .search import bm_search
from .verify import run_all


# name -> (builder, the flags it takes, in order); a builder returns the
# hypergraph, or the hypergraph and its witness weights
CONSTRUCTIONS = {
    "pasch": (cons.pasch, ()),
    "nnn_tight": (cons.nnn_tight, ("n",)),
    "drisko": (cons.drisko, ("n",)),
    "mlessn": (cons.mlessn, ("k", "n")),
    "mlessn2": (cons.mlessn2, ("k", "n")),
    "main_negative": (cons.main_negative, ("n", "r", "k")),
    "truncated_projective": (cons.truncated_projective, ("q",)),
    "conj_nn": (cons.conj_nn, ("n", "variant")),
}


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _emit(data, out_path):
    text = jsonio.dumps(data)
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="balmat",
        description="Exact invariants of fractionally balanced partite "
                    "hypergraphs: matchings, connectivity, and the "
                    "verification suite.")
    parser.add_argument("--out", help="also write the JSON result here")
    parser.add_argument("--seed", default="0", help="seed for sampled modes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nu", help="maximum matching size of a hypergraph")
    p.add_argument("hypergraph")

    p = sub.add_parser("nustar", help="fractional matching number")
    p.add_argument("hypergraph")

    p = sub.add_parser("balance", help="find a balanced weighting, if any")
    p.add_argument("hypergraph")

    p = sub.add_parser("eta", help="homological connectivity of a complex")
    p.add_argument("complex")
    p.add_argument("--cap", type=int, default=6)

    p = sub.add_parser("psi", help="deletion/explosion game value of a graph")
    p.add_argument("graph")

    p = sub.add_parser("hall-check", help="topological Hall condition, d = 3")
    p.add_argument("hypergraph")
    p.add_argument("--deficiency", type=int, default=0)

    p = sub.add_parser("construct", help="emit a named construction")
    p.add_argument("name", choices=list(CONSTRUCTIONS))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=_rational)
    p.add_argument("--q", type=int)
    p.add_argument("--variant", type=int, default=1)

    p = sub.add_parser("hilbert", help="generators of the balanced cone")
    p.add_argument("--sides", required=True, help="e.g. 2,2")
    p.add_argument("--cap", type=int, required=True)

    p = sub.add_parser("dinterval", help="d-interval covers and matchings")
    p.add_argument("action", choices=["cover", "rainbow"])
    p.add_argument("families")
    p.add_argument("--budgets", help="e.g. 1,1 (cover)")
    p.add_argument("--target", type=int, help="matching size (rainbow)")

    p = sub.add_parser("cake", help="cake-division counterexample checks")
    p.add_argument("action", choices=["check", "search"])
    p.add_argument("--instance", choices=["2n2nn", "nn2n2"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partition", help="partition JSON path (check)")
    p.add_argument("--q", type=int, default=6, help="grid resolution (search)")

    p = sub.add_parser("bm-search", help="minimum nu over balanced hypergraphs")
    p.add_argument("--sides", required=True)
    p.add_argument("--mode", choices=["exhaustive", "sampled"],
                   default="exhaustive")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--edge-cap", type=int)

    p = sub.add_parser("verify-all", help="run the verification suite")
    p.add_argument("--only", nargs="*", help="subset of check names")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _rational(text):
    """An argparse type: a bad rational is a usage error (exit 2)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _sides(text):
    return tuple(int(x) for x in text.split(","))


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "nu":
        h = jsonio.hypergraph_from_json(_load(args.hypergraph))
        _emit({"nu": nu(h)}, args.out)
        return 0
    if cmd == "nustar":
        h = jsonio.hypergraph_from_json(_load(args.hypergraph))
        _emit({"nustar": format_rational(nu_star(h))}, args.out)
        return 0
    if cmd == "balance":
        h = jsonio.hypergraph_from_json(_load(args.hypergraph))
        f = balanced_certificate(h)
        if f is None:
            _emit({"balanced": False}, args.out)
            return 1
        _emit({"balanced": True, **jsonio.weights_to_json(f)}, args.out)
        return 0
    if cmd == "eta":
        c = jsonio.complex_from_json(_load(args.complex))
        res = eta(c, cap=args.cap)
        _emit({"eta": res.value, "exact": res.exact}, args.out)
        return 0
    if cmd == "psi":
        g = jsonio.graph_from_json(_load(args.graph))
        val = psi(g)
        _emit({"psi": "infinite" if val is INFINITE else val}, args.out)
        return 0
    if cmd == "hall-check":
        h = jsonio.hypergraph_from_json(_load(args.hypergraph))
        report = hall_check(h, args.deficiency)
        payload = {"pass": report.all_K_pass}
        if report.all_K_pass:
            payload["matching"] = [list(e) for e in report.matching]
        else:
            payload["failing_K"] = list(report.failing_K)
        _emit(payload, args.out)
        return 0 if report.all_K_pass else 1
    if cmd == "construct":
        return _construct(args)
    if cmd == "hilbert":
        try:
            basis = hilbert_basis(_sides(args.sides), args.cap)
        except CapExceeded as exc:
            _emit({"cap_exceeded": True, "detail": str(exc)}, args.out)
            return 1
        _emit({"generators": [
            jsonio.weights_to_json(WeightFunction({e: Fraction(w) for e, w in g.weights}))
            for g in basis]}, args.out)
        return 0
    if cmd == "dinterval":
        fams = jsonio.families_from_json(_load(args.families))
        if args.action == "cover":
            if not args.budgets:
                raise ValueError("cover requires --budgets")
            budgets = _sides(args.budgets)
            flat = [iv for fam in fams.families for iv in fam]
            cover = coverable(flat, budgets)
            if cover is None:
                _emit({"coverable": False}, args.out)
                return 1
            _emit({"coverable": True,
                   "points": [[format_rational(x) for x in line]
                              for line in cover]}, args.out)
            return 0
        if args.target is None:
            raise ValueError("rainbow requires --target")
        found = rainbow_matching(fams, args.target)
        if found is None:
            _emit({"matching": None}, args.out)
            return 1
        _emit({"matching": [{"family": i, **jsonio.dinterval_to_json(iv)}
                            for i, iv in found]}, args.out)
        return 0
    if cmd == "cake":
        inst = (instance_2n2_nn if args.instance == "2n2nn" else instance_nn_2n2)(args.n)
        if args.action == "check":
            if not args.partition:
                raise ValueError("check requires --partition")
            p = jsonio.partition_from_json(_load(args.partition))
            _emit({"nu_D": nu_D(inst, p)}, args.out)
            return 0
        best, arg = grid_max(inst, args.q)
        _emit({"q": args.q, "max_nu_D": best,
               "argmax": jsonio.partition_to_json(arg)}, args.out)
        return 0 if best < args.n else 1
    if cmd == "bm-search":
        report = bm_search(_sides(args.sides), mode=args.mode, seed=args.seed,
                           trials=args.trials, edge_cap=args.edge_cap)
        payload = {"sides": list(report.side_sizes), "min_nu": report.min_nu,
                   "exhaustive": report.exhaustive,
                   "examined": report.examined,
                   "balanced": report.balanced_count}
        if report.witness is not None:
            payload["witness"] = jsonio.hypergraph_to_json(report.witness)
        _emit(payload, args.out)
        return 0
    if cmd == "verify-all":
        results = run_all(args.only)
        payload = {"checks": [r.to_json() for r in results],
                   "pass": all(r.passed for r in results)}
        _emit(payload, args.out)
        return 0 if payload["pass"] else 1
    raise ValueError(f"unhandled command {cmd}")


def _construct(args) -> int:
    builder, flags = CONSTRUCTIONS[args.name]
    built = builder(*(_require(getattr(args, flag), f"--{flag}") for flag in flags))
    h, f = built if isinstance(built, tuple) else (built, None)
    payload = jsonio.hypergraph_to_json(h)
    if f is not None:
        payload.update(jsonio.weights_to_json(f))
    _emit(payload, args.out)
    return 0


def _require(value, flag):
    if value is None:
        raise ValueError(f"{flag} is required for this construction")
    return value


if __name__ == "__main__":
    sys.exit(main())
