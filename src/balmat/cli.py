"""Command-line interface.

Every subcommand reads JSON from files, decoded while the arguments are
parsed, writes a JSON result to stdout (and to --out when given), and exits 0
on success, 1 on a failed check, 2 on usage or input errors, such as a flag
named twice (`--x v` or `--x=v`), which `_Parser.parse_args` refuses first.
All output is byte-deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys

from . import constructions as cons
from . import jsonio
from .cakecheck import grid_max, instance_2n2_nn, instance_nn_2n2, nu_D
from .dinterval import coverable, rainbow_matching
from .hilbert import hilbert_basis, CapExceeded
from .hypergraph import balanced_certificate, nu, nu_star
from .rational import format_rational, parse_rational
from .topology import INFINITE, eta, hall_check, psi
from .search import bm_search_exhaustive, bm_search_sampled
from .verify import CHECKS, run_all


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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload, passed = _dispatch(args)
        text = jsonio.dumps(payload)
        sys.stdout.write(text)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


class _Parser(argparse.ArgumentParser):
    """Reads a flag only when spelled in full, and only once.  Subparsers
    share the class but call only `parse_known_args`; the root's `parse_args`
    checks all of argv, where each --token before a bare -- names a flag:
    every flag is a long store option, and argparse refuses values like --x."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        names = [a.split("=")[0] for a in itertools.takewhile("--".__ne__, args)
                 if a.startswith("--")]
        for name in names:
            if names.count(name) > 1:
                self.error(f"argument {name}: given more than once")
        return super().parse_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The `balmat` parser.  Each action has a parser of its own that holds
    exactly the flags the action reads, so any other flag, or an abbreviated
    one, is a usage error (exit 2), and every JSON document argument is
    decoded while the arguments are parsed, so a bad document is one too."""
    hypergraph = _document(jsonio.hypergraph_from_json)
    parser = _Parser(
        prog="balmat",
        description="Exact invariants of fractionally balanced partite "
                    "hypergraphs: matchings, connectivity, and the "
                    "verification suite.")
    parser.add_argument("--out", help="also write the JSON result here")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("nu", "maximum matching size of a hypergraph"),
                       ("nustar", "fractional matching number"),
                       ("balance", "find a balanced weighting, if any")):
        sub.add_parser(name, help=text).add_argument("hypergraph", type=hypergraph)

    p = sub.add_parser("eta", help="homological connectivity of a complex")
    p.add_argument("complex", type=_document(jsonio.complex_from_json))
    p.add_argument("--cap", type=_integer, default=6)

    p = sub.add_parser("psi", help="deletion/explosion game value of a graph")
    p.add_argument("graph", type=_document(jsonio.graph_from_json))

    p = sub.add_parser("hall-check", help="topological Hall condition, d = 3")
    p.add_argument("hypergraph", type=hypergraph)
    p.add_argument("--deficiency", type=_integer, default=0)

    # every parameter of a family is required but conj_nn's --variant
    types = {"n": _integer, "k": _integer, "r": _rational, "q": _integer, "variant": _integer}
    p = sub.add_parser("construct", help="emit a named construction")
    actions = p.add_subparsers(dest="name", required=True)
    for name, (_, flags) in CONSTRUCTIONS.items():
        p = actions.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", type=types[flag],
                           **({"default": 1} if flag == "variant" else {"required": True}))

    p = sub.add_parser("hilbert", help="generators of the balanced cone")
    p.add_argument("--sides", type=_sides, required=True, help="e.g. 2,2")
    p.add_argument("--cap", type=_integer, required=True)

    p = sub.add_parser("dinterval", help="d-interval covers and matchings")
    actions = p.add_subparsers(dest="action", required=True)
    cover, rainbow = actions.add_parser("cover"), actions.add_parser("rainbow")
    for p in (cover, rainbow):
        p.add_argument("families", type=_document(jsonio.families_from_json))
    cover.add_argument("--budgets", type=_sides, required=True, help="e.g. 1,1")
    rainbow.add_argument("--target", type=_integer, required=True, help="matching size")

    p = sub.add_parser("cake", help="cake-division counterexample checks")
    actions = p.add_subparsers(dest="action", required=True)
    check, search = actions.add_parser("check"), actions.add_parser("search")
    for p in (check, search):
        p.add_argument("--instance", choices=["2n2nn", "nn2n2"], required=True)
        p.add_argument("--n", type=_integer, required=True)
    check.add_argument("--partition", type=_document(jsonio.partition_from_json),
                       required=True, help="partition JSON path")
    search.add_argument("--q", type=_integer, default=6, help="grid resolution")

    p = sub.add_parser("bm-search", help="minimum nu over balanced hypergraphs")
    modes = p.add_subparsers(dest="mode", required=True)
    exhaustive, sampled = modes.add_parser("exhaustive"), modes.add_parser("sampled")
    for p in (exhaustive, sampled):
        p.add_argument("--sides", type=_sides, required=True)
    sampled.add_argument("--trials", type=_integer, default=1000)
    sampled.add_argument("--edge-cap", type=_integer)
    sampled.add_argument("--seed", default="0")

    p = sub.add_parser("verify-all", help="run the verification suite")
    p.add_argument("--only", nargs="+", choices=list(CHECKS), help="subset of check names")
    return parser


def _document(decode):
    """An argparse type: the JSON document at a path, decoded by `decode`."""
    def load(path):
        try:
            with open(path) as fh:
                return decode(json.load(fh))
        except (ValueError, KeyError, OSError) as exc:
            raise argparse.ArgumentTypeError(f"{path}: {exc}") from None
    return load


def _rational(text):
    """An argparse type: a bad rational is a usage error (exit 2)."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer(text):
    """An argparse type: an int spelled as an optional minus and digits, with
    nothing around them; any other spelling is a usage error (exit 2)."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _sides(text):
    return tuple(_integer(x) for x in text.split(","))


def _dispatch(args):
    """The JSON payload of one subcommand and whether its check passed."""
    cmd = args.command
    if cmd == "nu":
        return {"nu": nu(args.hypergraph)}, True
    if cmd == "nustar":
        return {"nustar": format_rational(nu_star(args.hypergraph))}, True
    if cmd == "balance":
        f = balanced_certificate(args.hypergraph)
        if f is None:
            return {"balanced": False}, False
        return {"balanced": True, **jsonio.weights_to_json(f)}, True
    if cmd == "eta":
        res = eta(args.complex, cap=args.cap)
        return {"eta": res.value, "exact": res.exact}, True
    if cmd == "psi":
        val = psi(args.graph)
        return {"psi": "infinite" if val is INFINITE else val}, True
    if cmd == "hall-check":
        report = hall_check(args.hypergraph, args.deficiency)
        if report.all_K_pass:
            return {"pass": True, "matching": [list(e) for e in report.matching]}, True
        return {"pass": False, "failing_K": list(report.failing_K)}, False
    if cmd == "construct":
        builder, flags = CONSTRUCTIONS[args.name]
        built = builder(*(getattr(args, flag) for flag in flags))
        h, f = built if isinstance(built, tuple) else (built, None)
        weights = {} if f is None else jsonio.weights_to_json(f)
        return {**jsonio.hypergraph_to_json(h), **weights}, True
    if cmd == "hilbert":
        try:
            basis = hilbert_basis(args.sides, args.cap)
        except CapExceeded as exc:
            return {"cap_exceeded": True, "detail": str(exc)}, False
        return {"generators": [jsonio.weights_to_json(g) for g in basis]}, True
    if cmd == "dinterval":
        fams = args.families
        if args.action == "cover":
            if len(args.budgets) != fams.d:
                raise ValueError(f"cover requires {fams.d} budgets, one per component")
            cover = coverable([iv for fam in fams.families for iv in fam], args.budgets)
            if cover is None:
                return {"coverable": False}, False
            return {"coverable": True,
                    "points": [[format_rational(x) for x in line] for line in cover]}, True
        found = rainbow_matching(fams, args.target)
        if found is None:
            return {"matching": None}, False
        return {"matching": [{"family": i, **jsonio.dinterval_to_json(iv)}
                             for i, iv in found]}, True
    if cmd == "cake":
        inst = (instance_2n2_nn if args.instance == "2n2nn" else instance_nn_2n2)(args.n)
        if args.action == "check":
            return {"nu_D": nu_D(inst, args.partition)}, True
        best, arg = grid_max(inst, args.q)
        return {"q": args.q, "max_nu_D": best,
                "argmax": jsonio.partition_to_json(arg)}, best < args.n
    if cmd == "bm-search":
        report = (bm_search_exhaustive(args.sides) if args.mode == "exhaustive" else
                  bm_search_sampled(args.sides, args.seed, args.trials, args.edge_cap))
        payload = {"sides": list(report.side_sizes), "min_nu": report.min_nu,
                   "exhaustive": report.exhaustive, "examined": report.examined,
                   "balanced": report.balanced_count}
        if report.witness is not None:
            payload["witness"] = jsonio.hypergraph_to_json(report.witness)
        return payload, True
    results = run_all(args.only)  # verify-all
    passed = all(r.passed for r in results)
    return {"checks": [r.to_json() for r in results], "pass": passed}, passed

