import argparse
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import balmat
from balmat import jsonio
from balmat.cakecheck import Partition
from balmat.cli import CONSTRUCTIONS, build_parser, main
from balmat.dinterval import DInterval, DIntervalFamilies
from balmat.hypergraph import PartiteHypergraph, WeightFunction
from balmat.topology import Graph, SimplicialComplex

PASCH = {"sides": [2, 2, 2],
         "edges": [[1, 1, 1], [1, 2, 2], [2, 1, 2], [2, 2, 1]]}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def leaves(parser, words=()):
    """{words: parser} for every leaf parser under `parser`, keyed by the
    subcommand words that reach it, like ("construct", "pasch")."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {words: parser}
    return {leaf: p for name, child in subs[0].choices.items()
            for leaf, p in leaves(child, (*words, name)).items()}


def flags(parser, required=False):
    """The option strings of a leaf parser but -h, or only its required ones."""
    return {a.option_strings[-1] for a in parser._actions
            if a.option_strings and a.dest != "help" and (a.required or not required)}


# --- JSON codecs: a document a command reads decodes, one it writes encodes --


def test_hypergraph_roundtrip():
    h = PartiteHypergraph((2, 3), [(1, 2), (2, 3)])
    assert jsonio.hypergraph_from_json(jsonio.hypergraph_to_json(h)) == h


def test_weights_roundtrip():
    f = WeightFunction({(1, 1): Fraction(1, 3), (2, 2): 2})
    assert jsonio.weights_to_json(f) == {"weights": [{"edge": [1, 1], "w": "1/3"},
                                                     {"edge": [2, 2], "w": "2"}]}


def test_complex_and_graph_roundtrip():
    c = jsonio.complex_from_json({"vertices": 3, "facets": [[1, 2], [3]]})
    expected = SimplicialComplex(3, [{1, 2}, {3}])
    assert (c.vertex_count, c.facets) == (expected.vertex_count, expected.facets)
    g = jsonio.graph_from_json({"vertices": 3, "edges": [[1, 2]]})
    assert g == Graph(3, [(1, 2)])


def test_families_roundtrip():
    fams = jsonio.families_from_json(
        {"d": 2, "families": [[{"parts": [["1/4", "1/2"], ["0", "1/8"]]}]]})
    parts = [(Fraction(1, 4), Fraction(1, 2)), (Fraction(0), Fraction(1, 8))]
    assert fams == DIntervalFamilies(2, [[DInterval(parts)]])


def test_partition_roundtrip():
    p = Partition([[Fraction(1, 2), Fraction(1, 2)], [1, 0]])
    assert jsonio.partition_from_json(jsonio.partition_to_json(p)) == p


# --- subcommands ------------------------------------------------------------


def test_nu_nustar_balance(tmp_path, capsys):
    path = write(tmp_path, "h.json", PASCH)
    code, out = run(capsys, "nu", path)
    assert code == 0 and json.loads(out) == {"nu": 1}
    code, out = run(capsys, "nustar", path)
    assert code == 0 and json.loads(out) == {"nustar": "2"}
    code, out = run(capsys, "balance", path)
    assert code == 0 and json.loads(out)["balanced"] is True


def test_balance_failure_exit_code(tmp_path, capsys):
    unbal = {"sides": [2, 2], "edges": [[1, 1]]}
    code, out = run(capsys, "balance", write(tmp_path, "u.json", unbal))
    assert code == 1 and json.loads(out) == {"balanced": False}


def test_eta_and_psi(tmp_path, capsys):
    cpath = write(tmp_path, "c.json",
                  {"vertices": 3, "facets": [[1, 2], [2, 3], [1, 3]]})
    code, out = run(capsys, "eta", cpath)
    assert code == 0 and json.loads(out) == {"eta": 2, "exact": True}
    gpath = write(tmp_path, "g.json",
                  {"vertices": 4, "edges": [[1, 2], [3, 4]]})
    code, out = run(capsys, "psi", gpath)
    assert code == 0 and json.loads(out) == {"psi": 2}
    gpath2 = write(tmp_path, "g2.json", {"vertices": 2, "edges": []})
    code, out = run(capsys, "psi", gpath2)
    assert json.loads(out) == {"psi": "infinite"}


def test_hall_check_command(tmp_path, capsys):
    path = write(tmp_path, "h.json", PASCH)
    code, out = run(capsys, "hall-check", path, "--deficiency", "1")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run(capsys, "hall-check", path, "--deficiency", "0")
    assert code == 1 and json.loads(out)["failing_K"] == [1, 2]


def test_construct_and_pipe(tmp_path, capsys):
    code, out = run(capsys, "construct", "nnn_tight", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["sides"] == [3, 3, 3]
    path = write(tmp_path, "t.json", data)
    code, out = run(capsys, "nu", path)
    assert json.loads(out) == {"nu": 2}


def test_construct_requires_params(capsys):
    code, _ = run(capsys, "construct", "drisko")
    assert code == 2


def test_hilbert_command(capsys):
    code, out = run(capsys, "hilbert", "--sides", "2,2", "--cap", "4")
    assert code == 0 and len(json.loads(out)["generators"]) == 2
    # cap 2 finds the generators in its top half; caps 0 and 5 find none
    for sides, cap in (("2,2", "2"), ("2,2", "0"), ("2,3", "5")):
        code, out = run(capsys, "hilbert", "--sides", sides, "--cap", cap)
        assert code == 1 and json.loads(out)["cap_exceeded"] is True


def test_dinterval_commands(tmp_path, capsys):
    fams = {"d": 2, "families": [
        [{"parts": [["0", "1/2"], ["0", "1/2"]]}],
        [{"parts": [["1/2", "1"], ["1/2", "1"]]}]]}
    path = write(tmp_path, "f.json", fams)
    code, out = run(capsys, "dinterval", "cover", path, "--budgets", "1,1")
    assert code == 0 and json.loads(out)["coverable"] is True
    code, out = run(capsys, "dinterval", "rainbow", path, "--target", "2")
    assert code == 0 and len(json.loads(out)["matching"]) == 2
    code, out = run(capsys, "dinterval", "rainbow", path, "--target", "3")
    assert code == 1
    # a budget is an upper bound: (0,1)x(0,1) has one candidate point per line
    whole = write(tmp_path, "w.json", {"d": 2, "families": [[{"parts": [["0", "1"], ["0", "1"]]}]]})
    for budgets in ("1,1", "2,2"):
        code, out = run(capsys, "dinterval", "cover", whole, "--budgets", budgets)
        assert (code, json.loads(out)) == (0, {"coverable": True,
                                              "points": [["1/2"], ["1/2"]]}), budgets


def test_cake_commands(tmp_path, capsys):
    ppath = write(tmp_path, "p.json", [["1/2", "1/2"], ["1/2", "1/2"]])
    code, out = run(capsys, "cake", "check", "--instance", "2n2nn", "--n", "2",
                    "--partition", ppath)
    assert code == 0 and json.loads(out) == {"nu_D": 1}
    code, out = run(capsys, "cake", "search", "--instance", "nn2n2", "--n", "2",
                    "--q", "3")
    assert code == 0  # max < n corroborates the counterexample at this grid
    assert json.loads(out)["max_nu_D"] <= 1


def test_bm_search_command_deterministic(capsys):
    argv = ["bm-search", "sampled", "--sides", "2,2,2", "--trials", "50", "--seed", "9"]
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 0
    assert json.loads(first[1])["examined"] == 50
    code, out = run(capsys, "bm-search", "exhaustive", "--sides", "2,2,2")
    assert code == 0 and json.loads(out)["min_nu"] == 1


def test_verify_all_subset(tmp_path, capsys):
    report = str(tmp_path / "report.json")
    code, out = run(capsys, "--out", report, "verify-all", "--only", "pasch")
    assert code == 0
    saved = json.loads(open(report).read())
    assert saved == json.loads(out)
    assert saved["pass"] is True


def test_python_dash_m_runs_the_cli(capsys):
    """`python -m balmat` is the command line: same exit code, same stdout."""
    code, out = run(capsys, "verify-all", "--only", "gordan")
    src = str(Path(balmat.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "balmat", "verify-all", "--only", "gordan"],
                          env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE,
                          text=True, timeout=120)
    assert code == 0
    assert (proc.returncode, proc.stdout) == (code, out)


def test_verify_all_only_takes_check_names(capsys):
    """--only takes one or more distinct names of checks, and nothing else."""
    for names in ([], ["bogus"], ["pasch", "Pasch"], ["pasch", "pasch"]):
        assert run(capsys, "verify-all", "--only", *names) == (2, ""), names
    code, out = run(capsys, "verify-all", "--only", "pasch", "gordan")
    assert code == 0 and [c["name"] for c in json.loads(out)["checks"]] == ["pasch", "gordan"]


def test_repeated_flags_exit_2(tmp_path, capsys, monkeypatch):
    """A flag given twice is a usage error on every parser, not a silent
    replacement of its first value, even when both values agree."""
    c = write(tmp_path, "c.json", {"vertices": 2, "facets": [[1], [2]]})
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for argv in (["verify-all", "--only", "pasch", "--only", "zeta"],
                 ["eta", c, "--cap", "3", "--cap", "4"],
                 ["eta", c, "--cap=6", "--cap=6"],
                 ["--out", a, "--out", b, "verify-all", "--only", "pasch"],
                 ["bm-search", "sampled", "--sides=2,2", "--seed=1", "--seed=1"],
                 ["construct", "conj_nn", "--n=3", "--variant=2", "--variant=2"],
                 ["eta", c, "--cap=3", "--cap", "4"],
                 ["eta", c, "--cap", "3", "--cap=4"],
                 ["bm-search", "sampled", "--sides", "2,2", "--edge-cap", "3", "--edge-cap=3"],
                 ["--out=" + a, "--out", b, "verify-all", "--only", "pasch"]):
        assert run(capsys, *argv) == (2, ""), argv
    assert not (tmp_path / "a.json").exists() and not (tmp_path / "b.json").exists()
    code, out = run(capsys, "eta", c, "--cap", "3")
    assert code == 0 and json.loads(out)["eta"] >= 0
    # the check runs in the parser itself, not only through main
    with pytest.raises(SystemExit) as exc, redirect_stderr(StringIO()):
        build_parser().parse_args(["eta", c, "--cap=3", "--cap", "3"])
    assert exc.value.code == 2
    # after a bare --, a token that starts with -- is a value, not a flag
    (tmp_path / "--cap").write_text(json.dumps({"vertices": 2, "facets": [[1], [2]]}))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "eta", "--cap", "3", "--", "--cap") == (code, out)


def test_help_exits_0(capsys):
    """--help prints usage and exits 0, on the root parser and on an action's;
    given twice, it is a repeated flag like any other."""
    for argv in (["--help"], ["nu", "--help"], ["bm-search", "sampled", "--help"]):
        code, out = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: balmat"), argv
    assert run(capsys, "nu", "--help", "--help") == (2, "")


def test_abbreviated_flags_exit_2(tmp_path, capsys):
    """A flag is read only when spelled out in full, on every parser."""
    for argv in (["bm-search", "sampled", "--sides", "2,2", "--t", "3", "--see", "4"],
                 ["bm-search", "sampled", "--sid=2,2"],
                 ["verify-all", "--o", "pasch"],
                 ["--ou", str(tmp_path / "out.json"), "verify-all", "--only", "pasch"],
                 ["construct", "conj_nn", "--n=3", "--var=2"],
                 ["cake", "search", "--inst=2n2nn", "--n=2"]):
        assert run(capsys, *argv) == (2, ""), argv
    assert not (tmp_path / "out.json").exists()
    code, out = run(capsys, "bm-search", "sampled", "--sides", "2,2", "--trials", "3",
                    "--seed", "4")
    assert code == 0 and json.loads(out)["examined"] == 3


def test_malformed_hypergraph_exits_2(tmp_path, capsys):
    bad = [{"sides": [2, 2], "edges": edges}
           for edges in ([[1.7, 1], [2, 2]], [[True, 1], [2, 2]], 5, [5])]
    bad += [[[1, 1]], {"sides": [2.0, 2], "edges": [[1, 1]]}]
    for data in bad:
        code, out = run(capsys, "nu", write(tmp_path, "h.json", data))
        assert code == 2 and out == ""


def test_malformed_inputs_exit_2(tmp_path, capsys):
    graphs = [{"vertices": 3, "edges": [[1.5, 2]]}, {"vertices": 3.0, "edges": [[1, 2]]},
              {"vertices": 3, "edges": [[True, 2]]}, {"vertices": 3, "edges": 5}, [[1, 2]],
              {"vertices": -2, "edges": []}]
    cases = [(["psi", "{}"], g) for g in graphs]
    cases += [(["eta", "{}"], {"vertices": 3, "facets": [[1, 2.5]]}),
              (["eta", "{}"], {"vertices": 3, "facets": [1, 2]}),
              (["eta", "{}"], {"vertices": -1, "facets": []})]
    cases += [(["dinterval", "cover", "{}", "--budgets", "1"],
               {"d": 1, "families": [[{"parts": [[lo, "1/2"]]}]]}) for lo in (0, 0.0, None)]
    # a rational is "p/q" or "p" and nothing else, though Fraction() reads each of these
    cases += [(["dinterval", "cover", "{}", "--budgets", "1"],
               {"d": 1, "families": [[{"parts": [["0", hi]]}]]})
              for hi in ("0.5", "1e0", "1_0/20", " 3/4 ", "+1")]
    cases += [(["cake", "check", "--instance", "2n2nn", "--n", "2", "--partition", "{}"], p)
              for p in ([[0.5, 0.5], [0.5, 0.5]], [["1/2", "1/2"], ["1/0", "1"]],
                        [["1"], ["1/2", "1/2"]], [["1/2", "1/2"], ["1/3", "1/3", "1/3"]],
                        [["1/2", "1/2"]], [["0.5", "1/2"], ["1", "0"]])]
    for argv, data in cases:
        path = write(tmp_path, "in.json", data)
        code, out = run(capsys, *[path if a == "{}" else a for a in argv])
        assert (code, out) == (2, ""), (argv, data)


@pytest.mark.parametrize("argv, data, message", [
    (["nu", "{}"], {"edges": []}, "hypergraph: missing key 'sides'"),
    (["psi", "{}"], {"vertices": 2}, "graph: missing key 'edges'"),
    (["eta", "{}"], {"facets": [[1]]}, "complex: missing key 'vertices'"),
    (["dinterval", "cover", "{}", "--budgets", "1"], {"d": 1, "families": [[{"part": []}]]},
     "d-interval: missing key 'parts'"),
    (["dinterval", "rainbow", "{}", "--target", "1"], {"families": []},
     "d-interval families: missing key 'd'"),
], ids=["hypergraph", "graph", "complex", "d-interval", "families"])
def test_missing_key_names_document_and_key(tmp_path, capsys, argv, data, message):
    """A document without a key it needs exits 2 with an error that names
    the document kind and the key, not a bare KeyError text."""
    path = write(tmp_path, "in.json", data)
    code = main([path if a == "{}" else a for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err


def test_usage_errors(tmp_path, capsys):
    assert main(["nu", str(tmp_path / "missing.json")]) == 2
    assert main(["bogus-command"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["nu", str(bad)]) == 2
    for r in ("1/0", "abc"):
        assert main(["construct", "main_negative", "--n", "3", "--r", r, "--k", "1"]) == 2
    # --r 2 builds (n, r, k) = (5, 2, 9); no other spelling of 2 is a rational
    for r in ("2.0", "2e0", " 2", "+2", "2/1 "):
        assert main(["construct", "main_negative", "--n", "5", "--r", r, "--k", "9"]) == 2, r
    # an int flag, and each part of --sides and --budgets, is spelled -?[0-9]+
    assert main(["construct", "drisko", "--n", "+3"]) == 2
    assert main(["hilbert", "--sides", " 2,+2", "--cap", "1_0"]) == 2
    c = write(tmp_path, "c.json", {"vertices": 2, "facets": [[1], [2]]})
    h = write(tmp_path, "h3.json", {"sides": [2, 2, 2], "edges": [[1, 1, 1], [2, 2, 2]]})
    f = write(tmp_path, "f1.json", {"d": 1, "families": [[{"parts": [["0", "1"]]}]]})
    for flag, argv in [("--n", ["construct", "drisko"]), ("--k", ["construct", "mlessn2", "--n=4"]),
                       ("--q", ["construct", "truncated_projective"]),
                       ("--variant", ["construct", "conj_nn", "--n=4"]),
                       ("--cap", ["eta", c]), ("--cap", ["hilbert", "--sides=2,2"]),
                       ("--deficiency", ["hall-check", h]),
                       ("--target", ["dinterval", "rainbow", f]),
                       ("--budgets", ["dinterval", "cover", f]),
                       ("--n", ["cake", "search", "--instance=2n2nn", "--q=2"]),
                       ("--q", ["cake", "search", "--instance=2n2nn", "--n=2"]),
                       ("--trials", ["bm-search", "sampled", "--sides=2,2"]),
                       ("--edge-cap", ["bm-search", "sampled", "--sides=2,2", "--trials=2"]),
                       ("--sides", ["bm-search", "exhaustive"])]:
        assert main([*argv, f"{flag}=3"]) != 2, (flag, argv)
        for bad in ("+3", " 3", "3 ", "1_0", "3.0", "\u0663"):
            assert main([*argv, f"{flag}={bad}"]) == 2, (flag, argv, bad)
    for argv in (["mlessn2", "--k", "1", "--n", "1"], ["mlessn2", "--k", "1", "--n", "0"],
                 ["main_negative", "--n", "0", "--r", "1", "--k", "0"]):
        assert main(["construct", *argv]) == 2
    # negative or zero counts are usage errors, not empty results
    families = write(tmp_path, "fams.json", {"d": 1, "families": [[{"parts": [["0", "1"]]}]]})
    for argv in (["bm-search", "sampled", "--sides", "2,2", "--trials", "-3"],
                 ["bm-search", "exhaustive", "--sides", "0"],
                 ["bm-search", "exhaustive", "--sides", "2,0"],
                 ["bm-search", "sampled", "--sides", "0,2"],
                 ["dinterval", "rainbow", families, "--target", "-1"],
                 ["hilbert", "--sides", "2,2", "--cap", "-1"],
                 ["hall-check", write(tmp_path, "h.json", {"sides": [2, 2, 2],
                                                         "edges": [[1, 1, 1], [2, 2, 2]]}),
                  "--deficiency", "-1"]):
        assert main(argv) == 2, argv
    # one side-size rule for every command that takes sides
    for sides in ("--sides=2,-2", "--sides=0,2"):
        capsys.readouterr()
        assert main(["hilbert", sides, "--cap", "4"]) == 2, sides
        assert "side sizes must be naturals >= 1" in capsys.readouterr().err
    # one budget per component, none negative, also for an empty family
    empty = write(tmp_path, "empty.json", {"d": 2, "families": []})
    for budgets in ("--budgets=1,1,1", "--budgets=-1,1", "--budgets=1"):
        assert main(["dinterval", "cover", empty, budgets]) == 2, budgets
    for cap in ("0", "1"):
        assert main(["hilbert", "--sides", "2,2", "--cap", cap]) == 1


def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys):
    """Each action parses exactly the flags it reads, so the 46 (command,
    flag) pairs that once parsed and were then ignored are usage errors."""
    h = write(tmp_path, "h.json", PASCH)
    c = write(tmp_path, "c.json", {"vertices": 2, "facets": [[1], [2]]})
    g = write(tmp_path, "g.json", {"vertices": 2, "edges": [[1, 2]]})
    fams = write(tmp_path, "f.json", {"d": 1, "families": [[{"parts": [["0", "1"]]}]]})
    part = write(tmp_path, "p.json", [["1/2", "1/2"], ["1/2", "1/2"]])
    cover = ["dinterval", "cover", fams, "--budgets=1"]
    rainbow = ["dinterval", "rainbow", fams, "--target=1"]
    check = ["cake", "check", "--instance=2n2nn", "--n=2", f"--partition={part}"]
    search = ["cake", "search", "--instance=2n2nn", "--n=2", "--q=2"]
    exhaustive = ["bm-search", "exhaustive", "--sides=2,2"]
    commands = [["nu", h], ["nustar", h], ["balance", h], ["eta", c], ["psi", g],
                ["hall-check", h], ["construct", "pasch"], ["hilbert", "--sides=2,2", "--cap=4"],
                cover, search, ["verify-all", "--only", "pasch"]]
    cases = [(argv, ["--seed=1", *argv]) for argv in commands]
    cases += [(argv, [*argv, flag]) for argv, flag in [
        (exhaustive, "--seed=1"), (exhaustive, "--trials=5"), (exhaustive, "--edge-cap=4"),
        (cover, "--target=1"), (rainbow, "--budgets=1"),
        (check, "--q=2"), (search, f"--partition={part}")]]
    construct = {"pasch": [], "nnn_tight": ["--n=3"], "drisko": ["--n=3"],
                 "mlessn": ["--k=4", "--n=5"], "mlessn2": ["--k=3", "--n=4"],
                 "main_negative": ["--n=5", "--r=2", "--k=9"],
                 "truncated_projective": ["--q=3"], "conj_nn": ["--n=3"]}
    cases += [(["construct", name, *argv], ["construct", name, *argv, f"--{flag}=1"])
              for name, argv in construct.items()
              for flag in ("n", "k", "r", "q", "variant") if flag not in CONSTRUCTIONS[name][1]]
    cases += [(exhaustive, ["bm-search", "--mode=sampled", "--sides=2,2"]),
              (exhaustive, ["bm-search", "sampled", "--sides=2,2", "--mode=sampled"])]
    assert len(cases) == 46 + 2
    for argv, faulty in cases:
        assert run(capsys, *argv)[0] in (0, 1), argv
        assert run(capsys, *faulty) == (2, ""), faulty


def test_input_checks_exit_2(tmp_path, capsys):
    """Input checks behind the parser, reached through the CLI: exit 2 with
    the check's own message on stderr and nothing on stdout."""
    cases = [
        (["psi", "{}"], {"vertices": 2, "edges": [[1, 1]]}, "loops are not allowed"),
        (["psi", "{}"], {"vertices": 3, "edges": [[1, 5]]}, "edge (1, 5) out of range"),
        (["hall-check", "{}"], {"sides": [2, 2], "edges": [[1, 1]]}, "d = 3 only"),
        (["hall-check", "{}"], {"sides": [13, 1, 1], "edges": []}, "side 1 too large"),
        (["dinterval", "rainbow", "{}", "--target=1"],
         {"d": 2, "families": [[{"parts": [["0", "1"]]}]]}, "the same d"),
        (["dinterval", "rainbow", "{}", "--target=2"],
         {"d": 0, "families": [[{"parts": []}], [{"parts": []}]]}, "d >= 1 parts"),
        (["dinterval", "cover", "{}", "--budgets=1"], {"d": -1, "families": []},
         "d must be >= 1, got -1"),
        (["cake", "search", "--instance=2n2nn", "--n=1"], None, "n >= 2"),
        (["cake", "search", "--instance=2n2nn", "--n=2", "--q=0"], None,
         "resolution must be >= 1"),
        (["construct", "nnn_tight", "--n=0"], None, "n must be >= 1"),
        (["construct", "drisko", "--n=1"], None, "n must be >= 2"),
        (["hilbert", "--sides=3,5", "--cap=4"], None, "cone too large"),
        (["bm-search", "sampled", "--sides=3,3", "--trials=2", "--edge-cap=2"], None,
         "edge cap must be >= the largest side 3, got 2"),
        (["bm-search", "sampled", "--sides=3,3", "--trials=0", "--edge-cap=-5"], None,
         "edge cap must be >= the largest side 3, got -5")]
    path = write(tmp_path, "in.json", None)
    for argv, data, message in cases:
        write(tmp_path, "in.json", data)
        code = main([path if a == "{}" else a for a in argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert message in captured.err, (argv, captured.err)


# --- fuzzing ----------------------------------------------------------------
# Each case is a well-formed command with in-range values and exactly the
# flags its action reads, used as it is or with one fault: a document node
# replaced by a value of the wrong type, shape or range, or removed; one
# argument value replaced by one that is not a count or is below the range
# (for verify-all: no name after --only, or a name that is no check); one
# more flag that only a sibling action reads; a long flag cut to a proper
# prefix; or a flag given a second time.  Sizes stay small (at most 6
# vertices, 4 edges, facets or d-intervals, --cap <= 8, --q <= 3,
# --trials <= 5, and verify-all runs only the checks in FAST_CHECKS), so one
# run takes well under a second.

LEAVES = leaves(build_parser())
# the flags read by the other actions of the same command, but not by this one
SIBLING_FLAGS = {leaf: sorted(set().union(*(flags(p) for other, p in LEAVES.items()
                                             if other[:-1] == leaf[:-1]))
                              - flags(parser))
                 for leaf, parser in LEAVES.items()}
COUNTS = st.integers(-3, 8)
MISSING = object()
FAULTS = st.one_of(COUNTS, st.sampled_from([None, True, 1.5, "1/0", "x", [], {}, MISSING]))
BAD_ARGS = st.sampled_from(["x", "1.5", "1/0", "", "2,", "0", "-1", "-3"])
BAD_NAMES = st.lists(st.sampled_from(["", "x", "Pasch", "ind_psi", "all"]), max_size=1)
FAST_CHECKS = ["pasch", "matching-bound", "nnn", "gordan"]  # each runs in under 0.1 s
GRID = ["0", "1/4", "1/3", "1/2", "2/3", "1"]


def leaf_of(argv):
    """The words of the leaf parser that `argv` reaches."""
    return next(w for w in LEAVES if tuple(argv[:len(w)]) == w)


def given_flags(argv):
    return {a.split("=")[0] for a in argv if a.startswith("--")}


def _paths(node, path=()):
    yield path
    if isinstance(node, (list, dict)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, (*path, key))


@st.composite
def with_fault(draw, cases):
    """A case of `cases` as it is, or with one fault in its document or argv,
    and whether that fault must be a usage error."""
    argv, data = draw(cases)
    leaf = leaf_of(argv)
    if not flags(LEAVES[leaf], required=True) <= given_flags(argv) <= flags(LEAVES[leaf]):
        raise AssertionError(f"{argv} does not give exactly flags that {leaf} reads")
    where = draw(st.sampled_from(["nowhere", "document", "argument", "sibling", "prefix",
                                  "repeat"]))
    if where == "document" and data is not None:
        path, fault = draw(st.sampled_from(list(_paths(data)))), draw(FAULTS)
        if not path:
            data = None if fault is MISSING else fault
        else:
            parent = data = json.loads(json.dumps(data))
            for key in path[:-1]:
                parent = parent[key]
            if fault is MISSING:
                del parent[path[-1]]
            else:
                parent[path[-1]] = fault
    flag_args = [i for i, a in enumerate(argv) if a.startswith("--") and "=" in a]
    names = leaf == ("verify-all",) and where == "argument"
    if names:  # the names after --only
        argv = [*argv[:2], *draw(BAD_NAMES)]
    elif where == "argument" and flag_args:
        i = draw(st.sampled_from(flag_args))
        argv = [*argv[:i], argv[i].split("=")[0] + "=" + draw(BAD_ARGS), *argv[i + 1:]]
    sibling = where == "sibling" and bool(SIBLING_FLAGS[leaf])
    if sibling:  # 1 parses as a count, a rational, side sizes or a path
        argv = [*argv, draw(st.sampled_from(SIBLING_FLAGS[leaf])) + "=1"]
    long_flags = [i for i, a in enumerate(argv) if a.startswith("--") and len(a.split("=")[0]) > 3]
    prefix = where == "prefix" and bool(long_flags)
    if prefix:  # "--" and at least one letter, but not the whole name
        i = draw(st.sampled_from(long_flags))
        flag, eq, value = argv[i].partition("=")
        argv = [*argv[:i], flag[:draw(st.integers(3, len(flag) - 1))] + eq + value,
                *argv[i + 1:]]
    given = [i for i, a in enumerate(argv) if a.startswith("--")]
    repeat = where == "repeat" and bool(given)
    if repeat:  # one flag and its value once more, at the end
        i = draw(st.sampled_from(given))
        argv = [*argv, *argv[i:i + (1 if "=" in argv[i] else 2)]]
    return argv, data, names or sibling or prefix or repeat


def csv(values, size):
    return st.lists(values, min_size=size, max_size=size).map(lambda xs: ",".join(map(str, xs)))


def rows(entries, lo, hi, max_rows=4):
    return st.lists(st.lists(entries, min_size=lo, max_size=hi), max_size=max_rows)


def hypergraph(d):
    sides = st.lists(st.integers(1, 3), min_size=d, max_size=d)
    return sides.flatmap(lambda a: st.fixed_dictionaries({"sides": st.just(a), "edges": st.lists(
        st.tuples(*(st.integers(1, n) for n in a)).map(list), max_size=4)}))


def simplices(key, lo, hi):
    return st.integers(0, 6).flatmap(lambda n: st.fixed_dictionaries(
        {"vertices": st.just(n), key: rows(st.integers(1, max(n, 1)), lo, hi)}))


def families(d):
    interval = st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True).map(
        lambda ends: sorted(ends, key=Fraction))
    d_interval = st.fixed_dictionaries({"parts": st.lists(interval, min_size=d, max_size=d)})
    return st.fixed_dictionaries({"d": st.just(d), "families": rows(d_interval, 0, 2, 2)})


def split(k):
    """One cake cut into k slices at points of the 1/6 grid, as rational strings."""
    cuts = st.lists(st.integers(0, 6), min_size=k - 1, max_size=k - 1).map(sorted)
    return cuts.map(lambda cs: [str(Fraction(b - a, 6)) for a, b in zip([0, *cs], [*cs, 6])])


def command(words, document=st.none(), optional=(), **values):
    """(argv, document) with a `--flag=value` for each of `values`, those
    named in `optional` present or not; `{}` in argv stands for the
    document's path and `_` in a flag for `-`."""
    flags = st.fixed_dictionaries(
        {k: v for k, v in values.items() if k not in optional},
        optional={k: v for k, v in values.items() if k in optional})
    argv = flags.map(lambda d: words + [f"--{k.replace('_', '-')}={v}"
                                        for k, v in sorted(d.items())])
    return st.tuples(argv, document)


def construct(name):
    values = dict(n=COUNTS, k=COUNTS, q=st.integers(-3, 3), variant=st.integers(1, 4),
                  r=st.sampled_from(GRID + ["3/2", "2", "-1/2"]))
    return command(["construct", name], optional=["variant"],
                   **{flag: values[flag] for flag in CONSTRUCTIONS[name][1]})


def cake(instance, n):
    counts = (n, n) if instance == "2n2nn" else (n, 2 * n - 2)
    return st.one_of(
        command(["cake", "search", "--instance", instance, f"--n={n}"], q=st.integers(1, 3)),
        command(["cake", "check", "--instance", instance, f"--n={n}", "--partition", "{}"],
                st.tuples(*(split(k) for k in counts if 1 <= k <= 6)).map(list)))


DIMENSIONS = st.integers(1, 3)
SIDES = DIMENSIONS.flatmap(lambda d: csv(st.integers(1, 3), d))
CASES = with_fault(st.one_of(
    *(DIMENSIONS.flatmap(lambda d, name=name: command([name, "{}"], hypergraph(d)))
      for name in ("nu", "nustar", "balance")),
    command(["hall-check", "{}"], hypergraph(3), optional=["deficiency"],
            deficiency=st.integers(0, 2)),
    command(["eta", "{}"], simplices("facets", 1, 3), optional=["cap"], cap=st.integers(0, 8)),
    command(["psi", "{}"], simplices("edges", 2, 2)),
    *(construct(name) for name in CONSTRUCTIONS),
    command(["hilbert"], sides=SIDES, cap=st.integers(0, 8)),
    DIMENSIONS.flatmap(lambda d: command(["dinterval", "cover", "{}"], families(d),
                                         budgets=csv(st.integers(0, 2), d))),
    DIMENSIONS.flatmap(lambda d: command(["dinterval", "rainbow", "{}"], families(d),
                                         target=st.integers(0, 3))),
    st.tuples(st.sampled_from(["2n2nn", "nn2n2"]), st.integers(-3, 3)).flatmap(
        lambda t: cake(*t)),
    command(["bm-search", "exhaustive"], sides=SIDES),
    command(["bm-search", "sampled"], sides=SIDES, trials=st.integers(0, 5),
            edge_cap=st.integers(1, 8), seed=st.integers(0, 9), optional=["edge_cap", "seed"]),
    st.tuples(st.lists(st.sampled_from(FAST_CHECKS), min_size=1, max_size=4, unique=True).map(
        lambda names: ["verify-all", "--only", *names]), st.none()),
))


@settings(max_examples=300, deadline=None)
@given(case=CASES)
@example(case=(["hall-check", "{}", "--deficiency=-1"],
               {"sides": [2, 2, 2], "edges": [[1, 1, 1], [2, 2, 2]]}, False))
@example(case=(["hilbert", "--sides=2,-2", "--cap=4"], None, False))
@example(case=(["hilbert", "--sides=0,2", "--cap=4"], None, False))
@example(case=(["dinterval", "cover", "{}", "--budgets=1,1,1"], {"d": 2, "families": []},
               False))
@example(case=(["dinterval", "cover", "{}", "--budgets=-1,1"], {"d": 2, "families": []},
               False))
@example(case=(["construct", "pasch", "--n=3"], None, True))
@example(case=(["bm-search", "exhaustive", "--sides=2,2", "--trials=-3"], None, True))
@example(case=(["bm-search", "sampled", "--sides=2,2", "--t=3", "--see=4"], None, True))
@example(case=(["verify-all", "--o", "pasch"], None, True))
@example(case=(["verify-all", "--only"], None, True))
def test_cli_fuzz(tmp_path_factory, case):
    """Every subcommand exits 0 or 1 with a JSON result on stdout, or 2 with
    nothing there; an uncaught exception fails.  A flag that only a sibling
    action reads, a long flag cut to a proper prefix, a repeated flag, and
    --only without a check name or with an unknown one always exit 2."""
    argv, data, must_fail = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(data))
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = main([str(path) if a == "{}" else a for a in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
    else:
        json.loads(out.getvalue())
    if must_fail:
        assert code == 2, argv
