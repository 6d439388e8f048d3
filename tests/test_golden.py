"""Golden CLI bytes: each command's exit code and the sha256 of its stdout,
recorded once and compared on every run, so a refactor that changes any
output byte fails here.  Inputs are literal JSON documents written to a
temporary directory; `{}` in an argv stands for that file.

When an output changes on purpose, rerun the command, check the new bytes by
hand, and update its digest together with a note in CHANGES.md.
"""

import hashlib
import json

import pytest

from balmat.cli import build_parser, main
from test_cli import leaves

PASCH = {"sides": [2, 2, 2],
         "edges": [[1, 1, 1], [1, 2, 2], [2, 1, 2], [2, 2, 1]]}
DRISKO_3 = {"sides": [4, 3, 3],
            "edges": [[i, j, j] for i in (1, 2) for j in (1, 2, 3)]
            + [[i, j, j % 3 + 1] for i in (3, 4) for j in (1, 2, 3)]}
PETERSEN = {"vertices": 10,
            "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [1, 6], [2, 7], [3, 8],
                      [4, 9], [5, 10], [6, 8], [8, 10], [10, 7], [7, 9], [9, 6]]}
OCTAHEDRON = {"vertices": 6,
              "facets": [[a, b, c] for a in (1, 2) for b in (3, 4) for c in (5, 6)]}
FAMILIES = {"d": 2, "families": [
    [{"parts": [["0", "1/2"], ["0", "1/2"]]}, {"parts": [["1/4", "3/4"], ["1/3", "1"]]}],
    [{"parts": [["1/2", "1"], ["1/2", "1"]]}, {"parts": [["0", "1/3"], ["2/3", "1"]]}]]}
PARTITION = [["1/3", "2/3"], ["1/2", "1/2"]]

# (id, argv, input document or None): (exit code, sha256 of stdout)
COMMANDS = [
    ("construct-pasch", ["construct", "pasch"], None),
    ("construct-nnn_tight", ["construct", "nnn_tight", "--n", "5"], None),
    ("construct-drisko", ["construct", "drisko", "--n", "3"], None),
    ("construct-mlessn-odd", ["construct", "mlessn", "--k", "4", "--n", "5"], None),
    ("construct-mlessn-even", ["construct", "mlessn", "--k", "5", "--n", "6"], None),
    ("construct-mlessn2-even", ["construct", "mlessn2", "--k", "3", "--n", "4"], None),
    ("construct-mlessn2-odd", ["construct", "mlessn2", "--k", "3", "--n", "5"], None),
    ("construct-main_negative", ["construct", "main_negative", "--n", "5", "--r", "2",
                                 "--k", "9"], None),
    ("construct-truncated_projective", ["construct", "truncated_projective", "--q", "4"],
     None),
    ("construct-conj_nn", ["construct", "conj_nn", "--n", "4", "--variant", "2"], None),
    ("nu-pasch", ["nu", "{}"], PASCH),
    ("nustar-pasch", ["nustar", "{}"], PASCH),
    ("balance-pasch", ["balance", "{}"], PASCH),
    ("nu-drisko3", ["nu", "{}"], DRISKO_3),
    ("nustar-drisko3", ["nustar", "{}"], DRISKO_3),
    ("balance-drisko3", ["balance", "{}"], DRISKO_3),
    ("balance-unbalanced", ["balance", "{}"], {"sides": [2, 2], "edges": [[1, 1]]}),
    ("psi-petersen", ["psi", "{}"], PETERSEN),
    ("eta-octahedron", ["eta", "{}", "--cap", "4"], OCTAHEDRON),
    ("hall-check-pasch", ["hall-check", "{}", "--deficiency", "1"], PASCH),
    ("hall-check-drisko3", ["hall-check", "{}", "--deficiency", "1"], DRISKO_3),
    ("hilbert", ["hilbert", "--sides", "2,2", "--cap", "4"], None),
    ("hilbert-cap-exceeded", ["hilbert", "--sides", "2,2", "--cap", "2"], None),
    ("cake-search-2n2nn", ["cake", "search", "--instance", "2n2nn", "--n", "2", "--q", "4"],
     None),
    ("cake-search-nn2n2", ["cake", "search", "--instance", "nn2n2", "--n", "2", "--q", "4"],
     None),
    ("cake-check", ["cake", "check", "--instance", "2n2nn", "--n", "2", "--partition", "{}"],
     PARTITION),
    ("bm-search-exhaustive", ["bm-search", "exhaustive", "--sides", "2,2,2"], None),
    ("bm-search-sampled", ["bm-search", "sampled", "--sides", "3,3,3", "--trials", "50",
                           "--seed", "1"], None),
    ("dinterval-cover", ["dinterval", "cover", "{}", "--budgets", "1,1"], FAMILIES),
    ("dinterval-rainbow", ["dinterval", "rainbow", "{}", "--target", "2"], FAMILIES),
    ("dinterval-cover-none", ["dinterval", "cover", "{}", "--budgets", "1,0"], FAMILIES),
    ("dinterval-rainbow-none", ["dinterval", "rainbow", "{}", "--target", "3"], FAMILIES),
    ("verify-all", ["verify-all", "--only", "pasch", "zeta"], None),
]

DIGESTS = {
    "construct-pasch": (0, "7775900077381310898998d63808e009955ba35e3009e4c1fe4889a53e8ad098"),
    "construct-nnn_tight": (0, "1ed64756630d82ade3c39a7cbf1ebdfb4e03f7893a25a7806819021a16c52447"),
    "construct-drisko": (0, "40e5a30eb53130d841a29fde8a3df30919ee58250595ca14011e437df6b308e2"),
    "construct-mlessn-odd": (0, "09a3d5a96dd5da22e66e2a5acbe836124f28c5039a6d0bc5392f7b65a4dcff34"),
    "construct-mlessn-even": (0, "fb2873181a3351f823b2dda812c19843d19e42835068c3160f8e73459dcedc93"),
    "construct-mlessn2-even": (0, "d3aeac5b2eb95abf30546a01c8a1a95fb4482ffe22782efc0889c8c1ca3501bf"),
    "construct-mlessn2-odd": (0, "3700c95c535273f50795ed5bc82ce491f74814c80daac4020666b3c054bba955"),
    "construct-main_negative": (0, "48a3ef5ac19080d9083a41f6ce2c9f5cf13eb7304b4903e52abd6f4482f30c48"),
    "construct-truncated_projective": (0, "98ad3f0fddbad2231c7d2a3b249d67f52577811f84356a1380dcda6163797eae"),
    "construct-conj_nn": (0, "57e94fc697333193bbd78c0db1534c003c587a454d6f6b85eea7a8a8f59c3924"),
    "nu-pasch": (0, "416bec636c660ce7e1334960bb1340a6b9f3952e0522bfaadd7948f5f584402e"),
    "nustar-pasch": (0, "213c438577c97f0a81723e2cefe89132d9752a2e7dd2b873525c725026a5dc38"),
    "balance-pasch": (0, "1ca6fdc1cdcedec802388445abcf6ffbe4892ac55bbd0d11f4d2badbef3a2bef"),
    "nu-drisko3": (0, "4c8a7fc9581381f26165f4bfe25a1264deeebf5e9938002d66c6d13d50efd101"),
    "nustar-drisko3": (0, "740c8ec7d167d2c4b7df90bd22ebaca3d70db2c3486d324fb2cb356e505e4786"),
    "balance-drisko3": (0, "a37d74f574373ae6bee6accbb6213a98645a66aa2def3037e0b796fc613af1b0"),
    "balance-unbalanced": (1, "99ef9fe875833b789f5f973bb6527ed7080827f0af2d530f03540e0dcc6117e6"),
    "psi-petersen": (0, "19e3cea8b5ec06c13d969d9ccf666ad9c7eda2d0ba11968459836abdbd22c74f"),
    "eta-octahedron": (0, "303d20507f196af6324b4d03f74fdf53a7a50b8bc70b117f7e7e529b28cb249a"),
    "hall-check-pasch": (0, "ead177abaa0b3512f363c2a45fb72e68ff8358fa0fc66c40bd1702a5d14eac15"),
    "hall-check-drisko3": (1, "c2b0b0d1bf61df390ea5d524937d3886f23187ccbf6ae6165a4c6908184f19b7"),
    "hilbert": (0, "364d3925b6c48734e85a5556b64d7e51df9eeff6b1d6031b30a2397b05164138"),
    "hilbert-cap-exceeded": (1, "64b4983badde95425972a0a3175893a0951043462f56645b98c097e2e5d3cd4d"),
    "cake-search-2n2nn": (0, "bccccf99f6d25839eb39665e0953d77c8f42ecc9ff5e0cc4ef99a5f88607b064"),
    "cake-search-nn2n2": (0, "bccccf99f6d25839eb39665e0953d77c8f42ecc9ff5e0cc4ef99a5f88607b064"),
    "cake-check": (0, "6cd11a7af7ad8c8eb26ee732394c875be1b8741719bcc637faf86f4c0f249fdf"),
    "bm-search-exhaustive": (0, "3093f5f1d4632b642301fc84ad71888b6838124b66cd32fded21ce4100a70705"),
    "bm-search-sampled": (0, "c7e3c5ffe8c6abc09279870bcf2df762026034a1b024b769db13a4f2e5a7984f"),
    "dinterval-cover": (0, "5cd6a5f1c85a8fc455e496160e33367da78e4b55b2b77bb18192f4e6fe493929"),
    "dinterval-rainbow": (0, "ce17cb060d4a47a675eac8015f46eac869b2e24ec2d2673b1b218ee81447f43b"),
    "dinterval-cover-none": (1, "0d0b1aa228ac1af2b7d602cec96c0ada9ef08e42daff780c82323d834c735d80"),
    "dinterval-rainbow-none": (1, "f0066aa0607ff6653c18e560487246c9b8acb6ce061b93e1463644150c41e14c"),
    "verify-all": (0, "6e560543757a7a8dde8a61d281e748394c41ecf583f3e454feebd291e907b5ba"),
}


def run_command(tmp_path, capsys, argv, data):
    """Exit code and sha256 of stdout of one in-process `balmat` run."""
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = [str(path) if a == "{}" else a for a in argv]
    code = main(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name,argv,data", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_cli_output_bytes(tmp_path, capsys, name, argv, data):
    assert run_command(tmp_path, capsys, argv, data) == DIGESTS[name]


def test_every_subcommand_is_pinned():
    """Every leaf parser (each construct family, each dinterval and cake
    action, each bm-search mode) starts the argv of some pinned command."""
    for words in leaves(build_parser()):
        assert any(tuple(argv[:len(words)]) == words for _, argv, _ in COMMANDS), words
