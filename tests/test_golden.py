"""CLI output pinned byte for byte against files in tests/data/golden.

Each case runs `tuttekit.cli.main` on one of the input files next to the
golden outputs.  JSON cases compare the file written by `--output`; text
cases compare stdout.  Each run also fails if it builds the form it does not
write.  Regenerate a golden file only when an output change is intended, and
say so in CHANGES.md.
"""

from pathlib import Path

import pytest

from tuttekit import cli
from tuttekit.cli import main
from tuttekit.kernel import GraphCombination, ReductionCertificate
from tuttekit.quasi import TruncatedQFunc
from tuttekit.symfun import SymFunc

GOLDEN = Path(__file__).parent / "data" / "golden"

# name -> argv; "{stem}" names the input file GOLDEN/stem.json, for each stem in INPUTS
INPUTS = ("graph", "diamond", "k2", "k5", "os_plus", "dipath5", "wdigraph")

CASES = {
    "xb-def": ["xb", "{graph}"],
    "xb-delcon": ["xb", "{graph}", "--route", "delcon"],
    "xb-contract": ["xb", "{graph}", "--route", "contract"],
    "xb-connparts": ["xb", "{graph}", "--route", "connparts"],
    "xb-m": ["xb", "{graph}", "--basis", "m"],
    "xb-p": ["xb", "{graph}", "--basis", "p"],
    "xb-e": ["xb", "{graph}", "--basis", "e"],
    "xb-e-t-minus-half": ["xb", "{graph}", "--basis", "e", "--t-eval=-1/2"],
    "xb-t-minus-one": ["xb", "{graph}", "--t-eval=-1"],
    "x-mtilde": ["x", "{graph}"],
    "x-m": ["x", "{graph}", "--basis", "m"],
    "x-p": ["x", "{graph}", "--basis", "p"],
    "x-e": ["x", "{graph}", "--basis", "e", "--route", "delcon"],
    "reduce-k5": ["reduce", "{k5}"],
    "quasi-tq-dipath5": ["quasi", "tq", "{dipath5}"],
    "quasi-tq-dipath5-connparts": ["quasi", "tq", "{dipath5}", "--route", "connparts"],
    "quasi-tq-dipath5-subsets": ["quasi", "tq", "{dipath5}", "--route", "subsets"],
    "quasi-tq-dipath5-vars6": ["quasi", "tq", "{dipath5}", "--vars", "6"],
    "quasi-xq-dipath5": ["quasi", "xq", "{dipath5}"],
    # weights other than 1, a loop and a repeated arc; XQ of it is zero
    "quasi-tq-wdigraph-vars6": ["quasi", "tq", "{wdigraph}", "--vars", "6"],
    "quasi-xq-wdigraph": ["quasi", "xq", "{wdigraph}"],
    "relation-broom-2-2": ["relation", "broom", "--n", "2", "--k", "2"],
    "relation-cycle-diamond": ["relation", "cycle", "{diamond}", "--cycle", "1,2;2,3;3,4;1,4",
                               "--i", "1", "--j", "2"],
    "sigma-k1-l2": ["sigma", "{graph}", "--k", "1", "--l", "2"],
    "friendly-os-plus": ["friendly", "{os_plus}"],
    "friendly-k2": ["friendly", "{k2}"],
    "xfriendly-os-plus": ["xfriendly", "{os_plus}"],
    "xfriendly-k2": ["xfriendly", "{k2}"],
    "witness-k2": ["witness", "{k2}", "--pi", "1|2"],
    "member-os-plus": ["member", "{os_plus}"],
    "member-k2": ["member", "{k2}"],
    "classify-n4": ["classify-n4"],
}

TEXT_CASES = (
    "xb-def", "xb-e", "xb-t-minus-one", "x-mtilde", "x-p", "reduce-k5", "quasi-tq-dipath5",
    "quasi-tq-dipath5-vars6", "quasi-xq-dipath5", "quasi-tq-wdigraph-vars6", "quasi-xq-wdigraph",
    "relation-broom-2-2",
    "relation-cycle-diamond", "sigma-k1-l2", "friendly-os-plus", "friendly-k2",
    "xfriendly-os-plus", "xfriendly-k2", "witness-k2", "member-os-plus", "member-k2",
    "classify-n4",
)


def _argv(name: str) -> list[str]:
    inputs = {stem: str(GOLDEN / f"{stem}.json") for stem in INPUTS}
    return [arg.format(**inputs) for arg in CASES[name]]


# what only the text form uses, and what only the JSON form uses
TEXT_BUILDERS = ((cli, "_tpoly_text"), (cli, "_symfunc_text"), (cli, "_quasi_text"))
JSON_BUILDERS = (
    (cli, "_encode"), (cli.json, "dumps"), (cli, "graph_to_json_obj"), (SymFunc, "to_json_obj"),
    (TruncatedQFunc, "to_json_obj"), (GraphCombination, "to_json_obj"), (ReductionCertificate, "to_json_obj"),
)


def _refuse(monkeypatch, builders) -> None:
    def built(*args, **kwargs):
        raise AssertionError("built the form that is not written")

    for owner, name in builders:
        monkeypatch.setattr(owner, name, built)


def render_json(name: str, out_path: Path) -> bytes:
    assert main(_argv(name) + ["--output", str(out_path)]) == 0
    return out_path.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name, tmp_path, monkeypatch):
    _refuse(monkeypatch, TEXT_BUILDERS)
    got = render_json(name, tmp_path / "out.json")
    assert got == (GOLDEN / f"{name}.out.json").read_bytes()


@pytest.mark.parametrize("name", TEXT_CASES)
def test_text_output_matches_golden(name, capsys, monkeypatch):
    _refuse(monkeypatch, JSON_BUILDERS)
    assert main(_argv(name)) == 0
    got = capsys.readouterr().out.encode()
    assert got == (GOLDEN / f"{name}.out.txt").read_bytes()
