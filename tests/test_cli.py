"""CLI surface: JSON contracts, text output, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tuttekit
from tuttekit import cli, selfcheck
from tuttekit.cli import main
from tuttekit.graphs import MAX_VERTICES, Multigraph, complete, cycle, edgeless, graph_to_json_obj, path
from tuttekit.invariants import tutte_sym
from tuttekit.kernel import (
    GraphCombination,
    broom_relation,
    ell_os_plus,
    ell_tri,
    two_edge_connected_relation,
)
from tuttekit.quasi import Digraph, tq, xq
from tuttekit.selfcheck import Suite
from tuttekit.symfun import m_to_e, mtilde_to_m


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def graph_file(tmp_path, G, name="g.json"):
    return write_json(tmp_path, name, graph_to_json_obj(G))


def combo_file(tmp_path, L, name="l.json"):
    return write_json(tmp_path, name, L.to_json_obj())


def single(G):
    return GraphCombination(G.n, [(G, 1)])


#### invariants ################################################################


def test_xb_json(tmp_path):
    g = graph_file(tmp_path, complete(2))
    out = str(tmp_path / "out.json")
    assert main(["xb", g, "--output", out]) == 0
    assert read_json(out) == tutte_sym(complete(2)).to_json_obj()


def test_xb_routes_match(tmp_path):
    g = graph_file(tmp_path, cycle(4))
    outs = []
    for route in ("def", "delcon", "contract", "connparts"):
        out = str(tmp_path / f"{route}.json")
        assert main(["xb", g, "--route", route, "--output", out]) == 0
        outs.append(read_json(out))
    assert all(o == outs[0] for o in outs)


def test_delcon_route_answers_thousands_of_parallel_edges(tmp_path):
    g = graph_file(tmp_path, Multigraph(2, [(1, 2)] * 3000))
    for command in ("xb", "x"):
        outs = []
        for route in ("def", "delcon"):
            out = str(tmp_path / f"{command}-{route}.json")
            assert main([command, g, "--route", route, "--output", out]) == 0
            outs.append(read_json(out))
        assert outs[0] == outs[1]


def test_xb_t_eval_matches_x(tmp_path):
    g = graph_file(tmp_path, path(3))
    o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["xb", g, "--t-eval=-1", "--output", o1]) == 0
    assert main(["x", g, "--output", o2]) == 0
    assert read_json(o1) == read_json(o2)


def test_basis_option(tmp_path):
    g = graph_file(tmp_path, complete(3))
    out = str(tmp_path / "e.json")
    assert main(["xb", g, "--basis", "e", "--output", out]) == 0
    want = m_to_e(mtilde_to_m(tutte_sym(complete(3))))
    assert read_json(out) == want.to_json_obj()


def test_xb_text_output(tmp_path, capsys):
    g = graph_file(tmp_path, complete(2))
    assert main(["xb", g]) == 0
    got = capsys.readouterr().out
    assert "mtilde[1,1] : 1/1" in got
    assert "mtilde[2] : 1/1 + 1/1*t" in got


def test_sigma(tmp_path, capsys):
    g = graph_file(tmp_path, complete(2))
    out = str(tmp_path / "s.json")
    assert main(["sigma", g, "--k", "0", "--l", "1", "--output", out]) == 0
    assert read_json(out) == {"k": 0, "l": 1, "value": "2/1"}
    assert main(["sigma", g, "--k", "1", "--l", "1"]) == 0
    assert "-2/1" in capsys.readouterr().out


#### kernel ####################################################################


def test_friendly(tmp_path):
    c = combo_file(tmp_path, ell_os_plus())
    out = str(tmp_path / "f.json")
    assert main(["friendly", c, "--output", out]) == 0
    assert read_json(out) == {"friendly": True}

    c2 = combo_file(tmp_path, single(complete(2)), "l2.json")
    out2 = str(tmp_path / "f2.json")
    assert main(["friendly", c2, "--output", out2]) == 0
    assert read_json(out2) == {"friendly": False, "pi": [[1, 2]], "a": 1}


def test_xfriendly(tmp_path):
    from tuttekit.kernel import ell_os

    c = combo_file(tmp_path, ell_os())
    out = str(tmp_path / "xf.json")
    assert main(["xfriendly", c, "--output", out]) == 0
    assert read_json(out) == {"xfriendly": True}


def test_witness(tmp_path):
    L = single(complete(2)) - single(edgeless(2))
    c = combo_file(tmp_path, L)
    out = str(tmp_path / "w.json")
    assert main(["witness", c, "--pi", "1,2", "--a", "0", "--output", out]) == 0
    assert read_json(out) == {"n": 4, "edges": []}


def test_reduce(tmp_path):
    c = combo_file(tmp_path, single(path(3)))
    out = str(tmp_path / "r.json")
    assert main(["reduce", c, "--output", out]) == 0
    obj = read_json(out)
    assert obj["terms"] == [{"lambda": [3], "k": 0, "c": "1/1"}]
    assert len(obj["certificate"]) == 2


def test_member(tmp_path):
    c = combo_file(tmp_path, ell_tri())
    out = str(tmp_path / "m.json")
    assert main(["member", c, "--output", out]) == 0
    assert read_json(out) == {"member": True}

    c2 = combo_file(tmp_path, single(complete(2)), "l2.json")
    out2 = str(tmp_path / "m2.json")
    assert main(["member", c2, "--output", out2]) == 0
    assert read_json(out2) == {"member": False}


def test_relation_fixed_and_broom(tmp_path):
    out = str(tmp_path / "rel.json")
    assert main(["relation", "os-plus", "--output", out]) == 0
    assert GraphCombination.from_json_obj(read_json(out)) == ell_os_plus()

    out2 = str(tmp_path / "broom.json")
    assert main(["relation", "broom", "--n", "1", "--k", "2", "--output", out2]) == 0
    assert GraphCombination.from_json_obj(read_json(out2)) == broom_relation(1, 2)


def test_relation_cycle(tmp_path):
    g = graph_file(tmp_path, cycle(3))
    out = str(tmp_path / "cyc.json")
    rc = main(["relation", "cycle", g, "--cycle", "1,2;2,3;1,3", "--i", "2", "--j", "1",
               "--output", out])
    assert rc == 0
    assert GraphCombination.from_json_obj(read_json(out)) == ell_tri()


def test_relation_two_edge_connected(tmp_path):
    g = graph_file(tmp_path, cycle(3))
    out = str(tmp_path / "tec.json")
    assert main(["relation", "two-edge-connected", g, "--i", "1", "--j", "3",
                 "--output", out]) == 0
    want = two_edge_connected_relation(cycle(3), 1, 3)
    assert GraphCombination.from_json_obj(read_json(out)) == want


def test_relation_missing_arguments(tmp_path, capsys):
    assert main(["relation", "broom"]) == 1
    assert "error:" in capsys.readouterr().err
    # k = 1: the star has no bristle, so there is no broom relation
    assert main(["relation", "broom", "--n", "1", "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_classify_n4(tmp_path):
    out = str(tmp_path / "fam.json")
    assert main(["classify-n4", "--output", out]) == 0
    assert len(read_json(out)["families"]) == 4


#### quasi #####################################################################


def test_quasi_xq(tmp_path):
    D = Digraph(2, [(1, 2)])
    d = write_json(tmp_path, "d.json", graph_to_json_obj(D))
    out = str(tmp_path / "xq.json")
    assert main(["quasi", "xq", d, "--output", out]) == 0
    assert read_json(out) == xq(D, 2).to_json_obj()


def test_quasi_tq_routes(tmp_path):
    D = Digraph(2, [(1, 2), (2, 1)])
    d = write_json(tmp_path, "d.json", graph_to_json_obj(D))
    want = tq(D, 2).to_json_obj()
    for route in ("def", "connparts", "subsets"):
        out = str(tmp_path / f"tq-{route}.json")
        assert main(["quasi", "tq", d, "--route", route, "--output", out]) == 0
        assert read_json(out) == want
    # explicit variable count
    out3 = str(tmp_path / "tq3.json")
    assert main(["quasi", "tq", d, "--vars", "3", "--output", out3]) == 0
    assert read_json(out3) == tq(D, 3).to_json_obj()


def test_quasi_xq_rejects_other_routes(tmp_path, capsys):
    D = Digraph(2, [(1, 2)])
    d = write_json(tmp_path, "d.json", graph_to_json_obj(D))
    assert main(["quasi", "xq", d, "--route", "subsets"]) == 1
    assert "error:" in capsys.readouterr().err


def test_quasi_refuses_to_write_too_many_exponent_vectors(tmp_path, capsys):
    # xq of one vertex is computed on M_(1), but its 5,000,001 exponent
    # vectors are refused by the writer of either form
    d = write_json(tmp_path, "d.json", graph_to_json_obj(Digraph(1)))
    out = str(tmp_path / "xq.json")
    for extra in ([], ["--output", out]):
        assert main(["quasi", "xq", d, "--vars", "5000001", *extra]) == 1
        assert "5,000,001 exponent vectors" in capsys.readouterr().err
        # 2,237 vectors of 2,237 entries each are too many entries
        assert main(["quasi", "xq", d, "--vars", "2237", *extra]) == 1
        assert "2,237 exponent vectors of 2,237 entries" in capsys.readouterr().err
    assert not os.path.exists(out)


#### exit codes and selfcheck ##################################################


def test_missing_file_is_domain_error(capsys):
    assert main(["xb", "/no/such/file.json"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bound_violation_is_domain_error(tmp_path, capsys):
    g = graph_file(tmp_path, edgeless(11))
    assert main(["xb", g]) == 1
    assert "error:" in capsys.readouterr().err
    # a 17-cycle has 2^17 edge subsets, over the 16-edge cap
    C17 = cycle(17)
    spec = ";".join(f"{u},{v}" for u, v in C17.edges)
    g = graph_file(tmp_path, C17)
    assert main(["relation", "cycle", g, "--cycle", spec, "--i", "1", "--j", "2"]) == 1
    assert capsys.readouterr().err.startswith("error:")


_PAIR = {"n": 2, "edges": [[1, 2]]}


@pytest.mark.parametrize(
    "cmd, obj, extra",
    [
        ("xb", {"edges": [[1, 2]]}, []),
        ("xb", {"n": 2, "edges": [["a", 2]]}, []),
        ("xb", {"n": 2, "edges": [[1, 2]], "weights": ["x", 1]}, []),
        ("friendly", {"n": 2, "terms": [{"coeff": ["1/0"], "graph": _PAIR}]}, []),
        ("witness", {"n": 2, "terms": [{"coeff": ["1/1"], "graph": _PAIR}]}, ["--pi", "1,x"]),
        ("xb", _PAIR, ["--t-eval", "abc"]),
        ("friendly", {"n": 2, "terms": [{"coeff": "12", "graph": _PAIR}]}, []),
        ("friendly", {"n": 2, "terms": [{"coeff": 5, "graph": _PAIR}]}, []),
        ("friendly", {"n": 2, "terms": 5}, []),
        ("xb", {"n": 2, "edges": 5}, []),
        ("xb", {"n": 2, "edges": [[1, 2]], "weights": 5}, []),
        ("quasi tq", {"n": 2, "arcs": 5}, []),
        ("quasi tq", {"n": 2, "arcs": [[1]]}, []),
        ("quasi tq", {"n": 2, "arcs": [[1, 2, 3]]}, []),
        ("xb", {"n": 3, "edges": [[1, 2]], "weights": [True, 1, 1]}, []),
        ("x", {"n": True, "edges": []}, []),
        ("xb", {"n": 2, "edges": [[True, 2]]}, []),
    ],
    ids=[
        "missing-n", "edge-endpoint", "weight", "zero-denominator", "pi-vertex", "t-eval",
        "coeff-text", "coeff-number", "terms-number", "edges-number", "weights-number",
        "arcs-number", "arc-one-endpoint", "arc-three-endpoints", "weight-true", "n-true",
        "endpoint-true",
    ],
)
def test_malformed_input_is_one_error_line(tmp_path, capsys, cmd, obj, extra):
    assert main([*cmd.split(), write_json(tmp_path, "bad.json", obj), *extra]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_negative_bound_override_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TUTTEKIT_MAX_N", "-5")
    assert main(["xb", graph_file(tmp_path, complete(2))]) == 1
    assert capsys.readouterr().err.startswith("error: TUTTEKIT_MAX_N")


@pytest.mark.parametrize("cmd", ["selfcheck --only 12", "xb"])
def test_closed_pipe_exits_one_without_traceback(tmp_path, cmd):
    # the reader closes its end before the program writes anything
    argv = cmd.split() + ([graph_file(tmp_path, path(3))] if cmd == "xb" else [])
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(tuttekit.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "tuttekit.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_standard_output_is_one_error_line(tmp_path):
    src = str(Path(tuttekit.__file__).resolve().parents[1])
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "tuttekit.cli", "xb", graph_file(tmp_path, path(3))],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write standard output: ") and proc.stderr.count("\n") == 1


def test_refused_output_keeps_an_existing_file(tmp_path, capsys):
    out = tmp_path / "out.json"
    out.write_bytes(b"earlier answer\n")
    assert main(["xb", graph_file(tmp_path, path(3)), T_OVERLONG, "--output", str(out)]) == 1
    assert "digits" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier answer\n"


def _hostile_file(tmp_path, name, data: bytes) -> str:
    (tmp_path / name).write_bytes(data)
    return str(tmp_path / name)


HUGE = "9" * 20

# t = 10^4000 - 1 makes XB(P3)'s t^2 coefficient about 8,000 digits long,
# past the interpreter's 4,300-digit limit for writing an int as text
T_OVERLONG = "--t-eval=" + "9" * 4000


def _one_term(n):
    return {"n": n, "terms": [{"coeff": ["1"], "graph": {"n": n, "edges": []}}]}


_T2000 = {"n": 2, "terms": [{"coeff": ["0"] * 2000 + ["1"], "graph": {"n": 2, "edges": [[1, 2]]}}]}


_NO_GRAPH = {"n": 2, "terms": [{"coeff": ["1"], "edges": [[1, 2]] * 50_000}]}

# input kind -> an object of that kind holding one element of the wrong type
_WRONG_ELEMENT = {
    "graph": {"n": 3, "edges": [[1, "2"]]},
    "combination": {"n": 3, "terms": ["x"]},
    "digraph": {"n": 2, "arcs": [[1, None]]},
}

# input-taking subcommand -> (input kind, argv around the input file)
_INPUT_ARGV = {
    "x": ("graph", lambda f: ["x", f]),
    "xb": ("graph", lambda f: ["xb", f]),
    "sigma": ("graph", lambda f: ["sigma", f, "--k", "1", "--l", "1"]),
    "friendly": ("combination", lambda f: ["friendly", f]),
    "xfriendly": ("combination", lambda f: ["xfriendly", f]),
    "witness": ("combination", lambda f: ["witness", f, "--pi", "1"]),
    "reduce": ("combination", lambda f: ["reduce", f]),
    "member": ("combination", lambda f: ["member", f]),
    "relation": ("graph", lambda f: ["relation", "two-edge-connected", f, "--i", "1", "--j", "2"]),
    "quasi": ("digraph", lambda f: ["quasi", "tq", f]),
}


# (id, argv of tmp_path and a graph file, exit code); exit 1 must print one
# "error: " line and under 1 KB on stderr, exit 0 the answer 0
HOSTILE = [
    ("not-utf8", lambda tmp, g: ["xb", _hostile_file(tmp, "b.json", b"\xff\xfe")], 1),
    ("nested-json", lambda tmp, g: ["xb", _hostile_file(tmp, "d.json", b"[" * 100_000 + b"]" * 100_000)], 1),
    ("output-in-missing-dir", lambda tmp, g: ["xb", g, "--output", str(tmp / "no" / "x.json")], 1),
    ("output-is-a-dir", lambda tmp, g: ["xb", g, "--output", str(tmp)], 1),
    ("output-empty-path", lambda tmp, g: ["xb", g, "--output", ""], 1),
    ("xb-overlong-coefficient-text", lambda tmp, g: ["xb", g, T_OVERLONG], 1),
    ("xb-overlong-coefficient-output", lambda tmp, g: ["xb", g, T_OVERLONG, "--output", str(tmp / "x.json")], 1),
    ("sigma-huge-k", lambda tmp, g: ["sigma", g, "--k", HUGE, "--l", "1"], 0),
    ("sigma-huge-l", lambda tmp, g: ["sigma", g, "--k", "1", "--l", HUGE], 0),
    ("xb-n-2**70", lambda tmp, g: ["xb", write_json(tmp, "n.json", {"n": 2**70, "edges": []})], 1),
    ("friendly-n-2**70", lambda tmp, g: ["friendly", write_json(tmp, "l.json", _one_term(2**70))], 1),
    ("quasi-tq-n-2**70", lambda tmp, g: ["quasi", "tq", write_json(tmp, "d.json", {"n": 2**70, "arcs": []})], 1),
    ("xb-n-over-cap", lambda tmp, g: ["xb", write_json(tmp, "n.json", {"n": MAX_VERTICES + 1, "edges": []})], 1),
    ("witness-no-terms-n-over-cap", lambda tmp, g: [
        "witness", write_json(tmp, "l.json", {"n": MAX_VERTICES + 1, "terms": []}), "--pi", "1"], 1),
    # 99,999 vertices left out of pi: the message names a few, not all
    ("witness-no-terms-n-at-cap", lambda tmp, g: [
        "witness", write_json(tmp, "l.json", {"n": MAX_VERTICES, "terms": []}), "--pi", "1"], 1),
    # B(L; 1|2) = t^2000, so M = 4,002 and the witness would have 16 million edges
    ("witness-t^2000", lambda tmp, g: ["witness", write_json(tmp, "w.json", _T2000), "--pi", "1|2"], 1),
    # the error names the term without echoing its 400 KB
    ("member-50000-edges-no-graph", lambda tmp, g: ["member", write_json(tmp, "l.json", _NO_GRAPH)], 1),
    ("classify-n4-output-empty-path", lambda tmp, g: ["classify-n4", "--output", ""], 1),
    # refused at the 16-edge cap, before the connectivity check walks the graph
    ("relation-two-edge-connected-20000-cycle", lambda tmp, g: [
        "relation", "two-edge-connected", graph_file(tmp, cycle(20_000), "c.json"), "--i", "1", "--j", "2"], 1),
    ("selfcheck-only-0", lambda tmp, g: ["selfcheck", "--only", "0"], 1),
    ("selfcheck-only-x", lambda tmp, g: ["selfcheck", "--only", "x"], 1),
] + [
    # each input-taking subcommand given a list for its JSON object, and an
    # object with an element of the wrong type
    (f"{name}-{what}", lambda tmp, g, argv=argv, obj=obj: argv(write_json(tmp, "bad.json", obj)), 1)
    for name, (kind, argv) in _INPUT_ARGV.items()
    for what, obj in (("top-level-list", [1, 2]), ("element-type", _WRONG_ELEMENT[kind]))
] + [
    (f"{name}-top-level-string", lambda tmp, g, argv=_INPUT_ARGV[name][1]: argv(write_json(tmp, "bad.json", "abc")), 1)
    for name in ("xb", "reduce", "quasi")
]


@pytest.mark.parametrize("name", ["xb", "reduce", "quasi"])
@pytest.mark.parametrize("obj, kind", [([1, 2], "list"), ("abc", "str")], ids=["list", "string"])
def test_input_of_the_wrong_top_level_type_is_named(tmp_path, capsys, name, obj, kind):
    assert main(_INPUT_ARGV[name][1](write_json(tmp_path, "bad.json", obj))) == 1
    err = capsys.readouterr().err
    assert err == f"error: expected a JSON object, got {kind} {obj!r}\n"


@pytest.mark.parametrize("argv, code", [case[1:] for case in HOSTILE], ids=[case[0] for case in HOSTILE])
def test_hostile_input_under_optimisation_gives_no_traceback(tmp_path, argv, code):
    src = str(Path(tuttekit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tuttekit.cli", *argv(tmp_path, graph_file(tmp_path, path(3)))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == code and "Traceback" not in proc.stderr
    if code:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert len(proc.stderr.encode()) < 1024
    else:
        assert proc.stdout.strip().endswith("XB = 0/1") and proc.stderr == ""


#### the JSON encoder ##########################################################

_JSON_TEXT = st.text(st.sampled_from('"\\/\ud800\x00\x1f\x7f\n\té€\u2028😀a') | st.characters(), max_size=8)
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**100, 10**100) | _JSON_TEXT,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(_JSON_TEXT, kids),
    max_leaves=20,
)


@given(_JSON_TREES)
def test_encoder_writes_the_bytes_of_json_dumps(v):
    assert cli._encode(v) + "\n" == json.dumps(v, indent=2) + "\n"


@pytest.mark.parametrize("v", [Fraction(1, 2), 1.5, {1: "one"}, [{"a": {"b": set()}}]])
def test_encoder_refuses_other_types(v):
    with pytest.raises(TypeError):
        cli._encode(v)


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


SUBCOMMANDS = ("x", "xb", "sigma", "friendly", "xfriendly", "witness", "reduce", "member",
               "relation", "classify-n4", "quasi", "selfcheck")


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    g = graph_file(tmp_path, path(3))
    assert main(["xb", g]) == 0  # builds the parser, if no earlier call has
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["x", g]) == 0
    assert main(["relation", "os"]) == 0
    assert main(["no-such-command"]) == 2
    assert built == []


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    g = graph_file(tmp_path, path(3))
    e, plain = str(tmp_path / "e.json"), str(tmp_path / "plain.json")
    assert main(["xb", g, "--basis", "e", "--t-eval=-1", "--output", e]) == 0
    # a plain xb after it gives mtilde with t left symbolic
    assert main(["xb", g, "--output", plain]) == 0
    assert read_json(plain) == tutte_sym(path(3)).to_json_obj()
    assert main(["xb", g, "--route", "no-such-route"]) == 2
    assert main(["xb", g]) == 0
    for name in SUBCOMMANDS:
        assert main([name, "--help"]) == 0
    capsys.readouterr()


def test_selfcheck_single_criterion(capsys):
    assert main(["selfcheck", "--only", "12"]) == 0
    assert "PASS" in capsys.readouterr().out


def _with_suite(monkeypatch, planted: Suite) -> None:
    """Put a planted suite in the table in place of the one with its id."""
    suites = [planted if s.id == planted.id else s for s in selfcheck.SUITES]
    monkeypatch.setattr(selfcheck, "SUITES", suites)


def test_selfcheck_reports_failure(monkeypatch, capsys):
    # a suite that records a failure must turn the exit code red
    _with_suite(monkeypatch, Suite(11, "always fails", 1, lambda: iter([None, "planted failure"])))
    assert main(["selfcheck", "--only", "11"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "planted failure" in out and "(2 checks," in out


def test_selfcheck_marks_a_suite_over_its_budget(monkeypatch, capsys):
    # running long is shown, but a suite over its budget still passes
    def slow_checks():
        time.sleep(0.05)
        yield None

    _with_suite(monkeypatch, Suite(12, "runs long", 0.01, slow_checks))
    assert main(["selfcheck", "--only", "11,12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "PASS" in lines[1] and "over its 0.01s budget" in lines[1]
    assert "PASS" in lines[0] and "budget" not in lines[0]
    assert lines[-1].startswith("2/2 suites passed")


def test_selfcheck_reports_a_suite_that_raises_under_its_own_name(monkeypatch, capsys):
    def crashing_checks():
        yield None
        yield "planted failure"
        raise ZeroDivisionError("planted crash")

    planted = Suite(3, "crashes partway", 7, crashing_checks)
    r = planted.run()
    assert (r["id"], r["name"], r["budget_seconds"]) == (3, "crashes partway", 7)
    assert not r["passed"] and r["checks"] == 2 and r["failure_count"] == 2
    assert r["failures"][0] == "planted failure"
    assert r["failures"][1].startswith("Traceback") and "planted crash" in r["failures"][1]

    _with_suite(monkeypatch, planted)
    assert main(["selfcheck", "--only", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("criterion  3: FAIL  crashes partway  (2 checks,")
    assert any("ZeroDivisionError: planted crash" in line for line in out)
    assert out[-1] == "0/1 suites passed, 2 checks total"


def test_a_crash_is_shown_past_the_failure_cap():
    def many_failures():
        yield from (f"failure {i}" for i in range(10))
        raise ValueError("planted crash")

    r = Suite(1, "fails and crashes", 1, many_failures).run()
    assert r["failure_count"] == 11 and len(r["failures"]) == 9
    assert r["failures"][7] == "failure 7" and "planted crash" in r["failures"][8]
    assert "... and 2 more" in selfcheck.format_report([r])

def test_selfcheck_refuses_unknown_ids(capsys):
    for only in ("99", "0", "x", "1,,2"):
        assert main(["selfcheck", "--only", only]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err and captured.out == ""


def test_selfcheck_with_no_suites_is_not_a_pass(monkeypatch, capsys):
    monkeypatch.setattr(selfcheck, "SUITES", [])
    assert main(["selfcheck"]) == 1
    assert "0/0 suites passed" in capsys.readouterr().out
