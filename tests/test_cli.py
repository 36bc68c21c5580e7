"""CLI surface: JSON contracts, text output, exit codes."""

import json
import time

import pytest

from tuttekit import selfcheck
from tuttekit.cli import main
from tuttekit.graphs import complete, cycle, edgeless, graph_to_json_obj, path
from tuttekit.invariants import tutte_sym
from tuttekit.kernel import (
    GraphCombination,
    broom_relation,
    ell_os_plus,
    ell_tri,
    two_edge_connected_relation,
)
from tuttekit.quasi import Digraph, digraph_to_json_obj, tq, xq
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
    d = write_json(tmp_path, "d.json", digraph_to_json_obj(D))
    out = str(tmp_path / "xq.json")
    assert main(["quasi", "xq", d, "--output", out]) == 0
    assert read_json(out) == xq(D, 2).to_json_obj()


def test_quasi_tq_routes(tmp_path):
    D = Digraph(2, [(1, 2), (2, 1)])
    d = write_json(tmp_path, "d.json", digraph_to_json_obj(D))
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
    d = write_json(tmp_path, "d.json", digraph_to_json_obj(D))
    assert main(["quasi", "xq", d, "--route", "subsets"]) == 1
    assert "error:" in capsys.readouterr().err


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
    ],
    ids=[
        "missing-n", "edge-endpoint", "weight", "zero-denominator", "pi-vertex", "t-eval",
        "coeff-text", "coeff-number", "terms-number", "edges-number", "weights-number",
        "arcs-number", "arc-one-endpoint", "arc-three-endpoints",
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


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_selfcheck_single_criterion(capsys):
    assert main(["selfcheck", "--only", "12"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_selfcheck_reports_failure(monkeypatch, capsys):
    # a suite that records a failure must turn the exit code red
    def failing_criterion():
        return selfcheck._finish(11, "always fails", 1, 1, ["planted failure"], time.perf_counter())

    criteria = list(selfcheck.CRITERIA)
    criteria[10] = failing_criterion
    monkeypatch.setattr(selfcheck, "CRITERIA", criteria)
    assert main(["selfcheck", "--only", "11"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "planted failure" in out

def test_selfcheck_refuses_unknown_ids(capsys):
    for only in ("99", "0", "x", "1,,2"):
        assert main(["selfcheck", "--only", only]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err and captured.out == ""


def test_selfcheck_with_no_suites_is_not_a_pass(monkeypatch, capsys):
    monkeypatch.setattr(selfcheck, "CRITERIA", [])
    assert main(["selfcheck"]) == 1
    assert "0/0 suites passed" in capsys.readouterr().out
