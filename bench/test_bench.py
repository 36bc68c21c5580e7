"""Tests of the benchmark itself: inputs, checkers, statistics, tracing."""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

import tuttekit as tk  # noqa: E402
from tuttekit import cli, invariants  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = wl.make_pool(workload, 7, count=60)
    assert a == wl.make_pool(workload, 7, count=60)
    assert a != wl.make_pool(workload, 8, count=60)


def test_strata_schedule_does_not_depend_on_seed():
    kinds = lambda pool: [inp[:2] if inp[0] != "inv" else inp[1] for inp in pool]  # noqa: E731
    assert kinds(wl.make_pool("kernel", 1, count=40)) == kinds(wl.make_pool("kernel", 2, count=40))


def test_kernel_tail_band_draws_one_isomorphism_class():
    degrees = lambda edges: sorted(sum(v in e for e in edges) for v in range(1, 6))  # noqa: E731
    cycle = len(wl.KERNEL_STRATA)
    pool = wl.make_pool("kernel", 5, count=2 * cycle)
    tail = [pool[i] for i in range(2 * cycle) if wl.KERNEL_STRATA[i % cycle][0] == "relabel"]
    assert tail and all(inp[0] == "reduce" and len(inp[2]) == 7 for inp in tail)
    assert all(degrees(inp[2]) == degrees(wl.K5_MINUS_P4) for inp in tail)
    assert len({inp[2] for inp in tail}) > 1


def test_checker_counts_an_injected_wrong_answer(monkeypatch):
    inp = wl.make_pool("invariants", 3, count=1)[0]
    assert wl.op_invariants(inp) == []
    right = tk.tutte_sym_delcon
    monkeypatch.setattr(tk, "tutte_sym_delcon", lambda G: right(G) + tk.SymFunc("mtilde", {(1,): 1}))
    assert wl.op_invariants(inp) != []


def test_cli_checker_rejects_a_wrong_output():
    inp = ("cli", "friendly_c6")
    assert wl.check_cli(inp, 0, "", {"friendly": True}, {}) == []
    assert wl.check_cli(inp, 0, "", {"friendly": False}, {}) != []
    assert wl.check_cli(inp, 1, "Traceback", None, {}) != []


def test_known_answers_hold_and_catch_a_wrong_route(tmp_path, monkeypatch):
    assert wl.known_answer_failures(str(tmp_path)) == []
    monkeypatch.setattr(tk, "chromatic_sym", lambda G, max_n=None: tk.SymFunc.zero("mtilde"))
    assert any("X(K" in msg for msg in wl.known_answer_failures(str(tmp_path)))


def test_percentile_on_a_known_list():
    xs = [15, 20, 35, 40, 50]
    assert run.percentile(xs, 50) == 35
    assert run.percentile(xs, 0) == 15
    assert run.percentile(xs, 100) == 50
    assert run.percentile(xs, 40) == 29.0
    assert run.percentile(list(range(1, 12)), 90) == 10
    ys = [3.1, 0.2, 9.9, 4.4, 5.0, 7.5, 1.0]
    assert run.percentile(ys, 75) == pytest.approx(statistics.quantiles(ys, n=4, method="inclusive")[2])


def test_host_scaling_corrects_for_a_slow_host():
    probe = run.REFERENCE_PROBE_S
    assert run.host_scaled([0.1, 0.2], [probe, probe]) == [0.1, 0.2]
    assert run.host_scaled([0.2, 0.4, 0.2], [2 * probe] * 3) == pytest.approx([0.1, 0.2, 0.1])


def test_bell_numbers():
    assert [wl.bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_patching_reaches_from_imports_and_is_undone():
    original = invariants.enumerate_set_partitions
    t = tracing.Tracer(wl.bell)
    t.install()
    try:
        assert invariants.enumerate_set_partitions is not original
        assert cli._XB_ROUTES["def"] is not invariants.tutte_sym.__wrapped__
        tk.tutte_sym(tk.path(5))
        tk.is_tutte_friendly(tk.ell_os_plus())
    finally:
        t.uninstall()
    assert invariants.enumerate_set_partitions is original
    assert cli._XB_ROUTES["def"] is invariants.tutte_sym
    m = t.layer_metrics(0)
    assert m["combinatorics.enumerate_set_partitions.items"] == 52 + 5
    assert m["invariants.tutte_sym.calls"] == 1
    assert m["kernel.friendly_scan.partitions"] == 5
    assert m["kernel.friendly_scan.scanned_over_bell"] == 1.0
    assert m["combinatorics.TPoly.ops"] > 0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert run.WORKLOADS == wl.WORKLOADS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
