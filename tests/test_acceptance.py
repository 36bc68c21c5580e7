"""Acceptance gate: one test per selfcheck criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run with -s or -v to see them) and
fails with the recorded counterexamples when a criterion does not hold.
Criterion 11 sweeps the broom family over its domain k >= 2; `broom_relation`
refuses k = 1, where the star has no bristle to exchange (see README, known
limitations).
"""

import pytest

from tuttekit import selfcheck


def _run(cid: int) -> dict:
    r = selfcheck.CRITERIA[cid - 1]()
    status = "PASS" if r["passed"] else "FAIL"
    print(
        f"ACCEPTANCE {r['id']:2d}: {status}  {r['name']}"
        f"  ({r['checks']} checks, {r['seconds']}s)"
    )
    assert r["passed"], f"criterion {cid} failed: {r['failures']}"
    return r


def test_criterion_01_xb_routes_agree():
    _run(1)


def test_criterion_02_t_minus_one_recovers_x():
    _run(2)


def test_criterion_03_generators_are_friendly():
    _run(3)


def test_criterion_04_no_friendly_single_graph_differences():
    _run(4)


def test_criterion_05_n4_classification():
    _run(5)


def test_criterion_06_star_forest_reduction():
    _run(6)


def test_criterion_07_two_edge_connected_and_cycle_relations():
    _run(7)


def test_criterion_08_orientation_formula():
    _run(8)


def test_criterion_09_witness_construction():
    _run(9)


def test_criterion_10_quasisymmetric_routes():
    _run(10)


def test_criterion_11_broom_relations():
    # both routes on every (n, k) with 0 <= n <= 3 and 2 <= k <= 3
    assert _run(11)["checks"] == 8


def test_criterion_12_star_forest_rank():
    _run(12)