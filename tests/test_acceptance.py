"""Acceptance gate: one test per selfcheck suite, exact arithmetic throughout.

Each test runs its suite from `selfcheck.SUITES`, prints a single PASS/FAIL
line (run with -s or -v to see them), fails with the recorded
counterexamples when the suite does not hold, and pins the suite's check
count, so that no suite can lose checks unseen.  Suite 11 sweeps the broom
family over its domain k >= 2; `broom_relation` refuses k = 1, where the
star has no bristle to exchange (see README, known limitations).
"""

from tuttekit.selfcheck import SUITES

CHECKS = {
    1: 474,
    2: 474,
    3: 255,
    4: 556,
    5: 2517,  # the families, then one verdict per pair: 2,016 on [4], 500 seeded on [5]
    6: 1224,
    7: 170,
    8: 2354,
    9: 20,
    10: 2871,
    11: 8,  # both routes on every (n, k) with 0 <= n <= 3 and 2 <= k <= 3
    12: 7,
}


def _run(cid: int) -> None:
    (suite,) = [s for s in SUITES if s.id == cid]
    r = suite.run()
    status = "PASS" if r["passed"] else "FAIL"
    print(
        f"ACCEPTANCE {r['id']:2d}: {status}  {r['name']}"
        f"  ({r['checks']} checks, {r['seconds']}s)"
    )
    assert r["passed"], f"suite {cid} failed: {r['failures']}"
    assert r["checks"] == CHECKS[cid]


def test_every_suite_has_a_test_and_a_pinned_count():
    # ids run 1..12 in table order, as `selfcheck --only` reports them
    assert [s.id for s in SUITES] == list(CHECKS) == list(range(1, 13))


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
    _run(11)


def test_criterion_12_star_forest_rank():
    _run(12)
