"""Quasisymmetric chromatic and Tutte functions on digraphs."""

import random
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttekit import cli, quasi
from tuttekit.combinatorics import DomainError, TPoly, multinomial, onep_t_power
from tuttekit.graphs import Multigraph, graph_from_json_obj, graph_to_json_obj, path
from tuttekit.invariants import chromatic_sym, tutte_sym
from tuttekit.quasi import (
    Digraph,
    QTPoly,
    TruncatedQFunc,
    tq,
    tq_from_arc_subsets,
    tq_from_connected_partitions,
    truncate_symfunc,
    underlying,
    xq,
)
from tuttekit.symfun import SymFunc, mtilde_to_m

from reference import contract_arc_set, contract_partition

Q = QTPoly.q()
ONE = QTPoly.one()
T = QTPoly.of(TPoly.t())


#### coefficients ##############################################################


def test_qtpoly_arithmetic():
    assert (Q + T) * (Q - T) == Q * Q - T * T
    assert (Q - Q).is_zero()
    assert QTPoly.q(3).terms == {(3, 0): Fraction(1)}
    assert QTPoly.of(onep_t_power(2)) == ONE + 2 * T + T * T
    assert (ONE + Q).at_q(2) == QTPoly.of(3)
    assert (ONE + T).at_t(-1).is_zero()
    assert QTPoly.of(TPoly.one() + TPoly.t()) == ONE + T


def test_qtpoly_json_roundtrip():
    p = Q * Q + T * Fraction(1, 2) - ONE
    assert QTPoly.from_json_obj(p.to_json_obj()) == p


def test_qtpoly_json_rows_add_up_like_symfunc_terms():
    rows = [{"q": 0, "t": 0, "c": "1"}, {"q": 1, "t": 2, "c": "1/2"}, {"q": 0, "t": 0, "c": "2"}]
    assert QTPoly.from_json_obj(rows) == 3 * ONE + Q * T * T * Fraction(1, 2)
    assert QTPoly.from_json_obj(rows[:1] + [{"q": 0, "t": 0, "c": "-1"}]).is_zero()
    twice = SymFunc.from_json_obj({"basis": "m", "terms": [{"lambda": [1], "coeff": ["1"]}, {"lambda": [1], "coeff": ["2"]}]})
    assert twice.terms == {(1,): TPoly([3])}


def test_json_terms_share_no_mutable_rows():
    # the vectors of one composition share a coefficient object, which the
    # JSON form formats once; an edit to one term's rows must not reach another
    F = tq(Digraph(3, [(1, 2), (2, 3)]), 4)
    vectors = F.vectors()
    assert len({id(c) for c in vectors.values()}) < len(vectors)
    obj = F.to_json_obj()
    coeffs = [t["coeff"] for t in obj["terms"]]
    rows = [r for c in coeffs for r in c]
    assert len({id(c) for c in coeffs}) == len(coeffs) and len({id(r) for r in rows}) == len(rows)
    assert TruncatedQFunc.from_json_obj(obj) == F
    assert obj["terms"] == [{"exponents": list(e), "coeff": c.to_json_obj()} for e, c in vectors.items()]


@pytest.mark.parametrize("obj", [5, None, "rows", {"q": 0, "t": 0, "c": "1"}])
def test_qtpoly_json_reader_refuses_a_non_list(obj):
    with pytest.raises(DomainError, match="list of rows"):
        QTPoly.from_json_obj(obj)


#### digraphs ##################################################################


def test_digraph_basics():
    D = Digraph(3, [(2, 1), (1, 3)], weights=[1, 2, 1])
    assert D.arcs == ((1, 3), (2, 1))
    assert D.total_weight() == 4
    assert not D.has_loop()
    assert Digraph(1, [(1, 1)]).has_loop()
    with pytest.raises(DomainError):
        Digraph(2, [(1, 3)])
    with pytest.raises(DomainError):
        Digraph(2, [], weights=[1])


def test_record_reprs_and_kinds():
    # the CLI relation text and selfcheck failure lines print these
    assert repr(Multigraph(3, [(1, 2)], weights=(1, 2, 1))) == "Multigraph(3, [(1, 2)], weights=(1, 2, 1))"
    assert repr(Digraph(2, [(2, 1)], weights=[1, 3])) == "Digraph(2, [(2, 1)], weights=[1, 3])"
    # one vertex count, pair tuple and weights, but two kinds
    assert Multigraph(2, [(1, 2)], [1, 3]) != Digraph(2, [(1, 2)], [1, 3])


def reverse(D):
    return Digraph(D.n, [(v, u) for u, v in D.arcs], D.weights)


def arc_statistics(D, kappa):
    """(ascents, descents, monochromatic arcs) of a coloring, with multiplicity."""
    asc = desc = mono = 0
    for u, v in D.arcs:
        cu, cv = kappa[u - 1], kappa[v - 1]
        if cu < cv:
            asc += 1
        elif cu > cv:
            desc += 1
        else:
            mono += 1
    return asc, desc, mono


def test_underlying_and_reverse():
    D = Digraph(3, [(2, 1), (1, 3)], weights=[1, 2, 1])
    U = underlying(D)
    assert U.edges == ((1, 2), (1, 3)) and U.weights == (1, 2, 1)
    assert reverse(reverse(D)) == D
    assert reverse(D).arcs == ((1, 2), (3, 1))


def test_arc_statistics():
    D = Digraph(3, [(1, 2), (2, 1), (1, 1)])
    asc, desc, mono = arc_statistics(D, [1, 2, 9])
    assert (asc, desc, mono) == (1, 1, 1)
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        arcs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 6))]
        D = Digraph(n, arcs)
        R = reverse(D)
        for kappa in product(range(1, 4), repeat=n):
            a, d, m = arc_statistics(D, kappa)
            assert a + d + m == len(arcs)
            # reversal swaps ascents and descents
            assert arc_statistics(R, kappa) == (d, a, m)


def test_contract_arc_set():
    D = Digraph(3, [(1, 2), (2, 3)], weights=[1, 2, 1])
    C = contract_arc_set(D, [0])
    assert C == Digraph(2, [(1, 2)], weights=[3, 1])
    # contracting one copy of a doubled arc leaves a loop
    E = contract_arc_set(Digraph(2, [(1, 2), (2, 1)]), [0])
    assert E == Digraph(1, [(1, 1)], weights=[2])
    with pytest.raises(DomainError):
        contract_arc_set(D, [5])


def test_contract_digraph_partition():
    D = Digraph(3, [(1, 2), (2, 1), (1, 3)])
    C = contract_partition(D, [[1, 2], [3]])
    assert C == Digraph(2, [(1, 2)], weights=[2, 1])


_DIPATH = Digraph(3, [(1, 2), (2, 3)])


def test_contract_digraph_partition_refuses_uncovered_vertex():
    with pytest.raises(DomainError, match="not covered"):
        contract_partition(_DIPATH, [[1, 2]])


def test_contract_digraph_partition_refuses_disconnected_block():
    with pytest.raises(DomainError, match="not connected"):
        contract_partition(_DIPATH, [[1, 3], [2]])


def test_contract_arc_set_refuses_float_index():
    with pytest.raises(DomainError, match="arc index must be an integer"):
        contract_arc_set(_DIPATH, [1.7])


def test_contract_arc_set_refuses_text_index():
    with pytest.raises(DomainError, match="arc index must be an integer"):
        contract_arc_set(_DIPATH, ["1"])


@pytest.mark.parametrize(
    "read, obj",
    [
        (SymFunc.from_json_obj, {"basis": "m"}),
        (SymFunc.from_json_obj, {"terms": []}),
        (SymFunc.from_json_obj, {"basis": "m", "terms": [{"lambda": [1]}]}),
        (TruncatedQFunc.from_json_obj, {"terms": []}),
        (TruncatedQFunc.from_json_obj, {"N": 1, "terms": [{"exponents": [1], "coeff": {}}]}),
        (QTPoly.from_json_obj, [{"q": 0}]),
        (QTPoly.from_json_obj, [{"q": 0, "t": 0}]),
    ],
    ids=["sym-terms", "sym-basis", "sym-coeff", "tq-N", "tq-coeff", "qt-t", "qt-c"],
)
def test_value_json_readers_refuse_missing_fields(read, obj):
    with pytest.raises(DomainError, match="JSON"):
        read(obj)


def test_digraph_json_roundtrip():
    D = Digraph(2, [(2, 1)], weights=[1, 3])
    obj = graph_to_json_obj(D)
    assert obj == {"n": 2, "arcs": [[2, 1]], "weights": [1, 3]}
    assert graph_from_json_obj(obj, Digraph) == D
    assert "weights" not in graph_to_json_obj(Digraph(1))


#### XQ and TQ pins ############################################################


def test_xq_single_arc():
    f = xq(Digraph(2, [(1, 2)]), 2)
    assert f.vectors() == {(1, 1): ONE + Q}


def test_xq_loop_vanishes():
    assert xq(Digraph(1, [(1, 1)]), 1).is_zero()


def test_xq_arcless():
    f = xq(Digraph(2), 2)
    assert f.vectors() == {(2, 0): ONE, (1, 1): QTPoly.of(2), (0, 2): ONE}


def test_tq_single_arc():
    f = tq(Digraph(2, [(1, 2)]), 2)
    onept = ONE + T
    assert f.vectors() == {(1, 1): ONE + Q, (2, 0): onept, (0, 2): onept}


def test_weighted_exponents():
    f = xq(Digraph(1, [], weights=[2]), 2)
    assert f.vectors() == {(2, 0): ONE, (0, 2): ONE}
    with pytest.raises(DomainError):
        xq(Digraph(1, [], weights=[3]), 2)


def test_coloring_budget():
    # Fubini(9) = 7,087,261 packed colorings
    with pytest.raises(DomainError, match="packed colorings"):
        tq(Digraph(9), 9)
    # one vertex: computed and compared on M_(1), but its 5,000,001
    # exponent vectors are refused wherever they would be written
    f = xq(Digraph(1), 5_000_001)
    assert f == tq(Digraph(1), 5_000_001) and f.at_q(2) == f
    for write in (f.vectors, f.to_json_obj, f.__repr__, lambda: cli._quasi_text(f)):
        with pytest.raises(DomainError, match="5,000,001 exponent vectors"):
            write()
    assert len(xq(Digraph(1), 500).vectors()) == 500
    # the budget counts entries: 2,236^2 = 4,999,696 are written, but
    # 2,237^2 = 5,004,169 are not
    assert len(xq(Digraph(1), 2236).vectors()) == 2236
    with pytest.raises(DomainError, match="2,237 exponent vectors of 2,237 entries each"):
        xq(Digraph(1), 2237).vectors()


def test_coloring_budget_counts_packed_colorings():
    # 22^5 colorings exceed the budget, but only Fubini(5) = 541 packed
    # colorings and C(26, 5) exponent vectors are worked through
    f = tq(Digraph(5), 22)
    assert len(f.vectors()) == comb(26, 5)
    assert all(c == QTPoly.of(multinomial(e)) for e, c in f.vectors().items())
    assert xq(Digraph(5), 22) == f


#### route agreement ###########################################################

ROUTE_CASES = [
    Digraph(2, [(1, 2)]),
    Digraph(2, [(1, 2), (2, 1)]),
    Digraph(3, [(1, 2), (2, 3)]),
    Digraph(3, [(1, 2), (2, 1), (1, 3)]),
    Digraph(2, [(1, 2)], weights=[2, 1]),
    Digraph(2, [(1, 1), (1, 2)]),
]


@pytest.mark.parametrize("D", ROUTE_CASES, ids=repr)
def test_tq_routes_agree(D):
    N = D.total_weight()
    f = tq(D, N)
    assert tq_from_connected_partitions(D, N) == f
    assert tq_from_arc_subsets(D, N) == f


@pytest.mark.parametrize("D", ROUTE_CASES, ids=repr)
def test_tq_specializations(D):
    N = D.total_weight()
    f = tq(D, N)
    assert f.at_t(-1) == xq(D, N)
    assert f.at_q(1) == truncate_symfunc(tutte_sym(underlying(D)), N)


#### compositions against exponent vectors ####################################


@pytest.mark.parametrize("D", ROUTE_CASES, ids=repr)
def test_composition_form_matches_its_exponent_vectors(D):
    # every route's value, and the truncated XB of the underlying graph,
    # rebuilt from the exponent vectors it writes
    N = D.total_weight() + 1
    values = [route(D, N) for route in (tq, tq_from_connected_partitions, tq_from_arc_subsets, xq)]
    values.append(truncate_symfunc(tutte_sym(underlying(D)), N))
    for f in values:
        g = TruncatedQFunc(f.N, f.vectors())
        assert g == f and hash(g) == hash(f) and g.terms == f.terms
    # equality on compositions is equality of the exponent vectors
    for f, h in product(values, repeat=2):
        assert (f == h) == (f.vectors() == h.vectors())


def test_constructor_refuses_a_non_quasisymmetric_polynomial():
    # (0, 1) is missing, or the two vectors of M_(1) carry different coefficients
    for vectors in ({(1, 0): ONE}, {(1, 0): ONE, (0, 1): 2 * ONE}):
        with pytest.raises(DomainError, match="not quasisymmetric"):
            TruncatedQFunc(2, vectors)


def test_truncation_drops_exactly_the_longer_partitions():
    # XB(P4) has partitions of every length 1..4; N < 4 loses the longer ones
    f = tutte_sym(path(4))
    assert {len(lam) for lam in f.terms} == {1, 2, 3, 4}
    for N in range(6):
        want = {}
        for lam, c in f.terms.items():
            if len(lam) <= N:
                for e in set(permutations(lam + (0,) * (N - len(lam)))):
                    want[e] = QTPoly.of(c) * prod(factorial(lam.count(p)) for p in set(lam))
        got = truncate_symfunc(f, N)
        assert got.vectors() == want and got == TruncatedQFunc(N, want)
        assert got == truncate_symfunc(SymFunc("mtilde", {lam: c for lam, c in f.terms.items() if len(lam) <= N}), N)


def test_values_on_compositions_write_no_exponent_vector(monkeypatch):
    # a million variables: comparing, substituting and the zero test stay on M_alpha
    def refuse(*args):
        raise AssertionError("an exponent vector was built")

    monkeypatch.setattr(quasi, "combinations", refuse)
    N = 1_000_000
    f = xq(Digraph(1), N)
    assert f == xq(Digraph(1), N) and f != xq(Digraph(1, [], [2]), N)
    assert f.at_t(-1) == f and f.at_q(0) == f.at_q(5) and f.at_t(2) == tq(Digraph(1), N).at_t(2)
    assert not f.is_zero() and f and xq(Digraph(1, [(1, 1)]), N).is_zero()
    # C(3000, 2) + 3000 vectors are admitted, and none is written
    D = Digraph(2, [(1, 2)])
    assert tq(D, 3000).at_q(1) == truncate_symfunc(tutte_sym(underlying(D)), 3000)
    assert tq(D, 3000).at_t(-1) == xq(D, 3000) != xq(Digraph(2, [(2, 1)]), 3000).at_q(2)


@pytest.mark.parametrize("value", [1.0, 0.5, True, False])
def test_substitution_refuses_floats_and_booleans(value):
    p, f, zero = Q * T + ONE, tq(Digraph(2, [(1, 2)]), 2), xq(Digraph(1, [(1, 1)]), 1)
    for sub in (p.at_q, p.at_t, f.at_q, f.at_t, zero.at_q, zero.at_t):
        with pytest.raises(DomainError):
            sub(value)


def test_substitution_keys_and_values():
    p = Q * Q * T + 3 * Q * T * T - ONE
    assert p.at_q("2/3").terms == {(0, 1): Fraction(4, 9), (0, 2): 2, (0, 0): -1}
    assert p.at_q("2/3") == p.at_q(Fraction(2, 3))
    assert p.at_t(2).terms == {(2, 0): 2, (1, 0): 12, (0, 0): -1}
    assert all(a == 0 for a, _ in p.at_q(5).terms)
    assert all(b == 0 for _, b in p.at_t(5).terms)
    # terms that sum to zero drop out
    assert (Q * T - T).at_q(1).terms == {}
    assert (Q * T + Q).at_t(-1).terms == {}
    assert (Q * Q - T + ONE).at_t(1).terms == {(2, 0): 1}


def test_substitution_once_per_coefficient_object(monkeypatch):
    f = tq(Digraph(3, [(1, 2), (3, 2)]), 5)
    # the vectors of one composition share its coefficient object
    shared = {id(c) for c in f.vectors().values()}
    assert len(shared) == len(f.terms) < len(f.vectors())
    calls = []
    at_q = QTPoly.at_q
    monkeypatch.setattr(QTPoly, "at_q", lambda c, v: calls.append(c) or at_q(c, v))
    g = f.at_q(1)
    assert len(calls) == len(shared)
    assert g == TruncatedQFunc(5, {e: c.at_q(1) for e, c in f.vectors().items()})
    # a coefficient that vanishes under the substitution drops out
    assert f.at_q(0).at_t(-1) == TruncatedQFunc(5, {e: c.at_q(0).at_t(-1) for e, c in f.vectors().items()})


def test_arrangements_are_the_distinct_permutations_in_order():
    for lam in [(), (1,), (2, 1, 1), (3, 2, 2, 1, 1), (4, 3, 2, 1), (2, 2, 2, 2), (5, 3, 3, 1, 1, 1)]:
        assert quasi._arrangements(lam) == tuple(sorted(set(permutations(lam))))


def test_truncate_symfunc_pins():
    f = truncate_symfunc(SymFunc("mtilde", {(2,): 1}), 2)
    assert f.vectors() == {(2, 0): ONE, (0, 2): ONE}
    g = truncate_symfunc(SymFunc("mtilde", {(1, 1): 1}), 2)
    assert g.vectors() == {(1, 1): QTPoly.of(2)}
    # partitions longer than the variable count truncate away
    assert truncate_symfunc(SymFunc("mtilde", {(1, 1, 1): 1}), 2).is_zero()
    with pytest.raises(DomainError):
        truncate_symfunc(SymFunc("m", {(2,): 1}), 2)


def test_truncation_needs_enough_variables():
    D = Digraph(3, [(1, 2)])
    with pytest.raises(DomainError):
        tq(D, 2)


def test_truncated_qfunc_algebra_and_json():
    f = tq(Digraph(2, [(1, 2)]), 2)
    assert (f - f).is_zero()
    assert f.scale(2).terms[(1, 1)] == (ONE + Q) * 2
    obj = f.to_json_obj()
    assert obj["N"] == 2
    assert TruncatedQFunc.from_json_obj(obj) == f
    with pytest.raises(DomainError):
        f + tq(Digraph(2, [(1, 2)]), 3)
    with pytest.raises(DomainError):
        TruncatedQFunc(2, {(1, 1, 0): ONE})


def test_truncated_qfunc_refuses_inexact_variable_count():
    with pytest.raises(DomainError):
        TruncatedQFunc(2.9, {(1.5, "0"): 1})
    with pytest.raises(DomainError):
        TruncatedQFunc(-1)


def test_truncated_qfunc_refuses_inexact_or_negative_exponents():
    with pytest.raises(DomainError):
        TruncatedQFunc(2, {(1.5, "0"): 1})
    with pytest.raises(DomainError):
        TruncatedQFunc(2, {(3, -1): 1})


def test_qtpoly_refuses_inexact_degrees():
    with pytest.raises(DomainError):
        QTPoly({(1.7, "2"): 3})
    with pytest.raises(DomainError):
        QTPoly({(1,): 3})


def test_qtpoly_refuses_negative_degrees():
    with pytest.raises(DomainError):
        QTPoly({(-1, 0): 1})
    with pytest.raises(DomainError):
        QTPoly.from_json_obj([{"q": 0, "t": -2, "c": "1/1"}])


def test_path_against_undirected_tutte():
    # both orientations of the path agree with XB at q = 1
    fwd = Digraph(3, [(1, 2), (2, 3)])
    mixed = Digraph(3, [(2, 1), (2, 3)])
    target = truncate_symfunc(tutte_sym(path(3)), 3)
    assert tq(fwd, 3).at_q(1) == target
    assert tq(mixed, 3).at_q(1) == target
    # but the q-refinements differ between orientations
    assert tq(fwd, 3) != tq(mixed, 3)


#### differential oracle #######################################################


def coloring_sum(D, N, proper, ascents=True):
    """The defining sum over all N^n colorings, built on arc_statistics;
    ascents=False leaves q out, the sum at q = 1."""
    items = []
    for kappa in product(range(1, N + 1), repeat=D.n):
        asc, _, mono = arc_statistics(D, kappa)
        if proper and mono:
            continue
        exps = [0] * N
        for v, c in enumerate(kappa):
            exps[c - 1] += D.weights[v]
        items.append((tuple(exps), QTPoly.q(asc if ascents else 0) * QTPoly.of(onep_t_power(mono))))
    return TruncatedQFunc(N, items)


def typed_terms(f):
    return {e: {k: (type(x), x) for k, x in c.terms.items()} for e, c in f.terms.items()}


def assert_same(got, want):
    assert got.N == want.N
    assert got == want
    assert typed_terms(got) == typed_terms(want)


@st.composite
def weighted_digraphs(draw):
    """(D, N): n <= 4, loops and parallel arcs, weights <= 2, w <= N <= w + 2."""
    n = draw(st.integers(0, 4))
    vertex = st.integers(1, max(n, 1))
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=5)) if n else []
    weights = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    D = Digraph(n, arcs, weights)
    return D, D.total_weight() + draw(st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(weighted_digraphs())
def test_packed_colorings_match_coloring_sum(case):
    # values and coefficient types: a count is an int, never Fraction(2) for 2
    D, N = case
    want_tq, want_xq = coloring_sum(D, N, proper=False), coloring_sum(D, N, proper=True)
    want_q1 = coloring_sum(D, N, proper=False, ascents=False)
    for want in (want_tq, want_xq, want_q1):
        assert all(type(x) is int for c in want.terms.values() for x in c.terms.values())
    for route in (tq, tq_from_connected_partitions, tq_from_arc_subsets):
        assert_same(route(D, N), want_tq)
    assert_same(xq(D, N), want_xq)
    f = tq(D, N)
    assert_same(f.at_q(1), want_q1)
    assert_same(f.at_t(-1), want_xq)


@cache
def packed_maps(n):
    """The surjections [n] -> [k] for every k, as the maps in range(n)^n
    whose image is range(k)."""
    return [kappa for kappa in product(range(n), repeat=n) if set(kappa) == set(range(len(set(kappa))))]


def surjection_counts(D, proper, e=0, out=None):
    """`_packed_sum`'s tally {(composition, ascents, e + monochromatic arcs):
    count}, from each surjection and `arc_statistics`, added into out."""
    out = {} if out is None else out
    for kappa in packed_maps(D.n):
        asc, _, mono = arc_statistics(D, kappa)
        if proper and mono:
            continue
        alpha = tuple(sum(w for w, c in zip(D.weights, kappa) if c == j) for j in range(len(set(kappa))))
        out[alpha, asc, e + mono] = out.get((alpha, asc, e + mono), 0) + 1
    return out


packed_digraphs = st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=8) if n else st.just([]),
    st.lists(st.integers(1, 3), min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(packed_digraphs, packed_digraphs, st.integers(1, 4))
def test_packed_sum_matches_surjections(case, other, e):
    # loops and repeated arcs, in both modes; a second digraph, shifted by
    # e, adds into the same tally
    D, E = (Digraph(len(weights), arcs, weights) for arcs, weights in (case, other))
    for proper in (False, True):
        tally = {}
        quasi._packed_sum(D.n, D.arcs, D.weights, proper, tally, 0)
        assert tally == surjection_counts(D, proper)
        quasi._packed_sum(E.n, E.arcs, E.weights, proper, tally, e)
        assert tally == surjection_counts(E, proper, e, surjection_counts(D, proper))


@settings(max_examples=80, deadline=None)
@given(weighted_digraphs())
def test_routes_and_specializations_agree(case):
    D, N = case
    f = tq(D, N)
    assert tq_from_connected_partitions(D, N) == f
    assert tq_from_arc_subsets(D, N) == f
    assert f.at_q(1) == truncate_symfunc(tutte_sym(underlying(D)), N)
    assert f.at_t(-1) == xq(D, N)


@settings(max_examples=60, deadline=None)
@given(weighted_digraphs())
def test_reversal_reverses_exponent_vectors(case):
    # colour c -> N + 1 - c swaps ascents and descents
    D, N = case
    R = reverse(D)
    for fn in (xq, tq):
        flipped = TruncatedQFunc(N, {e[::-1]: c for e, c in fn(D, N).vectors().items()})
        assert fn(R, N) == flipped


#### Shareshian-Wachs symmetry #################################################
# Shareshian and Wachs, "Chromatic quasisymmetric functions", Adv. Math. 2016:
# for the incomparability graph of a natural unit interval order, each edge
# {i, j}, i < j, read as the arc i -> j, XQ is symmetric (the coefficient of
# M_alpha depends only on sort(alpha)) and each coefficient is palindromic
# in q of degree |E|.  A general digraph has neither property.


def compositions(w):
    """Every composition of w, from the cut points of [w - 1]."""
    for cuts in product((False, True), repeat=max(w - 1, 0)):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 0
            run += 1
        yield tuple(parts + [run]) if w else ()


def natural_unit_interval_orders(n):
    """The digraphs on [n] with arcs i -> j for i < j <= m_i, m nondecreasing
    and i <= m_i <= n: Catalan(n) of them."""
    def rec(m):
        if len(m) == n:
            yield Digraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, m[i - 1] + 1)])
            return
        i = len(m) + 1
        for mi in range(max(i, m[-1] if m else 1), n + 1):
            yield from rec(m + [mi])
    return list(rec([]))


def is_symmetric(D):
    coeffs = xq(D, D.total_weight()).terms
    zero = QTPoly.zero()
    return all(
        coeffs.get(alpha, zero) == coeffs.get(tuple(sorted(alpha, reverse=True)), zero)
        for alpha in compositions(D.total_weight())
    )


def is_palindromic(D):
    E = len(D.arcs)
    coeffs = xq(D, D.total_weight()).terms
    return all(c.terms == {(E - a, b): x for (a, b), x in c.terms.items()} for c in coeffs.values())


def test_natural_unit_interval_orders_are_counted_by_catalan():
    assert [len(natural_unit_interval_orders(n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]


@pytest.mark.parametrize("n", range(6))
def test_unit_interval_orders_give_symmetric_palindromic_xq(n):
    for D in natural_unit_interval_orders(n):
        assert is_symmetric(D), D
        assert is_palindromic(D), D


@pytest.mark.parametrize("D", [
    Digraph(3, [(1, 3), (2, 3)]),  # not the incomparability graph of a unit interval order
    Digraph(3, [(1, 2), (2, 3)], weights=[2, 1, 1]),  # one, but weighted
], ids=repr)
def test_shareshian_wachs_negative_controls(D):
    assert not is_symmetric(D)
    assert not is_palindromic(D)


@settings(max_examples=60, deadline=None)
@given(weighted_digraphs())
def test_xq_at_q_one_is_the_chromatic_symmetric_function(case):
    # any weights and orientation: at q = 1 the M_alpha coefficient depends
    # only on sort(alpha) and is the m-coefficient of X of the underlying graph
    D, _ = case
    w = D.total_weight()
    coeffs = xq(D, w).at_q(1).terms
    X = mtilde_to_m(chromatic_sym(underlying(D)))
    for alpha in compositions(w):
        want = QTPoly.of(X.coefficient(sorted(alpha, reverse=True)))
        assert coeffs.get(alpha, QTPoly.zero()) == want
