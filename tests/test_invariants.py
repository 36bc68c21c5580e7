"""Chromatic and Tutte symmetric functions: pins, recurrences, route agreement."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttekit import invariants
from tuttekit.combinatorics import DomainError, TPoly
from tuttekit.graphs import (
    Multigraph,
    broom,
    complete,
    contract_edge_set,
    cycle,
    delete_edges,
    edgeless,
    path,
)
from tuttekit.invariants import (
    chromatic_sym,
    chromatic_sym_delcon,
    sigma_l_formula,
    sigma_l_direct,
    tutte_from_connected_partitions,
    tutte_from_contractions,
    tutte_sym,
    tutte_sym_delcon,
)
from tuttekit.lincomb import LRUCache
from tuttekit.symfun import SymFunc, m_to_e, mtilde_to_m, specialize_t

T = TPoly.t()
ONE = TPoly.one()


def test_tutte_sym_single_edge():
    f = tutte_sym(complete(2))
    assert f.basis == "mtilde"
    assert f.terms == {(1, 1): ONE, (2,): ONE + T}


def test_tutte_sym_weighted_edge():
    f = tutte_sym(Multigraph(2, [(1, 2)], weights=[1, 2]))
    assert f.terms == {(2, 1): ONE, (3,): ONE + T}


def test_tutte_sym_loop():
    f = tutte_sym(Multigraph(1, [(1, 1)]))
    assert f.terms == {(1,): ONE + T}
    assert chromatic_sym(Multigraph(1, [(1, 1)])).is_zero()


def test_tutte_sym_empty_graph():
    assert tutte_sym(edgeless(0)).terms == {(): ONE}
    assert chromatic_sym(edgeless(0)).terms == {(): ONE}


def test_chromatic_pins():
    assert chromatic_sym(complete(2)).terms == {(1, 1): ONE}
    assert chromatic_sym(path(3)).terms == {(1, 1, 1): ONE, (2, 1): ONE}
    assert chromatic_sym(complete(3)).terms == {(1, 1, 1): ONE}
    assert chromatic_sym(edgeless(1, [2])).terms == {(2,): ONE}
    # in the elementary basis the triangle is 6 e_3
    e = m_to_e(mtilde_to_m(chromatic_sym(complete(3))))
    assert e.terms == {(3,): TPoly.of(6)}


def test_deletion_contraction_recurrence():
    cases = [
        (complete(3), (1, 2)),
        (cycle(4), (1, 4)),
        (Multigraph(2, [(1, 2), (1, 2)]), (1, 2)),
        (Multigraph(3, [(1, 2), (2, 3), (3, 3)], weights=[2, 1, 1]), (2, 3)),
    ]
    for G, e in cases:
        left = tutte_sym(G)
        right = tutte_sym(delete_edges(G, [e])) + tutte_sym(contract_edge_set(G, [e])).scale(T)
        assert left == right, (G, e)
        if not G.has_loop():
            xl = chromatic_sym(G)
            xr = chromatic_sym(delete_edges(G, [e])) - chromatic_sym(contract_edge_set(G, [e]))
            assert xl == xr, (G, e)


MINI_CORPUS = [
    edgeless(1),
    complete(2),
    path(3),
    complete(3),
    cycle(4),
    broom(0, 4),
    Multigraph(2, [(1, 2), (1, 2)]),
    Multigraph(2, [(1, 1), (1, 2)]),
    Multigraph(3, [(1, 2), (1, 2), (2, 3), (3, 3)]),
    Multigraph(3, [(1, 2), (2, 3)], weights=[1, 2, 1]),
    Multigraph(3, [(1, 2), (1, 3), (2, 3)], weights=[2, 1, 1]),
]


@pytest.mark.parametrize("G", MINI_CORPUS, ids=repr)
def test_four_routes_agree(G):
    f = tutte_sym(G)
    assert tutte_sym_delcon(G) == f
    assert tutte_from_contractions(G) == f
    assert tutte_from_connected_partitions(G) == f


@pytest.mark.parametrize("G", MINI_CORPUS, ids=repr)
def test_t_minus_one_recovers_chromatic(G):
    assert specialize_t(tutte_sym(G), -1) == chromatic_sym(G)
    assert chromatic_sym_delcon(G) == chromatic_sym(G)


@st.composite
def weighted_multigraphs(draw, max_n=6, max_edges=8):
    """Multigraphs on at most max_n vertices with loops, parallel edges and weights <= 3."""
    n = draw(st.integers(0, max_n))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    if n == 0:
        return Multigraph(0)
    vertex = st.integers(1, n)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    return Multigraph(n, edges, weights)


@settings(max_examples=150, deadline=None)
@given(weighted_multigraphs())
def test_routes_agree_on_random_multigraphs(G):
    f = tutte_sym(G)
    assert tutte_sym_delcon(G) == f
    assert tutte_from_contractions(G) == f
    assert tutte_from_connected_partitions(G) == f
    x = chromatic_sym(G)
    assert chromatic_sym_delcon(G) == x
    assert specialize_t(f, -1) == x


@st.composite
def parallel_classes(draw, max_n=5):
    """Multigraphs whose distinct pairs carry up to 6 copies each, with up to
    3 loops per vertex and weights <= 3."""
    n = draw(st.integers(1, max_n))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)) if pairs else []
    edges = [e for e in chosen for _ in range(draw(st.integers(1, 6)))]
    edges += [(v, v) for v in range(1, n + 1) for _ in range(draw(st.integers(0, 3)))]
    return Multigraph(n, edges, weights)


@settings(max_examples=100, deadline=None)
@given(parallel_classes())
def test_delcon_routes_agree_on_parallel_classes_and_loops(G):
    assert tutte_sym_delcon(G) == tutte_sym(G)
    assert chromatic_sym_delcon(G) == chromatic_sym(G)


parallel_class_graphs = pytest.mark.parametrize("G", [
    Multigraph(2, [(1, 2)] * 3000),
    Multigraph(3, [(1, 2), (1, 3), (2, 3)] * 400),
], ids=["2 vertices, 3000 parallel edges", "triangle, 400 copies of each edge"])


@parallel_class_graphs
def test_delcon_takes_a_parallel_class_in_one_step(G):
    # one recursion level per copy would pass Python's recursion limit here
    assert tutte_sym_delcon(G) == tutte_sym(G)
    assert chromatic_sym_delcon(G) == chromatic_sym(G)


@parallel_class_graphs
def test_delcon_memo_does_not_grow_with_edge_multiplicity(G, monkeypatch):
    # an entry counts set partitions by shape and power of (1+t), so its
    # size depends on n; the binomial rows of (1+t)^3000 are not stored
    monkeypatch.setattr(invariants, "_delcon_memo", LRUCache(invariants.DELCON_MEMO_CAP))
    tracemalloc.start()
    try:
        tutte_sym_delcon(G)
        filled = tracemalloc.get_traced_memory()[0]
        invariants._delcon_memo.clear()
        freed = filled - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed < 16_000


def test_sigma_formula_pins():
    K2 = complete(2)
    assert sigma_l_formula(K2, 0, 1) == Fraction(2)
    assert sigma_l_formula(K2, 1, 1) == Fraction(-2)
    assert sigma_l_formula(K2, 1, 2) == Fraction(1)
    assert sigma_l_formula(edgeless(2), 0, 2) == Fraction(1)
    assert sigma_l_formula(edgeless(2), 0, 1) == Fraction(0)


def test_sigma_formula_matches_direct():
    cases = [
        complete(3),
        path(3),
        Multigraph(2, [(1, 2)], weights=[1, 2]),
        Multigraph(2, [(1, 2), (1, 2)]),
        Multigraph(2, [(1, 1), (1, 2)], weights=[2, 1]),
    ]
    for G in cases:
        w = G.total_weight()
        for k in range(len(G.edges) + 2):
            for l in range(1, w + 1):
                assert sigma_l_formula(G, k, l) == sigma_l_direct(G, k, l), (G, k, l)


def test_sigma_validation():
    with pytest.raises(DomainError):
        sigma_l_formula(complete(2), -1, 1)


def test_enumeration_bound():
    with pytest.raises(DomainError):
        chromatic_sym(edgeless(11))
    with pytest.raises(DomainError):
        tutte_from_contractions(Multigraph(2, [(1, 2)] * 17))


def test_bound_override_precedence(monkeypatch):
    monkeypatch.setenv("TUTTEKIT_MAX_N", "2")
    with pytest.raises(DomainError):
        tutte_sym(path(3))


def test_coefficients_live_in_onep_t_powers():
    # every mtilde coefficient of XB is a nonnegative integer combination of
    # (1+t)^k, one power per partition with fixed internal edge count
    f = tutte_sym(complete(3))
    for lam, c in f.terms.items():
        for a in c.onep_t_powers():
            assert a == int(a) and a >= 0
