"""Graph combinations, friendliness, witnesses, reduction, named relations."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tuttekit import invariants, kernel, selfcheck
from tuttekit.combinatorics import DomainError, TPoly, enumerate_set_partitions, onep_t_power, partitions_of
from tuttekit.graphs import (
    MAX_VERTICES,
    Multigraph,
    _canonical_labelling,
    canonical_form,
    canonical_star_forest,
    complete,
    cycle,
    delete_edges,
    edgeless,
    internal_edge_count,
    is_bright_star_forest,
    broom,
    path,
    relabel,
    right_endpoint_key,
    simple_graph,
    star_forest_canonical_map,
)
from tuttekit.invariants import (
    chromatic_sym,
    chromatic_sym_delcon,
    sigma_l_direct,
    sigma_l_formula,
    tutte_from_connected_partitions,
    tutte_from_contractions,
    tutte_sym,
    tutte_sym_delcon,
)
from tuttekit.kernel import (
    GraphCombination,
    ReductionCertificate,
    ReductionStep,
    _apply_step,
    _packed,
    broom_relation,
    b_value,
    classify_n4,
    combination_tutte_sym,
    cycle_relation,
    ell_iso,
    ell_loop,
    ell_multi,
    ell_os,
    ell_os_plus,
    ell_tri,
    extend,
    is_tutte_friendly,
    is_x_friendly,
    kernel_membership,
    nontrivial_friendly_pair,
    reduce_to_star_forests,
    replay_certificate,
    s_pair,
    two_edge_connected_relation,
    witness_graph,
    witness_mtilde_coefficient,
)
from tuttekit.lincomb import LRUCache
from tuttekit.symfun import SymFunc, coefficient_in_onep_t, m_to_e, mtilde_to_m, sigma_l

from reference import (
    c_value,
    delcon_sum,
    reduction_products,
    standard_form,
    star_forest_basis_matrix,
    star_forest_basis_rank,
    witness_M,
)
from reference import combination_tutte_sym as termwise_xb

T = TPoly.t()
ONE = TPoly.one()


def combo(n, *pairs):
    return GraphCombination(n, [(g, c) for g, c in pairs])


#### combinations ##############################################################


def test_combination_merges_and_validates():
    K2 = complete(2)
    L = combo(2, (K2, 1), (K2, T), (edgeless(2), 0))
    assert L.terms == {K2: ONE + T}
    assert (L - L).is_zero()
    assert L.scale(2).terms == {K2: TPoly.of(2) + T * 2}
    with pytest.raises(DomainError):
        combo(2, (edgeless(3), 1))
    with pytest.raises(DomainError):
        combo(1, (edgeless(1, [2]), 1))
    with pytest.raises(DomainError):
        combo(2, (K2, 1)) + combo(3, (edgeless(3), 1))


def test_combination_json_roundtrip():
    L = combo(3, (path(3), T), (edgeless(3), Fraction(-1, 2)))
    obj = L.to_json_obj()
    assert obj["n"] == 3
    assert GraphCombination.from_json_obj(obj) == L


def test_standard_form_roundtrip():
    K2 = complete(2)
    L = combo(2, (K2, T))
    sf = standard_form(L)
    assert sf.terms == ((Fraction(-1), 0, K2), (Fraction(1), 1, K2))
    assert sf.to_combination() == L
    assert sf.shape_triples() == [((2,), 0, Fraction(-1)), ((2,), 1, Fraction(1))]


#### friendliness ##############################################################


def test_b_value_pins():
    L = ell_multi()
    # merged partition: (1+t)^2 - (t+2)(1+t) + (t+1) = 0
    assert b_value(L, [[1, 2]]).is_zero()
    assert b_value(L, [[1], [2]]).is_zero()
    single = combo(2, (complete(2), 1))
    assert b_value(single, [[1, 2]]) == ONE + T
    assert c_value(single, [[1], [2]]) == Fraction(1)
    assert c_value(single, [[1, 2]]) == Fraction(0)


@pytest.mark.parametrize("gen", [ell_loop, ell_multi, ell_tri, ell_os_plus])
def test_generators_tutte_friendly(gen):
    ok, pi, a = is_tutte_friendly(gen())
    assert ok and pi is None and a is None


def test_ell_os_x_friendly_only():
    ok, pi = is_x_friendly(ell_os())
    assert ok and pi is None
    assert not is_tutte_friendly(ell_os())[0]


def test_x_friendly_requires_t_free_coefficients():
    with pytest.raises(DomainError):
        is_x_friendly(ell_loop())


def test_single_edge_not_friendly():
    L = combo(2, (complete(2), 1))
    assert is_tutte_friendly(L) == (False, ((1, 2),), 1)
    assert is_x_friendly(L) == (False, ((1,), (2,)))


def test_iso_generator_in_kernel_but_not_pointwise_friendly():
    L = ell_iso(path(3), (2, 1, 3))
    assert not is_tutte_friendly(L)[0]
    assert kernel_membership(L)


#### extension and witness #####################################################


def test_extend_overlays_edge_multisets():
    K2 = complete(2)
    L = extend(combo(2, (K2, 1)), K2)
    assert list(L.terms) == [Multigraph(2, [(1, 2), (1, 2)])]
    with pytest.raises(DomainError):
        extend(combo(3, (edgeless(3), 1)), K2)
    with pytest.raises(DomainError):
        extend(combo(2, (K2, 1)), Multigraph(2, [], weights=[2, 1]))


def test_extension_of_friendly_stays_friendly():
    ext = extend(ell_os_plus(), broom(0, 5))
    assert is_tutte_friendly(ext)[0]
    assert kernel_membership(ext)


def test_witness_single_block_example():
    # L = single edge minus edgeless: B at the merged partition is t
    L = combo(2, (complete(2), 1), (edgeless(2), -1))
    W = witness_graph(L, [[1, 2]], a=0)
    assert W == edgeless(4)
    co = witness_mtilde_coefficient(L, [[1, 2]])
    assert co == T
    assert combination_tutte_sym(extend(L, W)).coefficient((4,)) == co


def test_witness_two_block_cross_check():
    L = combo(2, (complete(2), 1))
    W = witness_graph(L, [[1], [2]])
    assert W.n == 6 and len(W.edges) == 8
    co = witness_mtilde_coefficient(L, [[1], [2]])
    assert not co.is_zero()
    assert combination_tutte_sym(extend(L, W)).coefficient((3, 3)) == co


def test_witness_coefficient_keeps_int_coefficients():
    # r((3, 3))! = 2 divides every count here, so the coefficients stay ints,
    # as they do on the direct route; a Fraction coefficient gives Fractions
    for c, kind in [(1, int), (Fraction(1, 2), Fraction)]:
        L = combo(2, (complete(2), TPoly([c])))
        W = witness_graph(L, [[1], [2]])
        co = witness_mtilde_coefficient(L, [[1], [2]])
        direct = combination_tutte_sym(extend(L, W)).coefficient((3, 3))
        assert co == direct == TPoly([10, 36, 54, 36, 9]) * c
        assert [type(x) for x in co.coeffs] == [type(x) for x in direct.coeffs] == [kind] * 5


def test_witness_validation(monkeypatch):
    with pytest.raises(DomainError):
        witness_graph(ell_tri(), [[1, 2, 3]])
    L = combo(2, (complete(2), 1), (edgeless(2), -1))
    with pytest.raises(DomainError):
        witness_graph(L, [[1, 2]], a=5)
    # each refusal keeps its text and its place in the order of checks
    with pytest.raises(DomainError, match="^repeated element inside block"):
        witness_graph(L, [[1, 1], [2]], a="x")
    with pytest.raises(DomainError, match="^repeated element inside block"):
        witness_mtilde_coefficient(L, [[1, 1], [2]])
    with pytest.raises(DomainError, match=r"^\(1\+t\)-power index must be an integer"):
        witness_graph(L, [[1], [2]], a=True)
    with pytest.raises(DomainError, match="^combination is friendly at this partition"):
        witness_graph(L, [[1], [2]], a=-1)
    for a in (-1, 2, 5):
        with pytest.raises(DomainError, match=rf"^\(1\+t\)\^{a} has zero coefficient in B\(L; pi\)$"):
            witness_graph(L, [[1, 2]], a=a)
    # the empty combination has B zero at every pi and no witness
    with pytest.raises(DomainError, match="^combination is friendly at this partition"):
        witness_graph(combo(2), [[1], [2]])
    assert witness_mtilde_coefficient(combo(2), [[1], [2]]).is_zero()
    monkeypatch.setattr(kernel, "WITNESS_BUDGET", 10)
    with pytest.raises(DomainError):
        witness_mtilde_coefficient(combo(2, (complete(2), 1)), [[1], [2]])


def test_witness_budget_counts_the_loop_it_bounds(monkeypatch):
    # about 1.3 million loop iterations: within the default budget, though
    # l^n0 * C(M+l-1, l-1)^l = 13,476,375 is not
    L = combo(4, (Multigraph(4, [(1, 4)]), ONE + T))
    pi = [[1, 4], [2], [3]]
    within_default = witness_mtilde_coefficient(L, pi)
    monkeypatch.setattr(kernel, "WITNESS_BUDGET", 10**9)
    assert within_default == witness_mtilde_coefficient(L, pi)


def test_witness_budget_refuses_a_count_too_long_to_print():
    # 2000^2000 assignments has 6,602 digits, past Python's limit of 4,300
    # digits for converting an int to text
    L = combo(2000, (edgeless(2000), 1))
    with pytest.raises(DomainError, match=r"too large \(2000\^2000 assignments\)"):
        witness_mtilde_coefficient(L, [[v] for v in range(1, 2001)])


def _witness_corpus():
    """Every combination of one or two distinct graphs on [2] or [3] with at
    most two edges, loops and doubled edges included, and coefficients
    1, -1, 2 and 1+t."""
    coeffs = [ONE, -ONE, 2 * ONE, ONE + T]
    for n in (2, 3):
        slots = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)]
        gs = [Multigraph(n, es) for k in range(3) for es in combinations_with_replacement(slots, k)]
        for g in gs:
            for c in coeffs:
                yield GraphCombination(n, [(g, c)])
        for g, h in combinations(gs, 2):
            for c, d in product(coeffs, repeat=2):
                yield GraphCombination(n, [(g, c), (h, d)])


def test_witness_coefficient_matches_xb_of_the_extension():
    """At every partition where B(L; pi) is nonzero and the witness has at
    most 8 vertices, the counted coefficient equals the m~_lambda* coefficient
    of the extension's XB, evaluated term by term."""
    xb = {}
    checked = 0
    for L in _witness_corpus():
        for pi in enumerate_set_partitions(L.n):
            if b_value(L, pi).is_zero():
                continue
            W = witness_graph(L, pi)
            if W.n > 8:
                continue
            M = (W.n - L.n) // len(pi)
            lam_star = tuple(sorted((len(b) + M for b in pi), reverse=True))
            want = TPoly.zero()
            for g, c in extend(L, W).terms.items():
                if (g, lam_star) not in xb:
                    xb[g, lam_star] = tutte_sym(g).coefficient(lam_star)
                want = want + c * xb[g, lam_star]
            assert witness_mtilde_coefficient(L, pi) == want, (L, pi)
            checked += 1
    assert checked == 6680


def test_witness_terms_match_b_value_and_the_standard_form_route():
    """At every pi of the witness corpus, the one pass of `_witness_terms`
    gives B(L; pi) as `b_value` expanded in (1+t)-powers, each term's
    internal edges as `internal_edge_count`, and the cloud size M that the
    standard form's rows give."""
    checked = 0
    for L in _witness_corpus():
        for pi in enumerate_set_partitions(L.n):
            blocks, terms, M, b = kernel._witness_terms(L, pi)
            assert blocks == pi
            want = list(b_value(L, pi).onep_t_powers())
            while want and want[-1] == 0:
                want.pop()
            assert [b.get(k, 0) for k in range(max(b, default=-1) + 1)] == want, (L, pi)
            assert 0 not in b.values()
            assert M == witness_M(L, pi), (L, pi)
            assert [h for h, _, _ in terms] == sorted(g.edges for g in L.terms)
            assert [e for _, _, e in terms] == [internal_edge_count(Multigraph(L.n, h), pi) for h, _, _ in terms]
            checked += 1
    assert checked == 32320


def test_combination_vertex_count_is_checked():
    for n in (-1, MAX_VERTICES + 1, 2**70):
        with pytest.raises(DomainError, match="vertex count"):
            GraphCombination(n)
    assert GraphCombination(MAX_VERTICES).is_zero()


def test_witness_graph_refuses_a_huge_host():
    # B(L; 1|2) = t^2000 makes M = 4,002: 16,024,008 edges
    L = combo(2, (complete(2), TPoly([0] * 2000 + [1])))
    with pytest.raises(DomainError, match="witness too large"):
        witness_graph(L, [[1], [2]])
    assert witness_graph(L, [[1, 2]]) == edgeless(2004)


#### reduction #################################################################


def test_reduce_path():
    sf, cert = reduce_to_star_forests(combo(3, (path(3), 1)))
    assert sf.shape_triples() == [((3,), 0, Fraction(1))]
    assert len(cert.steps) == 2
    assert [s.gen for s in cert.steps] == ["os_plus", "iso"]


def test_reduce_triangle():
    L = combo(3, (complete(3), 1))
    sf, cert = reduce_to_star_forests(L)
    assert sf.shape_triples() == [
        ((1, 1, 1), 1, Fraction(1)),
        ((2, 1), 0, Fraction(-1)),
        ((2, 1), 1, Fraction(-2)),
        ((3,), 0, Fraction(2)),
        ((3,), 1, Fraction(1)),
    ]
    # XB is preserved by the rewrite
    assert combination_tutte_sym(sf.to_combination()) == combination_tutte_sym(L)
    # replaying the certificate reproduces the result combination
    assert replay_certificate(L, cert) == sf.to_combination()


def test_reduce_os_plus_is_single_step():
    sf, cert = reduce_to_star_forests(ell_os_plus())
    assert sf.is_zero()
    assert len(cert.steps) == 1 and cert.steps[0].gen == "os_plus"


def test_reduce_eliminates_loops_and_multis():
    g = Multigraph(2, [(1, 1), (1, 2), (1, 2)])
    L = combo(2, (g, 1))
    sf, cert = reduce_to_star_forests(L)
    assert combination_tutte_sym(sf.to_combination()) == combination_tutte_sym(L)
    assert [s.gen for s in cert.steps][:2] == ["loop", "multi"]
    for lam, k, c in sf.shape_triples():
        assert lam in {(1, 1), (2,)}


def test_reduce_bound():
    with pytest.raises(DomainError):
        reduce_to_star_forests(combo(8, (edgeless(8), 1)))


def test_certificate_json_shape():
    _, cert = reduce_to_star_forests(combo(3, (complete(3), 1)))
    obj = cert.to_json_obj()
    assert set(obj) == {"steps", "result"}
    assert all("gen" in s and "graph" in s for s in obj["steps"])
    assert all(set(r) == {"lambda", "k", "c"} for r in obj["result"])


def test_kernel_membership():
    assert kernel_membership(ell_tri())
    assert kernel_membership(extend(ell_tri(), Multigraph(4, [(3, 4)])))
    assert not kernel_membership(combo(2, (complete(2), 1)))


#### XB of a combination ######################################################


def _ints(polys):
    return all(type(x) is int for p in polys for x in p.terms.values())


@st.composite
def xb_combinations(draw):
    """Combinations on [n], n <= 6, with loops and parallel edges; each
    coefficient an int, a Fraction, (1+t)^k c or a t-polynomial."""
    n = draw(st.integers(0, 6))
    vertex = st.integers(1, max(n, 1))
    edges = st.lists(st.tuples(vertex, vertex), max_size=6) if n else st.just([])
    scalar = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))
    coeff = st.one_of(
        scalar,
        st.builds(lambda k, c: (ONE + T) ** k * c, st.integers(0, 3), scalar),
        st.lists(scalar, max_size=4).map(TPoly),
    )
    terms = draw(st.lists(st.tuples(edges, coeff), max_size=5))
    return GraphCombination(n, [(Multigraph(n, es), c) for es, c in terms])


@settings(max_examples=150, deadline=None)
@given(xb_combinations())
def test_combination_xb_matches_the_termwise_sum(L):
    got = combination_tutte_sym(L)
    assert got == termwise_xb(L)
    if _ints(L.terms.values()):
        assert _ints(got.terms.values())


def _host_8():
    # the 8-cycle with chords 1-5 and 2-6, holding the 5-cycle 1-2-3-4-5
    return Multigraph(8, [(i, i + 1) for i in range(1, 8)] + [(1, 8), (1, 5), (2, 6)])


XB_PINS = {
    "C6-relation": lambda: two_edge_connected_relation(cycle(6), 1, 2),
    "cycle-relation-on-8": lambda: cycle_relation(_host_8(), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 1, 2),
    **{f"broom-{n}-{k}": (lambda n=n, k=k: broom_relation(n, k)) for n in range(4) for k in (2, 3)},
    "os-plus-on-a-path": lambda: extend(ell_os_plus(), path(5)),
    "one-term": lambda: combo(5, (relabel(complete(5), (3, 5, 1, 4, 2)), T + 2)),
    "one-term-of-t-degree-40": lambda: combo(3, (path(3), TPoly(range(-20, 21)))),
    **{f"empty-on-{n}": (lambda n=n: GraphCombination(n)) for n in (0, 4, 11)},
}


@pytest.mark.parametrize("name", XB_PINS)
def test_combination_xb_pins(name):
    L = XB_PINS[name]()
    got = combination_tutte_sym(L)
    assert got == termwise_xb(L)
    assert got.is_zero() == (not name.startswith("one-term"))
    assert _ints(got.terms.values())


def test_combination_xb_refuses_past_the_enumeration_cap():
    L = combo(11, (path(11), 1))
    with pytest.raises(DomainError) as got:
        combination_tutte_sym(L)
    with pytest.raises(DomainError) as want:
        termwise_xb(L)
    assert str(got.value) == str(want.value) == (
        "partition enumeration limited to 10 vertices, got 11; raise the cap with TUTTEKIT_MAX_N"
    )


def _planted_walk(fault):
    def walk(n, **kwargs):
        items = list(enumerate_set_partitions(n, **kwargs))
        if fault == "one_partition_dropped":
            # the first partition at which the terms' internal edge counts differ
            del items[next(i for i, (_, counts) in enumerate(items) if len(set(counts)) > 1)]
        else:  # one_count_off: one edge of the first term left out of the single block
            sizes, counts = items[0]
            items[0] = sizes, (counts[0] - 1, *counts[1:])
        return iter(items)
    return walk


@pytest.mark.parametrize("fault, L", [
    # B vanishes at every partition of a friendly combination, so a dropped
    # partition shows only on a member that is not friendly
    ("one_partition_dropped", ell_iso(path(3), (2, 1, 3))),
    ("one_count_off", extend(ell_os_plus(), Multigraph(5, [(1, 4), (3, 5), (4, 5)]))),
])
def test_membership_catches_a_planted_fault_in_the_direct_walk(fault, L, monkeypatch):
    assert kernel_membership(L)
    monkeypatch.setattr(kernel, "enumerate_set_partitions", _planted_walk(fault))
    with pytest.raises(RuntimeError, match="^internal fault: deletion-contraction verdict True disagrees"):
        kernel_membership(L)


def _smallest_multi_pair(g):
    seen = set()
    for e in g.edges:
        if e[0] != e[1]:
            if e in seen:
                return e
            seen.add(e)
    return None


def _reference_reduce(L):
    """The selector the worklist replaced: every step re-sorts and re-classifies all terms.

    Terms are classified as Multigraphs; the rewrites go through the
    reducer's own `_apply_step` on packed terms.
    """
    terms = _packed(L)
    steps = []

    def graphs():
        return sorted((Multigraph(L.n, e) for e in terms), key=Multigraph.key)

    while True:
        step = None
        for g in graphs():
            if g.has_loop():
                v = min(u for u, w in g.edges if u == w)
                step = ReductionStep("loop", g, vertex=v)
                break
        if step is None:
            # multi-edges go earliest in the termination order first
            for g in sorted(graphs(), key=lambda g: right_endpoint_key(g.edges)):
                pair = _smallest_multi_pair(g)
                if pair is not None:
                    step = ReductionStep("multi", g, pair=pair)
                    break
        if step is None:
            for g in graphs():
                ok, triple = is_bright_star_forest(g)
                if ok:
                    continue
                a, b, c = triple
                present = set(g.edges)
                inside = {e for e in ((a, b), (a, c), (b, c)) if e in present}
                if inside == {(a, b), (b, c)}:
                    case, perm = 2, (1, 2, 3)
                elif inside == {(a, b), (a, c)}:
                    case, perm = 1, (2, 1, 3)
                else:
                    case, perm = 3, (2, 1, 3)
                step = ReductionStep("os_plus", g, triple=triple, case=case, perm=perm)
                break
        if step is None:
            break
        _apply_step(terms, step)
        steps.append(step)
    for g in graphs():
        lam, perm = star_forest_canonical_map(g)
        if perm != tuple(range(1, g.n + 1)):
            step = ReductionStep("iso", g, perm=perm)
            _apply_step(terms, step)
            steps.append(step)
    left = GraphCombination(L.n, [(Multigraph(L.n, h), TPoly.from_onep_t_powers(c)) for h, c in terms.items()])
    return ReductionCertificate(tuple(steps), standard_form(left))


@st.composite
def reducible_combinations(draw):
    """1-3 terms on [n], n <= 5, loops and repeated edges allowed, TPoly
    coefficients with int and Fraction entries."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(1, n)
    edges = st.lists(st.tuples(vertex, vertex), max_size=6)
    entry = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    coeff = st.lists(entry, min_size=1, max_size=3)
    terms = draw(st.lists(st.tuples(edges, coeff), min_size=1, max_size=3))
    L = GraphCombination(n, [(Multigraph(n, es), TPoly(c)) for es, c in terms])
    if draw(st.booleans()):
        # minus a relabelled copy: a kernel member, unless the two cancel
        perm = draw(st.permutations(range(1, n + 1)))
        L = L - GraphCombination(n, [(relabel(g, perm), c) for g, c in L.terms.items()])
    if draw(st.booleans()):
        # two matchings of one size with opposite coefficients: bright star
        # forests of one shape, which cancel once relabelled onto R_lambda
        k = draw(st.integers(0, n // 2))
        c = TPoly(draw(coeff))
        for sign in (1, -1):
            p = draw(st.permutations(range(1, n + 1)))
            M = Multigraph(n, [(p[2 * i], p[2 * i + 1]) for i in range(k)])
            L = L + GraphCombination(n, [(M, c.scale(sign))])
    return L


@settings(max_examples=150, deadline=None)
@given(reducible_combinations())
def test_reduction_matches_reference_selector(L):
    result, cert = reduce_to_star_forests(L)
    want = _reference_reduce(L)
    got_steps, want_steps = cert.to_json_obj()["steps"], want.to_json_obj()["steps"]
    for i, (got, expected) in enumerate(zip(got_steps, want_steps)):
        assert got == expected, f"step {i}"
    assert cert.to_json_obj() == want.to_json_obj()
    assert result.terms == want.result.terms
    assert replay_certificate(L, cert) == result.to_combination()
    xb = combination_tutte_sym(L)
    assert combination_tutte_sym(result.to_combination()) == xb
    assert kernel_membership(L) == xb.is_zero()


def test_reduce_cancels_in_the_iso_phase():
    # both edges are bright star forests of shape (2, 1); only their
    # relabellings onto R_(2,1) = {12} meet, and cancel
    L = combo(3, (Multigraph(3, [(1, 3)]), Fraction(1, 2)), (Multigraph(3, [(2, 3)]), Fraction(-1, 2)))
    sf, cert = reduce_to_star_forests(L)
    assert sf.is_zero()
    assert [(s.gen, s.perm) for s in cert.steps] == [("iso", (1, 3, 2)), ("iso", (3, 1, 2))]
    assert replay_certificate(L, cert).is_zero()


def test_reduce_drops_a_term_that_cancels_mid_rewrite():
    # the multi rewrite's -(1+t) * {13} cancels the (1+t) * {13} term, whose
    # coefficient has two (1+t)-powers; no iso step may then relabel {13}
    L = combo(3, (Multigraph(3, [(1, 2), (1, 2), (1, 3)]), 1), (Multigraph(3, [(1, 3)]), ONE + T))
    sf, cert = reduce_to_star_forests(L)
    assert [(s.gen, s.graph.edges) for s in cert.steps] == [
        ("multi", ((1, 2), (1, 2), (1, 3))),
        ("os_plus", ((1, 2), (1, 3))),
        ("iso", ((2, 3),)),
    ]
    assert sf.shape_triples() == [((3,), 0, 1), ((3,), 1, 1)]
    assert replay_certificate(L, cert) == sf.to_combination()


def test_parallel_edges_take_one_step_per_copy():
    # every term is rewritten once, so 40 copies take 39 steps; popping the
    # fewest copies first took Fibonacci-many (1,596 for 16 copies)
    L = combo(2, (Multigraph(2, [(1, 2)] * 40), 1))
    sf, cert = reduce_to_star_forests(L)
    assert [s.gen for s in cert.steps] == ["multi"] * 39
    assert replay_certificate(L, cert) == sf.to_combination()
    assert combination_tutte_sym(sf.to_combination()) == combination_tutte_sym(L)


def test_rewrite_table_stores_no_term_past_c_n_2_edges():
    kernel._rewrites.clear()
    reduce_to_star_forests(combo(2, (Multigraph(2, [(1, 2)] * 200), 1)))
    # the two entries are the graphs on [2] with at most C(2, 2) = 1 edge
    # that the reduction meets: looking both up returns the stored entries
    # and the length stays 2
    stored = dict(kernel._rewrites)
    assert sorted(stored) == [(2, ()), (2, ((1, 2),))]
    for n, edges in stored:
        assert kernel._rewrite(n, edges) is stored[n, edges]
    assert len(kernel._rewrites) == 2
    kernel._rewrites.clear()


def test_a_refused_rewrite_is_not_stored(monkeypatch):
    L = combo(3, (Multigraph(3, [(1, 3)]), 1))
    kernel._rewrites.clear()
    monkeypatch.setattr(kernel, "_star_forest_map", lambda n, edges: ((2, 1), (3, 2, 1)))
    with pytest.raises(RuntimeError, match=r"onto R\[2, 1\]"):
        reduce_to_star_forests(L)
    assert not kernel._rewrites
    monkeypatch.undo()
    assert reduce_to_star_forests(L)[0].shape_triples() == [((2, 1), 0, 1)]
    kernel._rewrites.clear()


def test_an_evicted_rewrite_is_rebuilt_equal(monkeypatch):
    L = combo(5, (delete_edges(complete(5), [(1, 2), (2, 3), (3, 4)]), 1))
    kernel._rewrites.clear()
    want = reduce_to_star_forests(L)[1].to_json_obj()
    stored = dict(kernel._rewrites)
    monkeypatch.setattr(kernel, "_rewrites", LRUCache(3))
    assert reduce_to_star_forests(L)[1].to_json_obj() == want
    assert len(kernel._rewrites) == 3 and len(stored) > 3
    for (n, edges), entry in stored.items():
        assert kernel._rewrite(n, edges) == entry


def test_replay_checks_the_rewrite_table(monkeypatch):
    G = complete(3)
    L = combo(3, (G, 1))
    real = kernel._products

    def faulty(step):
        # a sign slip in every multiplier
        return [(h, tuple(-x for x in m)) for h, m in real(step)]

    kernel._rewrites.clear()
    try:
        monkeypatch.setattr(kernel, "_products", faulty)
        reduce_to_star_forests(L)
        monkeypatch.undo()
        # the table still holds the faulty entries; replay recomputes them
        result, cert = reduce_to_star_forests(L)
        assert replay_certificate(L, cert) != result.to_combination()
        assert selfcheck._reduction_fault(G) is not None
    finally:
        kernel._rewrites.clear()
    result, cert = reduce_to_star_forests(L)
    assert replay_certificate(L, cert) == result.to_combination()
    assert selfcheck._reduction_fault(G) is None


def _same_products(step):
    assert sorted(kernel._products(step)) == sorted(reduction_products(step)), step


def test_products_match_the_hand_written_rewrites():
    steps = [
        step
        for mask in range(1 << 10)
        for step in reduce_to_star_forests(combo(5, (simple_graph(5, mask), 1)))[1].steps
    ]
    assert len(steps) == 53_359
    for step in steps:
        if step.gen != "iso":
            _same_products(step)


@settings(max_examples=100, deadline=None)
@given(reducible_combinations())
def test_products_match_the_hand_written_rewrites_on_loops_and_multi_edges(L):
    for g in L.terms:
        for v in {u for u, w in g.edges if u == w}:
            _same_products(ReductionStep("loop", g, vertex=v))
        for e in {e for e in g.edges if e[0] != e[1] and g.edges.count(e) > 1}:
            _same_products(ReductionStep("multi", g, pair=e))


def test_a_multiplier_fault_can_only_live_in_a_generator(monkeypatch):
    # ell_multi with t + 3 in place of t + 2
    faulty = combo(2, (Multigraph(2, [(1, 2), (1, 2)]), 1), (Multigraph(2, [(1, 2)]), -(T + 3)), (Multigraph(2), T + 1))
    assert not is_tutte_friendly(faulty)[0]
    G = complete(3)
    L = combo(3, (G, 1))
    kernel._rewrites.clear()
    try:
        monkeypatch.setitem(kernel._RULES, "multi", kernel._rule(faulty))
        assert selfcheck._reduction_fault(G) == "XB not preserved"
        # replay reads the same definitions, so it agrees with the result
        result, cert = reduce_to_star_forests(L)
        assert replay_certificate(L, cert) == result.to_combination()
    finally:
        monkeypatch.undo()
        kernel._rewrites.clear()
    assert selfcheck._reduction_fault(G) is None


def test_replay_refuses_a_step_its_term_does_not_fit():
    # the case-2 frame needs 12 and 23; the term {12, 13} has no 23
    g = Multigraph(3, [(1, 2), (1, 3)])
    step = ReductionStep("os_plus", g, triple=(1, 2, 3), case=2, perm=(1, 2, 3))
    cert = ReductionCertificate((step,), standard_form(combo(3)))
    with pytest.raises(DomainError, match=r"edge \(2, 3\) not present"):
        replay_certificate(combo(3, (g, 1)), cert)
    # a step whose term is absent changes nothing
    other = combo(3, (Multigraph(3, [(1, 2), (2, 3)]), 1))
    assert replay_certificate(other, cert) == other


def test_certificates_do_not_depend_on_the_rewrite_table():
    K5_P4 = delete_edges(complete(5), [(1, 2), (2, 3), (3, 4)])
    perms = [(2, 1, 3, 4, 5), (5, 4, 3, 2, 1), (3, 5, 1, 4, 2), (2, 3, 4, 5, 1), (4, 1, 5, 2, 3)]
    graphs = [simple_graph(4, mask) for mask in range(64)] + [complete(5), complete(6)]
    graphs += [relabel(K5_P4, p) for p in perms]
    Ls = [combo(g.n, (g, 1)) for g in graphs]
    cold = []
    for L in Ls:
        kernel._rewrites.clear()
        cold.append(reduce_to_star_forests(L)[1].to_json_obj())
    for L in Ls:
        reduce_to_star_forests(L)
    assert [reduce_to_star_forests(L)[1].to_json_obj() for L in Ls] == cold


@pytest.mark.parametrize("step, missing", [
    (ReductionStep("os_plus", complete(3), triple=(1, 2, 3)), "perm"),
    (ReductionStep("os_plus", complete(3), perm=(1, 2, 3)), "triple"),
    (ReductionStep("loop", Multigraph(2, [(1, 1)])), "vertex"),
    (ReductionStep("multi", Multigraph(2, [(1, 2), (1, 2)])), "pair"),
    (ReductionStep("iso", Multigraph(2, [(2, 2)])), "perm"),
], ids=["os_plus-no-perm", "os_plus-no-triple", "loop-no-vertex", "multi-no-pair", "iso-no-perm"])
def test_a_step_without_its_placement_is_refused(step, missing):
    with pytest.raises(DomainError, match=f"^{step.gen} step lacks its {missing}$"):
        _apply_step({step.graph.edges: (1,)}, step)
    cert = ReductionCertificate((step,), standard_form(combo(step.graph.n)))
    with pytest.raises(DomainError, match="lacks its"):
        replay_certificate(combo(step.graph.n, (step.graph, 1)), cert)


#### membership by two evaluations of XB ######################################


@settings(max_examples=150, deadline=None)
@given(reducible_combinations())
def test_membership_matches_the_labelled_reducer_and_the_walk(L):
    assert kernel_membership(L) == reduce_to_star_forests(L)[0].is_zero() == combination_tutte_sym(L).is_zero()


@settings(max_examples=150, deadline=None)
@given(reducible_combinations())
@example(combo(3, (Multigraph(3, [(1, 2)] * 3 + [(1, 1), (2, 2)]), TPoly([Fraction(1, 2), 0, -1])),
               (complete(3), T), (Multigraph(3, [(3, 3)]), Fraction(-2, 3))))
def test_membership_sums_the_delcon_counts_as_the_termwise_route_does(L):
    got = kernel._delcon_sum(L)
    assert all(row and 0 not in row.values() for row in got.values())
    assert SymFunc("mtilde")._like_nested(got) == delcon_sum(L)


def test_a_corrupt_delcon_entry_fails_membership_and_suite_6():
    (suite,) = [s for s in selfcheck.SUITES if s.id == 6]
    L = combo(5, (edgeless(5), 1))
    invariants._delcon_memo.clear()
    try:
        # XB of the edgeless class on [5] now reads zero
        invariants._delcon_memo[_canonical_labelling(5, (), (1,) * 5)[0]] = {}
        with pytest.raises(RuntimeError, match="^internal fault: deletion-contraction verdict True disagrees"):
            kernel_membership(L)
        report = suite.run()
        assert not report["passed"]
        assert any("deletion-contraction verdict" in f for f in report["failures"])
    finally:
        invariants._delcon_memo.clear()
    assert not kernel_membership(L)


@pytest.mark.parametrize("L, member", [
    (combo(2, (Multigraph(2, [(1, 2)] * 4000), 1)), False),
    # XB(uv^m) - XB(uv^(m-1)) = t (1+t)^(m-1) m~_2 = (1+t)^(m-1) (XB(uv) - XB(E2))
    (combo(2, (Multigraph(2, [(1, 2)] * 4000), 1), (Multigraph(2, [(1, 2)] * 3999), -1),
           (complete(2), -onep_t_power(3999)), (edgeless(2), onep_t_power(3999))), True),
    (combo(3, (Multigraph(3, [(1, 2)] * 300 + [(1, 1), (1, 3), (2, 3)]), T), (complete(3), -1)), False),
], ids=["4000-edges", "4000-edges-member", "300-edges-loop-triangle"])
def test_membership_on_parallel_edges_runs_no_rewrite(L, member, monkeypatch):
    def refuse(n, edges):
        raise AssertionError("membership reached the reducer")

    def refuse_shift(p):
        raise AssertionError("membership expanded a coefficient in (1+t)-powers")

    monkeypatch.setattr(kernel, "_rewrite", refuse)
    # a coefficient of degree d takes O(d^2) to shift; (1+t)^3999 would take seconds
    monkeypatch.setattr(TPoly, "onep_t_powers", refuse_shift)
    assert kernel_membership(L) == combination_tutte_sym(L).is_zero() == member


def test_membership_past_the_default_cap_through_the_knob(monkeypatch):
    host = Multigraph(8, [(i, i + 1) for i in range(1, 8)] + [(1, 3)])
    R = cycle_relation(host, [(1, 2), (2, 3), (1, 3)], 1, 2)
    single = combo(8, (host, 1))
    with pytest.raises(DomainError, match="limited to 7 vertices, got 8"):
        kernel_membership(R)
    monkeypatch.setenv("TUTTEKIT_MAX_N", "8")
    assert kernel_membership(R) and combination_tutte_sym(R).is_zero()
    assert not kernel_membership(single) and not combination_tutte_sym(single).is_zero()


@st.composite
def small_combinations(draw):
    """Combinations on [n], n <= 3, of three kinds.

    Friendly generators, relabelled and extended; arbitrary loop-free
    combinations; and balanced pairs G - (1+t)^d H with d = |E(G)| - |E(H)|,
    whose B vanishes at the one-block partition, so a violation, if any,
    comes at a partition with more blocks.  Coefficients involve t only on
    [2] or less, which keeps every witness coefficient cheap to count.
    """
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["generator", "arbitrary", "balanced"]))
    if kind == "generator":
        gen = draw(st.sampled_from([ell_loop, ell_multi, ell_tri, ell_os_plus]))()
        n = max(n, gen.n)
        vertex = st.integers(1, n)
        host = Multigraph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=2)))
        perm = draw(st.permutations(range(1, n + 1)))
        return GraphCombination(n, [(relabel(g, perm), c) for g, c in extend(gen, host).terms.items()])
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    if kind == "balanced":
        G = draw(st.lists(pair, max_size=3))
        H = draw(st.lists(pair, min_size=len(G) if n == 3 else 0, max_size=len(G)))
        c = draw(st.sampled_from([1, -1, 2]))
        d = len(G) - len(H)
        return GraphCombination(n, [(Multigraph(n, G), TPoly.of(c)), (Multigraph(n, H), -c * (ONE + T) ** d)])
    entries = st.lists(st.integers(-2, 2), min_size=1, max_size=2 if n <= 2 else 1)
    terms = draw(st.lists(st.tuples(st.lists(pair, max_size=3), entries), min_size=1, max_size=3))
    return GraphCombination(n, [(Multigraph(n, es), TPoly(c)) for es, c in terms])


@settings(max_examples=80, deadline=None)
@given(small_combinations(), st.data())
def test_friendliness_verdicts_hold(L, data):
    """Friendly: every extension has XB zero.  Not friendly: the witness
    graph's extension has a nonzero m~ coefficient."""
    ok, pi, a = is_tutte_friendly(L)
    if ok:
        m = L.n + data.draw(st.integers(0, 2))
        vertex = st.integers(1, m)
        host = Multigraph(m, data.draw(st.lists(st.tuples(vertex, vertex), max_size=4)))
        assert combination_tutte_sym(extend(L, host)).is_zero()
    else:
        W = witness_graph(L, pi, a)
        assert W.n > L.n
        assert not witness_mtilde_coefficient(L, pi).is_zero()


#### named relations ###########################################################


def test_cycle_relation_recovers_triangle_generator():
    rel = cycle_relation(cycle(3), [(1, 2), (2, 3), (1, 3)], 2, 1)
    assert rel == ell_tri()


def test_cycle_relation_equal_indices():
    rel = cycle_relation(cycle(3), [(1, 2), (2, 3), (1, 3)], 1, 1)
    assert len(rel.terms) == 8
    assert combination_tutte_sym(rel).is_zero()


def test_cycle_relation_in_host():
    rel = cycle_relation(complete(4), [(1, 2), (2, 3), (1, 3)], 1, 3)
    assert combination_tutte_sym(rel).is_zero()
    assert is_tutte_friendly(rel)[0]


def test_cycle_relation_validation():
    C4 = cycle(4)
    with pytest.raises(DomainError):
        cycle_relation(C4, [(1, 2), (2, 3)], 1, 1)
    with pytest.raises(DomainError):
        cycle_relation(C4, [(1, 2), (2, 3), (3, 4)], 1, 1)  # a path, not a cycle
    with pytest.raises(DomainError):
        cycle_relation(C4, [(1, 2), (2, 3), (1, 3)], 1, 1)  # (1,3) not in C4
    with pytest.raises(DomainError):
        cycle_relation(cycle(3), [(1, 2), (2, 3), (1, 3)], 0, 1)
    with pytest.raises(DomainError):
        cycle_relation(Multigraph(3, [(1, 1), (1, 2), (2, 3), (1, 3)]),
                       [(1, 1), (1, 2), (2, 3)], 1, 1)
    # 2^17 signed subsets: over the 16-edge cap
    with pytest.raises(DomainError, match="limited to 16 edges"):
        cycle_relation(cycle(17), list(cycle(17).edges), 1, 2)


def test_cycle_relation_reads_indices_and_edges_as_integers():
    C4 = cycle(4)
    for i in (True, 1.0):
        with pytest.raises(DomainError, match="must be an integer"):
            cycle_relation(C4, C4.edges, i, 2)
    with pytest.raises(DomainError, match="two integer endpoints"):
        cycle_relation(C4, [(1, 2, 2), (2, 3), (3, 4), (1, 4)], 1, 2)


@pytest.mark.parametrize("bad", [1.5, 0.0, True, "1"])
def test_indices_are_read_as_integers(bad):
    G = cycle(4)
    f = tutte_sym(G)
    L = combo(2, (Multigraph(2, [(1, 2)]), 1))
    assert sigma_l_formula(G, 1, 1) == sigma_l_direct(G, 1, 1) == -32
    calls = [
        lambda: sigma_l_formula(G, bad, 1),
        lambda: sigma_l_formula(G, 1, bad),
        lambda: sigma_l_direct(G, bad, 1),
        lambda: sigma_l_direct(G, 1, bad),
        lambda: sigma_l(m_to_e(mtilde_to_m(f)), bad),
        lambda: coefficient_in_onep_t(f, bad),
        lambda: witness_graph(L, [[1, 2]], bad),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="must be an integer"):
            call()


def test_two_edge_connected_relation():
    C3 = cycle(3)
    by_index = two_edge_connected_relation(C3, 1, 3)
    by_pair = two_edge_connected_relation(C3, (1, 2), (2, 3))
    assert by_index == by_pair
    assert is_tutte_friendly(by_index)[0]
    assert kernel_membership(by_index)
    with pytest.raises(DomainError):
        two_edge_connected_relation(path(3), 1, 2)
    with pytest.raises(DomainError):
        two_edge_connected_relation(C3, 0, 1)
    with pytest.raises(DomainError):
        two_edge_connected_relation(C3, (1, 2), (1, 4))
    with pytest.raises(DomainError, match="limited to 16 edges"):
        two_edge_connected_relation(cycle(17), 1, 2)


def test_s_pair_and_family_pins():
    T1 = Multigraph(4, [(1, 2), (2, 3), (3, 4)])
    T2 = Multigraph(4, [(1, 2), (1, 4), (3, 4)])
    assert is_tutte_friendly(s_pair(T1, T2))[0]
    assert nontrivial_friendly_pair(T1, T2)
    assert not nontrivial_friendly_pair(T1, T1)
    with pytest.raises(DomainError):
        s_pair(T1, complete(3))


def test_classify_n4_families_close_under_complement():
    from tuttekit.graphs import complement

    families = classify_n4()
    assert len(families) == 4
    for fam in families:
        members = set(fam)
        assert all(complement(g) in members for g in members)


#### brooms ###################################################################


def test_broom_relation_pins():
    assert broom_relation(1, 2) == ell_os_plus().scale(-1)
    assert broom_relation(0, 3).is_zero()


def test_broom_relation_k1_escapes_kernel():
    # at k = 1 the four broom terms would collapse to P(2) - (K1 + K1)
    L = combo(2, (path(2), ONE), (edgeless(2), -ONE))
    xb = combination_tutte_sym(L)
    assert xb.terms == {(2,): T}
    assert not kernel_membership(L)
    sf, _ = reduce_to_star_forests(L)
    assert sf.shape_triples() == [((1, 1), 0, Fraction(-1)), ((2,), 0, Fraction(1))]
    with pytest.raises(DomainError, match="bristle"):
        broom_relation(1, 1)


def test_broom_relation_k2_in_kernel():
    for n in (0, 1, 2):
        assert kernel_membership(broom_relation(n, 2)), n


def test_broom_relation_validation():
    with pytest.raises(DomainError):
        broom_relation(1, 0)
    for n in (0, 1):
        with pytest.raises(DomainError):
            broom_relation(n, 1)
    with pytest.raises(DomainError):
        broom_relation(-1, 2)
    with pytest.raises(DomainError):
        broom_relation(5, 7)


#### star-forest basis #########################################################


def test_star_forest_basis_rank_is_full():
    # the dense rank that suite 12's triangularity implies
    for n in range(1, 8):
        lams, rows = star_forest_basis_matrix(n)
        npart = sum(1 for _ in partitions_of(n))
        assert len(lams) == len(rows) == npart
        assert star_forest_basis_rank(n) == npart


def test_suite_12_catches_x_of_another_star_forest(monkeypatch):
    # X of R_(3,1) read as X of R_(2,2): at n = 4 the coefficient of p_(3,1) is 0
    wrong = {canonical_star_forest((3, 1)): canonical_star_forest((2, 2))}
    monkeypatch.setattr(selfcheck, "chromatic_sym", lambda G: chromatic_sym(wrong.get(G, G)))
    (suite,) = [s for s in selfcheck.SUITES if s.id == 12]
    r = suite.run()
    assert not r["passed"] and r["checks"] == 10
    assert r["failure_count"] == 1 and r["failures"][0].startswith("n=4: (3, 1): coefficient 0 at p_(3, 1)")


#### vertex caps ###############################################################


def _fresh_path(n):
    # a new graph each call, so that no canonical labelling is memoised on it
    return Multigraph(n, [(i, i + 1) for i in range(1, n)])


def _path_combo(n):
    # friendly and t-free, so that every kernel entry point answers on it
    return extend(ell_os_plus(), _fresh_path(n))


# every entry point behind the enumeration, reduction or canonical-form cap,
# called on n vertices
CAPPED = {
    "canonical_form": lambda n: canonical_form(_fresh_path(n)),
    "chromatic_sym": lambda n: chromatic_sym(_fresh_path(n)),
    "tutte_sym": lambda n: tutte_sym(_fresh_path(n)),
    "tutte_sym_delcon": lambda n: tutte_sym_delcon(_fresh_path(n)),
    "chromatic_sym_delcon": lambda n: chromatic_sym_delcon(_fresh_path(n)),
    "tutte_from_contractions": lambda n: tutte_from_contractions(_fresh_path(n)),
    "tutte_from_connected_partitions": lambda n: tutte_from_connected_partitions(_fresh_path(n)),
    "sigma_l_formula": lambda n: sigma_l_formula(_fresh_path(n), 1, 1),
    "sigma_l_direct": lambda n: sigma_l_direct(_fresh_path(n), 1, 1),
    "combination_tutte_sym": lambda n: combination_tutte_sym(_path_combo(n)),
    "is_tutte_friendly": lambda n: is_tutte_friendly(_path_combo(n)),
    "is_x_friendly": lambda n: is_x_friendly(_path_combo(n)),
    "reduce_to_star_forests": lambda n: reduce_to_star_forests(_path_combo(n)),
    "kernel_membership": lambda n: kernel_membership(_path_combo(n)),
    "broom_relation": lambda n: broom_relation(n - 2, 2),
}


@pytest.mark.parametrize("name", CAPPED)
def test_tuttekit_max_n_lifts_every_vertex_cap(name, monkeypatch):
    monkeypatch.setenv("TUTTEKIT_MAX_N", "3")
    refusal = "limited to 3 vertices, got 4; raise the cap with TUTTEKIT_MAX_N$"
    with pytest.raises(DomainError, match=refusal):
        CAPPED[name](4)
    CAPPED[name](3)
