"""Graph combinations, friendliness, witnesses, reduction, named relations."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttekit import kernel
from tuttekit.combinatorics import DomainError, TPoly, enumerate_set_partitions, partitions_of
from tuttekit.graphs import (
    MAX_VERTICES,
    Multigraph,
    canonical_form,
    complete,
    cycle,
    edgeless,
    is_bright_star_forest,
    broom,
    path,
    relabel,
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
    standard_form,
    star_forest_basis_matrix,
    star_forest_basis_rank,
    two_edge_connected_relation,
    witness_graph,
    witness_mtilde_coefficient,
)

from reference import c_value

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


def test_witness_validation(monkeypatch):
    with pytest.raises(DomainError):
        witness_graph(ell_tri(), [[1, 2, 3]])
    L = combo(2, (complete(2), 1), (edgeless(2), -1))
    with pytest.raises(DomainError):
        witness_graph(L, [[1, 2]], a=5)
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
            for g in graphs():
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
    for n in range(1, 6):
        lams, rows = star_forest_basis_matrix(n)
        npart = sum(1 for _ in partitions_of(n))
        assert len(lams) == len(rows) == npart
        assert star_forest_basis_rank(n) == npart


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
    "star_forest_basis_matrix": lambda n: star_forest_basis_matrix(n),
    "star_forest_basis_rank": lambda n: star_forest_basis_rank(n),
}


@pytest.mark.parametrize("name", CAPPED)
def test_tuttekit_max_n_lifts_every_vertex_cap(name, monkeypatch):
    monkeypatch.setenv("TUTTEKIT_MAX_N", "3")
    refusal = "limited to 3 vertices, got 4; raise the cap with TUTTEKIT_MAX_N$"
    with pytest.raises(DomainError, match=refusal):
        CAPPED[name](4)
    CAPPED[name](3)
