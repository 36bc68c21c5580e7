"""Graph combinations, friendliness, witnesses, reduction, named relations."""

from fractions import Fraction

import pytest

from tuttekit.combinatorics import DomainError, TPoly, partitions_of
from tuttekit.graphs import (
    Multigraph,
    complete,
    cycle,
    edgeless,
    path,
    star,
)
from tuttekit.kernel import (
    GraphCombination,
    broom_relation,
    b_value,
    c_value,
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
    is_tutte_reducible,
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
    ext = extend(ell_os_plus(), star(5))
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


def test_witness_validation():
    with pytest.raises(DomainError):
        witness_graph(ell_tri(), [[1, 2, 3]])
    L = combo(2, (complete(2), 1), (edgeless(2), -1))
    with pytest.raises(DomainError):
        witness_graph(L, [[1, 2]], a=5)
    with pytest.raises(DomainError):
        witness_mtilde_coefficient(combo(2, (complete(2), 1)), [[1], [2]], budget=10)


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


#### reducibility and brooms ###################################################


def test_is_tutte_reducible():
    assert not is_tutte_reducible(ell_os_plus())
    assert not is_tutte_reducible(ell_loop())
    assert is_tutte_reducible(extend(ell_os_plus(), star(5)))
    with pytest.raises(DomainError):
        is_tutte_reducible(combo(2, (complete(2), 1)))


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
