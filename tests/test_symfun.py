"""Symmetric-function bases against a brute-force polynomial oracle."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tuttekit.combinatorics import DomainError, TPoly, partitions_of
from tuttekit.symfun import (
    SymFunc,
    coefficient_in_onep_t,
    m_pair_product,
    m_to_e,
    m_to_mtilde,
    m_to_p,
    mtilde_to_m,
    sigma_l,
    specialize_t,
    to_m,
)

#### oracle: literal polynomials in d variables ################################


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def e_poly(k, d):
    out = {}
    for subset in combinations(range(d), k):
        e = [0] * d
        for i in subset:
            e[i] = 1
        out[tuple(e)] = 1
    return out


def p_poly(k, d):
    out = {}
    for i in range(d):
        e = [0] * d
        e[i] = k
        out[tuple(e)] = 1
    return out


def basis_poly(kind, lam, d):
    acc = {(0,) * d: 1}
    factor = e_poly if kind == "e" else p_poly
    for part in lam:
        acc = poly_mul(acc, factor(part, d))
    return acc


def m_coefficients(poly, d):
    """Read off m-coefficients from the representative monomial x1^l1 x2^l2 ..."""
    out = {}
    for e, c in poly.items():
        lam = tuple(x for x in e if x)
        if lam == tuple(sorted(lam, reverse=True)) and e == lam + (0,) * (d - len(lam)):
            out[lam] = c
    return out


@pytest.mark.parametrize("kind", ["e", "p"])
def test_expansions_match_polynomial_oracle(kind):
    for total in range(7):
        d = max(total, 1)
        for lam in partitions_of(total):
            expected = m_coefficients(basis_poly(kind, lam, d), d)
            got = to_m(SymFunc(kind, {lam: 1}))
            assert got.basis == "m"
            assert {mu: c for mu, c in got.terms.items()} == {
                mu: TPoly.of(c) for mu, c in expected.items()
            }, (kind, lam)


#### pins ######################################################################


def test_m_pair_product_pin():
    assert dict(m_pair_product((1,), (1,))) == {(2,): 1, (1, 1): 2}


def test_e_expansion_pins():
    assert to_m(SymFunc("e", {(1, 1): 1})).terms == {(2,): TPoly.one(), (1, 1): TPoly.of(2)}
    assert to_m(SymFunc("e", {(2,): 1})).terms == {(1, 1): TPoly.one()}
    assert to_m(SymFunc("e", {(2, 1): 1})).terms == {(2, 1): TPoly.one(), (1, 1, 1): TPoly.of(3)}


def test_m_to_e_pins():
    f = SymFunc("m", {(2,): 1})
    assert m_to_e(f).terms == {(1, 1): TPoly.one(), (2,): TPoly.of(-2)}
    assert m_to_e(SymFunc("m", {(1, 1): 1})).terms == {(2,): TPoly.one()}
    assert m_to_e(SymFunc("m", {(1, 1, 1): 1})).terms == {(3,): TPoly.one()}


def test_m_to_p_pins():
    assert to_m(SymFunc("p", {(1, 1): 1})).terms == {(2,): TPoly.one(), (1, 1): TPoly.of(2)}
    assert m_to_p(SymFunc("m", {(1, 1): 1})).terms == {
        (1, 1): TPoly.of(Fraction(1, 2)),
        (2,): TPoly.of(Fraction(-1, 2)),
    }
    assert m_to_p(SymFunc("m", {(2,): 1})).terms == {(2,): TPoly.one()}


def test_mtilde_rescaling():
    f = SymFunc("mtilde", {(1, 1): 1, (2, 1): 3})
    g = mtilde_to_m(f)
    assert g.terms == {(1, 1): TPoly.of(2), (2, 1): TPoly.of(3)}
    assert m_to_mtilde(g) == f


#### roundtrips ################################################################

# No second route computes m_to_e or m_to_p: these round trips and the
# golden files are their checks.
PARTITIONS = [lam for d in range(9) for lam in partitions_of(d)]

coeffs = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=3
).map(TPoly)
funcs = st.dictionaries(st.sampled_from(PARTITIONS), coeffs, max_size=4)


@given(funcs)
def test_m_e_roundtrip(data):
    f = SymFunc("m", data)
    assert to_m(m_to_e(f)) == f


@given(funcs)
def test_m_p_roundtrip(data):
    f = SymFunc("m", data)
    assert to_m(m_to_p(f)) == f


@given(funcs)
def test_e_side_roundtrip(data):
    f = SymFunc("e", data)
    assert m_to_e(to_m(f)) == f


@given(funcs)
def test_p_side_roundtrip(data):
    f = SymFunc("p", data)
    assert m_to_p(to_m(f)) == f


def test_mtilde_roundtrip():
    f = SymFunc("mtilde", {(3, 1): TPoly.t(), (2, 2): 1})
    assert m_to_mtilde(mtilde_to_m(f)) == f


#### misc operations ###########################################################


def test_symfunc_constructor_merges_and_validates():
    f = SymFunc("m", [((2, 1), 1), ((2, 1), 2), ((3,), 0)])
    assert f.terms == {(2, 1): TPoly.of(3)}
    assert SymFunc("m", [((2,), 1), ((2,), -1)]).is_zero()
    with pytest.raises(DomainError):
        SymFunc("m", {(1, 2): 1})
    with pytest.raises(DomainError):
        SymFunc("schur", {})


def test_add_sub_scale_coefficient():
    a = SymFunc("m", {(2,): 1})
    b = SymFunc("m", {(2,): TPoly.t(), (1, 1): 2})
    s = a + b
    assert s.coefficient((2,)) == TPoly.one() + TPoly.t()
    assert s.coefficient([1, 1]) == TPoly.of(2)
    assert (s - s).is_zero()
    assert a.scale(TPoly.t()).terms == {(2,): TPoly.t()}
    with pytest.raises(DomainError):
        a + SymFunc("e", {(2,): 1})


def test_sigma_l():
    f = SymFunc("e", {(1, 1): 1, (2,): -2, (3,): TPoly.t()})
    assert sigma_l(f, 1) == TPoly.t() - 2
    assert sigma_l(f, 2) == TPoly.one()
    assert sigma_l(f, 3).is_zero()
    with pytest.raises(DomainError):
        sigma_l(SymFunc("m", {(2,): 1}), 1)


def test_coefficient_in_onep_t():
    t = TPoly.t()
    f = SymFunc("mtilde", {(1, 1): 1, (2,): 1 + t})
    assert coefficient_in_onep_t(f, 0).terms == {(1, 1): TPoly.one()}
    assert coefficient_in_onep_t(f, 1).terms == {(2,): TPoly.one()}
    assert coefficient_in_onep_t(f, 5).is_zero()
    with pytest.raises(DomainError):
        coefficient_in_onep_t(f, -1)


def test_specialize_t():
    t = TPoly.t()
    f = SymFunc("mtilde", {(1, 1): 1, (2,): 1 + t})
    assert specialize_t(f, -1).terms == {(1, 1): TPoly.one()}
    assert specialize_t(f, "-1") == specialize_t(f, Fraction(-1))
    assert specialize_t(f, 1).coefficient((2,)) == TPoly.of(2)


def test_degree_cap():
    f = SymFunc("e", {(13,): 1})
    with pytest.raises(DomainError):
        to_m(f)
    assert to_m(f, max_degree=13).terms == {(1,) * 13: TPoly.one()}


def test_json_roundtrip():
    f = SymFunc("mtilde", {(2, 1): TPoly.t(), (1, 1, 1): Fraction(1, 3)})
    obj = f.to_json_obj()
    assert obj["basis"] == "mtilde"
    assert SymFunc.from_json_obj(obj) == f
    # terms sorted by (degree, partition)
    assert [t["lambda"] for t in obj["terms"]] == [[1, 1, 1], [2, 1]]
