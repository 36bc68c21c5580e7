"""Symmetric-function bases against a brute-force polynomial oracle."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tuttekit.combinatorics import DomainError, TPoly, augmentation_factor, partitions_of
from tuttekit.lincomb import merge_terms
from tuttekit.symfun import (
    SymFunc,
    _m_coefficients,
    coefficient_in_onep_t,
    m_to_e,
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


#### reference: products of monomials #########################################

# The tables were once built as products of monomials, e_n = m_(1^n) and
# p_n = m_(n), one part at a time.  The counting that builds them now must
# give the same sorted tables.


def arrangements(mu, length):
    """Distinct vectors of the given length whose nonzero entries realize mu."""
    if len(mu) > length:
        return ()
    counts = Counter(mu)
    counts[0] = length - len(mu)
    values = sorted(counts)
    vec = []
    out = []

    def rec():
        if len(vec) == length:
            out.append(tuple(vec))
            return
        for val in values:
            if counts[val]:
                counts[val] -= 1
                vec.append(val)
                rec()
                vec.pop()
                counts[val] += 1

    rec()
    return tuple(out)


@lru_cache(maxsize=None)
def m_pair_product(mu, nu):
    """m_mu * m_nu in the m basis as ((rho, coeff), ...).

    The coefficient of m_rho counts vectors alpha with nonzero multiset mu
    such that rho - alpha is entrywise nonnegative with nonzero multiset nu.
    """
    if not mu:
        return ((nu, 1),)
    if not nu:
        return ((mu, 1),)
    out = []
    for rho in partitions_of(sum(mu) + sum(nu)):
        if len(rho) > len(mu) + len(nu):
            continue
        count = 0
        for alpha in arrangements(mu, len(rho)):
            rest = tuple(r - a for r, a in zip(rho, alpha))
            if min(rest) >= 0 and tuple(sorted((x for x in rest if x), reverse=True)) == nu:
                count += 1
        if count:
            out.append((rho, count))
    return tuple(out)


def reference_in_m(kind, lam):
    exp = {(): 1}
    for part in lam:
        factor = (1,) * part if kind == "e" else (part,)
        exp = merge_terms({}, ((rho, c * k) for mu, c in exp.items() for rho, k in m_pair_product(mu, factor)))
    return tuple(sorted(exp.items()))


def test_tables_match_monomial_products():
    for total in range(11):
        for lam in partitions_of(total):
            assert _m_coefficients(lam, True) == reference_in_m("e", lam), lam
            assert _m_coefficients(lam, False) == reference_in_m("p", lam), lam


#### pins ######################################################################


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


def m_to_mtilde(f):
    assert f.basis == "m"
    return SymFunc("mtilde", {lam: c * Fraction(1, augmentation_factor(lam)) for lam, c in f.terms.items()})


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


#### reference: elimination on immutable TPoly coefficients ###################

# The conversions as they were written on TPoly values, each step building
# new polynomials through scale and +.  The conversions under test add plain
# numbers in mutable dicts instead; they must give the same values, with
# the same int or Fraction in every place.


def conjugate(mu):
    return tuple(sum(1 for part in mu if part > i) for i in range(mu[0] if mu else 0))


def reference_to_m(f):
    spread = f.basis == "e"
    return SymFunc("m", ((mu, c * k) for lam, c in f.terms.items() for mu, k in _m_coefficients(lam, spread)))


def reference_m_to_e(f):
    rest = dict(f.terms)
    out = []
    while rest:
        mu = max(rest)
        lam, c = conjugate(mu), rest[mu]
        out.append((lam, c))
        merge_terms(rest, ((nu, c * -k) for nu, k in _m_coefficients(lam, True)))
    return SymFunc("e", out)


def reference_m_to_p(f):
    rest = dict(f.terms)
    out = []
    while rest:
        mu = min(rest)
        lead = augmentation_factor(mu)
        # a whole quotient of an int stays an int, any other is a Fraction
        c = TPoly([x // lead if type(x) is int and not x % lead else Fraction(x, lead) for x in rest[mu].coeffs])
        out.append((mu, c))
        merge_terms(rest, ((nu, c * -k) for nu, k in _m_coefficients(mu, False)))
    return SymFunc("p", out)


def typed_terms(f):
    return {lam: {i: (type(x), x) for i, x in c.terms.items()} for lam, c in f.terms.items()}


def assert_same(got, want):
    assert got.basis == want.basis
    assert got == want
    assert typed_terms(got) == typed_terms(want)


mixed = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)
mixed_funcs = st.dictionaries(st.sampled_from(PARTITIONS), st.lists(mixed, max_size=3).map(TPoly), max_size=5)


@given(mixed_funcs)
def test_m_to_e_and_m_to_p_match_tpoly_elimination(data):
    f = SymFunc("m", data)
    assert_same(m_to_e(f), reference_m_to_e(f))
    assert_same(m_to_p(f), reference_m_to_p(f))


@given(st.sampled_from(["e", "p"]), mixed_funcs)
def test_to_m_matches_tpoly_expansion(basis, data):
    f = SymFunc(basis, data)
    assert_same(to_m(f), reference_to_m(f))


def test_m_to_e_keeps_int_coefficients_int():
    f = SymFunc("m", {(2, 1): TPoly([1, 2]), (1, 1, 1): TPoly([0, 3]), (3,): 5})
    e = m_to_e(f)
    assert e.terms and all(type(x) is int for c in e.terms.values() for x in c.terms.values())
    assert to_m(e) == f


#### misc operations ###########################################################


def test_symfunc_constructor_merges_and_validates():
    f = SymFunc("m", [((2, 1), 1), ((2, 1), 2), ((3,), 0)])
    assert f.terms == {(2, 1): TPoly.of(3)}
    assert SymFunc("m", [((2,), 1), ((2,), -1)]).is_zero()
    with pytest.raises(DomainError):
        SymFunc("m", {(1, 2): 1})
    with pytest.raises(DomainError):
        SymFunc("schur", {})


@pytest.mark.parametrize("part", [2.5, True, "3"])
def test_symfunc_refuses_parts_that_are_not_integers(part):
    # int() would read these as 2, 1 and 3
    with pytest.raises(DomainError, match="partition part must be an integer"):
        SymFunc("m", {(part,): 1})


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
    # DEFAULT_DEGREE_BOUND, a constant that no keyword or variable lifts
    assert to_m(SymFunc("e", {(12,): 1})).terms == {(1,) * 12: TPoly.one()}
    for convert, basis in ((to_m, "e"), (to_m, "p"), (m_to_e, "m"), (m_to_p, "m")):
        with pytest.raises(DomainError, match="degree 13 exceeds the conversion cap 12"):
            convert(SymFunc(basis, {(13,): 1}))


def test_json_roundtrip():
    f = SymFunc("mtilde", {(2, 1): TPoly.t(), (1, 1, 1): Fraction(1, 3)})
    obj = f.to_json_obj()
    assert obj["basis"] == "mtilde"
    assert SymFunc.from_json_obj(obj) == f
    # terms sorted by (degree, partition)
    assert [t["lambda"] for t in obj["terms"]] == [[1, 1, 1], [2, 1]]
