"""Symmetric functions with TPoly coefficients in the m~, m, p, e bases.

m~ denotes the augmented monomial basis: m~_lam = (prod r_i(lam)!) m_lam.
Conversions go through the monomial basis.  The e and p bases are reached
by triangular elimination against their integer m-expansions, with no
matrix to invert.  Coefficients stay integer polynomials until a
conversion divides: m to e never does, and m to p divides only by the
multiplicity factorials prod r_i! of the leading term.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from tuttekit.combinatorics import (
    DEFAULT_DEGREE_BOUND,
    DomainError,
    TPoly,
    as_rational,
    augmentation_factor,
    partitions_of,
    sorted_partition,
)
from tuttekit.lincomb import LinComb, merge_terms

BASES = ("mtilde", "m", "p", "e")


class SymFunc(LinComb):
    """Finite linear combination of basis elements indexed by integer partitions.

    terms maps a weakly decreasing tuple to a nonzero TPoly coefficient; an
    int or a Fraction given as a coefficient becomes a constant TPoly.  The
    empty partition () indexes the constant term.
    """

    __slots__ = ("basis",)
    _fields = ("basis",)
    _coeff = staticmethod(TPoly.of)

    def __init__(self, basis: str, terms: dict | Iterable = ()):
        if basis not in BASES:
            raise DomainError(f"unknown basis {basis!r}; expected one of {BASES}")
        object.__setattr__(self, "basis", basis)
        super().__init__(terms)

    @staticmethod
    def _key(lam) -> tuple[int, ...]:
        lam = tuple(map(int, lam))
        if min(lam, default=1) < 1 or list(lam) != sorted(lam, reverse=True):
            raise DomainError(f"not a partition: {lam!r}")
        return lam

    @staticmethod
    def _order(lam):
        return (sum(lam), lam)

    @staticmethod
    def zero(basis: str) -> SymFunc:
        return SymFunc(basis)

    def coefficient(self, lam: Sequence[int]) -> TPoly:
        return self.terms.get(sorted_partition(lam) if lam else (), TPoly.zero())

    def max_degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def __repr__(self) -> str:
        if not self.terms:
            return f"SymFunc({self.basis}, 0)"
        bits = [f"{list(lam)}: {coeff!r}" for lam, coeff in self.sorted_terms()]
        return f"SymFunc({self.basis}, {{{', '.join(bits)}}})"

    # JSON shape: {"basis": ..., "terms": [{"lambda": [...], "coeff": [...]}]}
    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"lambda": list(lam), "coeff": coeff.to_strings()}
                for lam, coeff in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> SymFunc:
        return SymFunc(
            obj["basis"],
            [(tuple(t["lambda"]), TPoly.from_strings(t["coeff"])) for t in obj["terms"]],
        )


#### monomial products #########################################################

def _check_degree(d: int, max_degree: int | None):
    cap = DEFAULT_DEGREE_BOUND if max_degree is None else max_degree
    if d > cap:
        raise DomainError(f"degree {d} exceeds the conversion cap {cap}")


@lru_cache(maxsize=None)
def _arrangements(mu: tuple[int, ...], length: int) -> tuple[tuple[int, ...], ...]:
    """Distinct vectors of the given length whose nonzero entries realize mu."""
    if len(mu) > length:
        return ()
    counts = Counter(mu)
    counts[0] = length - len(mu)
    values = sorted(counts)
    vec: list[int] = []
    out: list[tuple[int, ...]] = []

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
def m_pair_product(mu: tuple[int, ...], nu: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Expansion of m_mu * m_nu in the m basis as ((rho, coeff), ...).

    The coefficient of m_rho counts vectors alpha with nonzero multiset mu
    such that rho - alpha is entrywise nonnegative with nonzero multiset nu.
    """
    if not mu:
        return (((nu), 1),) if nu else (((), 1),)
    if not nu:
        return ((mu, 1),)
    total = sum(mu) + sum(nu)
    out = []
    for rho in partitions_of(total):
        if len(rho) > len(mu) + len(nu):
            continue
        count = 0
        for alpha in _arrangements(mu, len(rho)):
            rest = tuple(r - a for r, a in zip(rho, alpha))
            if any(x < 0 for x in rest):
                continue
            if sorted_partition(x for x in rest if x) == nu:
                count += 1
        if count:
            out.append((rho, count))
    return tuple(out)


def _m_expansion_product(a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]) -> dict:
    return merge_terms(
        {},
        (
            (rho, ca * cb * k)
            for mu, ca in a.items()
            for nu, cb in b.items()
            for rho, k in m_pair_product(mu, nu)
        ),
    )


@lru_cache(maxsize=None)
def _e_in_m(lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """m-expansion of e_lam; e_n is m_(1^n)."""
    exp: dict[tuple[int, ...], int] = {(): 1}
    for part in lam:
        exp = _m_expansion_product(exp, {(1,) * part: 1})
    return tuple(sorted(exp.items()))


@lru_cache(maxsize=None)
def _p_in_m(lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """m-expansion of p_lam; p_n is m_(n)."""
    exp: dict[tuple[int, ...], int] = {(): 1}
    for part in lam:
        exp = _m_expansion_product(exp, {(part,): 1})
    return tuple(sorted(exp.items()))


#### basis conversions #########################################################

def mtilde_to_m(f: SymFunc) -> SymFunc:
    """Diagonal rescaling m~_lam = (prod r_i!) m_lam."""
    if f.basis != "mtilde":
        raise DomainError(f"expected mtilde basis, got {f.basis}")
    return SymFunc("m", {lam: c * augmentation_factor(lam) for lam, c in f.terms.items()})


def m_to_mtilde(f: SymFunc) -> SymFunc:
    if f.basis != "m":
        raise DomainError(f"expected m basis, got {f.basis}")
    return SymFunc(
        "mtilde",
        {lam: c * Fraction(1, augmentation_factor(lam)) for lam, c in f.terms.items()},
    )


def to_m(f: SymFunc, max_degree: int | None = None) -> SymFunc:
    """Expand a p- or e-basis function into monomials."""
    if f.basis == "m":
        return f
    if f.basis == "mtilde":
        return mtilde_to_m(f)
    if f.basis not in ("p", "e"):
        raise DomainError(f"cannot expand basis {f.basis}")
    table = _p_in_m if f.basis == "p" else _e_in_m
    for lam in f.terms:
        _check_degree(sum(lam), max_degree)
    return SymFunc("m", ((mu, c * k) for lam, c in f.terms.items() for mu, k in table(lam)))


def _m_terms(f: SymFunc, max_degree: int | None) -> dict:
    """A mutable copy of the m-coefficients of an m- or mtilde-basis function."""
    if f.basis == "mtilde":
        f = mtilde_to_m(f)
    if f.basis != "m":
        raise DomainError(f"expected m (or mtilde) basis, got {f.basis}")
    for lam in f.terms:
        _check_degree(sum(lam), max_degree)
    return dict(f.terms)


def _conjugate(mu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for part in mu if part > i) for i in range(mu[0] if mu else 0))


def m_to_e(f: SymFunc, max_degree: int | None = None) -> SymFunc:
    """Rewrite a monomial-basis function in the elementary basis, exactly.

    e_mu' = m_mu + lex-lower terms (Macdonald, Symmetric Functions and Hall
    Polynomials, ch. I, section 2), so the lex-largest m_mu left carries the
    coefficient of e_mu'.  No step divides.
    """
    rest = _m_terms(f, max_degree)
    out: list[tuple[tuple[int, ...], TPoly]] = []
    while rest:
        mu = max(rest)
        lam, c = _conjugate(mu), rest[mu]
        out.append((lam, c))
        merge_terms(rest, ((nu, c * -k) for nu, k in _e_in_m(lam)))
    return SymFunc("e", out)


def m_to_p(f: SymFunc, max_degree: int | None = None) -> SymFunc:
    """Rewrite a monomial-basis function in the power-sum basis, exactly.

    p_mu = (prod r_i!) m_mu + lex-higher terms (Macdonald, ch. I, section 6),
    so the lex-smallest m_mu left, divided by prod r_i!, is the coefficient
    of p_mu.
    """
    rest = _m_terms(f, max_degree)
    out: list[tuple[tuple[int, ...], TPoly]] = []
    while rest:
        mu = min(rest)
        lead = augmentation_factor(mu)
        c = rest[mu] if lead == 1 else rest[mu] * Fraction(1, lead)
        out.append((mu, c))
        merge_terms(rest, ((nu, c * -k) for nu, k in _p_in_m(mu)))
    return SymFunc("p", out)


def sigma_l(f: SymFunc, l: int) -> TPoly:
    """Sum of the e-basis coefficients of f over partitions of length l."""
    if f.basis != "e":
        raise DomainError(f"sigma_l needs the e basis, got {f.basis}")
    return sum((c for lam, c in f.terms.items() if len(lam) == l), TPoly.zero())


def coefficient_in_onep_t(f: SymFunc, k: int) -> SymFunc:
    """Extract the (1+t)^k component of every coefficient."""
    if k < 0:
        raise DomainError("power index must be nonnegative")
    out = {}
    for lam, c in f.terms.items():
        cs = c.onep_t_powers()
        if k < len(cs):
            out[lam] = cs[k]
    return SymFunc(f.basis, out)


def specialize_t(f: SymFunc, v) -> SymFunc:
    """Evaluate every coefficient at t = v (a number, or a string such as '1/2')."""
    v = as_rational(v)
    return SymFunc(f.basis, {lam: c.evaluate(v) for lam, c in f.terms.items()})
