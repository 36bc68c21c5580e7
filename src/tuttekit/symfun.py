"""Symmetric functions with TPoly coefficients in the m~, m, p, e bases.

m~ denotes the augmented monomial basis: m~_lam = (prod r_i(lam)!) m_lam.
Conversions go through the monomial basis.  The e and p bases are reached
by triangular elimination against their integer m-expansions, with no
matrix to invert.  Those expansions are counted from their closed forms,
0-1 matrices for e and part-merging maps for p, and the tables keep one
entry per partition converted, so the degree cap bounds them.
Coefficients stay integer polynomials unless a conversion divides
inexactly: m to e never divides, and m to p divides only by the
multiplicity factorials prod r_i! of the leading term, making a Fraction
only of a quotient that is not whole.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from typing import Iterable, Sequence

from tuttekit.combinatorics import (
    DEFAULT_DEGREE_BOUND,
    DomainError,
    TPoly,
    as_int,
    as_rational,
    augmentation_factor,
    json_field,
    json_list,
    partitions_of,
    sorted_partition,
)
from tuttekit.lincomb import LinComb, echo

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
            raise DomainError(f"unknown basis {echo(basis)}; expected one of {BASES}")
        object.__setattr__(self, "basis", basis)
        super().__init__(terms)

    @staticmethod
    def _key(lam) -> tuple[int, ...]:
        lam = tuple(as_int(part, "partition part") for part in lam)
        if min(lam, default=1) < 1 or list(lam) != sorted(lam, reverse=True):
            raise DomainError(f"not a partition: {echo(lam)}")
        return lam

    @staticmethod
    def _order(lam):
        return (sum(lam), lam)

    @staticmethod
    def zero(basis: str) -> SymFunc:
        return SymFunc(basis)

    def coefficient(self, lam: Sequence[int]) -> TPoly:
        return self.terms.get(sorted_partition(lam) if lam else (), TPoly.zero())

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
            json_field(obj, "basis"),
            [
                (tuple(json_list(t, "lambda")), TPoly.from_strings(json_list(t, "coeff")))
                for t in json_list(obj, "terms")
            ],
        )


#### m-expansions of the e and p bases ########################################

def _check_degree(d: int):
    if d > DEFAULT_DEGREE_BOUND:
        raise DomainError(f"degree {d} exceeds the conversion cap {DEFAULT_DEGREE_BOUND}")


# Entries kept by _arrangements, which serves only truncate_symfunc; its keys
# are the partitions of the functions truncated, which nothing else bounds.
ARRANGEMENTS_CACHE_SIZE = 2048


@lru_cache(maxsize=ARRANGEMENTS_CACHE_SIZE)
def _arrangements(mu: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct rearrangements of mu."""
    counts = Counter(mu)
    values = sorted(counts)
    vec: list[int] = []
    out: list[tuple[int, ...]] = []

    def rec():
        if len(vec) == len(mu):
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
def _m_coefficients(lam: tuple[int, ...], spread: bool) -> tuple[tuple[tuple[int, ...], int], ...]:
    """m-expansion of e_lam (spread) or p_lam as sorted ((mu, k), ...), cached.

    k counts the matrices with row sums lam and column sums mu whose rows
    are filled one at a time (Stanley, EC2, Props. 7.4.1 and 7.7.1).  For
    e_lam a row r puts a 1 in r distinct columns, so the matrices are 0-1;
    for p_lam it puts all of r in one column, so each mu_j is the sum of
    the parts sent to it.  Only the multiset of remaining column sums
    matters, and its total says which row is next.
    """
    row_at = {sum(lam[i:]): part for i, part in enumerate(lam)}
    memo: dict[tuple[int, ...], int] = {(): 1}

    def count(cols: tuple[int, ...]) -> int:
        if cols not in memo:
            r = row_at[sum(cols)]
            width, amount = (r, 1) if spread else (1, r)
            groups = sorted(Counter(cols).items())
            total = 0
            # the row takes `amount` from ks[i] of the columns at groups[i]'s value
            for ks in product(*(range(min(c, width) + 1 if v >= amount else 1) for v, c in groups)):
                if sum(ks) != width:
                    continue
                ways, rest = 1, []
                for (v, c), k in zip(groups, ks):
                    ways *= comb(c, k)
                    rest += [v] * (c - k) + [v - amount] * k
                total += ways * count(tuple(sorted((x for x in rest if x), reverse=True)))
            memo[cols] = total
        return memo[cols]

    return tuple(sorted((mu, k) for mu in partitions_of(sum(lam)) if (k := count(mu))))


#### basis conversions #########################################################

def mtilde_to_m(f: SymFunc) -> SymFunc:
    """Diagonal rescaling m~_lam = (prod r_i!) m_lam."""
    if f.basis != "mtilde":
        raise DomainError(f"expected mtilde basis, got {f.basis}")
    return SymFunc("m", {lam: c * augmentation_factor(lam) for lam, c in f.terms.items()})


def _add_multiples(acc: dict, c: dict, expansion: Iterable[tuple[tuple[int, ...], int]]) -> None:
    """acc[nu] += k c for each (nu, k) of the expansion, one power of t at a time.

    acc maps partitions to mutable {power of t: coefficient} dicts and c is
    one such dict.  A coefficient that reaches zero is dropped, and so is a
    partition left with none, as `merge_terms` does, so an int stays an
    int until a Fraction is added to it.
    """
    items = tuple(c.items())
    for nu, k in expansion:
        d = acc.get(nu)
        if d is None:
            acc[nu] = {i: ci * k for i, ci in items}
            continue
        for i, ci in items:
            x = d.get(i, 0) + ci * k
            if x:
                d[i] = x
            else:
                del d[i]
        if not d:
            del acc[nu]


def to_m(f: SymFunc) -> SymFunc:
    """Expand a p- or e-basis function into monomials.

    The m-coefficients add up as plain numbers, power of t by power of t.
    """
    if f.basis == "m":
        return f
    if f.basis == "mtilde":
        return mtilde_to_m(f)
    if f.basis not in ("p", "e"):
        raise DomainError(f"cannot expand basis {f.basis}")
    spread = f.basis == "e"
    for lam in f.terms:
        _check_degree(sum(lam))
    out: dict = {}
    for lam, c in f.terms.items():
        _add_multiples(out, c.terms, _m_coefficients(lam, spread))
    return SymFunc("m")._like_nested(out)


def _m_terms(f: SymFunc) -> dict:
    """The m-coefficients of an m- or mtilde-basis function as mutable {power: coefficient} dicts."""
    if f.basis == "mtilde":
        f = mtilde_to_m(f)
    if f.basis != "m":
        raise DomainError(f"expected m (or mtilde) basis, got {f.basis}")
    for lam in f.terms:
        _check_degree(sum(lam))
    return {lam: dict(c.terms) for lam, c in f.terms.items()}


def _conjugate(mu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for part in mu if part > i) for i in range(mu[0] if mu else 0))


def m_to_e(f: SymFunc) -> SymFunc:
    """Rewrite a monomial-basis function in the elementary basis, exactly.

    e_mu' = m_mu + lex-lower terms (Macdonald, Symmetric Functions and Hall
    Polynomials, ch. I, section 2), so the lex-largest m_mu left carries the
    coefficient of e_mu'.  Each step subtracts plain numbers, power of t by
    power of t, and no step divides.
    """
    rest = _m_terms(f)
    out = {}
    while rest:
        mu = max(rest)
        lam, c = _conjugate(mu), rest.pop(mu)
        out[lam] = c
        # the m_mu term of e_lam cancels the popped coefficient exactly
        _add_multiples(rest, c, ((nu, -k) for nu, k in _m_coefficients(lam, True) if nu != mu))
    return SymFunc("e")._like_nested(out)


def m_to_p(f: SymFunc) -> SymFunc:
    """Rewrite a monomial-basis function in the power-sum basis, exactly.

    p_mu = (prod r_i!) m_mu + lex-higher terms (Macdonald, ch. I, section 6),
    so the lex-smallest m_mu left, divided by prod r_i!, is the coefficient
    of p_mu.  Each step subtracts plain numbers, power of t by power of t.
    An int that the division leaves whole stays an int; any other quotient
    is a Fraction.  XB and X of a graph have integral p-coefficients
    (Stanley, "Graph colorings and related symmetric functions", Discrete
    Math. 1998), so their p-expansions stay ints throughout.
    """
    rest = _m_terms(f)
    out = {}
    while rest:
        mu = min(rest)
        c = rest.pop(mu)
        lead = augmentation_factor(mu)
        if lead != 1:
            c = {i: ci // lead if type(ci) is int and not ci % lead else Fraction(ci, lead)
                 for i, ci in c.items()}
        out[mu] = c
        # the lead * m_mu term of p_mu cancels the popped coefficient exactly
        _add_multiples(rest, c, ((nu, -k) for nu, k in _m_coefficients(mu, False) if nu != mu))
    return SymFunc("p")._like_nested(out)


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
