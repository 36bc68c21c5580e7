"""Quasisymmetric chromatic and Tutte functions of vertex-weighted digraphs.

XQ sums q^asc over proper colorings, TQ sums q^asc (1+t)^e over all
colorings; both are homogeneous of degree w(D), so truncating to
N >= w(D) variables determines the formal series and exact equality of
truncations certifies identities.  Coefficients are exact bivariate
polynomials in q and t over the rationals.

Both are quasisymmetric.  Ascents and monochromatic arcs depend only on
the relative order of the colours, so the coefficient of
x_{c_1}^{a_1}...x_{c_k}^{a_k} with c_1 < ... < c_k depends only on the
composition (a_1, ..., a_k): it is the coefficient of Gessel's monomial
quasisymmetric function M_alpha.  The coloring sums therefore run over
packed colorings, the surjections [n] -> [k], which are the ordered set
partitions of [n] (Fubini(n) of them, against N^n colorings).  One walk
builds each ordered set partition once and adds the colorings as ints
into one flat tally, keyed by (composition, ascents, power k of (1+t)),
on packed (n, arcs, weights) triples: no contraction is built as a
Digraph.  A coloring's k is its monochromatic arcs, plus e(pi) on the
expansion routes, which add every contraction into the same tally.  Each
count is expanded to powers of t once, when the value is built.  Each
result is a `TruncatedQFunc` keyed by those compositions; exponent
vectors in N variables are only read in and written out.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Iterable, Sequence

from tuttekit.combinatorics import (
    DomainError,
    TPoly,
    as_int,
    as_rational,
    augmentation_factor,
    block_index_map,
    check_subset_count,
    format_rational,
    json_field,
    json_list,
    onep_t_power,
    parse_rational,
)
from tuttekit.graphs import (
    Multigraph,
    _LabelledGraph,
    _flats,
    _quotient,
    connected_partitions,
    endpoints,
)
from tuttekit.lincomb import LinComb, Poly, echo, merge_terms
from tuttekit.symfun import SymFunc, _arrangements

DEFAULT_COLORING_BUDGET = 5_000_000


#### bivariate coefficients ####################################################

class QTPoly(Poly):
    """Exact polynomial in q and t; keys are (q-degree, t-degree)."""

    __slots__ = ()
    _unit = (0, 0)

    def __init__(self, terms: dict[tuple[int, int], Fraction | int] | Iterable | None = None):
        super().__init__(terms or {})

    @staticmethod
    def _key(key) -> tuple[int, int]:
        try:
            a, b = key
        except (TypeError, ValueError):
            raise DomainError(f"a QTPoly key is a (q-degree, t-degree) pair, got {echo(key)}")
        a, b = as_int(a, "q-degree"), as_int(b, "t-degree")
        if a < 0 or b < 0:
            raise DomainError(f"negative degree in the QTPoly key {echo((a, b))}")
        return (a, b)

    @staticmethod
    def _key_sum(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (a[0] + b[0], a[1] + b[1])

    @classmethod
    def of(cls, value) -> QTPoly:
        """A QTPoly, a TPoly (as a q-free value) or a scalar, as a QTPoly."""
        if type(value) is QTPoly:
            return value
        if isinstance(value, TPoly):
            return QTPoly({(0, i): c for i, c in value.terms.items()})
        return super().of(value)

    @staticmethod
    def q(power: int = 1) -> QTPoly:
        return QTPoly({(power, 0): 1})

    # The keys of a valid QTPoly need no second check: the results are
    # merged straight into clean terms.
    def at_q(self, value) -> QTPoly:
        """Substitute a rational (or a string such as '2/3') for q; t remains."""
        value = as_rational(value)
        return self._like(merge_terms({}, (((0, b), c * value**a) for (a, b), c in self.terms.items())))

    def at_t(self, value) -> QTPoly:
        """Substitute a rational (or a string such as '2/3') for t; q remains."""
        value = as_rational(value)
        return self._like(merge_terms({}, (((a, 0), c * value**b) for (a, b), c in self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "QTPoly(0)"
        bits = [f"{c}*q^{a}*t^{b}" for (a, b), c in self.sorted_terms()]
        return f"QTPoly({' + '.join(bits)})"

    def to_json_obj(self) -> list:
        return [{"q": a, "t": b, "c": format_rational(c)} for (a, b), c in self.sorted_terms()]

    @staticmethod
    def from_json_obj(obj: list[dict]) -> QTPoly:
        """Rows {"q", "t", "c"}; rows with the same (q, t) add up."""
        if not isinstance(obj, list):
            raise DomainError(f"a QTPoly's JSON form is a list of rows, got {echo(obj)}")
        return QTPoly(
            [((json_field(r, "q"), json_field(r, "t")), parse_rational(json_field(r, "c"))) for r in obj]
        )


#### digraphs ##################################################################

class Digraph(_LabelledGraph, field="arcs"):
    """Vertex-weighted digraph on [n]; arcs are ordered pairs, loops allowed."""

    __slots__ = ()

    @staticmethod
    def _read_pair(a: Sequence[int], n: int) -> tuple[int, int]:
        return endpoints(a, n, "arc")

    def __repr__(self) -> str:
        w = "" if self.unit_weights() else f", weights={list(self.weights)}"
        return f"Digraph({self.n}, {list(self.arcs)}{w})"


def underlying(D: Digraph) -> Multigraph:
    """Forget orientations; weights carry over."""
    return Multigraph(D.n, D.arcs, D.weights)


#### truncated quasisymmetric values ###########################################

class TruncatedQFunc(LinComb):
    """Quasisymmetric polynomial in x_1..x_N with QTPoly coefficients.

    `terms` maps each composition alpha, with at most N parts, to the
    coefficient of Gessel's M_alpha.  These M_alpha are a basis of the
    quasisymmetric polynomials in N variables, so LinComb's equality, hash,
    zero test and arithmetic are exact on compositions.  Exponent vectors
    are an input and output form only: M_alpha puts the parts of alpha, in
    order, on every increasing choice of len(alpha) of the N positions.
    The constructor and `from_json_obj` read vectors, adding equal ones,
    and fold them onto compositions, refusing a sum that is not
    quasisymmetric; `vectors()`, the JSON and text forms and `repr` write
    them.
    """

    __slots__ = ("N",)
    _fields = ("N",)
    _coeff = staticmethod(QTPoly.of)

    def __init__(self, N: int, vectors: dict[tuple[int, ...], QTPoly] | Iterable = ()):
        N = as_int(N, "variable count")
        if N < 0:
            raise DomainError("variable count must be nonnegative")
        object.__setattr__(self, "N", N)
        super().__init__(vectors)  # the vectors, validated and merged
        groups: dict[tuple[int, ...], list[QTPoly]] = {}
        for e, c in self.terms.items():
            groups.setdefault(tuple(filter(None, e)), []).append(c)
        for alpha, cs in groups.items():
            if len(cs) < comb(N, len(alpha)) or cs.count(cs[0]) < len(cs):
                raise DomainError(
                    f"not quasisymmetric: the {comb(N, len(alpha)):,} exponent vectors of "
                    f"M_{echo(list(alpha))} must all be given, with one coefficient ({len(cs):,} given)"
                )
        object.__setattr__(self, "terms", {alpha: cs[0] for alpha, cs in groups.items()})

    def _key(self, exps) -> tuple[int, ...]:
        exps = tuple(as_int(e, "exponent") for e in exps)
        if len(exps) != self.N:
            raise DomainError("exponent vector does not fit the variable count")
        if min(exps, default=0) < 0:
            raise DomainError(f"negative exponent in {echo(list(exps))}")
        return exps

    def _substitute(self, sub) -> TruncatedQFunc:
        """sub applied to each coefficient; zeros drop out."""
        return self._like({alpha: v for alpha, c in self.terms.items() if (v := sub(c))})

    # the value is read here too, so that a zero function refuses it as well
    def at_q(self, value) -> TruncatedQFunc:
        value = as_rational(value)
        return self._substitute(lambda c: c.at_q(value))

    def at_t(self, value) -> TruncatedQFunc:
        value = as_rational(value)
        return self._substitute(lambda c: c.at_t(value))

    def _formatted_terms(self, fmt) -> list[tuple[tuple[int, ...], object]]:
        """(exponent vector, fmt(coefficient)) for every vector, in the printed
        order; each composition's coefficient is formatted once.  Vectors of
        N entries each, more than DEFAULT_COLORING_BUDGET entries in all, are
        refused before any is written."""
        N = self.N
        count = sum(comb(N, len(alpha)) for alpha in self.terms)
        if count * N > DEFAULT_COLORING_BUDGET:
            raise DomainError(
                f"expansion too large ({count:,} exponent vectors of {N:,} "
                f"entries each exceed {DEFAULT_COLORING_BUDGET:,} entries)"
            )
        out = []
        for alpha, c in self.terms.items():
            text = fmt(c)
            for positions in combinations(range(N), len(alpha)):
                exps = [0] * N
                for p, a in zip(positions, alpha):
                    exps[p] = a
                out.append((tuple(exps), text))
        return sorted(out, key=itemgetter(0), reverse=True)

    def vectors(self) -> dict[tuple[int, ...], QTPoly]:
        """{exponent vector: coefficient}, the vectors in descending order;
        the vectors of one composition share its coefficient object."""
        return dict(self._formatted_terms(lambda c: c))

    def __repr__(self) -> str:
        bits = [f"x^{list(e)}: {c}" for e, c in self._formatted_terms(repr)]
        return f"TruncatedQFunc(N={self.N}, [{', '.join(bits)}])"

    def to_json_obj(self) -> dict:
        """Every term gets rows of its own."""
        return {"N": self.N, "terms": [
            {"exponents": list(e), "coeff": [r.copy() for r in rows]}
            for e, rows in self._formatted_terms(QTPoly.to_json_obj)
        ]}

    @staticmethod
    def from_json_obj(obj: dict) -> TruncatedQFunc:
        return TruncatedQFunc(
            json_field(obj, "N"),
            [
                (tuple(json_list(t, "exponents")), QTPoly.from_json_obj(json_list(t, "coeff")))
                for t in json_list(obj, "terms")
            ],
        )


def _fubini_limit(cap: int) -> int:
    """The largest n with Fubini(n) <= cap; Fubini(n), the number of
    ordered set partitions of [n], increases with n."""
    fub = [1]
    while fub[-1] <= cap:
        m = len(fub)
        fub.append(sum(comb(m, i) * fub[m - i] for i in range(1, m + 1)))
    return len(fub) - 2


# the most vertices whose packed colorings the budget admits
_MAX_PACKED_N = _fubini_limit(DEFAULT_COLORING_BUDGET)


def _check_coloring_budget(D: Digraph, N: int) -> None:
    """Refuse N < w(D), and a digraph whose Fubini(n) packed colorings
    exceed the budget.  The entries of a result's exponent vectors are
    counted where they are written, in `TruncatedQFunc._formatted_terms`."""
    N = as_int(N, "variable count")
    if N < 0:
        raise DomainError("variable count must be nonnegative")
    w = D.total_weight()
    if N < w:
        raise DomainError(
            f"need N >= w(D) = {w} variables to determine the series"
        )
    if D.n > _MAX_PACKED_N:
        raise DomainError(
            f"coloring enumeration too large (Fubini({D.n}) packed colorings "
            f"exceed {DEFAULT_COLORING_BUDGET:,})"
        )


def _packed_sum(n: int, arcs: Sequence[tuple[int, int]], weights: Sequence[int],
                proper: bool, tally: dict[tuple[tuple[int, ...], int, int], int], e: int) -> None:
    """Add the packed colorings of the packed digraph ([n], arcs, weights)
    into tally, counted as {(composition, ascents, e + monochromatic arcs): int}.

    The walk builds each ordered set partition once: vertex i joins a block
    or opens a new one at any place in the colour order.  Opening a block
    keeps the order of the blocks already placed, so each step adds only
    the ascents and monochromatic arcs among i's own arcs to earlier
    vertices.  Block j takes colour j, so the composition lists the block
    weights in order.  proper keeps only the colorings with no
    monochromatic arc: i never joins a block holding a neighbour, and an
    arc that is a loop adds nothing.
    """
    loops = [0] * (n + 1)
    back: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]  # back[i][u], u < i: [arcs u->i, arcs i->u]
    for u, v in arcs:
        if u == v:
            if proper:
                return
            loops[u] += 1
        else:
            back[max(u, v)].setdefault(min(u, v), [0, 0])[u > v] += 1
    where = [0] * (n + 1)  # where[v]: the block of v, numbered as opened
    order: list[int] = []  # the blocks in colour order
    comp: list[int] = []  # comp[j]: the weight of the block of colour j

    def rec(i: int, asc: int, mono: int) -> None:
        if i > n:
            key = (tuple(comp), asc, mono)
            tally[key] = tally.get(key, 0) + 1
            return
        k = len(order)
        into, out = [0] * k, [0] * k  # arcs into i from colour j, out of i to colour j
        for u, (a, b) in back[i].items():
            j = order.index(where[u])
            into[j] += a
            out[j] += b
        mono += loops[i]
        w = weights[i - 1]
        below, above = 0, sum(out)  # arcs into i from colours under j, out of i to colours from j up
        for j in range(k + 1):
            where[i] = k
            order.insert(j, k)
            comp.insert(j, w)
            rec(i + 1, asc + below + above, mono)
            del order[j], comp[j]
            if j < k:
                above -= out[j]
                same = into[j] + out[j]  # arcs between i and the block of colour j
                if not (proper and same):
                    where[i] = order[j]
                    comp[j] += w
                    rec(i + 1, asc + below + above, mono + same)
                    comp[j] -= w
                below += into[j]

    rec(1, 0, e)


def _from_tally(N: int, tally: dict) -> TruncatedQFunc:
    """The sum of c q^asc (1+t)^k M_alpha over tally[(alpha, asc, k)] = c,
    in x_1..x_N; each count's power of (1+t) is expanded once, as ints."""
    coeffs: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for (alpha, asc, k), c in tally.items():
        d = coeffs.setdefault(alpha, {})
        for j, b in onep_t_power(k).terms.items():
            d[asc, j] = d.get((asc, j), 0) + b * c
    return TruncatedQFunc(N)._like_nested(coeffs)


def xq(D: Digraph, N: int) -> TruncatedQFunc:
    """Sum of q^asc(kappa) x_kappa over proper colorings kappa: [n] -> [N].

    A coloring is proper when no arc is monochromatic; a loop arc therefore
    kills every coloring and the result is zero.
    """
    _check_coloring_budget(D, N)
    tally: dict = {}
    _packed_sum(D.n, D.arcs, D.weights, True, tally, 0)
    return _from_tally(N, tally)


def tq(D: Digraph, N: int) -> TruncatedQFunc:
    """Sum of q^asc(kappa) (1+t)^e(kappa) x_kappa over all colorings."""
    _check_coloring_budget(D, N)
    tally: dict = {}
    _packed_sum(D.n, D.arcs, D.weights, False, tally, 0)
    return _from_tally(N, tally)


def _tq_from_labellings(D: Digraph, N: int, labellings: Iterable[tuple[Sequence[int], int]]) -> TruncatedQFunc:
    """TQ in x_1..x_N as the sum of (1+t)^e(pi) XQ(D/pi) over the
    labellings (label, k) of the connected partitions pi of D's underlying
    graph.  The arcs of D/pi are those of D between two blocks, and e(pi)
    counts the rest, loops included; D/pi is never built as a Digraph."""
    tally: dict = {}
    for label, k in labellings:
        arcs, weights = _quotient(D.arcs, D.weights, label, k)
        _packed_sum(k, arcs, weights, True, tally, len(D.arcs) - len(arcs))
    return _from_tally(N, tally)


def tq_from_connected_partitions(D: Digraph, N: int) -> TruncatedQFunc:
    """TQ as a sum of (1+t)^e(pi) XQ(D/pi) over connected partitions,
    enumerated by `graphs.connected_partitions` on the underlying graph."""
    _check_coloring_budget(D, N)
    pis = connected_partitions(underlying(D))
    return _tq_from_labellings(D, N, ((block_index_map(pi), len(pi)) for pi in pis))


def tq_from_arc_subsets(D: Digraph, N: int) -> TruncatedQFunc:
    """TQ as a sum of (1+t)^|S| XQ(D/S) over arc subsets.

    XQ of a contraction that leaves a loop vanishes, so only the flats of
    the underlying cycle matroid are walked, by `graphs._flats`; the
    components of a flat S form a connected partition pi with D/S = D/pi
    and |S| = e(pi).
    """
    check_subset_count(len(D.arcs), "arc")
    _check_coloring_budget(D, N)
    return _tq_from_labellings(D, N, _flats(D.n, D.arcs))


def truncate_symfunc(f: SymFunc, N: int) -> TruncatedQFunc:
    """Truncate an m~-basis symmetric function to N variables.

    m~_lambda is r(lambda)! m_lambda, and m_lambda is the sum of M_alpha over
    the distinct rearrangements alpha of lambda, r(lambda)! being the
    product of the part-multiplicity factorials.  A lambda with more than N
    parts truncates away.
    """
    if f.basis != "mtilde":
        raise DomainError("truncation expects the mtilde basis")
    out = TruncatedQFunc(N)
    m = {}
    for lam, coeff in f.terms.items():
        if len(lam) <= out.N:
            m.update(dict.fromkeys(_arrangements(lam), QTPoly.of(coeff) * augmentation_factor(lam)))
    return out._like(m)
