"""Quasisymmetric chromatic and Tutte functions of vertex-weighted digraphs.

XQ sums q^asc over proper colorings, TQ sums q^asc (1+t)^e over all
colorings; both are homogeneous of degree w(D), so truncating to
N >= w(D) variables determines the formal series and exact equality of
truncations certifies identities.  Coefficients are exact bivariate
polynomials in q and t over the rationals.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import comb
from typing import Iterable, Sequence

from tuttekit.combinatorics import (
    DomainError,
    TPoly,
    as_int,
    as_rational,
    augmentation_factor,
    block_index_map,
    format_rational,
    parse_rational,
    subsets_by_size,
)
from tuttekit.graphs import (
    Multigraph,
    _components_of,
    connected_partitions,
    endpoints,
    json_field,
    json_list,
)
from tuttekit.lincomb import LinComb, Poly
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
        return (int(key[0]), int(key[1]))

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

    def at_q(self, value) -> QTPoly:
        """Substitute a rational (or a string such as '2/3') for q; t remains."""
        value = as_rational(value)
        return QTPoly((((0, b), c * value**a) for (a, b), c in self.terms.items()))

    def at_t(self, value) -> QTPoly:
        """Substitute a rational (or a string such as '2/3') for t; q remains."""
        value = as_rational(value)
        return QTPoly((((a, 0), c * value**b) for (a, b), c in self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "QTPoly(0)"
        bits = [f"{c}*q^{a}*t^{b}" for (a, b), c in self.sorted_terms()]
        return f"QTPoly({' + '.join(bits)})"

    def to_json_obj(self) -> list:
        return [{"q": a, "t": b, "c": format_rational(c)} for (a, b), c in self.sorted_terms()]

    @staticmethod
    def from_json_obj(obj: Iterable[dict]) -> QTPoly:
        return QTPoly({(row["q"], row["t"]): parse_rational(row["c"]) for row in obj})


@lru_cache(maxsize=None)
def qt_onep_t_power(k: int) -> QTPoly:
    return QTPoly({(0, j): comb(k, j) for j in range(k + 1)})


#### digraphs ##################################################################

class Digraph:
    """Vertex-weighted digraph on [n]; arcs are ordered pairs, loops allowed."""

    __slots__ = ("n", "arcs", "weights")

    def __init__(self, n: int, arcs: Iterable[Sequence[int]] = (), weights: Sequence[int] | None = None):
        n = as_int(n, "vertex count")
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        norm = sorted(endpoints(a, n, "arc") for a in arcs)
        if weights is None:
            w = (1,) * n
        else:
            w = tuple(as_int(x, "vertex weight") for x in weights)
            if len(w) != n or any(x < 1 for x in w):
                raise DomainError("weights must list one positive integer per vertex")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", tuple(norm))
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    def key(self):
        return (self.n, self.arcs, self.weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        w = "" if self.unit_weights() else f", weights={list(self.weights)}"
        return f"Digraph({self.n}, {list(self.arcs)}{w})"

    def unit_weights(self) -> bool:
        return all(x == 1 for x in self.weights)

    def total_weight(self) -> int:
        return sum(self.weights)

    def has_loop(self) -> bool:
        return any(u == v for u, v in self.arcs)


def underlying(D: Digraph) -> Multigraph:
    """Forget orientations; weights carry over."""
    return Multigraph(D.n, [(min(u, v), max(u, v)) for u, v in D.arcs], D.weights)


def reverse(D: Digraph) -> Digraph:
    return Digraph(D.n, [(v, u) for u, v in D.arcs], D.weights)


def arc_statistics(D: Digraph, kappa: Sequence[int]) -> tuple[int, int, int]:
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


def contract_arc_set(D: Digraph, S: Iterable[int]) -> Digraph:
    """Contract the arc instances at the given 0-based indices.

    Vertices merge along the underlying edges of S; arcs outside S are
    pushed forward and kept even when they become loops, so contracting a
    non-induced set leaves a loop.  Weights add over merged vertices.
    """
    idx = sorted(set(int(i) for i in S))
    if any(not (0 <= i < len(D.arcs)) for i in idx):
        raise DomainError("arc index out of range")
    pairs = [(min(D.arcs[i]), max(D.arcs[i])) for i in idx]
    comps = _components_of(D.n, pairs)
    label = {}
    for new, comp in enumerate(sorted(comps, key=min), start=1):
        for v in comp:
            label[v] = new
    chosen = set(idx)
    arcs = [
        (label[u], label[v]) for i, (u, v) in enumerate(D.arcs) if i not in chosen
    ]
    weights = [0] * len(comps)
    for v in range(1, D.n + 1):
        weights[label[v] - 1] += D.weights[v - 1]
    return Digraph(len(comps), arcs, weights)


def contract_digraph_partition(D: Digraph, blocks: Sequence[Sequence[int]]) -> Digraph:
    """Contract each block to a point; every intra-block arc vanishes.

    Blocks must be connected in the underlying undirected graph (checked by
    the caller when enumerating connected partitions).
    """
    label = {}
    ordered = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
    for new, comp in enumerate(ordered, start=1):
        for v in comp:
            label[v] = new
    arcs = [
        (label[u], label[v]) for u, v in D.arcs if label[u] != label[v]
    ]
    weights = [0] * len(ordered)
    for v in range(1, D.n + 1):
        weights[label[v] - 1] += D.weights[v - 1]
    return Digraph(len(ordered), arcs, weights)


def digraph_to_json_obj(D: Digraph) -> dict:
    out: dict = {"n": D.n, "arcs": [list(a) for a in D.arcs]}
    if not D.unit_weights():
        out["weights"] = list(D.weights)
    return out


def digraph_from_json_obj(obj: dict) -> Digraph:
    arcs = json_list(obj, "arcs", required=False) or ()
    return Digraph(json_field(obj, "n"), arcs, json_list(obj, "weights", required=False))


#### truncated quasisymmetric values ###########################################

class TruncatedQFunc(LinComb):
    """Polynomial in x_1..x_N with QTPoly coefficients, keyed by exponents."""

    __slots__ = ("N",)
    _fields = ("N",)
    _coeff = staticmethod(QTPoly.of)
    _descending = True

    def __init__(self, N: int, terms: dict[tuple[int, ...], QTPoly] | Iterable = ()):
        object.__setattr__(self, "N", int(N))
        super().__init__(terms)

    def _key(self, exps) -> tuple[int, ...]:
        exps = tuple(map(int, exps))
        if len(exps) != self.N or min(exps, default=0) < 0:
            raise DomainError("exponent vector does not fit the variable count")
        return exps

    def at_q(self, value) -> TruncatedQFunc:
        return TruncatedQFunc(self.N, {e: v.at_q(value) for e, v in self.terms.items()})

    def at_t(self, value) -> TruncatedQFunc:
        return TruncatedQFunc(self.N, {e: v.at_t(value) for e, v in self.terms.items()})

    def __repr__(self) -> str:
        bits = [f"x^{list(e)}: {c!r}" for e, c in self.sorted_terms()]
        return f"TruncatedQFunc(N={self.N}, [{', '.join(bits)}])"

    def to_json_obj(self) -> dict:
        return {
            "N": self.N,
            "terms": [
                {"exponents": list(e), "coeff": c.to_json_obj()}
                for e, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> TruncatedQFunc:
        return TruncatedQFunc(
            obj["N"],
            [
                (tuple(t["exponents"]), QTPoly.from_json_obj(t["coeff"]))
                for t in obj["terms"]
            ],
        )


def _check_coloring_budget(D: Digraph, N: int):
    if N < 0:
        raise DomainError("variable count must be nonnegative")
    if N < D.total_weight():
        raise DomainError(
            f"need N >= w(D) = {D.total_weight()} variables to determine the series"
        )
    if N**max(D.n, 1) > DEFAULT_COLORING_BUDGET:
        raise DomainError(
            f"coloring enumeration too large ({N}^{D.n} colorings)"
        )


def _exponents(D: Digraph, kappa: Sequence[int], N: int) -> tuple[int, ...]:
    exps = [0] * N
    for v in range(1, D.n + 1):
        exps[kappa[v - 1] - 1] += D.weights[v - 1]
    return tuple(exps)


def _coloring_counts(D: Digraph, N: int) -> Counter:
    """Colorings [n] -> [N] counted by (exponent vector, ascents, monochromatic arcs)."""
    counts: Counter = Counter()
    for kappa in iproduct(range(1, N + 1), repeat=D.n):
        asc, _, mono = arc_statistics(D, kappa)
        counts[_exponents(D, kappa, N), asc, mono] += 1
    return counts


def xq(D: Digraph, N: int) -> TruncatedQFunc:
    """Sum of q^asc(kappa) x_kappa over proper colorings kappa: [n] -> [N].

    A coloring is proper when no arc is monochromatic; a loop arc therefore
    kills every coloring and the result is zero.
    """
    _check_coloring_budget(D, N)
    if D.has_loop():
        return TruncatedQFunc(N)
    counts = _coloring_counts(D, N)
    return TruncatedQFunc(
        N, [(exps, QTPoly.q(asc) * c) for (exps, asc, mono), c in counts.items() if not mono]
    )


def tq(D: Digraph, N: int) -> TruncatedQFunc:
    """Sum of q^asc(kappa) (1+t)^e(kappa) x_kappa over all colorings."""
    _check_coloring_budget(D, N)
    counts = _coloring_counts(D, N)
    return TruncatedQFunc(
        N,
        [
            (exps, QTPoly.q(asc) * qt_onep_t_power(mono) * c)
            for (exps, asc, mono), c in counts.items()
        ],
    )


def tq_from_connected_partitions(D: Digraph, N: int) -> TruncatedQFunc:
    """TQ as a sum of (1+t)^e(pi) XQ(D/pi) over connected partitions.

    Connectivity of blocks is judged in the underlying undirected graph;
    e(pi) counts intra-block arcs with multiplicity, loops included.
    """
    _check_coloring_budget(D, N)
    total = TruncatedQFunc(N)
    for blocks in connected_partitions(underlying(D)):
        label = block_index_map(blocks)
        internal = sum(1 for u, v in D.arcs if label[u] == label[v])
        piece = xq(contract_digraph_partition(D, blocks), N)
        total = total + piece.scale(qt_onep_t_power(internal))
    return total


def tq_from_arc_subsets(D: Digraph, N: int) -> TruncatedQFunc:
    """TQ as a sum of (1+t)^|S| XQ(D/S) over arc subsets.

    Contracting a non-induced S leaves a loop, whose XQ vanishes, so the
    sum silently restricts itself to induced sets.
    """
    subsets = subsets_by_size(len(D.arcs), "arc")
    _check_coloring_budget(D, N)
    total = TruncatedQFunc(N)
    for S in subsets:
        piece = xq(contract_arc_set(D, S), N)
        if not piece.is_zero():
            total = total + piece.scale(qt_onep_t_power(len(S)))
    return total


def truncate_symfunc(f: SymFunc, N: int) -> TruncatedQFunc:
    """Expand an m~-basis symmetric function into N variables.

    m~_lambda contributes its coefficient to every arrangement of lambda's
    parts across the variables, times the product of part-multiplicity
    factorials.
    """
    if f.basis != "mtilde":
        raise DomainError("truncation expects the mtilde basis")
    items = []
    for lam, coeff in f.terms.items():
        qt = QTPoly.of(coeff) * augmentation_factor(lam)
        items += [(exps, qt) for exps in _arrangements(lam, N)]
    return TruncatedQFunc(N, items)
