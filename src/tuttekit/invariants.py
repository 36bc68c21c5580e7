"""Chromatic and Tutte symmetric functions of weighted multigraphs.

X sums x_kappa over proper colorings, with x^w monomials; XB sums over all
colorings with a (1+t) factor per monochromatic edge.  Both collapse to sums
over set partitions of the vertex set, which is how they are computed here.
Four independent routes to XB are provided and must agree:

  * the definitional partition sum,
  * deletion-contraction with memoization,
  * the edge-subset contraction expansion,
  * the connected-partition expansion.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

from tuttekit.combinatorics import (
    DEFAULT_ENUMERATION_BOUND,
    DomainError,
    TPoly,
    check_bound,
    check_subset_count,
    enumerate_set_partitions,
    onep_t_power,
    subsets_by_size,
)
from tuttekit.graphs import (
    Multigraph,
    acyclic_orientations,
    canonical_form,
    connected_partitions,
    contract_edge,
    contract_edge_set,
    contract_partition,
    delete_edges,
    internal_edge_count,
)
from tuttekit.symfun import SymFunc, coefficient_in_onep_t, m_to_e, mtilde_to_m, sigma_l
from tuttekit.symfun import specialize_t  # re-exported: evaluation lives with SymFunc

__all__ = [
    "chromatic_sym",
    "chromatic_sym_delcon",
    "tutte_sym",
    "tutte_sym_delcon",
    "tutte_from_contractions",
    "tutte_from_connected_partitions",
    "specialize_t",
    "sigma_l_formula",
]


#### definitional routes #######################################################

def _block_lambda(weights):
    """lambda_of, unchecked, for the enumerator's blocks: pi -> block weights, largest first."""
    if all(w == 1 for w in weights):
        return lambda pi: tuple(sorted(map(len, pi), reverse=True))
    weight = (0, *weights).__getitem__
    return lambda pi: tuple(sorted([sum(map(weight, b)) for b in pi], reverse=True))


def chromatic_sym(G: Multigraph, max_n: int | None = None) -> SymFunc:
    """X of (G, w) in the augmented monomial basis.

    Sums m~ over stable partitions (no internal edges); identically zero as
    soon as G has a loop.
    """
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, max_n, "partition enumeration")
    if G.has_loop():
        return SymFunc.zero("mtilde")
    shape = _block_lambda(G.weights)
    stable = enumerate_set_partitions(G.n, edge_sets=[G.edges], max_internal=0)
    return SymFunc("mtilde", Counter(shape(pi) for pi, _ in stable))


def tutte_sym(G: Multigraph, max_n: int | None = None) -> SymFunc:
    """XB of (G, w): the full partition sum with (1+t)^(internal edges)."""
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, max_n, "partition enumeration")
    shape = _block_lambda(G.weights)
    counts = Counter(
        (shape(pi), e)
        for pi, (e,) in enumerate_set_partitions(G.n, edge_sets=[G.edges])
    )
    return SymFunc("mtilde", [(lam, onep_t_power(e) * c) for (lam, e), c in counts.items()])


#### deletion-contraction ######################################################

# Deletion-contraction results by canonical form, shared by every call in
# the process and kept in least-recently-used order (a hit moves its entry
# to the end, a full memo drops its first entry).  An entry takes 2 to
# 4 KB, so the cap holds the memo to roughly 10 to 15 MB.
DELCON_MEMO_CAP = 4096
_delcon_memo: dict[tuple[str, bytes], SymFunc] = {}


def _memo_get(key) -> SymFunc | None:
    hit = _delcon_memo.pop(key, None)
    if hit is not None:
        _delcon_memo[key] = hit
    return hit


def _memo_put(key, value: SymFunc) -> None:
    if len(_delcon_memo) >= DELCON_MEMO_CAP:
        del _delcon_memo[next(iter(_delcon_memo))]
    _delcon_memo[key] = value


def _edgeless_partition_sum(G: Multigraph) -> SymFunc:
    shape = _block_lambda(G.weights)
    return SymFunc("mtilde", Counter(map(shape, enumerate_set_partitions(G.n))))


def _first_nonloop(G: Multigraph):
    for e in G.edges:
        if e[0] != e[1]:
            return e
    return None


def tutte_sym_delcon(G: Multigraph, max_n: int | None = None) -> SymFunc:
    """XB by deletion-contraction: XB(G) = XB(G-e) + t XB(G/e).

    A loop satisfies G/e = G-e, so each loop contributes a (1+t) factor;
    the recursion therefore picks the smallest non-loop edge and handles
    loops in one multiplication at the base.  Memoized by canonical form.
    """
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, max_n, "partition enumeration")
    key = ("xb", canonical_form(G, max(G.n, 1)))
    hit = _memo_get(key)
    if hit is not None:
        return hit
    e = _first_nonloop(G)
    if e is None:
        nloops = len(G.edges)
        result = _edgeless_partition_sum(G).scale(onep_t_power(nloops))
    else:
        result = tutte_sym_delcon(delete_edges(G, [e]), max_n) + tutte_sym_delcon(
            contract_edge(G, e), max_n
        ).scale(TPoly.t())
    _memo_put(key, result)
    return result


def chromatic_sym_delcon(G: Multigraph, max_n: int | None = None) -> SymFunc:
    """X by deletion-contraction: X(G) = X(G-e) - X(G/e); loops kill X."""
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, max_n, "partition enumeration")
    if G.has_loop():
        return SymFunc.zero("mtilde")
    key = ("x", canonical_form(G, max(G.n, 1)))
    hit = _memo_get(key)
    if hit is not None:
        return hit
    e = _first_nonloop(G)
    if e is None:
        result = _edgeless_partition_sum(G)
    else:
        result = chromatic_sym_delcon(delete_edges(G, [e]), max_n) - chromatic_sym_delcon(
            contract_edge(G, e), max_n
        )
    _memo_put(key, result)
    return result


#### contraction expansions ####################################################

def tutte_from_contractions(G: Multigraph, max_n: int | None = None) -> SymFunc:
    """XB as the sum over edge subsets S of (1+t)^|S| X(G/S).

    Subsets range over edge instances, so each copy of a multi-edge is its
    own element.  Contractions that leave a loop contribute X = 0.
    """
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, max_n, "partition enumeration")
    total = SymFunc.zero("mtilde")
    # distinct subsets often contract to the same labelled graph
    x_cache: dict[tuple, SymFunc] = {}
    for idx in subsets_by_size(len(G.edges)):
        H = contract_edge_set(G, [G.edges[i] for i in idx])
        X = x_cache.get(H.key())
        if X is None:
            X = chromatic_sym(H, max_n)
            x_cache[H.key()] = X
        if not X.is_zero():
            total = total + X.scale(onep_t_power(len(idx)))
    return total


def tutte_from_connected_partitions(G: Multigraph, max_n: int | None = None) -> SymFunc:
    """XB as the sum over connected partitions pi of (1+t)^e(pi) X(G/pi)."""
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, max_n, "partition enumeration")
    total = SymFunc.zero("mtilde")
    for pi in connected_partitions(G):
        e = internal_edge_count(G, pi)
        X = chromatic_sym(contract_partition(G, pi), max_n)
        if not X.is_zero():
            total = total + X.scale(onep_t_power(e))
    return total


#### e-basis coefficient formula ###############################################

def _sink_map_counts(weights: list[int], cap: int) -> list[int]:
    """Coefficients of z^0..z^cap in prod over sinks of ((1+z)^w - 1).

    The l-th coefficient counts ways to pick a nonempty subset of each sink's
    weight budget with total size l (the sink-map weight statistic).
    """
    poly = [1] + [0] * cap
    for w in weights:
        factor = [comb(w, i) if i else 0 for i in range(min(w, cap) + 1)]
        new = [0] * (cap + 1)
        for i, a in enumerate(poly):
            if a == 0:
                continue
            for j, b in enumerate(factor):
                if b and i + j <= cap:
                    new[i + j] += a * b
        poly = new
    return poly


def sigma_l_formula(G: Multigraph, k: int, l: int, max_n: int | None = None) -> Fraction:
    """Orientation formula for sigma_l of the (1+t)^k component of XB.

    Sums over edge subsets A of size k and acyclic orientations of G/A; each
    orientation contributes its signed count of sink maps of weight l.  The
    sign for a contraction is (-1)^(|V(G/A)| + w(G)), which agrees with
    (-1)^(k + |V(G)| + w(G)) whenever A is a forest and stays correct when A
    carries cycles (|V(G/A)| then differs from |V(G)| - k).

    Must equal sigma_l of the e-expansion of the (1+t)^k coefficient of
    XB(G), exactly.
    """
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, max_n, "partition enumeration")
    check_subset_count(len(G.edges))
    if k < 0 or l < 0:
        raise DomainError("indices must be nonnegative")
    wG = G.total_weight()
    total = 0
    m = len(G.edges)
    for idx in combinations(range(m), k):
        H = contract_edge_set(G, [G.edges[i] for i in idx])
        if H.has_loop():
            continue
        sign_A = -1 if (H.n + wG) % 2 else 1
        for _, sinks in acyclic_orientations(H):
            counts = _sink_map_counts([H.weights[v - 1] for v in sinks], l)
            c = counts[l]
            if c:
                inner = -1 if (l - len(sinks)) % 2 else 1
                total += sign_A * inner * c
    return Fraction(total)


def sigma_l_direct(G: Multigraph, k: int, l: int, max_n: int | None = None) -> Fraction:
    """Reference route: e-expansion of the (1+t)^k component of XB."""
    f = coefficient_in_onep_t(tutte_sym(G, max_n), k)
    return sigma_l(m_to_e(mtilde_to_m(f)), l).constant_value()
