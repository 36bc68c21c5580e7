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
from math import comb
from typing import Iterable, Sequence

from tuttekit.combinatorics import (
    DEFAULT_ENUMERATION_BOUND,
    DomainError,
    as_int,
    block_index_map,
    check_bound,
    check_subset_count,
    enumerate_set_partitions,
    onep_t_power,
)
from tuttekit.graphs import (
    Multigraph,
    acyclic_orientations,
    _canonical_labelling,
    _component_labels,
    _flats,
    _neighbour_masks,
    _pair,
    _quotient,
    connected_partitions,
)
from tuttekit.lincomb import LRUCache
from tuttekit.symfun import SymFunc, coefficient_in_onep_t, m_to_e, mtilde_to_m, sigma_l


#### definitional routes #######################################################

def _stable_counts(n: int, edges, weights) -> dict:
    """Stable partitions of ([n], edges) counted by block-weight vector, as
    {vector: int}; sorting each vector into its shape gives X's m~ coefficients.

    A restricted-growth walk of its own, apart from `enumerate_set_partitions`:
    each block keeps a vertex bitmask and a weight sum, and vertex i may join
    a block holding none of its neighbours or open a new one.  One loop in
    one frame places vertices 1..n-1; the last vertex's choices are tallied
    in a flat inner loop, by the vector of block weights.  Callers sort
    each distinct vector into its shape once, after adding up their counts.
    """
    if any(u == v for u, v in edges):
        return {}
    if n <= 1:
        return {tuple(weights[:n]): 1}
    adj = _neighbour_masks(n, edges)
    masks: list[int] = []
    sums: list[int] = []
    choice = [0] * n
    vectors: dict[tuple[int, ...], int] = {}
    last, w_last = adj[n], weights[n - 1]
    i, b = 1, 0
    while True:
        # vertex i takes the first block from b on that holds no neighbour, else a new one
        a = adj[i]
        while b < len(masks) and masks[b] & a:
            b += 1
        choice[i] = b
        if b < len(masks):
            masks[b] |= 1 << i
            sums[b] += weights[i - 1]
        else:
            masks.append(1 << i)
            sums.append(weights[i - 1])
        if i < n - 1:
            i, b = i + 1, 0
            continue
        for c, mask in enumerate(masks):
            if not mask & last:
                x = sums[c]
                sums[c] = x + w_last
                key = tuple(sums)
                vectors[key] = vectors.get(key, 0) + 1
                sums[c] = x
        key = (*sums, w_last)
        vectors[key] = vectors.get(key, 0) + 1
        # back up past the vertices that opened a block: they have no choice left
        while i and masks[-1] == 1 << i:
            masks.pop()
            sums.pop()
            i -= 1
        if not i:
            break
        b = choice[i]
        masks[b] ^= 1 << i
        sums[b] -= weights[i - 1]
        b += 1
    return vectors


def _onep_t_sum(counts: dict) -> dict:
    """sum of c (1+t)^k m~_lam over counts[(v, k)] = c, lam the shape of the
    block-weight vector v, as {lam: {power of t: int}}; each v is sorted once.
    """
    coeffs: dict[tuple[int, ...], dict[int, int]] = {}
    for (v, k), c in counts.items():
        d = coeffs.setdefault(tuple(sorted(v, reverse=True)), {})
        for i, b in onep_t_power(k).terms.items():
            d[i] = d.get(i, 0) + b * c
    return coeffs


def chromatic_sym(G: Multigraph) -> SymFunc:
    """X of (G, w) in the augmented monomial basis.

    Sums m~ over stable partitions (no internal edges); identically zero as
    soon as G has a loop.
    """
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, "partition enumeration")
    vectors = _stable_counts(G.n, G.edges, G.weights)
    return SymFunc("mtilde")._like_nested(_onep_t_sum({(v, 0): c for v, c in vectors.items()}))


def tutte_sym(G: Multigraph) -> SymFunc:
    """XB of (G, w): the full partition sum with (1+t)^(internal edges)."""
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, "partition enumeration")
    walk = enumerate_set_partitions(G.n, edge_sets=[G.edges], weights=G.weights)
    return SymFunc("mtilde")._like_nested(_onep_t_sum({(v, e): c for (v, (e,)), c in Counter(walk).items()}))


#### deletion-contraction ######################################################

# _delcon's values, for every call in the process; n bounds an entry's size (README "Bounds")
DELCON_MEMO_CAP = 2900
_delcon_memo = LRUCache(DELCON_MEMO_CAP)


def _delcon(n: int, edges: tuple, weights: tuple) -> dict:
    """XB of the packed loop-free graph ([n], edges, weights), edges a
    sorted tuple of pairs, as {lam: {k: int}}: sum c (1+t)^k m~_lam.

    In powers of (1+t) a count is the number of set partitions of shape lam
    with k edges inside blocks, so every stored count is positive, an
    entry's size depends on n, not on edge multiplicity, and the counts at
    k = 0 are X's.  All m copies of the smallest pair uv go in one step:
    XB(G) = XB(G - uv^m) + ((1+t)^m - 1) XB(G/uv), since each copy left in
    G/uv is a loop worth a factor (1+t), so G/uv's counts are added shifted
    by m and subtracted.  G/uv keeps no loop, so each level removes a
    distinct pair and the depth is at most their number.  Values are
    memoised by canonical form and never changed once stored; the entry
    points expand them to powers of t once, into fresh dicts.
    """
    key = _canonical_labelling(n, edges, weights)[0]
    hit = _delcon_memo.hit(key)
    if hit is not None:
        return hit
    if not edges:
        tally = {(): 1}  # shape: set partitions of the vertices so far
        for w in weights:
            grown: dict[tuple[int, ...], int] = {}
            for lam, c in tally.items():
                # the vertex opens a block (b = 0) or joins one of the lam.count(b) blocks of weight b
                for b in {0, *lam}:
                    i = lam.index(b) if b else len(lam)
                    shape = tuple(sorted((*lam[:i], b + w, *lam[i + 1:]), reverse=True))
                    grown[shape] = grown.get(shape, 0) + c * (lam.count(b) or 1)
            tally = grown
        result = {lam: {0: c} for lam, c in tally.items()}
    else:
        m = edges.count(edges[0])  # sorted, so the copies of edges[0] lead
        rest = edges[m:]
        label, k = _component_labels(n, edges[:1])
        pairs, merged = _quotient(rest, weights, label, k)
        # the deleted graph's count dicts are shared, and copied before a change;
        # every shape of G/uv is one of G's, so no shape's counts cancel out
        result = dict(_delcon(n, rest, weights))
        for lam, c in _delcon(k, tuple(sorted(_pair(u, v) for u, v in pairs)), tuple(merged)).items():
            d = dict(result.get(lam, ()))
            for j, x in c.items():
                d[j + m] = d.get(j + m, 0) + x
                d[j] = d.get(j, 0) - x
            result[lam] = {j: x for j, x in d.items() if x}
    return _delcon_memo.keep(key, result)


def tutte_sym_delcon(G: Multigraph) -> SymFunc:
    """XB by deletion-contraction, one parallel class per step, memoised.

    A loop e has G/e = G-e, so it is a factor (1+t): the loops are taken
    off here and put back by adding their number to every power of (1+t),
    and the recursion sees no loop.
    """
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, "partition enumeration")
    edges = tuple(e for e in G.edges if e[0] != e[1])
    loops = len(G.edges) - len(edges)
    value = _delcon(G.n, edges, G.weights)
    return SymFunc("mtilde")._like_nested(
        _onep_t_sum({(lam, k + loops): c for lam, d in value.items() for k, c in d.items()})
    )


def chromatic_sym_delcon(G: Multigraph) -> SymFunc:
    """X by deletion-contraction, as XB at t = -1: the counts at (1+t)^0,
    the set partitions with no edge inside a block.  A loop makes X zero;
    otherwise the recursion runs on G itself, so X of a graph whose XB was
    just computed is one memo hit."""
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, "partition enumeration")
    value = {} if G.has_loop() else _delcon(G.n, G.edges, G.weights)
    return SymFunc("mtilde")._like_nested({lam: {0: d[0]} for lam, d in value.items() if 0 in d})


#### contraction expansions ####################################################

def _xb_from_labellings(G: Multigraph, labellings: Iterable[tuple[Sequence[int], int]]) -> SymFunc:
    """XB as the sum of (1+t)^e(pi) X(G/pi) over the labellings (label, k)
    of the connected partitions pi of G.  The edges of G/pi are those of G
    between two blocks, and e(pi) counts the rest; G/pi is never built as
    a Multigraph.  Stable-partition counts add up as ints keyed by
    (block-weight vector, e); each vector is sorted into its shape, and
    each shape's TPoly built, once at the end."""
    counts: dict = {}
    for label, k in labellings:
        between, weights = _quotient(G.edges, G.weights, label, k)
        e = len(G.edges) - len(between)
        for vector, c in _stable_counts(k, between, weights).items():
            counts[vector, e] = counts.get((vector, e), 0) + c
    return SymFunc("mtilde")._like_nested(_onep_t_sum(counts))


def tutte_from_contractions(G: Multigraph) -> SymFunc:
    """XB as the sum over edge subsets S of (1+t)^|S| X(G/S).

    Subsets range over edge instances, so each copy of a multi-edge is its
    own element.  X(G/S) vanishes when the contraction leaves a loop, so
    only the flats of the cycle matroid are walked, by `graphs._flats`; the
    components of a flat S form a connected partition pi with G/S = G/pi
    and |S| = e(pi).
    """
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, "partition enumeration")
    check_subset_count(len(G.edges))
    return _xb_from_labellings(G, _flats(G.n, G.edges))


def tutte_from_connected_partitions(G: Multigraph) -> SymFunc:
    """XB as the sum over connected partitions pi of (1+t)^e(pi) X(G/pi),
    the partitions enumerated by `graphs.connected_partitions`."""
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, "partition enumeration")
    return _xb_from_labellings(G, ((block_index_map(pi), len(pi)) for pi in connected_partitions(G)))


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


def sigma_l_formula(G: Multigraph, k: int, l: int) -> Fraction:
    """Orientation formula for sigma_l of the (1+t)^k component of XB.

    Sums over edge subsets A of size k and acyclic orientations of G/A; each
    orientation contributes its signed count of sink maps of weight l.  The
    sign for a contraction is (-1)^(|V(G/A)| + w(G)), which agrees with
    (-1)^(k + |V(G)| + w(G)) whenever A is a forest and stays correct when A
    carries cycles (|V(G/A)| then differs from |V(G)| - k).

    Must equal sigma_l of the e-expansion of the (1+t)^k coefficient of
    XB(G), exactly.  It is 0 without any enumeration when k exceeds the
    edge count or l the total weight w(G), the degree of XB.
    """
    k, l = as_int(k, "power index"), as_int(l, "partition length")
    check_bound(G.n, DEFAULT_ENUMERATION_BOUND, "partition enumeration")
    check_subset_count(len(G.edges))
    if k < 0 or l < 0:
        raise DomainError("indices must be nonnegative")
    wG = G.total_weight()
    if k > len(G.edges) or l > wG:
        return Fraction(0)
    total = 0
    for label, n_A in _flats(G.n, G.edges):
        between, weights = _quotient(G.edges, G.weights, label, n_A)
        if len(G.edges) - len(between) != k:  # |A|, as a flat holds every edge inside its blocks
            continue
        H = Multigraph(n_A, between, weights)
        sign_A = -1 if (H.n + wG) % 2 else 1
        for _, sinks in acyclic_orientations(H):
            counts = _sink_map_counts([H.weights[v - 1] for v in sinks], l)
            c = counts[l]
            if c:
                inner = -1 if (l - len(sinks)) % 2 else 1
                total += sign_A * inner * c
    return Fraction(total)


def sigma_l_direct(G: Multigraph, k: int, l: int) -> Fraction:
    """Reference route: e-expansion of the (1+t)^k component of XB."""
    f = coefficient_in_onep_t(tutte_sym(G), k)
    return sigma_l(m_to_e(mtilde_to_m(f)), l).constant_value()
