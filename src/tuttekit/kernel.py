"""Formal combinations of labelled graphs and the kernel of XB.

A combination is a finite TPoly-linear sum of unit-weight multigraphs on a
shared vertex set [n].  This module decides Tutte- and X-friendliness,
builds the witness graph showing non-friendly combinations escape the
kernel under extension, reduces combinations to canonical star forests with
a replayable certificate, and constructs the named modular relations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as iproduct
from math import prod
from typing import Iterable, Sequence

from tuttekit.combinatorics import (
    DEFAULT_ENUMERATION_BOUND,
    DEFAULT_REDUCTION_BOUND,
    DomainError,
    TPoly,
    as_int,
    augmentation_factor,
    block_index_map,
    check_bound,
    check_subset_count,
    enumerate_set_partitions,
    format_rational,
    json_field,
    json_list,
    multinomial,
    normalize_blocks,
    onep_t_power,
    partitions_of,
    sorted_partition,
    subsets_by_size,
)
from tuttekit.graphs import (
    MAX_VERTICES,
    Multigraph,
    _components_of,
    _dull_triple,
    _norm_edge,
    _pair,
    _relabelled,
    _star_forest_map,
    _without,
    broom,
    canonical_star_forest,
    complement,
    complete,
    delete_edges,
    graph_from_json_obj,
    graph_to_json_obj,
    internal_edge_count,
    relabel,
    right_endpoint_key,
    simple_graph,
    star_forest_shape,
    two_edge_connected,
    vertex_count,
)
from tuttekit.invariants import chromatic_sym, tutte_sym
from tuttekit.lincomb import LinComb, echo, merge_terms
from tuttekit.symfun import SymFunc

_T = TPoly.t()
_ONE = TPoly.one()


#### combinations ##############################################################

class GraphCombination(LinComb):
    """TPoly-linear combination of unit-weight multigraphs on [n].

    Identical labelled graphs merge; zero coefficients drop.
    """

    __slots__ = ("n",)
    _fields = ("n",)
    _coeff = staticmethod(TPoly.of)
    _order = staticmethod(Multigraph.key)

    def __init__(self, n: int, terms: Iterable[tuple[Multigraph, TPoly]] | dict = ()):
        object.__setattr__(self, "n", vertex_count(n))
        super().__init__(terms)

    def _key(self, g: Multigraph) -> Multigraph:
        if g.n != self.n:
            raise DomainError(f"graph on [{g.n}] in a combination on [{self.n}]")
        if not g.unit_weights():
            raise DomainError("combinations carry unit-weight graphs only")
        return g

    def __repr__(self) -> str:
        bits = [f"{c!r} * {g!r}" for g, c in self.sorted_terms()]
        return f"GraphCombination({self.n}, [{', '.join(bits)}])"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"coeff": c.to_strings(), "graph": graph_to_json_obj(g)}
                for g, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> GraphCombination:
        return GraphCombination(
            json_field(obj, "n"),
            [
                (
                    graph_from_json_obj(json_field(t, "graph")),
                    TPoly.from_strings(json_list(t, "coeff")),
                )
                for t in json_list(obj, "terms")
            ],
        )


def combination_tutte_sym(L: GraphCombination) -> SymFunc:
    """Termwise XB of a combination (exact)."""
    total = SymFunc.zero("mtilde")
    for g, c in L.terms.items():
        total = total + tutte_sym(g).scale(c)
    return total


#### standard form #############################################################

@dataclass(frozen=True)
class StandardForm:
    """Combination written as a sum of c * (1+t)^k * H with scalar c."""

    n: int
    terms: tuple[tuple[Fraction, int, Multigraph], ...]

    def to_combination(self) -> GraphCombination:
        return GraphCombination(
            self.n, [(g, onep_t_power(k) * c) for c, k, g in self.terms]
        )

    def is_zero(self) -> bool:
        return not self.terms

    def shape_triples(self) -> list[tuple[tuple[int, ...], int, Fraction]]:
        """(lambda, k, c) rows for star-forest supported forms."""
        return [(star_forest_shape(g), k, c) for c, k, g in self.terms]


def standard_form(L: GraphCombination) -> StandardForm:
    """Expand every TPoly coefficient into exact (1+t)-powers."""
    return _standard_form(L.n, _packed(L))


#### friendliness ##############################################################

def b_value(L: GraphCombination, blocks: Iterable[Iterable[int]]) -> TPoly:
    """B(L; pi): sum of coeff * (1+t)^(internal edge count) over the terms.

    Validates pi and counts from scratch: the reference for the counting
    scan in `is_tutte_friendly`.
    """
    blocks = normalize_blocks(L.n, blocks)
    vmap = block_index_map(blocks)
    acc = TPoly.zero()
    for g, c in L.terms.items():
        e = sum(1 for u, v in g.edges if vmap[u] == vmap[v])
        acc = acc + c * onep_t_power(e)
    return acc


def is_tutte_friendly(L: GraphCombination) -> tuple[bool, tuple | None, int | None]:
    """Scan all partitions of [n]; B(L; pi) must vanish identically.

    On failure returns (False, pi, a) with pi the first violating partition
    in enumeration order and a the least (1+t)-power with nonzero
    coefficient in B(L; pi).  Each coefficient is expanded in (1+t)-powers
    once; at pi a term with e internal edges shifts its powers up by e.
    """
    check_bound(L.n, DEFAULT_ENUMERATION_BOUND, "friendliness scan")
    packed = _packed(L)
    powers = [[(k, c) for k, c in enumerate(cs) if c != 0] for cs in packed.values()]
    for pi, counts in enumerate_set_partitions(L.n, edge_sets=list(packed)):
        b: dict[int, Fraction | int] = {}
        for p, e in zip(powers, counts):
            for k, c in p:
                b[k + e] = b.get(k + e, 0) + c
        nonzero = [k for k, c in b.items() if c != 0]
        if nonzero:
            return False, pi, min(nonzero)
    return True, None, None


def is_x_friendly(L: GraphCombination) -> tuple[bool, tuple | None]:
    """Scan all partitions; C(L; pi) must vanish.  Coefficients must be t-free."""
    check_bound(L.n, DEFAULT_ENUMERATION_BOUND, "friendliness scan")
    for c in L.terms.values():
        if c.degree() > 0:
            raise DomainError("X-friendliness is defined for t-free coefficients")
    graphs = list(L.terms)
    scalars = [L.terms[g].terms.get(0, 0) for g in graphs]
    for pi, counts in enumerate_set_partitions(L.n, edge_sets=[g.edges for g in graphs]):
        if sum(c for c, e in zip(scalars, counts) if e == 0) != 0:
            return False, pi
    return True, None


#### generators ################################################################

def ell_loop() -> GraphCombination:
    """Loop elimination: a loop costs a (1+t) factor."""
    return GraphCombination(
        1,
        [(Multigraph(1, [(1, 1)]), _ONE), (Multigraph(1), -(_ONE + _T))],
    )


def ell_multi() -> GraphCombination:
    """Multi-edge elimination: a doubled edge rewrites through (t+2), (t+1)."""
    return GraphCombination(
        2,
        [
            (Multigraph(2, [(1, 2), (1, 2)]), _ONE),
            (Multigraph(2, [(1, 2)]), -(_T + 2)),
            (Multigraph(2), _T + 1),
        ],
    )


def ell_tri() -> GraphCombination:
    """Six-term triangle relation."""
    return GraphCombination(
        3,
        [
            (Multigraph(3, [(1, 2), (1, 3), (2, 3)]), _ONE),
            (Multigraph(3, [(1, 2), (2, 3)]), -_ONE),
            (Multigraph(3, [(1, 3), (2, 3)]), -(_T + 2)),
            (Multigraph(3, [(2, 3)]), _T + 2),
            (Multigraph(3, [(1, 3)]), _T + 1),
            (Multigraph(3), -(_T + 1)),
        ],
    )


def ell_os_plus() -> GraphCombination:
    """Four-term triangular relation: G + G^c - G\\{23} - (G\\{23})^c for G = {12,23}."""
    return GraphCombination(
        3,
        [
            (Multigraph(3, [(1, 2), (2, 3)]), _ONE),
            (Multigraph(3, [(1, 3)]), _ONE),
            (Multigraph(3, [(1, 2)]), -_ONE),
            (Multigraph(3, [(1, 3), (2, 3)]), -_ONE),
        ],
    )


def ell_os() -> GraphCombination:
    """Triangle relation G - G\\{12} - G\\{13} + G\\{12,13} for G the triangle."""
    K3 = complete(3)
    return GraphCombination(
        3,
        [
            (K3, _ONE),
            (delete_edges(K3, [(1, 2)]), -_ONE),
            (delete_edges(K3, [(1, 3)]), -_ONE),
            (delete_edges(K3, [(1, 2), (1, 3)]), _ONE),
        ],
    )


def ell_iso(G: Multigraph, sigma: Sequence[int]) -> GraphCombination:
    """Relabelling relation G - sigma(G)."""
    return GraphCombination(G.n, [(G, _ONE), (relabel(G, sigma), -_ONE)])


#### extension and witness #####################################################

# witness_graph refuses a host with more edges than this
MAX_WITNESS_EDGES = 1_000_000
# witness_mtilde_coefficient refuses a loop counted at more iterations than this
WITNESS_BUDGET = 5_000_000


def extend(L: GraphCombination, G: Multigraph) -> GraphCombination:
    """Overlay every term of L on the host graph G (multiset edge union)."""
    if G.n < L.n:
        raise DomainError(f"host on [{G.n}] cannot extend a combination on [{L.n}]")
    if not G.unit_weights():
        raise DomainError("host graph must have unit weights")
    return GraphCombination(
        G.n,
        [
            (Multigraph(G.n, G.edges + h.edges), c)
            for h, c in L.terms.items()
        ],
    )


def _witness_M(sf: StandardForm, blocks) -> int:
    worst = max(k + internal_edge_count(g, blocks) for _, k, g in sf.terms)
    return len(blocks) * (1 + worst)


def witness_graph(L: GraphCombination, blocks: Iterable[Iterable[int]], a: int | None = None) -> Multigraph:
    """Host graph whose extension of L certifies non-friendliness at pi.

    One cloud of M fresh vertices per block of pi; cloud i joins completely
    to every other block and to every other cloud; clouds are independent
    sets and the original vertices keep their edges only through the
    extension terms.  Requires B(L; pi) nonzero, with a (optional) pointing
    at a nonzero (1+t)-power of it.  A witness of more than
    `graphs.MAX_VERTICES` vertices or `MAX_WITNESS_EDGES` edges is refused
    before it is built.
    """
    blocks = normalize_blocks(L.n, blocks)
    b = b_value(L, blocks)
    if b.is_zero():
        raise DomainError("combination is friendly at this partition; no witness exists")
    powers = b.onep_t_powers()
    if a is None:
        a = next(i for i, c in enumerate(powers) if c != 0)
    elif not (0 <= a < len(powers)) or powers[a] == 0:
        raise DomainError(f"(1+t)^{a} has zero coefficient in B(L; pi)")
    n0 = L.n
    l = len(blocks)
    M = _witness_M(standard_form(L), blocks)
    size, edge_count = n0 + l * M, (l - 1) * n0 * M + l * (l - 1) // 2 * M * M
    if size > MAX_VERTICES or edge_count > MAX_WITNESS_EDGES:
        raise DomainError(
            f"witness too large ({size} vertices, {edge_count} edges; "
            f"limits {MAX_VERTICES} and {MAX_WITNESS_EDGES})"
        )
    cloud = [range(n0 + i * M + 1, n0 + (i + 1) * M + 1) for i in range(l)]
    edges: list[tuple[int, int]] = []
    for i in range(l):
        for j in range(l):
            if i != j:
                edges += [(u, v) for u in cloud[i] for v in blocks[j]]
        for j in range(i + 1, l):
            edges += [(u, v) for u in cloud[i] for v in cloud[j]]
    return Multigraph(size, edges)


def witness_mtilde_coefficient(L: GraphCombination, blocks: Iterable[Iterable[int]]) -> TPoly:
    """Coefficient of m~_(lambda*) in XB(extend(L, witness_graph(L, pi))).

    lambda* has one part |B_b| + M per block B_b of pi; a set partition of
    that type fills slot b, of size |B_b| + M, with base vertices and part
    of every cloud.  An assignment phi of the base vertices to slots fixes
    each term's edges inside slots and the count a[b][j] of B_j's vertices
    in slot b; the assignments with one matrix a share one pass over the
    clouds, whose state maps the room left in the slots to a polynomial
    {host edges inside slots: ways}.  Nothing enumerates partitions of the
    witness's vertex set.  WITNESS_BUDGET, read at the call, caps the loop
    iterations counted below.
    """
    blocks = normalize_blocks(L.n, blocks)
    sf = standard_form(L)
    n0, l = L.n, len(blocks)
    M = _witness_M(sf, blocks)
    sizes = [len(b) + M for b in blocks]
    blk = block_index_map(blocks)
    # l^n0 assignments; then, for each matrix (at most prod_j C(|B_j|+l-1, l-1))
    # and each cloud j, at most C(j*M+l-1, l-1) rooms times (M+1)^(l-1) heads.
    # l^n0 >= 2^(n0 (bits(l) - 1)), so that power of two, a shift, refuses a
    # count that could run to thousands of digits before it is formed or
    # printed.
    if 1 << (n0 * (l.bit_length() - 1)) > WITNESS_BUDGET:
        raise DomainError(f"witness coefficient enumeration too large ({l}^{n0} assignments)")
    est = l ** n0
    if est <= WITNESS_BUDGET:
        matrices = min(est, prod(multinomial([len(b), l - 1]) for b in blocks))
        est += matrices * sum(multinomial([j * M, l - 1]) for j in range(l)) * (M + 1) ** (l - 1)
    if est > WITNESS_BUDGET:
        raise DomainError(f"witness coefficient enumeration too large ({est} nodes)")
    # matrix a -> {(1+t)-power of the base edges inside slots: coefficient}
    by_matrix: dict[tuple, dict[int, Fraction | int]] = {}
    for phi in iproduct(range(l), repeat=n0):
        a = [[0] * l for _ in range(l)]
        for v, b in enumerate(phi, 1):
            a[b][blk[v]] += 1
        if all(sum(row) <= size for row, size in zip(a, sizes)):
            merge_terms(by_matrix.setdefault(tuple(map(tuple, a)), {}), (
                (k + sum(1 for u, v in g.edges if phi[u - 1] == phi[v - 1]), c) for c, k, g in sf.terms
            ))
    powers: dict[int, Fraction | int] = {}
    for a, base in by_matrix.items():
        # room left in each slot -> {(1+t)-power: coefficient times ways}
        state = {tuple(size - sum(row) for row, size in zip(a, sizes)): base}
        for j in range(l):
            after: dict[tuple, dict[int, Fraction | int]] = {}
            for room, poly in state.items():
                for head in iproduct(*(range(min(M, r) + 1) for r in room[:-1])):
                    vec = head + (M - sum(head),)
                    if 0 <= vec[-1] <= room[-1]:
                        # sizes[b] - room[b] vertices already fill slot b
                        shared = sum(x * (size - r - row[j]) for x, size, r, row in zip(vec, sizes, room, a))
                        ways = multinomial(vec)
                        acc = after.setdefault(tuple(r - x for r, x in zip(room, vec)), {})
                        merge_terms(acc, ((e + shared, c * ways) for e, c in poly.items()))
            state = after
        # every cloud is placed, so the one room left is all zero
        for poly in state.values():
            merge_terms(powers, poly.items())

    aug = augmentation_factor(sizes)
    arr = [0] * (max(powers, default=-1) + 1)
    for k, c in powers.items():
        arr[k] = Fraction(c, aug)
    return TPoly.from_onep_t_powers(arr)


#### reduction to star forests #################################################

@dataclass(frozen=True)
class ReductionStep:
    """One generator subtraction; graph is the term it was applied to."""

    gen: str  # "loop" | "multi" | "os_plus" | "iso"
    graph: Multigraph
    vertex: int | None = None
    pair: tuple[int, int] | None = None
    triple: tuple[int, int, int] | None = None
    case: int | None = None
    perm: tuple[int, ...] | None = None

    def to_json_obj(self) -> dict:
        out: dict = {"gen": self.gen, "graph": graph_to_json_obj(self.graph)}
        for name in ("vertex", "pair", "triple", "case", "perm"):
            value = getattr(self, name)
            if value is not None:
                out[name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class ReductionCertificate:
    """Ordered generator subtractions plus the canonical star-forest result."""

    steps: tuple[ReductionStep, ...]
    result: StandardForm

    def to_json_obj(self) -> dict:
        return {
            "steps": [s.to_json_obj() for s in self.steps],
            "result": [
                {"lambda": list(lam), "k": k, "c": format_rational(c)}
                for lam, k, c in self.result.shape_triples()
            ],
        }


# The reducer works on packed terms.  Every term of a combination lives on
# one [n] with unit weights, so a term is its sorted edge tuple; its
# coefficient is the tuple (c_0, ..., c_d) of the sum of c_k (1+t)^k, with
# c_d nonzero.  Each generator multiplies a coefficient by a polynomial in
# 1+t, so a rewrite edits edge tuples and convolves coefficient tuples.
# Multigraphs are built only for the recorded steps and the final terms.

_ONEP_T = (0, 1)  # 1+t
_T_PLUS_2 = (1, 1)  # (1+t) + 1
_MINUS_ONEP_T = (0, -1)
_PLUS = (1,)
_MINUS = (-1,)

# rewrite classes in the order the reducer empties them
_CLASSES = ("loop", "multi", "os_plus")

STAR_FOREST_CACHE_SIZE = 128


@lru_cache(maxsize=STAR_FOREST_CACHE_SIZE)
def _star_forest(lam: tuple[int, ...]) -> Multigraph:
    """R_lam, shared by every reduction: the last 128 shapes used are kept."""
    return canonical_star_forest(lam)


def _packed(L: GraphCombination) -> dict[tuple, tuple]:
    return {g.edges: c.onep_t_powers() for g, c in L.terms.items()}


def _standard_form(n: int, terms: dict[tuple, tuple]) -> StandardForm:
    """Packed terms as a StandardForm, rows sorted by edges and then k."""
    return StandardForm(n, tuple(
        (c, k, Multigraph._unchecked(n, h)) for h in sorted(terms) for k, c in enumerate(terms[h]) if c
    ))


def _merge_packed(terms: dict[tuple, tuple], c: tuple, products: Iterable[tuple[tuple, tuple]]) -> None:
    """terms[h] += c * m for each (edges h, multiplier m) in products, in
    place, dropping every zero sum; c and m are nonzero coefficient tuples."""
    for h, m in products:
        old = terms.get(h)
        if old is None and m == _PLUS:
            terms[h] = c
            continue
        s = list(old or ())
        s += [0] * (len(c) + len(m) - 1 - len(s))
        if m == _PLUS:
            for i, x in enumerate(c):
                s[i] += x
        elif m == _MINUS:
            for i, x in enumerate(c):
                s[i] -= x
        else:
            for i, x in enumerate(c):
                for j, y in enumerate(m):
                    s[i + j] += x * y
        while s and not s[-1]:
            s.pop()
        if s:
            terms[h] = tuple(s)
        else:
            del terms[h]


def _apply_step(terms: dict[tuple, tuple], step: ReductionStep) -> list[tuple]:
    """Replace the step's term by its products in packed terms, in place;
    return the products' edge tuples.

    Subtracting coefficient c times the generator extension turns the term
    c*H into the sum of c*m*H' over the products (H', m), where the
    multiplier m is a coefficient tuple in powers of (1+t).  Every product
    of a rewrite other than a relabelling must come later than H in the
    termination order; a RuntimeError reports one that does not.
    """
    g = step.graph.edges
    coeff = terms.pop(g, None)
    if coeff is None:
        return []
    if step.gen == "loop":
        v = step.vertex
        products = [(_without(g, [(v, v)]), _ONEP_T)]
    elif step.gen == "multi":
        e = _pair(*step.pair)
        once = _without(g, [e])
        products = [(once, _T_PLUS_2), (_without(once, [e]), _MINUS_ONEP_T)]
    elif step.gen == "os_plus":
        a, b, c = step.triple
        ab, ac, bc = _pair(a, b), _pair(a, c), _pair(b, c)
        # case 2 (ac absent) drops ab and bc; cases 1 and 3 share the 1<->2
        # frame swap and drop ab and ac; in case 3 the edge bc is still
        # present in the base, so the first product doubles it
        first, dropped = (ac, bc) if ac not in g else (bc, ac)
        base = _without(g, (ab, dropped))
        products = [
            (tuple(sorted(base + extra)), m) for extra, m in (((first,), _MINUS), ((ac, bc), _PLUS), ((ab,), _PLUS))
        ]
    elif step.gen == "iso":
        products = [(_relabelled(step.graph.n, g, step.perm), _PLUS)]
    else:
        raise DomainError(f"unknown generator tag {echo(step.gen)}")
    if step.gen != "iso":
        for h, _ in products:
            # fewer edges come later in the order; otherwise compare keys
            if len(h) >= len(g) and right_endpoint_key(h) <= right_endpoint_key(g):
                raise RuntimeError(
                    f"internal fault: {step.gen} rewrite of {step.graph!r} "
                    f"failed to increase the order at {Multigraph._unchecked(step.graph.n, h)!r}"
                )
    _merge_packed(terms, coeff, products)
    return [h for h, _ in products]


def _rewrite_of(n: int, edges: tuple) -> tuple[int, dict] | None:
    """(class, step fields) of the rewrite the reducer applies to a term;
    None for a bright star forest.  The class indexes `_CLASSES`."""
    multi = prev = None
    for e in edges:
        if e[0] == e[1]:
            # edges are sorted, so the first loop sits at the least vertex
            return 0, {"vertex": e[0]}
        if e == prev and multi is None:
            multi = e
        prev = e
    if multi is not None:
        return 1, {"pair": multi}
    triple = _dull_triple(n, edges)
    if triple is None:
        return None
    # ab is an edge and so is ac or bc
    a, b, c = triple
    if (a, c) not in edges:
        case, perm = 2, (1, 2, 3)
    elif (b, c) not in edges:
        case, perm = 1, (2, 1, 3)
    else:
        case, perm = 3, (2, 1, 3)
    return 2, {"triple": triple, "case": case, "perm": perm}


def reduce_to_star_forests(L: GraphCombination) -> tuple[StandardForm, ReductionCertificate]:
    """Rewrite L into a combination of canonical star forests R_lambda.

    Loops are eliminated first, then multi-edges, then dull triples (always
    the lexicographically smallest violating triple of the first offending
    term); finally every bright star forest is relabelled onto its canonical
    representative.  Each rewrite product strictly increases the
    right-endpoint order, which forces termination.  XB is preserved at
    every step because each subtraction is a kernel element.

    Terms are packed, as an edge tuple with a tuple of (1+t)-power
    coefficients.  Each term is classified once, when it enters the term
    map, by the rewrite it needs.  One heap holds those rewrites ordered
    by (class, edges), so the three classes act as three heaps
    emptied in turn; entries whose term has since left the map are
    skipped.  The popped rewrite is the one on the smallest labelled graph
    of the first non-empty class, the same choice as scanning all terms in
    `Multigraph.key` order for a loop, then a multi-edge, then a dull
    triple, so the certificate does not depend on how the next rewrite is
    found.
    """
    check_bound(L.n, DEFAULT_REDUCTION_BOUND, "reduction")
    n = L.n
    terms = _packed(L)
    steps: list[ReductionStep] = []
    # (class, edges) ties only between entries for one term, whose fields
    # are equal, so the heap never orders two field dicts
    worklist: list[tuple[int, tuple, dict]] = []

    def enqueue(hs: Iterable[tuple]):
        for h in hs:
            rewrite = _rewrite_of(n, h)
            if rewrite is not None:
                heapq.heappush(worklist, (rewrite[0], h, rewrite[1]))

    def record(step: ReductionStep) -> list[tuple]:
        steps.append(step)
        return _apply_step(terms, step)

    enqueue(terms)
    while worklist:
        cls, h, fields = heapq.heappop(worklist)
        if h in terms:
            step = ReductionStep(_CLASSES[cls], Multigraph._unchecked(n, h), **fields)
            enqueue(p for p in record(step) if p in terms)

    # relabel every remaining star forest onto its canonical representative
    identity = tuple(range(1, n + 1))
    for h in sorted(terms):
        lam, perm = _star_forest_map(n, h)
        if perm != identity:
            g = Multigraph._unchecked(n, h)
            if record(ReductionStep("iso", g, perm=perm)) != [_star_forest(lam).edges]:
                raise RuntimeError(f"internal fault: canonical map {perm} does not carry {g!r} onto R{list(lam)}")

    for h in sorted(terms):
        if h != _star_forest(sorted_partition(map(len, _components_of(n, h)))).edges:
            raise RuntimeError(
                f"internal fault: reduction left {Multigraph._unchecked(n, h)!r}, "
                "not a canonical star forest"
            )
    result = _standard_form(n, terms)
    return result, ReductionCertificate(tuple(steps), result)


def replay_certificate(L: GraphCombination, cert: ReductionCertificate) -> GraphCombination:
    """Re-apply the recorded steps to L and return the final combination.

    A step whose graph lies on another vertex set, or has other weights,
    is not a term of L and changes nothing.
    """
    terms = _packed(L)
    for step in cert.steps:
        if step.graph.n == L.n and step.graph.unit_weights():
            _apply_step(terms, step)
    return _standard_form(L.n, terms).to_combination()


def kernel_membership(L: GraphCombination) -> bool:
    """Is L in the kernel of XB?  Decided by reduction, cross-checked directly.

    The reduction verdict (all canonical star-forest coefficients zero) and
    the direct verdict (termwise XB sums to zero) must agree; disagreement
    is an internal fault, not a domain error.
    """
    result, _ = reduce_to_star_forests(L)
    by_reduction = result.is_zero()
    by_evaluation = combination_tutte_sym(L).is_zero()
    if by_reduction != by_evaluation:
        raise RuntimeError(
            "internal fault: reduction verdict "
            f"{by_reduction} disagrees with direct XB evaluation {by_evaluation}"
        )
    return by_reduction


#### named relations ###########################################################

def _edge_instance_index(G: Multigraph, e) -> int:
    """Resolve an edge given as 1-based index or endpoint pair to an index."""
    if isinstance(e, (tuple, list)):
        pair = _norm_edge(e, G.n)
        try:
            return G.edges.index(pair)
        except ValueError:
            raise DomainError(f"edge {pair} not present in the graph") from None
    e = as_int(e, "edge index")
    if not (1 <= e <= len(G.edges)):
        raise DomainError(f"edge index {echo(e)} out of range 1..{len(G.edges)}")
    return e - 1


def two_edge_connected_relation(G: Multigraph, e_i, e_j) -> GraphCombination:
    """Friendly combination attached to a two-edge-connected graph.

    Sums (-1)^|S| S over edge subsets containing e_i, plus (1+t) times the
    same over subsets avoiding e_j; S denotes the spanning subgraph ([n], S)
    and subsets range over edge instances.
    """
    if not G.unit_weights():
        raise DomainError("relation graphs must have unit weights")
    # refuse a large graph before the connectivity check, which takes O(m n^2)
    check_subset_count(len(G.edges))
    if not two_edge_connected(G):
        raise DomainError("graph is not two-edge-connected")
    i = _edge_instance_index(G, e_i)
    j = _edge_instance_index(G, e_j)
    return _signed_subset_sum(
        G.n,
        len(G.edges),
        lambda S: i in S,
        lambda S: j not in S,
        lambda S: Multigraph(G.n, [G.edges[x] for x in S]),
    )


def cycle_relation(G: Multigraph, cycle_edges: Sequence[Sequence[int]], i: int, j: int) -> GraphCombination:
    """Deletion-indexed relation along a cycle of G; its termwise XB is zero.

    Sums (-1)^|S| G\\S over subsets of the cycle's edges avoiding edge i,
    plus (1+t) times the same over subsets containing edge j (i, j are
    1-based positions in cycle_edges).
    """
    if not G.unit_weights():
        raise DomainError("relation graphs must have unit weights")
    edges = [_norm_edge(e, G.n) for e in cycle_edges]
    i, j = as_int(i, "cycle edge index"), as_int(j, "cycle edge index")
    m = len(edges)
    if m < 3:
        raise DomainError("cycle relation needs a cycle of length at least 3")
    # the listed edges must form one simple cycle inside G
    degs: dict[int, int] = {}
    for u, v in edges:
        if u == v:
            raise DomainError("cycle edges cannot be loops")
        degs[u] = degs.get(u, 0) + 1
        degs[v] = degs.get(v, 0) + 1
    if len(degs) != m or any(d != 2 for d in degs.values()):
        raise DomainError("listed edges do not form a simple cycle")
    if len([cc for cc in _components_of(G.n, edges) if len(cc) > 1]) != 1:
        raise DomainError("listed edges do not form a single cycle")
    delete_edges(G, edges)  # validates the multiset is inside E(G)
    if not (1 <= i <= m and 1 <= j <= m):
        raise DomainError(f"cycle edge indices must lie in 1..{m}")
    return _signed_subset_sum(
        G.n,
        m,
        lambda S: i - 1 not in S,
        lambda S: j - 1 in S,
        lambda S: delete_edges(G, [edges[x] for x in S]),
    )


def _signed_subset_sum(n: int, m: int, plain, with_t, graph) -> GraphCombination:
    """Sum over subsets S of range(m) of (-1)^|S| (plain(S) + (1+t) with_t(S)) graph(S).

    plain and with_t are predicates on S; graph(S) is the term's graph on [n].
    """
    terms: list[tuple[Multigraph, TPoly]] = []
    for S in subsets_by_size(m):
        coeff = plain(S) + with_t(S) * onep_t_power(1)
        if coeff:
            terms.append((graph(S), -coeff if len(S) % 2 else coeff))
    return GraphCombination(n, terms)


def s_pair(H1: Multigraph, H2: Multigraph) -> GraphCombination:
    """H1 + H1^c - H2 - H2^c on a shared vertex set."""
    if H1.n != H2.n:
        raise DomainError("vertex-set mismatch")
    return GraphCombination(
        H1.n,
        [
            (H1, _ONE),
            (complement(H1), _ONE),
            (H2, -_ONE),
            (complement(H2), -_ONE),
        ],
    )


def nontrivial_friendly_pair(H1: Multigraph, H2: Multigraph) -> bool:
    """Is s(H1; H2) friendly with H2 distinct from both H1 and its complement?"""
    if H2 == H1 or H2 == complement(H1):
        return False
    return is_tutte_friendly(s_pair(H1, H2))[0]


def classify_n4() -> list[tuple[Multigraph, ...]]:
    """Friendliness families among the 64 labelled simple graphs on [4].

    Tests every unordered pair once, links the nontrivially friendly ones,
    and returns the connected families (each closed under complementation),
    sorted for reproducibility.
    """
    graphs = [simple_graph(4, mask) for mask in range(1 << 6)]
    # friendly pairs link graphs, numbered from 1, into families
    links = [(a + 1, b + 1) for a, b in combinations(range(len(graphs)), 2)
             if nontrivial_friendly_pair(graphs[a], graphs[b])]
    families = []
    for comp in _components_of(len(graphs), links):
        if len(comp) > 1:
            members = {graphs[a - 1] for a in comp}
            members |= {complement(g) for g in members}
            families.append(tuple(sorted(members, key=lambda g: g.key())))
    families.sort(key=lambda fam: fam[0].key())
    return families


def broom_relation(n: int, k: int) -> GraphCombination:
    """Four-term broom exchange on [n+k], defined for n >= 0 and k >= 2.

    Adds the broom B(n,k) and the split path-plus-star, subtracts B(n+1,k-1)
    and the relabelled broom-with-isolated-vertex.  The fourth term keeps
    the star's hub at n+k and isolates n+1.  The four terms differ only
    inside the triple n, n+1, n+k, where n+1 is a bristle moved between the
    path's end and the hub, so the combination extends `ell_os_plus`.

    k = 1 is refused: the star is its bare hub, n+1 is that hub rather than
    a bristle, and the four terms collapse to P(n+1) - (P(n) + K1), whose
    m~_(n+1) coefficient t(1+t)^(n-1) is nonzero for n >= 1.
    """
    if n < 0:
        raise DomainError("broom relation needs n >= 0")
    if k < 2:
        raise DomainError(
            "broom relation needs k >= 2: the exchange moves a bristle of the "
            "k-vertex star, and a star with k < 2 has no bristle"
        )
    N = n + k
    check_bound(N, DEFAULT_ENUMERATION_BOUND, "broom relation")
    term1 = broom(n, k)
    path_edges = [(i, i + 1) for i in range(1, n + 1)]
    star_edges = [(j, N) for j in range(n + 2, N)]
    term2 = Multigraph(N, path_edges + star_edges)
    term3 = broom(n + 1, k - 1)
    t4_edges = [(i, i + 1) for i in range(1, n)] + star_edges
    if n >= 1:
        t4_edges.append((n, N))
    term4 = Multigraph(N, t4_edges)
    return GraphCombination(
        N,
        [(term1, _ONE), (term2, _ONE), (term3, -_ONE), (term4, -_ONE)],
    )


#### star-forest basis #########################################################

def star_forest_basis_matrix(n: int):
    """Rows: chromatic m~-coefficients of R_lambda for every lambda of n."""
    lams = list(partitions_of(n))
    cols = {lam: i for i, lam in enumerate(lams)}
    rows = []
    for lam in lams:
        X = chromatic_sym(canonical_star_forest(lam))
        row = [Fraction(0)] * len(lams)
        for mu, c in X.terms.items():
            row[cols[mu]] = c.constant_value()
        rows.append(row)
    return lams, rows


def star_forest_basis_rank(n: int) -> int:
    """Rank of the star-forest chromatic matrix; full rank means a basis."""
    _, rows = star_forest_basis_matrix(n)
    mat = [row[:] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank
