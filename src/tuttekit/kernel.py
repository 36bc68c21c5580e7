"""Formal combinations of labelled graphs and the kernel of XB.

A combination is a finite TPoly-linear sum of unit-weight multigraphs on a
shared vertex set [n].  This module decides Tutte- and X-friendliness,
builds the witness graph showing non-friendly combinations escape the
kernel under extension, reduces combinations to canonical star forests with
a replayable certificate, and constructs the named modular relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
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
    enumerate_set_partitions,
    format_rational,
    multinomial,
    normalize_blocks,
    onep_t_power,
    subsets_by_size,
)
from tuttekit.graphs import (
    Multigraph,
    broom,
    canonical_star_forest,
    complement,
    complete,
    connected_components,
    delete_edges,
    graph_from_json_obj,
    graph_to_json_obj,
    internal_edge_count,
    is_bright_star_forest,
    json_field,
    json_list,
    relabel,
    right_endpoint_key,
    simple_graph,
    star_forest_canonical_map,
    star_forest_shape,
    two_edge_connected,
)
from tuttekit.invariants import tutte_sym
from tuttekit.lincomb import LinComb, merge_terms
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
        object.__setattr__(self, "n", as_int(n, "vertex count"))
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


def combination_tutte_sym(L: GraphCombination, max_n: int | None = None) -> SymFunc:
    """Termwise XB of a combination (exact)."""
    total = SymFunc.zero("mtilde")
    for g, c in L.terms.items():
        total = total + tutte_sym(g, max_n).scale(c)
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

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"c": format_rational(c), "k": k, "graph": graph_to_json_obj(g)}
                for c, k, g in self.terms
            ],
        }


def standard_form(L: GraphCombination) -> StandardForm:
    """Expand every TPoly coefficient into exact (1+t)-powers."""
    rows: list[tuple[Fraction, int, Multigraph]] = []
    for g, coeff in L.terms.items():
        for k, c in enumerate(coeff.onep_t_powers()):
            if c != 0:
                rows.append((c, k, g))
    rows.sort(key=lambda r: (r[2].key(), r[1]))
    return StandardForm(L.n, tuple(rows))


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


def c_value(L: GraphCombination, blocks: Iterable[Iterable[int]]) -> Fraction:
    """C(L; pi): sum of the scalar coefficients of terms with no internal edge.

    Validates pi and counts from scratch: the reference for `is_x_friendly`.
    """
    blocks = normalize_blocks(L.n, blocks)
    vmap = block_index_map(blocks)
    acc = Fraction(0)
    for g, c in L.terms.items():
        if all(vmap[u] != vmap[v] for u, v in g.edges):
            acc += c.constant_value()
    return acc


def is_tutte_friendly(
    L: GraphCombination, max_n: int | None = None
) -> tuple[bool, tuple | None, int | None]:
    """Scan all partitions of [n]; B(L; pi) must vanish identically.

    On failure returns (False, pi, a) with pi the first violating partition
    in enumeration order and a the least (1+t)-power with nonzero
    coefficient in B(L; pi).  Each coefficient is expanded in (1+t)-powers
    once; at pi a term with e internal edges shifts its powers up by e.
    """
    check_bound(L.n, DEFAULT_ENUMERATION_BOUND, max_n, "friendliness scan")
    graphs = list(L.terms)
    powers = [
        [(k, c) for k, c in enumerate(L.terms[g].onep_t_powers()) if c != 0] for g in graphs
    ]
    for pi, counts in enumerate_set_partitions(L.n, edge_sets=[g.edges for g in graphs]):
        b: dict[int, Fraction | int] = {}
        for p, e in zip(powers, counts):
            for k, c in p:
                b[k + e] = b.get(k + e, 0) + c
        nonzero = [k for k, c in b.items() if c != 0]
        if nonzero:
            return False, pi, min(nonzero)
    return True, None, None


def is_x_friendly(L: GraphCombination, max_n: int | None = None) -> tuple[bool, tuple | None]:
    """Scan all partitions; C(L; pi) must vanish.  Coefficients must be t-free."""
    check_bound(L.n, DEFAULT_ENUMERATION_BOUND, max_n, "friendliness scan")
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


def _witness_M(L: GraphCombination, blocks) -> int:
    sf = standard_form(L)
    worst = max(k + internal_edge_count(g, blocks) for _, k, g in sf.terms)
    return len(blocks) * (1 + worst)


def witness_graph(L: GraphCombination, blocks: Iterable[Iterable[int]], a: int | None = None) -> Multigraph:
    """Host graph whose extension of L certifies non-friendliness at pi.

    One cloud of M fresh vertices per block of pi; cloud i joins completely
    to every other block and to every other cloud; clouds are independent
    sets and the original vertices keep their edges only through the
    extension terms.  Requires B(L; pi) nonzero, with a (optional) pointing
    at a nonzero (1+t)-power of it.
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
    M = _witness_M(L, blocks)
    cloud = [range(n0 + i * M + 1, n0 + (i + 1) * M + 1) for i in range(l)]
    edges: list[tuple[int, int]] = []
    for i in range(l):
        for j in range(l):
            if i != j:
                edges += [(u, v) for u in cloud[i] for v in blocks[j]]
        for j in range(i + 1, l):
            edges += [(u, v) for u in cloud[i] for v in cloud[j]]
    return Multigraph(n0 + l * M, edges)


def witness_mtilde_coefficient(
    L: GraphCombination, blocks: Iterable[Iterable[int]], budget: int = 5_000_000
) -> TPoly:
    """Coefficient of m~_(lambda*) in XB(extend(L, witness_graph(L, pi))).

    lambda* has one part |block| + M per block of pi.  Computed exactly by
    summing over assignments of base vertices to blocks of the target
    partition and distributions of each cloud across those blocks, without
    ever enumerating partitions of the witness's vertex set.  The budget
    caps the number of enumeration nodes.
    """
    blocks = normalize_blocks(L.n, blocks)
    sf = standard_form(L)
    n0, l = L.n, len(blocks)
    M = _witness_M(L, blocks)
    sizes = [len(b) + M for b in blocks]
    blk = block_index_map(blocks)
    est = (l ** n0) * (multinomial([M, l - 1]) ** l if l > 1 else 1)
    if est > budget:
        raise DomainError(f"witness coefficient enumeration too large ({est} nodes)")
    terms = list(sf.terms)
    powers: dict[int, Fraction | int] = {}

    for phi in iproduct(range(l), repeat=n0):
        caps = list(sizes)
        ok = True
        for b in phi:
            caps[b] -= 1
            if caps[b] < 0:
                ok = False
                break
        if not ok:
            continue
        base_in_slot = [0] * l  # base vertices assigned to slot b
        a_bj = [[0] * l for _ in range(l)]  # from original block j into slot b
        for v in range(1, n0 + 1):
            b = phi[v - 1]
            base_in_slot[b] += 1
            a_bj[b][blk[v]] += 1
        e_base = [
            sum(1 for u, v in g.edges if phi[u - 1] == phi[v - 1]) for _, _, g in terms
        ]

        # distribute cloud j = 0..l-1 over slots; cloudtot tracks per-slot
        # cloud occupancy so far for the cross-cloud internal count
        def rec(j: int, caps_left: list[int], cloudtot: list[int], weight: int, shared: int):
            if j == l:
                if any(caps_left):
                    return
                for idx, (c, k, _) in enumerate(terms):
                    key = k + e_base[idx] + shared
                    powers[key] = powers.get(key, 0) + c * weight
                return

            def cols(b: int, left: int, vec: list[int]):
                if b == l - 1:
                    if left <= caps_left[b]:
                        vec.append(left)
                        place(vec)
                        vec.pop()
                    return
                for take in range(min(left, caps_left[b]) + 1):
                    vec.append(take)
                    cols(b + 1, left - take, vec)
                    vec.pop()

            def place(vec: list[int]):
                add_shared = 0
                for b in range(l):
                    if vec[b]:
                        add_shared += vec[b] * cloudtot[b]
                        add_shared += vec[b] * (base_in_slot[b] - a_bj[b][j])
                new_caps = [caps_left[b] - vec[b] for b in range(l)]
                new_tot = [cloudtot[b] + vec[b] for b in range(l)]
                rec(j + 1, new_caps, new_tot, weight * multinomial(vec), shared + add_shared)

            cols(0, M, [])

        rec(0, caps, [0] * l, 1, 0)

    aug = augmentation_factor(sizes)
    if not powers:
        return TPoly.zero()
    arr = [0] * (max(powers) + 1)
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
        if self.vertex is not None:
            out["vertex"] = self.vertex
        if self.pair is not None:
            out["pair"] = list(self.pair)
        if self.triple is not None:
            out["triple"] = list(self.triple)
        if self.case is not None:
            out["case"] = self.case
        if self.perm is not None:
            out["perm"] = list(self.perm)
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


def _with_edges(g: Multigraph, extra: Iterable[tuple[int, int]]) -> Multigraph:
    return Multigraph(g.n, g.edges + tuple(extra))


def _step_products(step: ReductionStep) -> list[tuple[Multigraph, TPoly]]:
    """Graphs (with multipliers) that replace the step's term.

    Subtracting coefficient c times the generator extension turns the term
    c*H into the sum of c*multiplier over these products.
    """
    g = step.graph
    if step.gen == "loop":
        v = step.vertex
        return [(delete_edges(g, [(v, v)]), onep_t_power(1))]
    if step.gen == "multi":
        u, v = step.pair
        once = delete_edges(g, [(u, v)])
        twice = delete_edges(once, [(u, v)])
        return [(once, _T + 2), (twice, -(_T + 1))]
    if step.gen == "os_plus":
        a, b, c = step.triple
        if step.case == 2:
            base = delete_edges(g, [(a, b), (b, c)])
            return [
                (_with_edges(base, [(a, c)]), -_ONE),
                (_with_edges(base, [(a, c), (b, c)]), _ONE),
                (_with_edges(base, [(a, b)]), _ONE),
            ]
        # cases 1 and 3 share the 1<->2 frame swap; in case 3 the edge bc is
        # still present in the base, so the first product doubles it
        base = delete_edges(g, [(a, b), (a, c)])
        return [
            (_with_edges(base, [(b, c)]), -_ONE),
            (_with_edges(base, [(a, c), (b, c)]), _ONE),
            (_with_edges(base, [(a, b)]), _ONE),
        ]
    if step.gen == "iso":
        return [(relabel(g, step.perm), _ONE)]
    raise DomainError(f"unknown generator tag {step.gen!r}")


def _apply_step(terms: dict[Multigraph, TPoly], step: ReductionStep) -> None:
    c = terms.pop(step.graph, None)
    if c is None:
        return
    products = _step_products(step)
    if step.gen != "iso":
        src_key = right_endpoint_key(step.graph)
        for h, _ in products:
            if right_endpoint_key(h) <= src_key:
                raise RuntimeError(
                    f"internal fault: {step.gen} rewrite of {step.graph!r} "
                    f"failed to increase the order at {h!r}"
                )
    merge_terms(terms, ((h, c * mult) for h, mult in products))


def _smallest_multi_pair(g: Multigraph):
    seen = set()
    for e in g.edges:
        if e[0] != e[1]:
            if e in seen:
                return e
            seen.add(e)
    return None


def reduce_to_star_forests(
    L: GraphCombination, max_n: int | None = None
) -> tuple[StandardForm, ReductionCertificate]:
    """Rewrite L into a combination of canonical star forests R_lambda.

    Loops are eliminated first, then multi-edges, then dull triples (always
    the lexicographically smallest violating triple of the first offending
    term); finally every bright star forest is relabelled onto its canonical
    representative.  Each rewrite product strictly increases the
    right-endpoint order, which forces termination.  XB is preserved at
    every step because each subtraction is a kernel element.
    """
    check_bound(L.n, DEFAULT_REDUCTION_BOUND, max_n, "reduction")
    terms: dict[Multigraph, TPoly] = dict(L.terms)
    steps: list[ReductionStep] = []

    def record(step: ReductionStep):
        _apply_step(terms, step)
        steps.append(step)

    while True:
        step = None
        for g in sorted(terms, key=lambda x: x.key()):
            if g.has_loop():
                v = min(u for u, w in g.edges if u == w)
                step = ReductionStep("loop", g, vertex=v)
                break
        if step is None:
            for g in sorted(terms, key=lambda x: x.key()):
                pair = _smallest_multi_pair(g)
                if pair is not None:
                    step = ReductionStep("multi", g, pair=pair)
                    break
        if step is None:
            for g in sorted(terms, key=lambda x: x.key()):
                ok, triple = is_bright_star_forest(g)
                if ok:
                    continue
                a, b, c = triple
                present = set(g.edges)
                inside = {e for e in ((a, b), (a, c), (b, c)) if e in present}
                if inside == {(a, b), (b, c)}:
                    case, perm = 2, (1, 2, 3)
                elif inside == {(a, b), (a, c)}:
                    case, perm = 1, (2, 1, 3)
                else:
                    case, perm = 3, (2, 1, 3)
                step = ReductionStep("os_plus", g, triple=triple, case=case, perm=perm)
                break
        if step is None:
            break
        record(step)

    # relabel every remaining star forest onto its canonical representative
    for g in sorted(terms, key=lambda x: x.key()):
        lam, perm = star_forest_canonical_map(g)
        if perm != tuple(range(1, g.n + 1)):
            record(ReductionStep("iso", g, perm=perm))

    for g in terms:
        if g != canonical_star_forest(star_forest_shape(g)):
            raise RuntimeError(f"internal fault: reduction left {g!r}, not a canonical star forest")
    result = standard_form(GraphCombination(L.n, terms))
    return result, ReductionCertificate(tuple(steps), result)


def replay_certificate(L: GraphCombination, cert: ReductionCertificate) -> GraphCombination:
    """Re-apply the recorded steps to L and return the final combination."""
    terms: dict[Multigraph, TPoly] = dict(L.terms)
    for step in cert.steps:
        _apply_step(terms, step)
    return GraphCombination(L.n, terms)


def kernel_membership(L: GraphCombination, max_n: int | None = None) -> bool:
    """Is L in the kernel of XB?  Decided by reduction, cross-checked directly.

    The reduction verdict (all canonical star-forest coefficients zero) and
    the direct verdict (termwise XB sums to zero) must agree; disagreement
    is an internal fault, not a domain error.
    """
    result, _ = reduce_to_star_forests(L, max_n)
    by_reduction = result.is_zero()
    by_evaluation = combination_tutte_sym(L, max_n).is_zero()
    if by_reduction != by_evaluation:
        raise RuntimeError(
            "internal fault: reduction verdict "
            f"{by_reduction} disagrees with direct XB evaluation {by_evaluation}"
        )
    return by_reduction


#### named relations ###########################################################

def _edge_instance_index(G: Multigraph, e) -> int:
    """Resolve an edge given as 1-based index or endpoint pair to an index."""
    if isinstance(e, int):
        if not (1 <= e <= len(G.edges)):
            raise DomainError(f"edge index {e} out of range 1..{len(G.edges)}")
        return e - 1
    pair = (min(e), max(e))
    try:
        return G.edges.index(pair)
    except ValueError:
        raise DomainError(f"edge {pair} not present in the graph")


def two_edge_connected_relation(G: Multigraph, e_i, e_j) -> GraphCombination:
    """Friendly combination attached to a two-edge-connected graph.

    Sums (-1)^|S| S over edge subsets containing e_i, plus (1+t) times the
    same over subsets avoiding e_j; S denotes the spanning subgraph ([n], S)
    and subsets range over edge instances.
    """
    if not G.unit_weights():
        raise DomainError("relation graphs must have unit weights")
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
    edges = [(min(e), max(e)) for e in cycle_edges]
    m = len(edges)
    if m < 3:
        raise DomainError("cycle relation needs a cycle of length at least 3")
    # the listed edges must form one simple cycle inside G
    C = Multigraph(G.n, edges)
    degs: dict[int, int] = {}
    for u, v in edges:
        if u == v:
            raise DomainError("cycle edges cannot be loops")
        degs[u] = degs.get(u, 0) + 1
        degs[v] = degs.get(v, 0) + 1
    support = [v for v, d in degs.items() if d]
    if len(support) != m or any(degs[v] != 2 for v in support):
        raise DomainError("listed edges do not form a simple cycle")
    if len([cc for cc in connected_components(C) if len(cc) > 1]) != 1:
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
    index = {g: i for i, g in enumerate(graphs)}
    parent = list(range(len(graphs)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    linked = set()
    for a in range(len(graphs)):
        for b in range(a + 1, len(graphs)):
            if nontrivial_friendly_pair(graphs[a], graphs[b]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                linked.add(a)
                linked.add(b)
    groups: dict[int, list[Multigraph]] = {}
    for a in linked:
        groups.setdefault(find(a), []).append(graphs[a])
    families = []
    for members in groups.values():
        members = sorted(set(members) | {complement(g) for g in members}, key=lambda g: g.key())
        families.append(tuple(members))
    families.sort(key=lambda fam: fam[0].key())
    return families


def sample_friendly_pairs(n: int, count: int, seed: int = 20260817) -> list[tuple[Multigraph, Multigraph]]:
    """Pseudo-random scan for nontrivial friendly pairs on [n]; expect none for n >= 5."""
    import random

    rng = random.Random(seed)
    npairs = n * (n - 1) // 2
    found = []
    for _ in range(count):
        H1 = simple_graph(n, rng.getrandbits(npairs))
        H2 = simple_graph(n, rng.getrandbits(npairs))
        if nontrivial_friendly_pair(H1, H2):
            found.append((H1, H2))
    return found


def is_tutte_reducible(L: GraphCombination, max_n: int | None = None) -> bool:
    """Does some vertex see the same edge multiset in every term?

    Loops at the vertex count toward its own entry.  Only defined for
    friendly combinations.
    """
    ok, _, _ = is_tutte_friendly(L, max_n)
    if not ok:
        raise DomainError("Tutte-reducibility is defined for friendly combinations")
    graphs = list(L.terms)
    if not graphs:
        return True
    for v in range(1, L.n + 1):
        profiles = set()
        for g in graphs:
            mult = g.multiplicities()
            row = tuple(
                mult.get((min(v, w), max(v, w)), 0) for w in range(1, L.n + 1)
            )
            profiles.add(row)
        if len(profiles) == 1:
            return True
    return False


def broom_relation(n: int, k: int, max_n: int | None = None) -> GraphCombination:
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
    check_bound(N, DEFAULT_ENUMERATION_BOUND, max_n, "broom relation")
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

def star_forest_basis_matrix(n: int, max_n: int | None = None):
    """Rows: chromatic m~-coefficients of R_lambda for every lambda of n."""
    from tuttekit.combinatorics import partitions_of
    from tuttekit.invariants import chromatic_sym

    lams = list(partitions_of(n))
    cols = {lam: i for i, lam in enumerate(lams)}
    rows = []
    for lam in lams:
        X = chromatic_sym(canonical_star_forest(lam), max_n)
        row = [Fraction(0)] * len(lams)
        for mu, c in X.terms.items():
            row[cols[mu]] = c.constant_value()
        rows.append(row)
    return lams, rows


def star_forest_basis_rank(n: int, max_n: int | None = None) -> int:
    """Rank of the star-forest chromatic matrix; full rank means a basis."""
    _, rows = star_forest_basis_matrix(n, max_n)
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
