"""Reference helpers for the tests.

Each recomputes from scratch, or by the definition the library once used,
a value that the library only computes inside a faster walk, so the tests
can compare the two.
"""

from fractions import Fraction
from math import comb

from tuttekit.combinatorics import (
    DomainError,
    TPoly,
    as_int,
    block_index_map,
    echo,
    normalize_blocks,
    partitions_of,
    sorted_partition,
)
from tuttekit.graphs import _component_labels, _pair, _quotient, _without, canonical_star_forest, internal_edge_count
from tuttekit.invariants import chromatic_sym, tutte_sym, tutte_sym_delcon
from tuttekit.kernel import _packed, _standard_form
from tuttekit.quasi import Digraph
from tuttekit.symfun import SymFunc


def lambda_of(blocks, weights=None):
    """Block sizes sorted descending; with weights, block weight sums instead."""
    if weights is None:
        return sorted_partition(len(tuple(b)) for b in blocks)
    return sorted_partition(sum(weights[v - 1] for v in b) for b in blocks)


def c_value(L, blocks):
    """C(L; pi): sum of the scalar coefficients of terms with no internal edge.

    Validates pi and counts from scratch: the reference for `is_x_friendly`.
    """
    vmap = block_index_map(normalize_blocks(L.n, blocks))
    acc = Fraction(0)
    for g, c in L.terms.items():
        if all(vmap[u] != vmap[v] for u, v in g.edges):
            acc += c.constant_value()
    return acc


def combination_tutte_sym(L):
    """XB of a combination term by term, one `tutte_sym` walk per term and
    TPoly arithmetic for the sum: the reference for the one-walk sum."""
    total = SymFunc.zero("mtilde")
    for g, c in L.terms.items():
        total = total + tutte_sym(g).scale(c)
    return total


def delcon_sum(L):
    """XB of a combination as the sum of each term's `tutte_sym_delcon`
    scaled by its coefficient, one SymFunc per term."""
    return sum((tutte_sym_delcon(g).scale(c) for g, c in L.terms.items()), SymFunc.zero("mtilde"))


def standard_form(L):
    """L with every TPoly coefficient expanded into exact (1+t)-powers."""
    return _standard_form(L.n, _packed(L))


def witness_M(L, blocks):
    """The witness cloud size at pi from the standard form's rows c (1+t)^k g:
    l (1 + the largest k plus internal edges of g)."""
    worst = max(k + internal_edge_count(g, blocks) for _, k, g in standard_form(L).terms)
    return len(tuple(blocks)) * (1 + worst)


def contract_arc_set(D, S):
    """Contract the arc instances of D at the given 0-based indices.

    Vertices merge along the underlying edges of S; arcs outside S are
    pushed forward and kept even when they become loops, so contracting a
    non-induced set leaves a loop.  Weights add over merged vertices.
    """
    chosen = {as_int(i, "arc index") for i in S}
    if any(not (0 <= i < len(D.arcs)) for i in chosen):
        raise DomainError("arc index out of range")
    label, k = _component_labels(D.n, map(D.arcs.__getitem__, chosen))
    rest = [a for i, a in enumerate(D.arcs) if i not in chosen]
    return Digraph(k, *_quotient(rest, D.weights, label, k, keep_loops=True))


def contract_partition(G, blocks):
    """Contract each block of a connected partition of a graph or digraph
    to a single vertex.

    Every edge or arc with both ends in one block disappears (loops
    included); the others keep their multiplicity.  Blocks must induce
    connected subgraphs, of a digraph's underlying graph.
    """
    blocks = normalize_blocks(G.n, blocks)
    label, k = block_index_map(blocks), len(blocks)
    inside = [(u, v) for u, v in G._pairs if label[u] == label[v]]
    if _component_labels(G.n, inside)[1] != k:
        raise DomainError(f"a block of {echo(blocks)} is not connected")
    return type(G)(k, *_quotient(G._pairs, G.weights, label, k))


def onep_t_power(k):
    """(1+t)^k, one binomial coefficient per entry."""
    return TPoly([comb(k, i) for i in range(k + 1)])


def onep_t_powers(p):
    """Coefficients c_0..c_d with p(t) = sum c_k (1+t)^k, by substituting
    t = u - 1 term by term, one binomial per pair of degrees."""
    out = [0] * (p.degree() + 1)
    for i, a in p.terms.items():
        for k in range(i + 1):
            term = a * comb(i, k)
            out[k] += -term if (i - k) & 1 else term
    return tuple(out)


def from_onep_t_powers(cs):
    """sum c_k (1+t)^k as a TPoly, one binomial per pair of degrees."""
    out = [0] * len(cs)
    for k, c in enumerate(cs):
        if c:
            for i in range(k + 1):
                out[i] += c * comb(k, i)
    return TPoly(out)


def two_edge_connected(G):
    """Connected with no bridge, by deleting each non-loop edge in turn
    and counting the components left."""
    if _component_labels(G.n, G.edges)[1] > 1:
        return False
    for i, e in enumerate(G.edges):
        if e[0] != e[1] and _component_labels(G.n, G.edges[:i] + G.edges[i + 1:])[1] > 1:
            return False
    return True


def reduction_products(step):
    """The (edges, multiplier) products of a loop, multi-edge or triangle
    reduction step, by the rewrites written out by hand, multipliers in
    powers of (1+t): the reference for the products that the reducer reads
    from the generator definitions."""
    g = step.graph.edges
    if step.gen == "loop":
        v = step.vertex
        return [(_without(g, [(v, v)]), (0, 1))]
    if step.gen == "multi":
        e = _pair(*step.pair)
        once = _without(g, [e])
        return [(once, (1, 1)), (_without(once, [e]), (0, -1))]
    assert step.gen == "os_plus", step.gen
    a, b, c = step.triple
    ab, ac, bc = _pair(a, b), _pair(a, c), _pair(b, c)
    # case 2 (ac absent) drops ab and bc; cases 1 and 3 share the 1<->2
    # frame swap and drop ab and ac; in case 3 the edge bc is still
    # present in the base, so the first product doubles it
    first, dropped = (ac, bc) if ac not in g else (bc, ac)
    base = _without(g, (ab, dropped))
    return [(tuple(sorted(base + extra)), m) for extra, m in (((first,), (-1,)), ((ac, bc), (1,)), ((ab,), (1,)))]


def star_forest_basis_matrix(n):
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


def star_forest_basis_rank(n):
    """Rank of the star-forest chromatic matrix, by dense Fraction elimination;
    full rank means a basis."""
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
