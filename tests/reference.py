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
    sorted_partition,
)
from tuttekit.graphs import _component_labels, _quotient
from tuttekit.quasi import Digraph


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
