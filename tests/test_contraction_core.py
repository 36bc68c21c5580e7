"""The component labelling and quotient under every contraction, checked
against a breadth-first-search reference written here; and a source guard
that keeps soundness checks alive under `python -O`."""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import tuttekit
from tuttekit.graphs import (
    Multigraph,
    _components_of,
    contract_edge_set,
    contract_partition,
    contraction_labels,
)
from tuttekit.quasi import Digraph, contract_arc_set


def bfs_components(n, pairs):
    """Components of ([n], pairs) by breadth-first search, ordered by least vertex."""
    nbrs = {v: set() for v in range(1, n + 1)}
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen, comps = set(), []
    for s in range(1, n + 1):
        if s in seen:
            continue
        seen.add(s)
        comp, queue = [s], [s]
        while queue:
            x = queue.pop(0)
            for y in sorted(nbrs[x] - seen):
                seen.add(y)
                comp.append(y)
                queue.append(y)
        comps.append(sorted(comp))
    return comps


def contract_from_scratch(n, pairs, weights, chosen):
    """(vertex count, pairs outside chosen pushed forward, weights) of the contraction."""
    comps = bfs_components(n, [pairs[i] for i in chosen])
    where = {v: i + 1 for i, c in enumerate(comps) for v in c}
    rest = [(where[u], where[v]) for i, (u, v) in enumerate(pairs) if i not in chosen]
    return len(comps), rest, [sum(weights[v - 1] for v in c) for c in comps]


@st.composite
def pair_graphs(draw):
    """n <= 7 vertices, at most 10 pairs (loops and repeats allowed), a subset of them, weights."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    chosen = draw(st.sets(st.integers(0, len(pairs) - 1))) if pairs else set()
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return n, pairs, sorted(chosen), weights


@settings(max_examples=300, deadline=None)
@given(pair_graphs())
def test_components_and_labels_match_bfs(case):
    n, pairs, chosen, _ = case
    assert _components_of(n, pairs) == bfs_components(n, pairs)
    comps = bfs_components(n, [pairs[i] for i in chosen])
    where = {v: i for i, c in enumerate(comps) for v in c}
    loop_left = any(where[u] == where[v] for i, (u, v) in enumerate(pairs) if i not in chosen)
    labels = contraction_labels(n, pairs, chosen)
    assert (labels is None) == loop_left
    if labels is not None:
        label, k = labels
        assert k == len(comps)
        assert [label[v] for v in range(1, n + 1)] == [where[v] for v in range(1, n + 1)]


@settings(max_examples=300, deadline=None)
@given(pair_graphs())
def test_contractions_match_scratch_build(case):
    n, pairs, chosen, weights = case
    k, rest, merged = contract_from_scratch(n, pairs, weights, chosen)
    G = Multigraph(n, pairs, weights)
    S = [pairs[i] for i in chosen]
    assert contract_edge_set(G, S) == Multigraph(k, rest, merged)
    # the blocks the chosen pairs span are connected, and contracting them
    # as a partition drops the loops that contracting the pairs leaves
    blocks = bfs_components(n, S)
    between = [(u, v) for u, v in rest if u != v]
    assert contract_partition(G, blocks) == Multigraph(k, between, merged)
    assert contract_partition(Digraph(n, pairs, weights), blocks) == Digraph(k, between, merged)
    # the pairs as arcs, in the sorted order in which a Digraph keeps them
    arcs = sorted(pairs)
    k, rest, merged = contract_from_scratch(n, arcs, weights, chosen)
    assert contract_arc_set(Digraph(n, arcs, weights), chosen) == Digraph(k, rest, merged)


def test_no_assert_statement_in_the_library():
    # assert vanishes under python -O, so no check of the library may be one
    root = Path(tuttekit.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/tuttekit: {found}"
