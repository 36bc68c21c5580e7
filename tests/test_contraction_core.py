"""The component labelling, the walk over flats and the quotient under
every contraction, checked against a breadth-first-search reference written
here; the flats as the connected partitions; a planted fault in the walk
that the routes must catch; and a source guard that keeps soundness checks
alive under `python -O`."""

import ast
from collections import Counter
from itertools import chain, combinations, islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuttekit
from tuttekit import invariants, quasi
from tuttekit.combinatorics import block_index_map
from tuttekit.graphs import (
    Multigraph,
    _component_labels,
    _components_of,
    _flats,
    _quotient,
    connected_partitions,
    contract_edge_set,
    cycle,
    simple_graph,
)
from tuttekit.quasi import Digraph

from reference import contract_arc_set, contract_partition


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
    label, k = _component_labels(n, [pairs[i] for i in chosen])
    assert k == len(comps)
    assert [label[v] for v in range(1, n + 1)] == [i for v in range(1, n + 1) for i, c in enumerate(comps) if v in c]


def reference_flats(n, pairs):
    """(labels of 1..n, k, |S|) for every subset S of pair indices whose
    contraction leaves no loop, found by filtering all 2^m subsets."""
    out = []
    for chosen in chain.from_iterable(combinations(range(len(pairs)), r) for r in range(len(pairs) + 1)):
        comps = bfs_components(n, [pairs[i] for i in chosen])
        where = {v: i for i, c in enumerate(comps) for v in c}
        if not any(where[u] == where[v] for i, (u, v) in enumerate(pairs) if i not in chosen):
            out.append((tuple(where[v] for v in range(1, n + 1)), len(comps), len(chosen)))
    return out


@settings(max_examples=300, deadline=None)
@given(pair_graphs())
def test_flat_walk_matches_filtered_subsets(case):
    n, pairs, _, _ = case
    # |S| of a flat is the count of pairs that the quotient by its labels drops
    walked = Counter(
        (tuple(label[1:]), k, len(pairs) - len(_quotient(pairs, [1] * n, label, k)[0]))
        for label, k in _flats(n, pairs)
    )
    assert walked == Counter(reference_flats(n, pairs))
    # each flat once: its labels alone determine it
    assert set(walked.values()) == {1}


def check_flats_are_connected_partitions(n, pairs, weights=None):
    """_flats(n, pairs) yields the labelling of each connected partition of
    ([n], pairs) once, and nothing else."""
    flats = Counter((tuple(label[1:]), k) for label, k in _flats(n, pairs))
    parts = Counter(
        (tuple(map(block_index_map(pi).__getitem__, range(1, n + 1))), len(pi))
        for pi in connected_partitions(Multigraph(n, pairs, weights))
    )
    assert flats == parts, (n, pairs)
    assert set(flats.values()) <= {1}


def test_flats_are_the_connected_partitions_on_all_small_graphs():
    # every simple graph on n <= 5 vertices, then each with a loop at 1 and
    # its first edge doubled
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            edges = list(simple_graph(n, mask).edges)
            check_flats_are_connected_partitions(n, edges)
            if edges:
                check_flats_are_connected_partitions(n, [(1, 1), edges[0], *edges])


@settings(max_examples=300, deadline=None)
@given(pair_graphs())
def test_flats_are_the_connected_partitions_of_weighted_multigraphs(case):
    n, pairs, _, weights = case
    check_flats_are_connected_partitions(n, pairs, weights)


def all_subsets(n, pairs):
    """A walk with no prune: every subset, loops left or not."""
    for chosen in chain.from_iterable(combinations(pairs, r) for r in range(len(pairs) + 1)):
        yield _component_labels(n, chosen)


def one_flat_dropped(n, pairs):
    return islice(_flats(n, pairs), 1, None)


@pytest.mark.parametrize("fault", [all_subsets, one_flat_dropped])
def test_routes_catch_a_planted_fault_in_the_flat_walk(monkeypatch, fault):
    G = Multigraph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (1, 3)], [1, 2, 1, 1])
    D = Digraph(3, [(1, 2), (2, 3), (3, 1), (2, 1)], [1, 1, 2])
    assert invariants.tutte_from_contractions(G) == invariants.tutte_sym(G)
    assert quasi.tq_from_arc_subsets(D, 4) == quasi.tq(D, 4)
    monkeypatch.setattr(invariants, "_flats", fault)
    monkeypatch.setattr(quasi, "_flats", fault)
    assert invariants.tutte_from_contractions(G) != invariants.tutte_sym(G)
    assert invariants.tutte_from_contractions(cycle(5)) != invariants.tutte_sym(cycle(5))
    assert quasi.tq_from_arc_subsets(D, 4) != quasi.tq(D, 4)


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
