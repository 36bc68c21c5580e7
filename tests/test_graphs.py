"""Multigraph structure, contraction, canonical forms, orientations."""

import copy
import random
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttekit.combinatorics import DomainError, normalize_blocks
from tuttekit.graphs import (
    MAX_VERTICES,
    Multigraph,
    _labelling_of,
    acyclic_orientations,
    broom,
    canonical_form,
    canonical_star_forest,
    complement,
    complete,
    connected_partitions,
    contract_edge_set,
    cycle,
    delete_edges,
    edgeless,
    graph_from_json_obj,
    graph_to_json_obj,
    internal_edge_count,
    is_bright_star_forest,
    path,
    relabel,
    right_endpoint_key,
    simple_graph,
    star_forest_canonical_map,
    star_forest_shape,
    two_edge_connected,
)
from tuttekit.quasi import Digraph

import reference
from reference import contract_partition


def test_constructor_normalizes_and_validates():
    G = Multigraph(3, [(3, 1), (2, 2)])
    assert G.edges == ((1, 3), (2, 2))
    assert G.weights == (1, 1, 1)
    assert G.has_loop() and not G.has_multi_edge()
    with pytest.raises(DomainError):
        Multigraph(2, [(1, 3)])
    with pytest.raises(DomainError):
        Multigraph(2, [], weights=[1, 0])
    with pytest.raises(DomainError):
        Multigraph(2, [], weights=[1])


def test_vertex_count_is_capped_before_anything_is_built():
    for make in (Multigraph, Digraph):
        for n in (MAX_VERTICES + 1, 2**70):
            with pytest.raises(DomainError, match="over the limit"):
                make(n)
    assert Multigraph(MAX_VERTICES).n == MAX_VERTICES


def test_records_are_their_own_copies():
    # the default slot copy would go through the immutable __setattr__
    G = Multigraph(3, [(1, 2), (2, 2)], weights=[1, 2, 1])
    D = Digraph(2, [(1, 2)])
    canonical_form(G)  # sets the canonical-form memo slot
    for record in (G, path(2), D):
        assert copy.copy(record) is record
        assert copy.deepcopy(record) is record
    holder = copy.deepcopy({"g": G, "d": [D]})
    assert holder["g"] is G and holder["d"][0] is D


def test_unit_weight_graphs_share_one_weights_tuple_per_n():
    a = Multigraph._unchecked(5, ((1, 2),))
    b = Multigraph._unchecked(5, ((3, 4), (4, 4)))
    assert a.weights == (1,) * 5 and a.weights is b.weights
    assert Multigraph(5).weights is a.weights
    assert Multigraph._unchecked(4, ()).weights is not a.weights
    for g in (a, b, Multigraph(70), Multigraph(0)):
        assert g.unit_weights()
    assert not Multigraph(3, weights=[1, 2, 1]).unit_weights()


def test_families():
    assert complete(3).edges == ((1, 2), (1, 3), (2, 3))
    assert path(3).edges == ((1, 2), (2, 3))
    assert cycle(4).edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert cycle(1).edges == ((1, 1),)
    assert cycle(2).edges == ((1, 2), (1, 2))


def test_broom_shapes():
    assert broom(1, 2).edges == ((1, 3), (2, 3))
    assert broom(2, 1).edges == ((1, 2), (2, 3))
    # broom(0, k) is the star with its hub at k
    assert broom(0, 3).edges == ((1, 3), (2, 3))
    assert broom(0, 1).edges == ()
    assert broom(3, 0).edges == path(3).edges
    assert broom(2, 3).edges == ((1, 2), (2, 5), (3, 5), (4, 5))


def test_delete_edges_multiset():
    G = Multigraph(2, [(1, 2), (1, 2)])
    assert delete_edges(G, [(1, 2)]).edges == ((1, 2),)
    assert delete_edges(G, [(1, 2), (2, 1)]).edges == ()
    with pytest.raises(DomainError):
        delete_edges(G, [(1, 2), (1, 2), (1, 2)])


def test_contract_single_edge_merges_and_keeps_parallels():
    H = contract_edge_set(complete(3), [(1, 2)])
    assert H == Multigraph(2, [(1, 2), (1, 2)], weights=[2, 1])


def test_contract_loop_is_deletion():
    G = Multigraph(1, [(1, 1)], weights=[3])
    assert contract_edge_set(G, [(1, 1)]) == Multigraph(1, [], weights=[3])


def test_contract_edge_set_drops_all_contracted_copies():
    # contracting the whole triangle: the third edge has merged endpoints by
    # then, i.e. is a loop, and contracting a loop deletes it
    H = contract_edge_set(complete(3), [(1, 2), (1, 3), (2, 3)])
    assert H == Multigraph(1, [], weights=[3])


def test_contract_edge_set_keeps_outside_loops():
    G = Multigraph(2, [(1, 2), (1, 2)])
    H = contract_edge_set(G, [(1, 2)])
    assert H == Multigraph(1, [(1, 1)], weights=[2])


def test_contract_edge_set_order_independent():
    G = Multigraph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)], weights=[1, 2, 1, 3])
    S = [(1, 2), (3, 4)]
    assert contract_edge_set(G, S) == contract_edge_set(G, list(reversed(S)))
    assert contract_edge_set(G, S) == Multigraph(
        2, [(1, 2), (1, 2), (1, 2)], weights=[3, 4]
    )


def test_contract_partition_drops_internal_edges_and_loops():
    G = Multigraph(3, [(1, 2), (1, 2), (2, 3), (1, 1)])
    H = contract_partition(G, [[1, 2], [3]])
    assert H == Multigraph(2, [(1, 2)], weights=[2, 1])
    with pytest.raises(DomainError):
        contract_partition(path(3), [[1, 3], [2]])


def test_complement_and_relabel():
    assert complement(path(3)).edges == ((1, 3),)
    with pytest.raises(DomainError):
        complement(Multigraph(2, [(1, 2), (1, 2)]))
    G = Multigraph(3, [(1, 2)], weights=[5, 1, 1])
    H = relabel(G, [3, 1, 2])
    assert H == Multigraph(3, [(1, 3)], weights=[1, 1, 5])
    with pytest.raises(DomainError):
        relabel(G, [1, 1, 2])
    # each entry is read as an integer: True is not 1, nor 1.0
    for bad in ([2, True], [2, 1.0]):
        with pytest.raises(DomainError):
            relabel(Multigraph(2, [], [1, 2]), bad)
    with pytest.raises(DomainError):
        relabel(path(2), [2, True])


def disjoint_union(G, H):
    """G on [n], then H shifted onto [n+1 .. n+m]."""
    edges = list(G.edges) + [(u + G.n, v + G.n) for u, v in H.edges]
    return Multigraph(G.n + H.n, edges, G.weights + H.weights)


def test_disjoint_union_and_internal_edges():
    G = disjoint_union(path(2), Multigraph(1, [(1, 1)], weights=[2]))
    assert G == Multigraph(3, [(1, 2), (3, 3)], weights=[1, 1, 2])
    assert internal_edge_count(G, [[1, 2], [3]]) == 2
    assert internal_edge_count(G, [[1], [2], [3]]) == 1


def test_connected_partitions_of_path():
    parts = list(connected_partitions(path(3)))
    assert ((1, 3), (2,)) not in parts
    assert len(parts) == 4


def all_set_partitions(items):
    """Every set partition of the list items (Bell(len(items)) of them), blocks as lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for pi in all_set_partitions(rest):
        yield [[first]] + pi
        for i in range(len(pi)):
            yield pi[:i] + [[first] + pi[i]] + pi[i + 1:]


def block_is_connected(edges, block):
    inside = set(block)
    seen, stack = {block[0]}, [block[0]]
    while stack:
        x = stack.pop()
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                if a == x and b in inside and b not in seen:
                    seen.add(b)
                    stack.append(b)
    return seen == inside


def reference_connected_partitions(G):
    """The definition: all Bell(n) set partitions, kept when every block is connected.

    Each is normalized: blocks are ascending tuples, ordered by minimum.
    """
    return {
        normalize_blocks(G.n, pi)
        for pi in all_set_partitions(list(range(1, G.n + 1)))
        if all(block_is_connected(G.edges, b) for b in pi)
    }


def check_connected_partitions(G, expected=None):
    # the reference holds normalized partitions only, so set equality also
    # checks that every partition generated is normalized
    parts = list(connected_partitions(G))
    assert len(set(parts)) == len(parts), G
    assert set(parts) == (reference_connected_partitions(G) if expected is None else expected), G


def test_connected_partitions_match_definition_on_all_small_multigraphs():
    # every multigraph on n <= 5 vertices with at most 6 edges, loops and
    # parallel edges included; connectivity depends on the distinct
    # non-loop pairs alone, so the reference runs once per such set
    reference = {}
    for n in range(6):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)]
        for m in range(7):
            for edges in combinations_with_replacement(pairs, m):
                G = Multigraph(n, edges)
                support = (n, frozenset(e for e in edges if e[0] != e[1]))
                if support not in reference:
                    reference[support] = reference_connected_partitions(G)
                check_connected_partitions(G, reference[support])


@st.composite
def multigraphs(draw, max_n=7, max_edges=12):
    n = draw(st.integers(0, max_n))
    if n == 0:
        return Multigraph(0)
    vertex = st.integers(1, n)
    return Multigraph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges)))


@settings(max_examples=100, deadline=None)
@given(multigraphs())
def test_connected_partitions_match_definition(G):
    check_connected_partitions(G)


def test_two_edge_connected():
    assert two_edge_connected(cycle(3))
    assert two_edge_connected(cycle(2))
    assert not two_edge_connected(path(3))
    assert not two_edge_connected(Multigraph(2, []))
    # loops are never bridges, and a parallel copy is never one
    assert two_edge_connected(Multigraph(1, [(1, 1)]))
    assert not two_edge_connected(Multigraph(2, [(1, 1), (1, 2), (2, 2)]))
    assert two_edge_connected(Multigraph(3, [(1, 2), (1, 2), (2, 3), (2, 3)]))
    assert two_edge_connected(edgeless(0)) and not two_edge_connected(edgeless(2))
    # the search keeps its own stack, so a long cycle or path is no deeper
    assert two_edge_connected(cycle(5000))
    assert not two_edge_connected(path(5000))


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_edges=14))
def test_two_edge_connected_matches_deleting_each_edge(G):
    assert two_edge_connected(G) == reference.two_edge_connected(G), G


def test_bright_star_forest_triples():
    ok, triple = is_bright_star_forest(Multigraph(3, [(1, 3), (2, 3)]))
    assert ok and triple is None
    ok, triple = is_bright_star_forest(Multigraph(3, [(1, 2), (1, 3)]))
    assert not ok and triple == (1, 2, 3)
    ok, triple = is_bright_star_forest(Multigraph(3, [(1, 2), (2, 3)]))
    assert not ok and triple == (1, 2, 3)
    ok, _ = is_bright_star_forest(complete(3))
    assert not ok
    with pytest.raises(DomainError):
        is_bright_star_forest(Multigraph(1, [(1, 1)]))
    with pytest.raises(DomainError):
        is_bright_star_forest(Multigraph(2, [(1, 2), (1, 2)]))


def _bright_by_triples(G):
    """The triple loop is_bright_star_forest once ran, kept as its reference."""
    present = set(G.edges)
    for a in range(1, G.n + 1):
        for b in range(a + 1, G.n + 1):
            for c in range(b + 1, G.n + 1):
                inside = {e for e in ((a, b), (a, c), (b, c)) if e in present}
                if len(inside) <= 1:
                    continue
                if inside == {(a, c), (b, c)}:
                    continue
                return False, (a, b, c)
    return True, None


def test_bright_star_forest_matches_triple_loop_on_all_small_graphs():
    for n in range(7):
        for mask in range(1 << (n * (n - 1) // 2)):
            G = simple_graph(n, mask)
            assert is_bright_star_forest(G) == _bright_by_triples(G), G


def test_canonical_star_forest_layout():
    R = canonical_star_forest((3, 2))
    assert R.edges == ((1, 3), (2, 3), (4, 5))
    assert star_forest_shape(R) == (3, 2)


def test_star_forest_canonical_map():
    G = Multigraph(4, [(1, 4), (2, 4)])
    lam, perm = star_forest_canonical_map(G)
    assert lam == (3, 1)
    assert relabel(G, perm) == canonical_star_forest((3, 1))
    with pytest.raises(DomainError):
        star_forest_canonical_map(Multigraph(3, [(1, 2), (1, 3)]))


def canonical_graph(G):
    """G relabelled by its canonical labelling: equal for two graphs exactly
    when they are isomorphic."""
    return relabel(G, _labelling_of(G)[1])


def is_isomorphic(G, H):
    if G.n != H.n or len(G.edges) != len(H.edges) or sorted(G.weights) != sorted(H.weights):
        return False
    return _labelling_of(G)[0] == _labelling_of(H)[0]


def test_canonical_form_invariant_under_relabelling():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        edges = []
        for _ in range(rng.randint(0, 8)):
            u = rng.randint(1, n)
            v = rng.randint(1, n)
            edges.append((u, v))
        weights = [rng.randint(1, 3) for _ in range(n)]
        G = Multigraph(n, edges, weights)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        H = relabel(G, perm)
        assert canonical_form(G) == canonical_form(H)
        assert is_isomorphic(G, H)


@st.composite
def graph_pairs(draw):
    """A weighted multigraph with loops on n <= 6 vertices, and a relabelling
    of it with at most one edge end or one weight changed."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(1, n)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    weights = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    G = Multigraph(n, edges, weights)
    edit = draw(st.sampled_from(("none", "edge", "weight")))
    if edit == "edge" and edges:
        i = draw(st.integers(0, len(edges) - 1))
        edges[i] = (edges[i][0], draw(vertex))
    elif edit == "weight":
        weights[draw(vertex) - 1] = draw(st.integers(1, 2))
    return G, relabel(Multigraph(n, edges, weights), draw(st.permutations(range(1, n + 1))))


def isomorphic_by_search(G, H):
    return G.n == H.n and any(relabel(G, p) == H for p in permutations(range(1, G.n + 1)))


@settings(max_examples=200, deadline=None)
@given(graph_pairs())
def test_canonical_forms_agree_with_permutation_search(pair):
    G, H = pair
    iso = isomorphic_by_search(G, H)
    assert (canonical_form(G) == canonical_form(H)) == iso
    assert (canonical_graph(G) == canonical_graph(H)) == iso
    assert is_isomorphic(G, H) == iso
    assert isomorphic_by_search(G, canonical_graph(G))


def test_canonical_forms_count_the_isomorphism_classes_of_simple_graphs():
    # unlabelled simple graphs on n vertices (OEIS A000088)
    for n, classes in enumerate((1, 1, 2, 4, 11, 34)):
        forms = {canonical_form(simple_graph(n, mask)) for mask in range(1 << n * (n - 1) // 2)}
        assert len(forms) == classes


def test_canonical_forms_of_regular_graphs_that_refinement_cannot_split():
    # every vertex keeps one colour, so the search alone must find the form
    ring = [(i, i % 6 + 1) for i in range(1, 7)]
    prism = Multigraph(12, ring + [(u + 6, v + 6) for u, v in ring] + [(i, i + 6) for i in range(1, 7)])
    moebius = Multigraph(12, list(cycle(12).edges) + [(i, i + 6) for i in range(1, 7)])
    petersen = Multigraph(10, ring[:4] + [(1, 5)] + [(i, i + 5) for i in range(1, 6)]
                          + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)])
    # Frucht's cubic graph from its LCF code: no automorphism but the identity
    lcf = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
    frucht = Multigraph(12, list(cycle(12).edges) + [(i, (i - 1 + lcf[i - 1]) % 12 + 1)
                                                     for i in range(1, 13) if lcf[i - 1] > 0])
    # a cubic graph drawn at random; a search that stops comparing with the
    # best code once a sibling branch has beaten it labels its relabelling
    # by [12, 5, 4, 8, 10, 6, 9, 11, 7, 3, 2, 1] differently
    cubic = Multigraph(12, [(1, 8), (1, 9), (1, 12), (2, 6), (2, 7), (2, 10), (3, 6), (3, 8), (3, 11),
                            (4, 7), (4, 9), (4, 12), (5, 9), (5, 10), (5, 12), (6, 11), (7, 10), (8, 11)])
    graphs = [cycle(12), disjoint_union(cycle(6), cycle(6)), prism, moebius, petersen, frucht, cubic]
    forms = [canonical_form(G) for G in graphs]
    assert len(set(forms)) == len(graphs)
    assert canonical_form(relabel(cubic, [12, 5, 4, 8, 10, 6, 9, 11, 7, 3, 2, 1])) == forms[-1]
    rng = random.Random(5)
    for G, form in zip(graphs, forms):
        for _ in range(6):
            perm = list(range(1, G.n + 1))
            rng.shuffle(perm)
            H = relabel(G, perm)
            assert canonical_form(H) == form and canonical_graph(H) == canonical_graph(G)


def test_isomorphism_pins():
    assert is_isomorphic(path(3), relabel(path(3), [2, 1, 3]))
    assert not is_isomorphic(path(4), broom(0, 4))
    assert not is_isomorphic(cycle(4), complete(4))
    # weights distinguish otherwise identical graphs
    assert not is_isomorphic(edgeless(1, [2]), edgeless(1, [1]))
    assert canonical_graph(Multigraph(0)) == Multigraph(0)
    with pytest.raises(DomainError):
        canonical_graph(edgeless(13))


def chromatic_value(n, edges, x):
    """Deletion-contraction chromatic polynomial oracle, integers only."""
    edges = [tuple(sorted(e)) for e in edges]
    if any(u == v for u, v in edges):
        return 0
    edges = sorted(set(edges))
    if not edges:
        return x**n
    u, v = edges[0]
    deleted = edges[1:]
    merged = []
    for a, b in deleted:
        a2 = u if a == v else a
        b2 = u if b == v else b
        a2, b2 = (a2, b2) if a2 <= b2 else (b2, a2)
        merged.append((a2 - (a2 > v), b2 - (b2 > v)))
    return chromatic_value(n, deleted, x) - chromatic_value(n - 1, merged, x)


def test_acyclic_orientation_counts_match_chromatic_oracle():
    cases = [complete(3), cycle(4), path(3), broom(0, 4), complete(4)]
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rng.randint(0, min(6, n * (n - 1) // 2))
        es = set()
        while len(es) < m:
            u, v = rng.randint(1, n), rng.randint(1, n)
            if u != v:
                es.add((min(u, v), max(u, v)))
        cases.append(Multigraph(n, sorted(es)))
    for G in cases:
        want = (-1) ** G.n * chromatic_value(G.n, G.edges, -1)
        got = sum(1 for _ in acyclic_orientations(G))
        assert got == want, G


def test_acyclic_orientation_details():
    assert sum(1 for _ in acyclic_orientations(complete(3))) == 6
    assert sum(1 for _ in acyclic_orientations(cycle(4))) == 14
    assert list(acyclic_orientations(Multigraph(1, [(1, 1)]))) == []
    out = sorted(acyclic_orientations(path(2)))
    assert out == [(((1, 2),), (2,)), (((2, 1),), (1,))]
    # parallel edges orient as one bundle
    assert sum(1 for _ in acyclic_orientations(cycle(2))) == 2
    for arcs, sinks in acyclic_orientations(complete(4)):
        assert len(sinks) == 1
        heads = {v for _, v in arcs}
        assert sinks[0] in heads


def test_right_endpoint_order():
    assert right_endpoint_key(complete(3).edges) == (-3, (2, 3, 3))
    assert right_endpoint_key(complete(3).edges) < right_endpoint_key(path(3).edges)
    # same edge count: compare larger endpoints lexicographically
    assert right_endpoint_key(path(3).edges) < right_endpoint_key(((1, 3), (2, 3)))


def test_json_roundtrip():
    G = Multigraph(3, [(1, 2), (2, 2)], weights=[1, 2, 1])
    obj = graph_to_json_obj(G)
    assert obj == {"n": 3, "edges": [[1, 2], [2, 2]], "weights": [1, 2, 1]}
    assert graph_from_json_obj(obj) == G
    H = path(2)
    assert "weights" not in graph_to_json_obj(H)
    assert graph_from_json_obj(graph_to_json_obj(H)) == H
