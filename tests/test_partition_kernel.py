"""The set-partition kernel: counted enumeration against the checked references.

`enumerate_set_partitions` walks the restricted-growth strings; these tests
compare it with the strings filtered from all of range(n)^n, and its
internal-edge counts with `internal_edge_count`, `b_value` and the
reference `c_value` of `tests/reference.py`, which re-derive every
partition from scratch; its `weights` form must be its blocks form with
each block summed.  X's own stable
walk, `invariants._stable_counts`, is checked against the kernel and
`internal_edge_count` the same way.  Stanley's
p-expansion is an oracle that shares no code with partition enumeration,
and the bounded deletion-contraction memo must keep its answers exact
after evicting.
"""

from collections import Counter
from functools import cache
from itertools import combinations_with_replacement, islice, product
from math import perm
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttekit import combinatorics, invariants, kernel, selfcheck
from tuttekit.combinatorics import DomainError, TPoly, enumerate_set_partitions, onep_t_power
from tuttekit.graphs import Multigraph, cycle, edgeless, internal_edge_count
from tuttekit.invariants import (
    DELCON_MEMO_CAP,
    chromatic_sym,
    chromatic_sym_delcon,
    tutte_sym,
    tutte_sym_delcon,
)
from tuttekit.kernel import (
    GraphCombination,
    b_value,
    ell_os_plus,
    ell_tri,
    extend,
    is_tutte_friendly,
    is_x_friendly,
)
from tuttekit.symfun import SymFunc, m_to_p, mtilde_to_m

from reference import c_value, lambda_of


@st.composite
def edge_lists(draw, n, max_edges=7):
    """Edges on [n] with loops and repeated pairs."""
    if n == 0:
        return []
    vertex = st.integers(1, n)
    return draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))


@st.composite
def multigraphs(draw, max_n=6, max_weight=2):
    n = draw(st.integers(0, max_n))
    weights = draw(st.lists(st.integers(1, max_weight), min_size=n, max_size=n))
    return Multigraph(n, draw(edge_lists(n)), weights)


@st.composite
def combinations(draw, t_free=False):
    """Random combinations on [n]: unit-weight multigraph terms, small coefficients."""
    n = draw(st.integers(0, 5))
    coeff = st.lists(st.integers(-2, 2), min_size=1, max_size=1 if t_free else 3)
    terms = draw(st.lists(st.tuples(edge_lists(n, 5), coeff), max_size=5))
    return GraphCombination(n, [(Multigraph(n, es), TPoly(c)) for es, c in terms])


@st.composite
def extension_shaped(draw, t_free=False):
    """Combinations shaped like a relation extended to a host: every term
    holds one base graph (loops and repeats allowed) and adds a small local
    edge set, edges only on drawn vertices so that others touch none, and
    sometimes a pair of equal-size terms with opposite coefficients, which
    cancels at the single block."""
    n = draw(st.integers(1, 6))
    vertex = st.sampled_from(draw(st.lists(st.integers(1, n), min_size=1, unique=True)))
    edge = st.tuples(vertex, vertex)
    base = draw(st.lists(edge, max_size=5))
    coeff = st.lists(st.integers(-2, 2), min_size=1, max_size=1 if t_free else 2).map(TPoly)
    pair = draw(st.booleans())
    terms = [(base + draw(st.lists(edge, max_size=3)), draw(coeff)) for _ in range(draw(st.integers(0 if pair else 1, 4)))]
    if pair:
        size, c = draw(st.integers(1, 3)), draw(coeff)
        for sign in (1, -1):
            terms.append((base + draw(st.lists(edge, min_size=size, max_size=size)), c * sign))
    return GraphCombination(n, [(Multigraph(n, es), c) for es, c in terms])


#### the kernel against brute force ###########################################

@cache
def restricted_growth_partitions(n):
    """Every set partition of [n], from the restricted-growth strings among
    all of range(n)^n in lexicographic order."""
    out = []
    for s in product(range(n), repeat=n):
        if all(s[i] <= max(s[:i], default=-1) + 1 for i in range(n)):
            blocks = [[] for _ in range(max(s, default=-1) + 1)]
            for v, b in enumerate(s, start=1):
                blocks[b].append(v)
            out.append(tuple(map(tuple, blocks)))
    return out


@pytest.mark.parametrize("n", range(7))
def test_walk_is_the_restricted_growth_order(n):
    assert list(enumerate_set_partitions(n)) == restricted_growth_partitions(n)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(edge_lists(n), max_size=4))))
def test_counts_match_internal_edge_count(case):
    n, edge_sets = case
    counted = list(enumerate_set_partitions(n, edge_sets=edge_sets))
    assert [pi for pi, _ in counted] == restricted_growth_partitions(n)
    graphs = [Multigraph(n, es) for es in edge_sets]
    for pi, counts in counted:
        assert counts == tuple(internal_edge_count(g, pi) for g in graphs)


def test_kernel_option_validation():
    with pytest.raises(DomainError):
        enumerate_set_partitions(-1)
    with pytest.raises(DomainError):
        list(enumerate_set_partitions(2, edge_sets=[[(1, 3)]]))
    # refused at the call, before the first item is asked for
    for bad in (2.0, "3", True, None):
        with pytest.raises(DomainError, match="must be an integer"):
            enumerate_set_partitions(bad)
    for edge in ((1, 1.5), (True, 2), (1, "2")):
        with pytest.raises(DomainError, match="edge end must be an integer"):
            enumerate_set_partitions(2, edge_sets=[[(1, 2)], [edge]])
    for weights in ([1], [1, 2, 3], []):
        with pytest.raises(DomainError, match="vertex weights for a ground set of 2"):
            enumerate_set_partitions(2, weights=weights)
    for weights in ([1, 1.5], [True, 1], [1, None]):
        with pytest.raises(DomainError, match="vertex weight must be an integer"):
            enumerate_set_partitions(2, weights=weights)
    # malformed shapes are refused at the call too
    for edge_sets, match in (
        ([[(1, 2, 3)]], "edge must be a pair"),
        ([[5]], "edge must be a pair"),
        ([None], "must be a list of edge lists"),
        (5, "must be a list of edge lists"),
    ):
        with pytest.raises(DomainError, match=match):
            enumerate_set_partitions(2, edge_sets=edge_sets)
    with pytest.raises(DomainError, match="vertex weights must be a list"):
        enumerate_set_partitions(2, weights=5)
    assert list(enumerate_set_partitions(0, edge_sets=[[]])) == [((), (0,))]
    assert list(enumerate_set_partitions(0, weights=())) == [()]
    assert list(enumerate_set_partitions(0, edge_sets=[[]], weights=())) == [((), (0,))]
    # a loop is internal to every partition
    assert list(enumerate_set_partitions(2, edge_sets=[[(2, 2)]])) == [(((1, 2),), (1,)), (((1,), (2,)), (1,))]


def test_walk_depth_is_not_bounded_by_the_recursion_limit():
    # one loop frame: a ground set past the interpreter's recursion limit still walks
    walk = enumerate_set_partitions(1500)
    assert next(walk) == (tuple(range(1, 1501)),)
    assert next(walk) == (tuple(range(1, 1500)), (1500,))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 3), min_size=n, max_size=n),
    st.none() | st.lists(edge_lists(n), max_size=3))))
def test_weights_form_is_the_blocks_form_summed(case):
    weights, edge_sets = case
    n = len(weights)
    blocks = list(enumerate_set_partitions(n, edge_sets=edge_sets))
    summed = list(enumerate_set_partitions(n, edge_sets=edge_sets, weights=weights))

    def sums(pi):
        return tuple(sum(weights[v - 1] for v in b) for b in pi)

    if edge_sets is None:
        assert blocks == restricted_growth_partitions(n)
        assert summed == [sums(pi) for pi in blocks]
    else:
        assert [pi for pi, _ in blocks] == restricted_growth_partitions(n)
        assert summed == [(sums(pi), counts) for pi, counts in blocks]


#### X's stable walk against the kernel ########################################

def stable_shapes(n, edges, weights):
    """`_stable_counts` with each block-weight vector sorted into its shape."""
    shapes = Counter()
    for vector, c in invariants._stable_counts(n, edges, weights).items():
        shapes[tuple(sorted(vector, reverse=True))] += c
    return shapes


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    edge_lists(n, max_edges=9), st.lists(st.integers(1, 3), min_size=n, max_size=n))))
def test_stable_counts_match_filtered_kernel(case):
    edges, weights = case
    n = len(weights)
    G = Multigraph(n, edges, weights)
    want = Counter(
        lambda_of(pi, weights) for pi in enumerate_set_partitions(n) if internal_edge_count(G, pi) == 0
    )
    got = invariants._stable_counts(n, edges, weights)
    assert stable_shapes(n, edges, weights) == want
    assert all(type(c) is int for c in got.values())


def test_stable_counts_pins():
    assert stable_shapes(0, [], []) == Counter({(): 1})
    assert stable_shapes(2, [(2, 2)], [1, 1]) == Counter()
    # parallel and reversed edges forbid the same pair once
    assert stable_shapes(3, [(2, 1), (1, 2), (2, 3)], [2, 1, 1]) == Counter(
        {(3, 1): 1, (2, 1, 1): 1}
    )
    assert stable_shapes(1, [], [3]) == Counter({(3,): 1})
    assert stable_shapes(1, [(1, 1)], [3]) == Counter()
    # isolated vertices go anywhere: two edgeless vertices give Bell(2) partitions
    assert stable_shapes(2, [], [1, 2]) == Counter({(3,): 1, (2, 1): 1})
    assert stable_shapes(4, [(1, 2)], [1, 1, 1, 1]) == Counter(
        {(3, 1): 2, (2, 2): 2, (2, 1, 1): 5, (1, 1, 1, 1): 1}
    )
    # a repeated edge forbids its pair once; a repeated loop still kills X
    assert stable_shapes(3, [(1, 3), (1, 3), (1, 3)], [1, 1, 1]) == Counter(
        {(2, 1): 2, (1, 1, 1): 1}
    )
    assert stable_shapes(3, [(2, 2), (2, 2)], [1, 1, 1]) == Counter()


#### friendliness scans against b_value / c_value ##############################

def reference_tutte_scan(L):
    for pi in enumerate_set_partitions(L.n):
        b = b_value(L, pi)
        if not b.is_zero():
            return False, pi, next(i for i, c in enumerate(b.onep_t_powers()) if c != 0)
    return True, None, None


def reference_x_scan(L):
    for pi in enumerate_set_partitions(L.n):
        if c_value(L, pi) != 0:
            return False, pi
    return True, None


@settings(max_examples=150, deadline=None)
@given(combinations())
def test_tutte_scan_matches_b_value_reference(L):
    assert is_tutte_friendly(L) == reference_tutte_scan(L)


@settings(max_examples=150, deadline=None)
@given(combinations(t_free=True))
def test_x_scan_matches_c_value_reference(L):
    assert is_x_friendly(L) == reference_x_scan(L)


@settings(max_examples=300, deadline=None)
@given(extension_shaped())
def test_tutte_scan_matches_b_value_reference_on_extension_shapes(L):
    assert is_tutte_friendly(L) == reference_tutte_scan(L)


@settings(max_examples=300, deadline=None)
@given(extension_shaped(t_free=True))
def test_x_scan_matches_c_value_reference_on_extension_shapes(L):
    assert is_x_friendly(L) == reference_x_scan(L)


def test_shared_edges_shift_a_and_vertices_off_the_support_join_vertex_1():
    # 12 twice in both terms; the others cancel at the single block and
    # differ first at 123|4, where vertex 2 touches no other edge
    L = GraphCombination(4, [
        (Multigraph(4, [(1, 2), (1, 2), (3, 4)]), TPoly([1])),
        (Multigraph(4, [(1, 2), (1, 2), (1, 3)]), TPoly([-1])),
    ])
    assert is_tutte_friendly(L) == reference_tutte_scan(L) == (False, ((1, 2, 3), (4,)), 2)
    # vertex 1 touches no edge: 124|3 is the first partition that splits 34 but not 24
    L = GraphCombination(4, [(Multigraph(4, [(2, 4)]), TPoly([1])), (Multigraph(4, [(3, 4)]), TPoly([-1]))])
    assert is_tutte_friendly(L) == reference_tutte_scan(L) == (False, ((1, 2, 4), (3,)), 0)
    assert is_x_friendly(L) == reference_x_scan(L) == (False, ((1, 2, 4), (3,)))


@pytest.fixture
def walked(monkeypatch):
    """The items each friendliness scan draws from the partition walk."""
    items = []

    def counting(*args, **kwargs):
        for item in enumerate_set_partitions(*args, **kwargs):
            items.append(item)
            yield item

    monkeypatch.setattr(kernel, "enumerate_set_partitions", counting)
    return items


def test_scans_walk_only_the_vertices_where_terms_differ(walked):
    host = Multigraph(10, [*cycle(10).edges, (1, 2), (2, 3), (1, 7), (3, 3)])
    assert is_tutte_friendly(extend(ell_tri(), host)) == (True, None, None)
    assert len(walked) <= 5  # Bell(3): the triangle's vertices
    walked.clear()
    assert is_tutte_friendly(ell_os_plus()) == (True, None, None)
    assert len(walked) == 5  # the bench tracer's pin
    walked.clear()
    L = GraphCombination(4, [(Multigraph(4, [(1, 2)]), TPoly([1])), (edgeless(4), TPoly([-1]))])
    assert is_tutte_friendly(L) == (False, ((1, 2, 3, 4),), 0)
    assert is_x_friendly(L) == (False, ((1, 2, 3, 4),))
    assert walked == []


def test_friendly_scans_on_known_cases():
    assert is_tutte_friendly(ell_os_plus()) == (True, None, None)
    L = GraphCombination(2, [(Multigraph(2, [(1, 2)]), TPoly([1])), (edgeless(2), TPoly([-1]))])
    assert is_tutte_friendly(L) == reference_tutte_scan(L) == (False, ((1, 2),), 0)
    assert is_x_friendly(L) == reference_x_scan(L) == (False, ((1, 2),))


#### Stanley's p-expansion #####################################################

def _component_weights(G, subset):
    """Weights of the components of (V, subset), by union-find."""
    parent = list(range(G.n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in subset:
        parent[find(u)] = find(v)
    totals = {}
    for v in range(1, G.n + 1):
        root = find(v)
        totals[root] = totals.get(root, 0) + G.weights[v - 1]
    return tuple(sorted(totals.values(), reverse=True))


def stanley_p_expansion(G):
    """XB = sum over edge subsets S of t^|S| p_lambda(S) (Stanley, Discrete Math. 1998)."""
    terms = []
    m = len(G.edges)
    for mask in range(1 << m):
        subset = [G.edges[i] for i in range(m) if mask >> i & 1]
        terms.append((_component_weights(G, subset), TPoly([0] * len(subset) + [1])))
    return SymFunc("p", terms)


@settings(max_examples=80, deadline=None)
@given(multigraphs())
def test_tutte_sym_matches_stanley_p_expansion(G):
    assert m_to_p(mtilde_to_m(tutte_sym(G))) == stanley_p_expansion(G)


@settings(max_examples=80, deadline=None)
@given(multigraphs())
def test_p_expansion_of_xb_has_int_coefficients_only(G):
    # Stanley's p-expansion is integral, and m_to_p keeps whole quotients ints
    p = m_to_p(mtilde_to_m(tutte_sym(G)))
    assert all(type(x) is int for c in p.terms.values() for x in c.terms.values())


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_x_is_xb_at_t_minus_one_through_the_stable_walk(G):
    X = SymFunc("p", [(lam, c.evaluate(-1)) for lam, c in stanley_p_expansion(G).terms.items()])
    assert m_to_p(mtilde_to_m(chromatic_sym(G))) == X


#### the bounded deletion-contraction memo #####################################

def test_delcon_memo_stays_under_its_cap_and_stays_exact(monkeypatch):
    monkeypatch.setattr(invariants, "_delcon_memo", {})
    memo = invariants._delcon_memo
    # edgeless graphs with distinct weight multisets: one memo entry each
    weight_lists = (w for n in range(1, 6) for w in combinations_with_replacement(range(1, 13), n))
    filled = 0
    for weights in islice(weight_lists, DELCON_MEMO_CAP + 50):
        tutte_sym_delcon(edgeless(len(weights), weights))
        filled += 1
        assert len(memo) <= DELCON_MEMO_CAP
    assert filled > DELCON_MEMO_CAP and len(memo) == DELCON_MEMO_CAP
    for G in (cycle(5), Multigraph(4, [(1, 2), (1, 2), (2, 3), (3, 4), (4, 4)], [2, 1, 1, 3])):
        assert tutte_sym_delcon(G) == tutte_sym(G)
        assert len(memo) == DELCON_MEMO_CAP


def test_delcon_memo_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(invariants, "_delcon_memo", {})
    monkeypatch.setattr(invariants, "DELCON_MEMO_CAP", 3)
    memo = invariants._delcon_memo
    graphs = [edgeless(1, [w]) for w in range(1, 5)]
    for G in graphs[:3]:
        tutte_sym_delcon(G)
    first = next(iter(memo))
    tutte_sym_delcon(graphs[0])  # a hit moves the oldest entry to the end
    assert next(iter(memo)) != first and list(memo)[-1] == first
    tutte_sym_delcon(graphs[3])  # evicts graphs[1], now the oldest
    assert len(memo) == 3 and first in memo
    for G in graphs:
        assert tutte_sym_delcon(G) == tutte_sym(G)
    assert len(memo) == 3


def test_delcon_memo_sees_no_loops_or_repeated_pairs(monkeypatch):
    monkeypatch.setattr(invariants, "_delcon_memo", {})
    memo = invariants._delcon_memo
    G = Multigraph(4, [(1, 2), (1, 2), (1, 3), (2, 3), (3, 4), (3, 4), (3, 4)], [2, 1, 1, 3])
    f = tutte_sym_delcon(G)
    filled = len(memo)
    # X reads the counts at (1+t)^0 of the entry XB just made
    assert chromatic_sym_delcon(G) == chromatic_sym(G) and len(memo) == filled
    # loops are a factor (1+t) each, taken off before the memo is asked
    looped = Multigraph(G.n, [*G.edges, (1, 1), (4, 4), (4, 4)], G.weights)
    assert tutte_sym_delcon(looped) == f.scale(onep_t_power(3)) == tutte_sym(looped)
    assert len(memo) == filled
    # X sees the simple graph underneath
    simple = Multigraph(G.n, sorted(set(G.edges)), G.weights)
    x = chromatic_sym_delcon(simple)
    filled = len(memo)
    assert chromatic_sym_delcon(G) == x == chromatic_sym(G)
    assert len(memo) == filled
    assert chromatic_sym_delcon(looped).is_zero() and len(memo) == filled


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_delcon_memo_holds_positive_counts_of_set_partitions(G):
    # an entry is {shape: {power of (1+t): count}}: every set partition of
    # its n vertices is counted once, at the number of edges inside its blocks
    with patch.object(invariants, "_delcon_memo", {}) as memo:
        tutte_sym_delcon(G)
        chromatic_sym_delcon(G)
    for (weights, _), value in memo.items():  # the form leads with the n weights
        bell = len(restricted_growth_partitions(len(weights)))
        assert all(d and all(type(c) is int and c > 0 for c in d.values()) for d in value.values())
        assert sum(c for d in value.values() for c in d.values()) == bell


def test_delcon_values_share_no_dict_with_the_memo(monkeypatch):
    monkeypatch.setattr(invariants, "_delcon_memo", {})
    G = Multigraph(4, [(1, 2), (1, 2), (2, 3), (3, 4), (1, 4)], [2, 1, 1, 3])
    values = [tutte_sym_delcon(G), chromatic_sym_delcon(G)]
    stored = {id(d) for value in invariants._delcon_memo.values() for d in (value, *value.values())}
    assert all(id(c.terms) not in stored for f in values for c in f.terms.values())
    assert values == [tutte_sym(G), chromatic_sym(G)]
    # a second call is served from the memo and still hands out fresh dicts
    assert tutte_sym_delcon(G) == values[0] and tutte_sym_delcon(G).terms is not values[0].terms


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=8))
def test_delcon_edgeless_base_tallies_the_set_partitions_by_shape(weights):
    n = len(weights)
    walked = Counter()
    for vector, c in Counter(enumerate_set_partitions(n, weights=weights)).items():
        walked[tuple(sorted(vector, reverse=True))] += c
    with patch.object(invariants, "_delcon_memo", {}):
        assert invariants._delcon(n, (), tuple(weights)) == {lam: {0: c} for lam, c in walked.items()}


def test_delcon_routes_walk_no_set_partitions(monkeypatch):
    graphs = [cycle(9), Multigraph(5, [(1, 1), (1, 2), (1, 2), (2, 3), (2, 5), (3, 4), (4, 5), (5, 5)], [2, 1, 3, 1, 2])]
    expected = [(tutte_sym(G), chromatic_sym(G)) for G in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("delcon walked the set partitions")

    monkeypatch.setattr(invariants, "enumerate_set_partitions", refuse)
    monkeypatch.setattr(combinatorics, "enumerate_set_partitions", refuse)
    monkeypatch.setattr(invariants, "_delcon_memo", {})
    assert [(tutte_sym_delcon(G), chromatic_sym_delcon(G)) for G in graphs] == expected


def test_delcon_past_the_cap_gives_the_potts_function_of_c14(monkeypatch):
    # at x = 1^k, m~_lam is the falling factorial (k)_l(lam): XB(C14) is the
    # Potts function (k+t)^14 + (k-1) t^14, and X the chromatic polynomial
    monkeypatch.setenv("TUTTEKIT_MAX_N", "14")
    monkeypatch.setattr(invariants, "_delcon_memo", {})
    xb, x = tutte_sym_delcon(cycle(14)), chromatic_sym_delcon(cycle(14))

    def at_ones(f, k):
        return sum((c * perm(k, len(lam)) for lam, c in f.terms.items()), TPoly())

    for k in range(6):
        assert at_ones(xb, k) == TPoly([k, 1]) ** 14 + TPoly.t() ** 14 * (k - 1)
        assert at_ones(x, k) == TPoly([(k - 1) ** 14 + k - 1])


def test_suite_2_catches_x_read_at_the_wrong_power_of_1_plus_t(monkeypatch):
    def faulty(G):  # chromatic_sym_delcon, reading the counts at (1+t)^1
        value = {} if G.has_loop() else invariants._delcon(G.n, G.edges, G.weights)
        return SymFunc("mtilde")._like_nested({lam: {0: d[1]} for lam, d in value.items() if 1 in d})

    (suite,) = [s for s in selfcheck.SUITES if s.id == 2]
    monkeypatch.setattr(selfcheck, "chromatic_sym_delcon", faulty)
    r = suite.run()
    assert not r["passed"] and r["checks"] == 474
    assert r["failures"][0].startswith("t=-1 mismatch on")
