"""The shared linear-combination core: exact arithmetic and the coefficient policy."""

import copy
import operator
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuttekit
from tuttekit.combinatorics import DomainError, TPoly
from tuttekit.graphs import Multigraph, complete, cycle, path
from tuttekit.invariants import tutte_sym
from tuttekit.kernel import GraphCombination, witness_mtilde_coefficient
from tuttekit.lincomb import ECHO_LIMIT, LinComb, LRUCache, echo
from tuttekit.quasi import Digraph, QTPoly, TruncatedQFunc, tq
from tuttekit.symfun import SymFunc, m_to_e, mtilde_to_m, specialize_t

#### dense reference ###########################################################

# Dense polynomials over a coefficient ring given by (zero, add, mul): a list
# whose i-th entry is the coefficient of x^i, trailing zeros stripped.  Over
# Fractions this is Q[t]; over Q[t] itself it is Q[q][t] for QTPoly, with the
# outer index the power of q.


def _trim(xs):
    while xs and not xs[-1]:
        xs.pop()
    return xs


def dense_ring(zero, add, mul):
    def dadd(a, b):
        n = max(len(a), len(b))
        return _trim([add(a[i] if i < len(a) else zero, b[i] if i < len(b) else zero) for i in range(n)])

    def dmul(a, b):
        out = [zero] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = add(out[i + j], mul(x, y))
        return _trim(out)

    return dadd, dmul


t_add, t_mul = dense_ring(Fraction(0), operator.add, operator.mul)
qt_add, qt_mul = dense_ring([], t_add, t_mul)


def t_dense(p: TPoly):
    return _trim([Fraction(c) for c in p.coeffs])


def qt_dense(p: QTPoly):
    rows = [[] for _ in range(1 + max((a for a, _ in p.terms), default=-1))]
    for (a, b), c in p.terms.items():
        rows[a] = t_add(rows[a], [Fraction(0)] * b + [Fraction(c)])
    return _trim(rows)


def t_make(xs):
    return TPoly(xs)


def qt_make(grid):
    return QTPoly({(a, b): c for a, row in enumerate(grid) for b, c in enumerate(row)})


KINDS = {
    "t": (t_make, t_dense, t_add, t_mul, lambda c: _trim([Fraction(c)])),
    "qt": (qt_make, qt_dense, qt_add, qt_mul, lambda c: _trim([_trim([Fraction(c)])])),
}

ints = st.integers(-4, 4)
rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)
scalars = st.one_of(ints, rationals)


def operands(kind, coeffs):
    if kind == "t":
        return st.lists(coeffs, max_size=4)
    return st.lists(st.lists(coeffs, max_size=3), max_size=3)


@st.composite
def programs(draw, kind, coeffs):
    start = draw(operands(kind, coeffs))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["+", "-", "r+", "r-", "*", "scale", "**", "neg"]),
                operands(kind, coeffs),
                coeffs,
                st.integers(0, 3),
            ),
            max_size=5,
        )
    )
    return start, steps


def _run(kind, program):
    make, dense, add, mul, const = KINDS[kind]
    start, steps = program
    p = make(start)
    ref = dense(make(start))
    for op, operand, c, k in steps:
        q = make(operand)
        qref = dense(q)
        if op == "+":
            p, ref = p + q, add(ref, qref)
        elif op == "-":
            p, ref = p - q, add(ref, mul(qref, const(-1)))
        elif op == "r+":
            p, ref = c + p, add(ref, const(c))
        elif op == "r-":
            p, ref = c - p, add(const(c), mul(ref, const(-1)))
        elif op == "*":
            p, ref = p * q, mul(ref, qref)
        elif op == "scale":
            p, ref = p.scale(c), mul(ref, const(c))
        elif op == "**":
            p, ref0 = p**k, ref
            ref = const(1)
            for _ in range(k):
                ref = mul(ref, ref0)
        else:
            p, ref = -p, mul(ref, const(-1))
        assert dense(p) == ref
        assert all(c for c in p.terms.values()), "zero coefficient kept"
    return p


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(KINDS)).flatmap(lambda kind: st.tuples(st.just(kind), programs(kind, scalars))))
def test_poly_arithmetic_matches_dense_reference(case):
    kind, program = case
    p = _run(kind, program)
    assert all(type(c) in (int, Fraction) for c in p.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(KINDS)).flatmap(lambda kind: st.tuples(st.just(kind), programs(kind, ints))))
def test_int_inputs_give_int_coefficients(case):
    kind, program = case
    p = _run(kind, program)
    assert all(type(c) is int for c in p.terms.values())


#### the coefficient policy ####################################################


def test_every_value_type_derives_from_the_core():
    for cls in (TPoly, QTPoly, SymFunc, TruncatedQFunc, GraphCombination):
        assert issubclass(cls, LinComb)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TPoly([1, 0.5]),
        lambda: TPoly.of(0.5),
        lambda: TPoly.t().scale(0.5),
        lambda: QTPoly({(0, 0): 0.5}),
        lambda: QTPoly.of(2.0),
        lambda: SymFunc("m", {(1,): 0.5}),
        lambda: SymFunc("m", {(1,): TPoly([1.0])}),
        lambda: TruncatedQFunc(1, {(1,): 0.5}),
        lambda: GraphCombination(1, [(Multigraph(1), 0.5)]),
        lambda: specialize_t(tutte_sym(path(2)), 0.5),
        lambda: QTPoly.q().at_q(0.5),
    ],
)
def test_constructors_refuse_floats(build):
    with pytest.raises(DomainError):
        build()


def _scalars(f):
    """Every scalar inside the coefficients of a value."""
    for c in f.terms.values():
        if isinstance(c, LinComb):
            yield from _scalars(c)
        else:
            yield c


def test_coefficients_stay_int_or_fraction():
    L = GraphCombination(2, [(complete(2), 1)])
    values = [
        witness_mtilde_coefficient(L, [[1], [2]]),
        m_to_e(mtilde_to_m(tutte_sym(cycle(4)))),
        specialize_t(tutte_sym(cycle(4)), "1/3"),
        tq(Digraph(3, [(1, 2), (2, 3)]), 3).at_q("2/3"),
    ]
    for f in values:
        assert not f.is_zero()
        assert all(type(c) in (int, Fraction) for c in _scalars(f))
    assert any(type(c) is Fraction for c in _scalars(values[2]))


def test_counts_stay_int_until_a_division():
    f = tutte_sym(cycle(4))
    assert all(type(c) is int for c in _scalars(f))
    # e_mu' = m_mu + lex-lower terms: each elimination step has leading
    # coefficient 1, so m to e never divides
    assert all(type(c) is int for c in _scalars(m_to_e(mtilde_to_m(f))))


def test_sparse_tpoly_keeps_the_dense_view():
    p = TPoly([0, 0, 3, 0])
    assert p.terms == {2: 3}
    assert p.coeffs == (0, 0, 3)
    assert p.degree() == 2
    assert TPoly().coeffs == () and TPoly().degree() == -1
    with pytest.raises(AttributeError):
        p.terms = {}


def test_mismatched_fields_refuse_addition():
    with pytest.raises(DomainError):
        SymFunc("m", {(1,): 1}) + SymFunc("e", {(1,): 1})
    with pytest.raises(DomainError):
        TruncatedQFunc(1) + TruncatedQFunc(2)
    with pytest.raises(DomainError):
        GraphCombination(1) - GraphCombination(2)
    assert SymFunc("m", {(1,): 1}) != SymFunc("e", {(1,): 1})


def test_values_survive_pickle_and_copy():
    values = [
        TPoly([1, 2]),
        QTPoly.q() * 3 + QTPoly.of(Fraction(1, 2)),
        tutte_sym(cycle(4)),
        tq(Digraph(3, [(1, 2), (2, 3)]), 4),
        GraphCombination(2, [(complete(2), TPoly([1, 1])), (Multigraph(2), -1)]),
    ]
    for v in values:
        for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(twin) is type(v) and twin == v and hash(twin) == hash(v)
            assert twin - v == v - v
            with pytest.raises(AttributeError, match="immutable"):
                twin.terms = {}


#### checks that survive python -O #############################################


def test_load_bearing_checks_survive_optimized_mode():
    code = textwrap.dedent(
        """
        from tuttekit import invariants, kernel
        from tuttekit.combinatorics import DomainError, TPoly
        from tuttekit.graphs import Multigraph, _canonical_labelling
        from tuttekit.kernel import GraphCombination, ReductionStep, _apply_step

        assert False, "asserts must be off"
        try:
            TPoly.t() ** -1
        except DomainError:
            print("pow refused")
        # a mis-ordered triple makes the os_plus rewrite lower the order
        g = Multigraph(3, [(1, 3), (2, 3)])
        step = ReductionStep("os_plus", g, triple=(1, 3, 2), case=2, perm=(1, 2, 3))
        try:
            _apply_step({g.edges: (1,)}, step)
        except RuntimeError as exc:
            print("step refused:", exc)
        # the edge 13 is a bright star forest of shape (2, 1), not R_(2,1)
        L = GraphCombination(3, [(Multigraph(3, [(1, 3)]), TPoly.one())])
        # a canonical map whose image is not R_lambda
        kernel._star_forest_map = lambda n, edges: ((2, 1), (3, 2, 1))
        kernel._rewrites.clear()
        try:
            kernel.reduce_to_star_forests(L)
        except RuntimeError as exc:
            print("map refused:", exc)
        # a canonical map that leaves the term where it is
        kernel._star_forest_map = lambda n, edges: ((2, 1), (1, 2, 3))
        kernel._rewrites.clear()
        try:
            kernel.reduce_to_star_forests(L)
        except RuntimeError as exc:
            print("output refused:", exc)
        # a generator whose leading term has coefficient 2
        try:
            kernel._rule(GraphCombination(2, [(Multigraph(2, [(1, 2)]), TPoly.of(2)), (Multigraph(2), TPoly.one())]))
        except RuntimeError as exc:
            print("rule refused:", exc)
        # deletion-contraction's XB of the edgeless class on [2] corrupted to zero
        invariants._delcon_memo[_canonical_labelling(2, (), (1, 1))[0]] = {}
        try:
            kernel.kernel_membership(GraphCombination(2, [(Multigraph(2), TPoly.one())]))
        except RuntimeError as exc:
            print("verdicts refused:", exc)
        """
    )
    src = str(Path(tuttekit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "pow refused"
    assert lines[1].startswith("step refused: internal fault:")
    assert lines[2].startswith("map refused: internal fault:") and "onto R[2, 1]" in lines[2]
    assert lines[3].startswith("output refused: internal fault:") and "not a canonical" in lines[3]
    assert lines[4].startswith("rule refused: internal fault:") and "(1+t)-coefficients (2,), not 1" in lines[4]
    assert lines[5].startswith("verdicts refused: internal fault: deletion-contraction verdict True disagrees")


def test_echo_keeps_a_short_repr_and_cuts_a_long_one():
    assert echo([1, "a\n"]) == repr([1, "a\n"])
    edges = {"edges": [[1, 2]] * 1000}
    text = echo(edges)
    assert len(text) <= ECHO_LIMIT and text.startswith("{'edges': [[1, 2], ")
    assert text.endswith(f"... <dict of {len(repr(edges)):,} characters>")
    # past the interpreter's limit for writing an int as text
    assert echo(10**5000) == "<int too long to write>"
    with pytest.raises(DomainError, match=r"^coefficient 'x{139}\.\.\. <str of 502 characters>"):
        LinComb({(): "x" * 500})


#### the least-recently-used cache #############################################


def test_lru_cache_moves_a_hit_to_the_end_and_drops_the_oldest_at_its_cap():
    cache = LRUCache(3)
    for key in "abc":
        assert cache.keep(key, key.upper()) == key.upper()
    assert cache.hit("a") == "A" and list(cache) == ["b", "c", "a"]
    assert cache.hit("z") is None and list(cache) == ["b", "c", "a"]
    cache.keep("d", "D")  # full: drops b, now the oldest
    assert cache == {"c": "C", "a": "A", "d": "D"} and list(cache) == ["c", "a", "d"]


def test_lru_cache_counts_a_stored_none_as_a_hit():
    cache, miss = LRUCache(2), object()
    cache.keep("x", None)
    assert cache.hit("x", miss) is None
    assert cache.hit("y", miss) is miss and "y" not in cache
    cache.keep("y", 1)
    assert cache.hit("x", miss) is None  # x is now the most recent
    cache.keep("z", 2)
    assert list(cache) == ["x", "z"]


def test_lru_cache_counts_hits_misses_and_evictions():
    cache, miss = LRUCache(2), object()
    assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
    cache.keep("a", None)
    cache.keep("b", 1)
    assert cache.hit("a", miss) is None and cache.hit("c", miss) is miss and cache.hit("b") == 1
    cache.keep("c", 2)  # full: drops a, now the oldest
    assert cache.hit("a", miss) is miss
    assert (cache.hits, cache.misses, cache.evictions) == (2, 2, 1)
