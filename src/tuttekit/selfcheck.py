"""Cross-route verification suites behind `tuttekit selfcheck`.

Each suite exercises one acceptance property end to end with exact
arithmetic and yields one verdict per check: None when the check holds, a
failure message when it does not.  `SUITES` gives each suite its id, name
and budget, and `Suite.run` counts its verdicts into a small report dict;
the test suite runs the same table, so the CLI and pytest always agree
about what is checked.  Budgets are expectations, recorded in the report
for visibility rather than enforced as hard failures.
"""

from __future__ import annotations

import random
import time
import traceback
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, Iterator, NamedTuple

from tuttekit.combinatorics import TPoly, enumerate_set_partitions, onep_t_power, partitions_of
from tuttekit.graphs import (
    Multigraph,
    canonical_star_forest,
    complement,
    complete,
    cycle,
    simple_graph,
    star_forest_shape,
)
from tuttekit.invariants import (
    chromatic_sym,
    chromatic_sym_delcon,
    sigma_l_direct,
    sigma_l_formula,
    tutte_from_connected_partitions,
    tutte_from_contractions,
    tutte_sym,
    tutte_sym_delcon,
)
from tuttekit.kernel import (
    GraphCombination,
    b_value,
    broom_relation,
    classify_n4,
    combination_tutte_sym,
    cycle_relation,
    ell_iso,
    ell_loop,
    ell_multi,
    ell_os,
    ell_os_plus,
    ell_tri,
    extend,
    is_tutte_friendly,
    is_x_friendly,
    kernel_membership,
    nontrivial_friendly_pair,
    reduce_to_star_forests,
    replay_certificate,
    star_forest_basis_rank,
    two_edge_connected_relation,
    witness_graph,
    witness_mtilde_coefficient,
)
from tuttekit.quasi import (
    Digraph,
    tq,
    tq_from_arc_subsets,
    tq_from_connected_partitions,
    truncate_symfunc,
    underlying,
    xq,
)
from tuttekit.symfun import SymFunc, specialize_t

SEED = 20260817


#### corpora ###################################################################

def simple_graphs(n: int) -> list[Multigraph]:
    """All labelled simple graphs on [n]."""
    return [simple_graph(n, mask) for mask in range(1 << (n * (n - 1) // 2))]


def multigraphs_on_3(max_edges: int = 4) -> list[Multigraph]:
    """All multigraphs on [3] with at most max_edges edges, loops included."""
    slots = [(1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)]
    out = []
    for k in range(max_edges + 1):
        for edges in combinations_with_replacement(slots, k):
            out.append(Multigraph(3, edges))
    return out


def random_multigraph(
    rng: random.Random,
    n_min: int = 1,
    n_max: int = 6,
    e_max: int = 8,
) -> Multigraph:
    n = rng.randint(n_min, n_max)
    edges = []
    for _ in range(rng.randint(0, e_max)):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        edges.append((u, v))
    weights = [rng.randint(1, 3) for _ in range(n)]
    return Multigraph(n, edges, weights)


def random_simple_graph(rng: random.Random, n: int, e_max: int | None = None) -> Multigraph:
    if e_max is None:
        return simple_graph(n, rng.getrandbits(n * (n - 1) // 2))
    pairs = list(combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    return Multigraph(n, pairs[: rng.randint(0, min(e_max, len(pairs)))])


def xb_corpus() -> list[Multigraph]:
    """Corpus for the four-route and t=-1 suites."""
    rng = random.Random(SEED)
    corpus = simple_graphs(4) + multigraphs_on_3(4)
    corpus += [random_multigraph(rng) for _ in range(200)]
    return corpus


def _random_combination(rng: random.Random) -> GraphCombination:
    """Mix of constructed kernel members and arbitrary small combinations."""
    n = rng.randint(3, 5)
    coeff_pool = [
        TPoly.of(1),
        TPoly.of(-1),
        TPoly.of(2),
        TPoly.t(),
        TPoly.one() + TPoly.t(),
    ]

    def member() -> GraphCombination:
        gen = rng.choice([ell_loop(), ell_multi(), ell_tri(), ell_os_plus()])
        host_edges = []
        for _ in range(rng.randint(0, 5)):
            u = rng.randint(1, n)
            v = rng.randint(1, n)
            host_edges.append((u, v))
        host = Multigraph(n, host_edges)
        if rng.random() < 0.3:
            g = random_multigraph(rng, n_min=n, n_max=n, e_max=5)
            g = Multigraph(n, g.edges)  # unit weights
            return ell_iso(g, rng.sample(range(1, n + 1), n))
        return extend(gen, host)

    def arbitrary() -> GraphCombination:
        terms = []
        for _ in range(rng.randint(1, 3)):
            g = random_multigraph(rng, n_min=n, n_max=n, e_max=5)
            terms.append((Multigraph(n, g.edges), rng.choice(coeff_pool)))
        return GraphCombination(n, terms)

    roll = rng.random()
    if roll < 0.35:
        return member()
    if roll < 0.55:
        return member() + arbitrary()
    return arbitrary()


#### suites ####################################################################

def xb_routes_agree() -> Iterator[str | None]:
    """Four XB routes agree on simple, multi, and random weighted graphs."""
    for G in xb_corpus():
        a = tutte_sym(G)
        b = tutte_sym_delcon(G)
        c = tutte_from_contractions(G)
        d = tutte_from_connected_partitions(G)
        yield None if a == b == c == d else f"route mismatch on {G!r}"


def t_minus_one_recovers_x() -> Iterator[str | None]:
    """XB at t = -1 equals X, by both X routes, on the same corpus."""
    for G in xb_corpus():
        ok = specialize_t(tutte_sym(G), Fraction(-1)) == chromatic_sym(G) == chromatic_sym_delcon(G)
        yield None if ok else f"t=-1 mismatch on {G!r}"


def generators_are_friendly() -> Iterator[str | None]:
    """Generators are friendly and random extensions stay in the kernel."""
    gens = [
        ("ell_loop", ell_loop()),
        ("ell_multi", ell_multi()),
        ("ell_tri", ell_tri()),
        ("ell_os_plus", ell_os_plus()),
    ]
    for name, L in gens:
        yield None if is_tutte_friendly(L)[0] else f"{name} is not Tutte-friendly"
    yield None if is_x_friendly(ell_os())[0] else "ell_os is not X-friendly"

    rng = random.Random(SEED + 3)

    def host_for(L: GraphCombination) -> Multigraph:
        n = rng.randint(L.n, 5)
        edges = []
        for _ in range(rng.randint(0, 6)):
            edges.append((rng.randint(1, n), rng.randint(1, n)))
        return Multigraph(n, edges)

    for name, L in gens:
        for _ in range(50):
            ext = extend(L, host_for(L))
            ok = combination_tutte_sym(ext).is_zero()
            yield None if ok else f"extension of {name} has nonzero XB sum"
    Los = ell_os()
    for _ in range(50):
        ext = extend(Los, host_for(Los))
        total = SymFunc.zero("mtilde")
        for g, c in ext.terms.items():
            total = total + chromatic_sym(g).scale(c)
        yield None if total.is_zero() else "extension of ell_os has nonzero X sum"


def no_friendly_single_graph_differences() -> Iterator[str | None]:
    """Differences of distinct simple graphs are never X-friendly."""

    def verdict(n: int, H1: Multigraph, H2: Multigraph) -> str | None:
        L = GraphCombination(n, [(H1, TPoly.one()), (H2, TPoly.of(-1))])
        return f"{H1!r} - {H2!r} is X-friendly" if is_x_friendly(L)[0] else None

    gs = simple_graphs(3)
    for H1 in gs:
        for H2 in gs:
            if H1 != H2:
                yield verdict(3, H1, H2)
    rng = random.Random(SEED + 4)
    done = 0
    while done < 500:
        H1 = random_simple_graph(rng, 5)
        H2 = random_simple_graph(rng, 5)
        if H1 == H2:
            continue
        done += 1
        yield verdict(5, H1, H2)


def expected_n4_families() -> list[frozenset[Multigraph]]:
    """The four friendliness families among labelled simple graphs on [4]."""
    T1 = Multigraph(4, [(1, 2), (2, 3), (3, 4)])
    T2 = Multigraph(4, [(1, 2), (1, 4), (3, 4)])
    T3 = Multigraph(4, [(1, 4), (1, 2), (2, 3)])
    T4 = Multigraph(4, [(1, 4), (3, 4), (2, 3)])
    T5 = Multigraph(4, [(1, 2), (2, 4), (3, 4)])
    T6 = Multigraph(4, [(1, 2), (1, 3), (3, 4)])
    U1 = Multigraph(4, [(1, 2), (3, 4)])
    U2 = Multigraph(4, [(1, 3), (2, 4)])
    U3 = Multigraph(4, [(1, 4), (2, 3)])

    def fam(*gs: Multigraph) -> frozenset[Multigraph]:
        return frozenset(gs) | frozenset(complement(g) for g in gs)

    return [fam(T1, T2), fam(T3, T4), fam(T5, T6), fam(U1, U2, U3)]


def n4_classification() -> Iterator[str | None]:
    """classify_n4 finds exactly the four known families; a pair of the 64
    graphs on [4] is friendly exactly when one family holds both and they
    are not complements; no seeded pair on [5] is friendly."""
    found = {frozenset(f) for f in classify_n4()}
    expected = set(families := expected_n4_families())
    yield None if found == expected else (
        f"families differ from the known four (missing {len(expected - found)}, extra {len(found - expected)})"
    )
    for H1, H2 in combinations(simple_graphs(4), 2):
        want = H2 != complement(H1) and any(H1 in f and H2 in f for f in families)
        got = nontrivial_friendly_pair(H1, H2)
        yield None if got == want else f"{H1!r}, {H2!r}: friendly is {got}, the families say {want}"
    rng = random.Random(SEED + 5)
    for _ in range(500):
        H1, H2 = simple_graph(5, rng.getrandbits(10)), simple_graph(5, rng.getrandbits(10))
        yield f"unexpected friendly pair on [5]: {H1!r}, {H2!r}" if nontrivial_friendly_pair(H1, H2) else None


def _reduction_fault(G: Multigraph, xb_of: dict[Multigraph, SymFunc]) -> str | None:
    """Why reducing G is unsound, or None; xb_of caches XB of each R_lambda.

    The termination order needs no check here: every rewrite the reducer
    applies raises RuntimeError when a product fails to come later."""
    L = GraphCombination(G.n, [(G, TPoly.one())])
    result, cert = reduce_to_star_forests(L)
    for _, _, g in result.terms:
        if g != canonical_star_forest(star_forest_shape(g)):
            return f"non-canonical output term {g!r}"
    xb = SymFunc.zero("mtilde")
    for c, k, g in result.terms:
        if g not in xb_of:
            xb_of[g] = tutte_sym(g)
        xb = xb + xb_of[g].scale(onep_t_power(k) * c)
    if xb != tutte_sym(G):
        return "XB not preserved"
    if replay_certificate(L, cert) != result.to_combination():
        return "certificate replay mismatch"
    return None


def star_forest_reduction() -> Iterator[str | None]:
    """Reduction terminates on all simple [5] graphs, preserving XB and order."""
    xb_of: dict[Multigraph, SymFunc] = {}
    for G in simple_graphs(5):
        bad = _reduction_fault(G, xb_of)
        yield None if bad is None else f"{G!r}: {bad}"
    rng = random.Random(SEED + 6)
    members = 0
    for _ in range(200):
        L = _random_combination(rng)
        try:
            # raises RuntimeError when the two routes disagree
            members += kernel_membership(L)
        except RuntimeError as exc:
            yield str(exc)
        else:
            yield None
    if members == 0 or members == 200:
        # yielded only on failure, so that a pass counts 1,024 + 200 checks
        yield f"membership sample is degenerate ({members}/200 members)"


def two_edge_connected_and_cycle_relations() -> Iterator[str | None]:
    """Cycle-family relations are friendly / lie in the kernel."""
    theta = Multigraph(4, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    hosts = [
        ("C3", cycle(3)),
        ("C4", cycle(4)),
        ("C5", cycle(5)),
        ("C6", cycle(6)),
        ("double-edge", Multigraph(2, [(1, 2), (1, 2)])),
        ("K4", complete(4)),
        ("theta-122", theta),
    ]
    for name, G in hosts:
        m = len(G.edges)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                R = two_edge_connected_relation(G, i, j)
                ok = is_tutte_friendly(R)[0]
                yield None if ok else f"{name} relation (e_{i}, e_{j}) not friendly"

    rng = random.Random(SEED + 7)
    for m in (3, 4, 5):
        cyc = [(i, i + 1) for i in range(1, m)] + [(1, m)]
        for extra_n in (1, 2):
            host_n = m + extra_n
            pool = [
                (u, v)
                for u in range(1, host_n + 1)
                for v in range(u + 1, host_n + 1)
                if (u, v) not in cyc
            ]
            rng.shuffle(pool)
            G = Multigraph(host_n, cyc + pool[:3])
            for i, j in ((1, 2), (2, 1), (1, m)):
                R = cycle_relation(G, cyc, i, j)
                ok = combination_tutte_sym(R).is_zero()
                yield None if ok else (
                    f"cycle relation C{m} in host n={host_n}, (i,j)=({i},{j}) escapes the kernel"
                )

    fig = cycle_relation(cycle(3), [(1, 2), (2, 3), (1, 3)], 2, 1)
    ok = fig == ell_tri()
    yield None if ok else "C3 cycle relation does not match the six-term triangle pattern"


def orientation_formula() -> Iterator[str | None]:
    """Orientation-counting formula matches the e-expansion route for all (k,l)."""
    corpus: list[Multigraph] = []
    for n in range(1, 5):
        corpus.extend(simple_graphs(n))
    for n in range(1, 4):
        for G in simple_graphs(n):
            for wv in product((1, 2), repeat=n):
                if all(x == 1 for x in wv):
                    continue
                corpus.append(Multigraph(n, G.edges, wv))
    for G in corpus:
        w = G.total_weight()
        for k in range(len(G.edges) + 2):
            for l in range(1, w + 1):
                lhs = sigma_l_formula(G, k, l)
                rhs = sigma_l_direct(G, k, l)
                yield None if lhs == rhs else f"{G!r} (k={k}, l={l}): {lhs} != {rhs}"


def witness_construction() -> Iterator[str | None]:
    """Witness graphs certify non-friendliness by direct evaluation.

    Half the sample prefers a two-block violating partition when one
    exists, so the cloud joins are exercised and not only the edgeless
    single-block witnesses that enumeration order would always pick.
    """
    rng = random.Random(SEED + 9)
    coeff_pool = [TPoly.of(1), TPoly.of(-1), TPoly.of(2), TPoly.one() + TPoly.t()]
    done = 0
    while done < 20:
        n = rng.randint(2, 3)
        terms = []
        for _ in range(rng.randint(1, 2)):
            terms.append((random_simple_graph(rng, n, e_max=3), rng.choice(coeff_pool)))
        L = GraphCombination(n, terms)
        if L.is_zero():
            continue
        violations = []
        for cand in enumerate_set_partitions(L.n):
            if len(cand) > 2:
                continue
            b = b_value(L, cand)
            if not b.is_zero():
                aa = next(i for i, c in enumerate(b.onep_t_powers()) if c != 0)
                violations.append((cand, aa))
        if not violations:
            continue
        pick = None
        if done % 2 == 1:
            pick = next(((p, aa) for p, aa in violations if len(p) == 2), None)
        if pick is None:
            pick = violations[0]
        pi, a = pick
        done += 1
        W = witness_graph(L, pi, a)
        coeff = witness_mtilde_coefficient(L, pi)
        bad = None
        if coeff.is_zero():
            bad = f"witness for {L!r} at pi={pi} has zero target coefficient"
        elif W.n <= 8:
            total = combination_tutte_sym(extend(L, W))
            M = (W.n - L.n) // len(pi)
            lam_star = tuple(sorted((len(b) + M for b in pi), reverse=True))
            if total.coefficient(lam_star) != coeff:
                bad = f"profile sum disagrees with full XB for {L!r}"
            elif total.is_zero():
                bad = f"extension of {L!r} has zero XB"
        yield bad


def _digraphs_exhaustive(n: int, arc_counts: range, weight_choices: tuple[int, ...]):
    slots = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    for k in arc_counts:
        for arcs in combinations_with_replacement(slots, k):
            for wv in product(weight_choices, repeat=n):
                yield Digraph(n, arcs, wv)


def quasisymmetric_routes() -> Iterator[str | None]:
    """Three TQ routes agree; q=1 gives XB and t=-1 gives XQ.

    The stated corpus is every digraph with n <= 4, <= 5 arcs (loops and
    repeated arcs allowed) and weights <= 2, hundreds of thousands of
    members.  This runs 2,871 of them, each at N = w(D): all of them for
    n <= 2 (516); for n = 3, all with <= 3 arcs (1,760) and all with 4
    arcs and unit weights (495); for n = 4, a seeded random slice of 100
    with <= 5 arcs and w(D) <= 7.
    """
    corpus: list[Digraph] = []
    corpus.extend(_digraphs_exhaustive(1, range(6), (1, 2)))
    corpus.extend(_digraphs_exhaustive(2, range(6), (1, 2)))
    corpus.extend(_digraphs_exhaustive(3, range(4), (1, 2)))
    corpus.extend(_digraphs_exhaustive(3, range(4, 5), (1,)))
    rng = random.Random(SEED + 10)
    made = 0
    while made < 100:
        arcs = []
        for _ in range(rng.randint(0, 5)):
            arcs.append((rng.randint(1, 4), rng.randint(1, 4)))
        wv = [rng.randint(1, 2) for _ in range(4)]
        D = Digraph(4, arcs, wv)
        if D.total_weight() > 7:
            continue
        corpus.append(D)
        made += 1
    for D in corpus:
        N = D.total_weight()
        a = tq(D, N)
        bad = None
        if a != tq_from_connected_partitions(D, N):
            bad = "connected-partition route"
        elif a != tq_from_arc_subsets(D, N):
            bad = "arc-subset route"
        elif a.at_q(1) != truncate_symfunc(tutte_sym(underlying(D)), N):
            bad = "q=1 vs XB truncation"
        elif a.at_t(-1) != xq(D, N):
            bad = "t=-1 vs XQ"
        yield None if bad is None else f"{D!r}: {bad} mismatch"


def broom_relations() -> Iterator[str | None]:
    """Broom relations lie in the kernel for n <= 3, 2 <= k <= 3 (dual route).

    k = 1 is outside the family: `broom_relation` refuses it, since a
    one-vertex star has no bristle to exchange.
    """
    for n in range(0, 4):
        for k in range(2, 4):
            L = broom_relation(n, k)
            result, _ = reduce_to_star_forests(L)
            by_reduction = result.is_zero()
            direct = combination_tutte_sym(L).is_zero()
            if by_reduction != direct:
                yield f"broom({n},{k}): reduction and direct evaluation disagree"
            elif not by_reduction:
                yield f"broom_relation({n},{k}) is not in the kernel of XB"
            else:
                yield None


def star_forest_rank() -> Iterator[str | None]:
    """Chromatic star-forest matrix is full rank for n <= 7."""
    for n in range(1, 8):
        want = len(list(partitions_of(n)))
        got = star_forest_basis_rank(n)
        yield None if got == want else f"n={n}: rank {got} of {want}"


#### the table and its runner ##################################################

class Suite(NamedTuple):
    """One acceptance suite.  The budget is shown in the report, never
    enforced; `checks` yields one verdict per check."""

    id: int
    name: str
    budget_seconds: float
    checks: Callable[[], Iterator[str | None]]

    def run(self) -> dict:
        """The suite's report.  A suite that raises fails under its own
        name and budget, with the checks made so far and its traceback."""
        t0 = time.perf_counter()
        count = 0
        failures: list[str] = []
        crash: list[str] = []
        try:
            for count, verdict in enumerate(self.checks(), start=1):
                if verdict is not None:
                    failures.append(verdict)
        except Exception:
            crash.append(traceback.format_exc(limit=3))
        return {
            "id": self.id,
            "name": self.name,
            "passed": not failures and not crash,
            "checks": count,
            "failure_count": len(failures) + len(crash),
            # the first eight failures, and a crash even past them
            "failures": failures[:8] + crash,
            "seconds": round(time.perf_counter() - t0, 2),
            "budget_seconds": self.budget_seconds,
        }


SUITES = [
    Suite(1, "four-route XB agreement", 60, xb_routes_agree),
    Suite(2, "t = -1 recovers X", 60, t_minus_one_recovers_x),
    Suite(3, "generator friendliness and extensions", 10, generators_are_friendly),
    Suite(4, "no friendly single-graph differences", 30, no_friendly_single_graph_differences),
    Suite(5, "n=4 classification and n=5 sample", 300, n4_classification),
    Suite(6, "star-forest reduction and membership", 300, star_forest_reduction),
    Suite(7, "two-edge-connected and cycle relations", 60, two_edge_connected_and_cycle_relations),
    Suite(8, "orientation formula for sigma_l", 60, orientation_formula),
    Suite(9, "witness construction", 60, witness_construction),
    Suite(10, "quasisymmetric routes", 120, quasisymmetric_routes),
    Suite(11, "broom relations in the kernel", 30, broom_relations),
    Suite(12, "star-forest basis full rank", 30, star_forest_rank),
]


def run_all(ids: list[int] | None = None) -> list[dict]:
    """Reports of the suites with these ids, or of every suite."""
    return [suite.run() for suite in SUITES if not ids or suite.id in ids]


def format_report(results: list[dict]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        # over budget is worth seeing but is not a failure
        over = f", over its {r['budget_seconds']}s budget" if r["seconds"] > r["budget_seconds"] else ""
        lines.append(
            f"criterion {r['id']:2d}: {status}  {r['name']}"
            f"  ({r['checks']} checks, {r['seconds']}s{over})"
        )
        for f in r["failures"]:
            lines.append(f"    - {f}")
        if r["failure_count"] > len(r["failures"]):
            lines.append(f"    ... and {r['failure_count'] - len(r['failures'])} more")
    total = sum(r["checks"] for r in results)
    good = sum(1 for r in results if r["passed"])
    lines.append(f"{good}/{len(results)} suites passed, {total} checks total")
    return "\n".join(lines)
