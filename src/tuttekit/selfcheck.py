"""Cross-route verification suites behind `tuttekit selfcheck`.

Each suite exercises one acceptance property end to end with exact
arithmetic and returns a small report dict; the test suite asserts on the
same runners, so the CLI and pytest always agree about what is checked.
Budgets are expectations, recorded in the report for visibility rather
than enforced as hard failures.
"""

from __future__ import annotations

import random
import time
import traceback
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from tuttekit.combinatorics import TPoly, enumerate_set_partitions, partitions_of
from tuttekit.graphs import (
    Multigraph,
    canonical_star_forest,
    complement,
    complete,
    cycle,
    relabel,
    right_endpoint_key,
    simple_graph,
    star_forest_shape,
)
from tuttekit.invariants import (
    chromatic_sym,
    sigma_l_direct,
    sigma_l_formula,
    specialize_t,
    tutte_from_connected_partitions,
    tutte_from_contractions,
    tutte_sym,
    tutte_sym_delcon,
)
from tuttekit.kernel import (
    GraphCombination,
    _step_products,
    _witness_M,
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
    reduce_to_star_forests,
    replay_certificate,
    sample_friendly_pairs,
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
from tuttekit.symfun import SymFunc

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
    w_max: int = 3,
    allow_loops: bool = True,
) -> Multigraph:
    n = rng.randint(n_min, n_max)
    edges = []
    for _ in range(rng.randint(0, e_max)):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u == v and not allow_loops:
            continue
        edges.append((u, v))
    weights = [rng.randint(1, w_max) for _ in range(n)]
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


#### report plumbing ###########################################################

def _finish(cid: int, name: str, budget: float, checks: int, failures: list[str], t0: float) -> dict:
    elapsed = time.perf_counter() - t0
    return {
        "id": cid,
        "name": name,
        "passed": not failures,
        "checks": checks,
        "failure_count": len(failures),
        "failures": failures[:8],
        "seconds": round(elapsed, 2),
        "budget_seconds": budget,
    }


#### suites ####################################################################

def criterion_1() -> dict:
    """Four XB routes agree on simple, multi, and random weighted graphs."""
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    for G in xb_corpus():
        a = tutte_sym(G)
        b = tutte_sym_delcon(G)
        c = tutte_from_contractions(G)
        d = tutte_from_connected_partitions(G)
        checks += 1
        if not (a == b == c == d):
            failures.append(f"route mismatch on {G!r}")
    return _finish(1, "four-route XB agreement", 60, checks, failures, t0)


def criterion_2() -> dict:
    """XB at t = -1 equals X on the same corpus."""
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    for G in xb_corpus():
        checks += 1
        if specialize_t(tutte_sym(G), Fraction(-1)) != chromatic_sym(G):
            failures.append(f"t=-1 mismatch on {G!r}")
    return _finish(2, "t = -1 recovers X", 60, checks, failures, t0)


def criterion_3() -> dict:
    """Generators are friendly and random extensions stay in the kernel."""
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    gens = [
        ("ell_loop", ell_loop()),
        ("ell_multi", ell_multi()),
        ("ell_tri", ell_tri()),
        ("ell_os_plus", ell_os_plus()),
    ]
    for name, L in gens:
        checks += 1
        if not is_tutte_friendly(L)[0]:
            failures.append(f"{name} is not Tutte-friendly")
    checks += 1
    if not is_x_friendly(ell_os())[0]:
        failures.append("ell_os is not X-friendly")

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
            checks += 1
            if not combination_tutte_sym(ext).is_zero():
                failures.append(f"extension of {name} has nonzero XB sum")
    Los = ell_os()
    for _ in range(50):
        ext = extend(Los, host_for(Los))
        total = SymFunc.zero("mtilde")
        for g, c in ext.terms.items():
            total = total + chromatic_sym(g).scale(c)
        checks += 1
        if not total.is_zero():
            failures.append("extension of ell_os has nonzero X sum")
    return _finish(3, "generator friendliness and extensions", 10, checks, failures, t0)


def criterion_4() -> dict:
    """Differences of distinct simple graphs are never X-friendly."""
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    gs = simple_graphs(3)
    for H1 in gs:
        for H2 in gs:
            if H1 == H2:
                continue
            checks += 1
            L = GraphCombination(3, [(H1, TPoly.one()), (H2, TPoly.of(-1))])
            if is_x_friendly(L)[0]:
                failures.append(f"{H1!r} - {H2!r} is X-friendly")
    rng = random.Random(SEED + 4)
    done = 0
    while done < 500:
        H1 = random_simple_graph(rng, 5)
        H2 = random_simple_graph(rng, 5)
        if H1 == H2:
            continue
        done += 1
        checks += 1
        L = GraphCombination(5, [(H1, TPoly.one()), (H2, TPoly.of(-1))])
        if is_x_friendly(L)[0]:
            failures.append(f"{H1!r} - {H2!r} is X-friendly")
    return _finish(4, "no friendly single-graph differences", 30, checks, failures, t0)


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


def criterion_5() -> dict:
    """classify_n4 finds exactly the four known families; n=5 sample finds none."""
    t0 = time.perf_counter()
    failures: list[str] = []
    found = {frozenset(f) for f in classify_n4()}
    expected = set(expected_n4_families())
    checks = 2016  # unordered pairs of the 64 graphs
    if found != expected:
        missing = len(expected - found)
        extra = len(found - expected)
        failures.append(
            f"families differ from the known four (missing {missing}, extra {extra})"
        )
    stray = sample_friendly_pairs(5, 500, seed=SEED + 5)
    checks += 500
    if stray:
        failures.append(f"unexpected friendly pair on [5]: {stray[0]!r}")
    return _finish(5, "n=4 classification and n=5 sample", 300, checks, failures, t0)


def criterion_6() -> dict:
    """Reduction terminates on all simple [5] graphs, preserving XB and order."""
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    for G in simple_graphs(5):
        L = GraphCombination(5, [(G, TPoly.one())])
        result, cert = reduce_to_star_forests(L)
        checks += 1
        bad = None
        for _, _, g in result.terms:
            if g != canonical_star_forest(star_forest_shape(g)):
                bad = f"non-canonical output term {g!r}"
                break
        if bad is None:
            for step in cert.steps:
                if step.gen == "iso":
                    continue
                src = right_endpoint_key(step.graph)
                for h, _ in _step_products(step):
                    if right_endpoint_key(h) <= src:
                        bad = f"non-increasing rewrite at {step!r}"
                        break
                if bad:
                    break
        if bad is None and combination_tutte_sym(result.to_combination()) != tutte_sym(G):
            bad = "XB not preserved"
        if bad is None and replay_certificate(L, cert) != result.to_combination():
            bad = "certificate replay mismatch"
        if bad:
            failures.append(f"{G!r}: {bad}")
    rng = random.Random(SEED + 6)
    members = 0
    for _ in range(200):
        L = _random_combination(rng)
        checks += 1
        try:
            # raises RuntimeError when the two routes disagree
            if kernel_membership(L):
                members += 1
        except RuntimeError as exc:
            failures.append(str(exc))
    if members == 0 or members == 200:
        failures.append(f"membership sample is degenerate ({members}/200 members)")
    return _finish(6, "star-forest reduction and membership", 300, checks, failures, t0)


def criterion_7() -> dict:
    """Cycle-family relations are friendly / lie in the kernel."""
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
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
                checks += 1
                R = two_edge_connected_relation(G, i, j)
                if not is_tutte_friendly(R)[0]:
                    failures.append(f"{name} relation (e_{i}, e_{j}) not friendly")

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
                checks += 1
                R = cycle_relation(G, cyc, i, j)
                if not combination_tutte_sym(R).is_zero():
                    failures.append(
                        f"cycle relation C{m} in host n={host_n}, (i,j)=({i},{j}) escapes the kernel"
                    )

    checks += 1
    fig = cycle_relation(cycle(3), [(1, 2), (2, 3), (1, 3)], 2, 1)
    if fig != ell_tri():
        failures.append("C3 cycle relation does not match the six-term triangle pattern")
    return _finish(7, "two-edge-connected and cycle relations", 60, checks, failures, t0)


def criterion_8() -> dict:
    """Orientation-counting formula matches the e-expansion route for all (k,l)."""
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
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
                checks += 1
                lhs = sigma_l_formula(G, k, l)
                rhs = sigma_l_direct(G, k, l)
                if lhs != rhs:
                    failures.append(f"{G!r} (k={k}, l={l}): {lhs} != {rhs}")
    return _finish(8, "orientation formula for sigma_l", 60, checks, failures, t0)


def criterion_9() -> dict:
    """Witness graphs certify non-friendliness by direct evaluation.

    Half the sample prefers a two-block violating partition when one
    exists, so the cloud joins are exercised and not only the edgeless
    single-block witnesses that enumeration order would always pick.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
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
        checks += 1
        W = witness_graph(L, pi, a)
        coeff = witness_mtilde_coefficient(L, pi)
        if coeff.is_zero():
            failures.append(f"witness for {L!r} at pi={pi} has zero target coefficient")
            continue
        if W.n <= 8:
            ext = extend(L, W)
            total = combination_tutte_sym(ext)
            M = _witness_M(L, pi)
            lam_star = tuple(sorted((len(b) + M for b in pi), reverse=True))
            if total.coefficient(lam_star) != coeff:
                failures.append(f"profile sum disagrees with full XB for {L!r}")
            elif total.is_zero():
                failures.append(f"extension of {L!r} has zero XB")
    return _finish(9, "witness construction", 60, checks, failures, t0)


def _digraphs_exhaustive(n: int, max_arcs: int, weight_choices: tuple[int, ...]):
    slots = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    for k in range(max_arcs + 1):
        for arcs in combinations_with_replacement(slots, k):
            for wv in product(weight_choices, repeat=n):
                yield Digraph(n, arcs, wv)


def criterion_10() -> dict:
    """Three TQ routes agree; q=1 gives XB and t=-1 gives XQ.

    The stated corpus (every digraph with n <= 4, <= 5 arcs, weights <= 2)
    has hundreds of thousands of members; this runs it exhaustively for
    n <= 2, exhaustively with smaller arc counts for n = 3, and on a seeded
    random slice for n = 4.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    corpus: list[Digraph] = []
    corpus.extend(_digraphs_exhaustive(1, 5, (1, 2)))
    corpus.extend(_digraphs_exhaustive(2, 5, (1, 2)))
    corpus.extend(_digraphs_exhaustive(3, 3, (1,)))
    corpus.extend(_digraphs_exhaustive(3, 2, (1, 2)))
    rng = random.Random(SEED + 10)
    made = 0
    while made < 40:
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
        checks += 1
        bad = None
        if a != tq_from_connected_partitions(D, N):
            bad = "connected-partition route"
        elif a != tq_from_arc_subsets(D, N):
            bad = "arc-subset route"
        elif a.at_q(1) != truncate_symfunc(tutte_sym(underlying(D)), N):
            bad = "q=1 vs XB truncation"
        elif a.at_t(-1) != xq(D, N):
            bad = "t=-1 vs XQ"
        if bad:
            failures.append(f"{D!r}: {bad} mismatch")
    return _finish(10, "quasisymmetric routes", 120, checks, failures, t0)


def criterion_11() -> dict:
    """Broom relations lie in the kernel for n <= 3, 2 <= k <= 3 (dual route).

    k = 1 is outside the family: `broom_relation` refuses it, since a
    one-vertex star has no bristle to exchange.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    for n in range(0, 4):
        for k in range(2, 4):
            L = broom_relation(n, k)
            result, _ = reduce_to_star_forests(L)
            by_reduction = result.is_zero()
            direct = combination_tutte_sym(L).is_zero()
            checks += 1
            if by_reduction != direct:
                failures.append(f"broom({n},{k}): reduction and direct evaluation disagree")
            elif not by_reduction:
                failures.append(f"broom_relation({n},{k}) is not in the kernel of XB")
    return _finish(11, "broom relations in the kernel", 30, checks, failures, t0)


def criterion_12() -> dict:
    """Chromatic star-forest matrix is full rank for n <= 7."""
    t0 = time.perf_counter()
    failures: list[str] = []
    checks = 0
    for n in range(1, 8):
        checks += 1
        want = len(list(partitions_of(n)))
        got = star_forest_basis_rank(n)
        if got != want:
            failures.append(f"n={n}: rank {got} of {want}")
    return _finish(12, "star-forest basis full rank", 30, checks, failures, t0)


#### entry points ##############################################################

CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_all(ids: list[int] | None = None) -> list[dict]:
    results = []
    for i, fn in enumerate(CRITERIA, start=1):
        if ids and i not in ids:
            continue
        try:
            results.append(fn())
        except Exception:
            results.append(
                {
                    "id": i,
                    "name": fn.__doc__.splitlines()[0] if fn.__doc__ else f"criterion {i}",
                    "passed": False,
                    "checks": 0,
                    "failure_count": 1,
                    "failures": [traceback.format_exc(limit=3)],
                    "seconds": 0.0,
                    "budget_seconds": 0,
                }
            )
    return results


def format_report(results: list[dict]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(
            f"criterion {r['id']:2d}: {status}  {r['name']}"
            f"  ({r['checks']} checks, {r['seconds']}s)"
        )
        for f in r["failures"]:
            lines.append(f"    - {f}")
        if r["failure_count"] > len(r["failures"]):
            lines.append(f"    ... and {r['failure_count'] - len(r['failures'])} more")
    total = sum(r["checks"] for r in results)
    good = sum(1 for r in results if r["passed"])
    lines.append(f"{good}/{len(results)} suites passed, {total} checks total")
    return "\n".join(lines)
