"""Seeded inputs, operations and correctness checks for the four workloads.

Inputs are plain tuples drawn from ``random.Random`` seeded by the workload
name and ``--seed``; the library only ever sees them inside a timed op.
Every op returns a list of failed-check messages (empty when the op is
right).  Library functions are looked up on their module at call time
(``tk.tutte_sym``...) so that the tracer's patches reach them.

Each workload cycles through a fixed schedule of size classes ("strata");
the seed only picks the concrete graph inside each class.  That keeps the
mix of cheap and expensive ops the same from seed to seed, so run-to-run
spread measures the program and not the luck of the draw.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from math import factorial

import tuttekit as tk
from tuttekit import cli, invariants, quasi, symfun

WORKLOADS = ("invariants", "kernel", "quasi", "cli")

# Pool size per run: far more ops than a run completes today, so a faster
# program keeps measuring instead of running dry.
POOL_OPS = {"invariants": 4000, "kernel": 4000, "quasi": 4000, "cli": 400}


def _schedule(*bands: list[tuple]) -> list[tuple]:
    """One cycle of strata, the same for every seed.

    Bands run from cheap to expensive.  The median and the p95 tail each
    fall inside a band of one stratum repeated, so neither jumps between
    unlike ops from one run to the next; the other bands carry the
    variety.  Within the cycle the strata are interleaved.
    """
    out = [row for band in bands for row in band]
    random.Random(0).shuffle(out)
    return out


#### input generation ##########################################################

def _weights(rng: random.Random, n: int, total: int) -> tuple[int, ...]:
    """Vertex weights in 1..3 summing to total (n <= total <= 3n)."""
    w = [1] * n
    for _ in range(total - n):
        w[rng.choice([i for i in range(n) if w[i] < 3])] += 1
    return tuple(w)


def _multi_edges(rng: random.Random, n: int, m: int, loops: int, parallel: int) -> tuple[tuple[int, int], ...]:
    """m distinct non-loop edges plus the given numbers of loops and repeated edges."""
    edges = list(_simple_edges(rng, n, m))
    edges += [(v, v) for v in rng.sample(range(1, n + 1), loops)]
    edges += [rng.choice(edges[:m]) for _ in range(parallel if m else 0)]
    return tuple(edges)


def _simple_edges(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    pairs = list(combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    return tuple(sorted(pairs[:m]))


# (n, distinct edges, loops, repeated edges, total weight).  Loops and
# repeated edges are fixed per stratum because they change the cost of the
# routes most; the seed picks which pairs.  Total weight <= 10 keeps the
# basis tables a run builds to degrees whose one-off cost stays small.
INVARIANTS_STRATA = _schedule(
    [(4, 2, 0, 1, 5), (4, 6, 0, 0, 5), (4, 3, 1, 1, 6), (5, 3, 0, 1, 7), (4, 5, 0, 1, 8), (5, 5, 1, 1, 6)],
    [(6, 4, 0, 1, 7)] * 8,  # median
    [(6, 8, 0, 1, 8), (6, 6, 1, 2, 8), (4, 4, 1, 0, 10)],
    [(7, 5, 0, 1, 7)] * 3,  # tail
)

GENERATORS = ("loop", "multi", "tri", "os_plus", "os")

# ("ext", generator, host n, host edges), ("combo", n[, terms, edges per
# term]), ("reduce", n, edges), ("relabel", n, edge list), ("tec", cycle
# length), ("broom", n, k).  Each percentile sits on its own
# kind of work: the median on early exits (random combinations, then the
# witness), the p95 tail on star-forest reductions.  Full scans (the third
# band and the C6 relation above the tail) take most of the op time, so
# throughput follows them.
# One isomorphism class of 5-vertex, 7-edge graphs: the cost of a reduction
# differs by a factor of up to five between classes, so the tail band draws
# only relabelings of this one.
K5_MINUS_P4 = ((1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5), (4, 5))

KERNEL_STRATA = _schedule(
    [("combo", 3)] * 4 + [("combo", 4)] * 2 + [("ext", "os", 5, 4)] * 3 + [("ext", "loop", 4, 2)] * 3
    + [("reduce", 4, 2)] * 2,
    [("combo", 6, 3, 6)] * 12,  # median
    [("ext", "os_plus", 6, 4), ("ext", "multi", 6, 4), ("ext", "tri", 6, 4), ("ext", "loop", 6, 4),
     ("ext", "loop", 5, 4), ("ext", "os", 7, 10), ("tec", 5), ("broom", 2, 4), ("broom", 3, 3), ("reduce", 5, 5)],
    [("relabel", 5, K5_MINUS_P4)] * 3,  # tail
    [("tec", 6)],
)

# (n, total weight N, distinct arcs, loops, repeated arcs); n = 5 (3125
# colorings per route) costs five times the next class, and the cli
# workload's dipath row already covers it
QUASI_STRATA = _schedule(
    [(3, 3, 2, 0, 0), (3, 4, 2, 1, 0), (3, 5, 3, 0, 1), (3, 3, 3, 0, 1), (3, 4, 3, 0, 0), (3, 5, 2, 1, 0)],
    [(4, 4, 3, 0, 0)] * 8,  # median
    [(3, 6, 3, 0, 0), (3, 6, 2, 1, 1), (4, 4, 4, 1, 0)],
    [(3, 7, 3, 0, 0)] * 3,  # tail
)

# Tiny calls of every subcommand, one tiny class repeated (the median),
# and ROADMAP's four rows with the C6 relation repeated (the p95 tail).  A
# tiny stratum fixes the command and its options; the seed picks the input.
CLI_STRATA = _schedule(
    [("tiny", "xb", "def", "mtilde", None), ("tiny", "friendly", "combo"), ("tiny", "quasi", "xq", "def"),
     ("tiny", "reduce"), ("tiny", "x", "def", "p", None), ("tiny", "xb", "contract", "m", "-1"),
     ("tiny", "friendly", "ext"), ("tiny", "xb", "delcon", "e", None)],
    [("tiny", "quasi", "tq", "connparts")] * 5,  # median
    [("heavy", "reduce_k5"), ("heavy", "tq_dipath5"), ("heavy", "reduce_k5"), ("heavy", "xb_k8_e")],
    [("heavy", "friendly_c6")] * 3,  # tail
)


def _coeff_terms(rng: random.Random, n: int, count: int | None = None, edges: int | None = None):
    """Random scalar * (1+t)^j terms whose one-block profile B is nonzero.

    ``count`` terms of ``edges`` edges each; random (2-3 terms, 0-2n edges)
    when not given.

    On the one-block partition every edge is internal, so B(L; [n]) =
    sum s_i (1+t)^(j_i + |E_i|); the least power with nonzero total is the
    expected 'a'.  Returned with that a, computed here and not by tuttekit.
    """
    while True:
        terms = []
        for _ in range(rng.randint(2, 3) if count is None else count):
            E = _simple_edges(rng, n, rng.randint(0, 2 * n) if edges is None else edges)
            terms.append((E, rng.choice((1, -1, 2, -2, 3)), rng.randint(0, 1)))
        profile: dict[int, int] = {}
        for E, s, j in terms:
            profile[j + len(E)] = profile.get(j + len(E), 0) + s
        nonzero = [k for k, c in profile.items() if c]
        if nonzero:
            return tuple(terms), min(nonzero)


def make_pool(workload: str, seed: int, count: int | None = None) -> list[tuple]:
    """The seeded op list of one run; same seed, same list."""
    rng = random.Random(f"tuttekit-bench/{workload}/{seed}")
    count = POOL_OPS[workload] if count is None else count
    strata = {
        "invariants": INVARIANTS_STRATA,
        "kernel": KERNEL_STRATA,
        "quasi": QUASI_STRATA,
        "cli": CLI_STRATA,
    }[workload]
    make = {"invariants": _inv_input, "kernel": _kernel_input, "quasi": _quasi_input, "cli": _cli_input}[workload]
    return [make(rng, strata[i % len(strata)]) for i in range(count)]


def _inv_input(rng, stratum):
    n, m, loops, parallel, w = stratum
    return ("inv", n, _multi_edges(rng, n, m, loops, parallel), _weights(rng, n, w))


def _kernel_input(rng, stratum):
    kind = stratum[0]
    if kind == "ext":
        _, gen, n, m = stratum
        return ("ext", gen, n, _simple_edges(rng, n, m))
    if kind == "combo":
        n = stratum[1]
        terms, a = _coeff_terms(rng, n, *stratum[2:])
        return ("combo", n, terms, a)
    if kind == "reduce":
        _, n, m = stratum
        return ("reduce", n, _simple_edges(rng, n, m))
    if kind == "relabel":
        _, n, edges = stratum
        p = list(range(1, n + 1))
        rng.shuffle(p)
        return ("reduce", n, tuple(sorted(tuple(sorted((p[u - 1], p[v - 1]))) for u, v in edges)))
    if kind == "tec":
        n = stratum[1]
        i, j = rng.sample(range(1, n + 1), 2)
        return ("tec", n, i, j)
    return stratum


def _digraph(rng, n, N, m, loops=0, parallel=0):
    """Arcs: m distinct pairs in random directions, then loops and repeats."""
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in _multi_edges(rng, n, m, 0, parallel)]
    arcs += [(v, v) for v in rng.sample(range(1, n + 1), loops)]
    return (n, tuple(arcs), _weights(rng, n, N))


def _quasi_input(rng, stratum):
    return ("q",) + _digraph(rng, *stratum)


def _cli_input(rng, stratum):
    kind, what = stratum[:2]
    if kind == "heavy":
        return ("cli", what)
    if what in ("xb", "x"):
        n = rng.randint(3, 4)
        graph = (n, _multi_edges(rng, n, n, 1 if what == "xb" else 0, 1), _weights(rng, n, n + 2))
        return ("cli", what, graph) + stratum[2:]
    if what == "friendly":
        if stratum[2] == "ext":
            gen = rng.choice(GENERATORS[:4])
            return ("cli", "friendly", ("ext", gen, 4, _simple_edges(rng, 4, 3)), True)
        terms, a = _coeff_terms(rng, 4)
        return ("cli", "friendly", ("combo", 4, terms), a)
    if what == "quasi":
        return ("cli", "quasi", _digraph(rng, 3, 4, 2, 1 if stratum[2] == "tq" else 0)) + stratum[2:]
    return ("cli", "reduce", 4, _simple_edges(rng, 4, 4))


#### library objects from inputs ###############################################

_T = tk.TPoly.t()
_ONE = tk.TPoly.one()


def _gen(name: str):
    return getattr(tk, f"ell_{name}")()


def _combination(spec) -> tk.GraphCombination:
    if spec[0] == "ext":
        _, gen, n, host = spec
        return tk.extend(_gen(gen), tk.Multigraph(n, host))
    _, n, terms = spec[:3]
    return tk.GraphCombination(
        n, [(tk.Multigraph(n, e), (_ONE + _T) ** j * s) for e, s, j in terms]
    )


#### in-process ops ############################################################

def _same(label: str, values: list) -> list[str]:
    return [] if all(v == values[0] for v in values[1:]) else [f"{label} disagree"]


def op_invariants(inp) -> list[str]:
    _, n, edges, weights = inp
    G = tk.Multigraph(n, edges, weights)
    xb = [
        tk.tutte_sym(G),
        tk.tutte_sym_delcon(G),
        tk.tutte_from_contractions(G),
        tk.tutte_from_connected_partitions(G),
    ]
    x = [tk.chromatic_sym(G), tk.chromatic_sym_delcon(G)]
    bad = _same("XB routes", xb) + _same("X routes", x)
    if tk.specialize_t(xb[0], -1) != x[0]:
        bad.append("XB at t=-1 differs from X")
    m = tk.mtilde_to_m(xb[0])
    e = tk.m_to_e(m)
    p = tk.m_to_p(m)
    if symfun.to_m(e) != m or symfun.to_m(p) != m:
        bad.append("basis conversion does not round-trip to m")
    return bad


def op_kernel(inp) -> list[str]:
    kind = inp[0]
    if kind == "ext":
        L = _combination(inp)
        if inp[1] == "os":
            return [] if tk.is_x_friendly(L)[0] else ["ell_os extension not X-friendly"]
        return [] if tk.is_tutte_friendly(L)[0] else [f"ell_{inp[1]} extension not friendly"]
    if kind == "combo":
        L = _combination(inp)
        ok, pi, a = tk.is_tutte_friendly(L)
        if ok or pi != (tuple(range(1, L.n + 1)),) or a != inp[3]:
            return [f"scan verdict {(ok, pi, a)} expected one-block violation at a={inp[3]}"]
        W = tk.witness_graph(L, pi, a)
        coeff = tk.witness_mtilde_coefficient(L, pi)
        if W.n <= L.n or coeff.is_zero():
            return ["witness does not certify the violation"]
        return []
    if kind == "reduce":
        _, n, edges = inp
        L = tk.GraphCombination(n, [(tk.Multigraph(n, edges), _ONE)])
        result, cert = tk.reduce_to_star_forests(L)
        bad = []
        if tk.replay_certificate(L, cert) != result.to_combination():
            bad.append("certificate replay differs from the reduction result")
        if result.is_zero() or tk.kernel_membership(L):
            bad.append("a single graph reduced into the kernel")
        return bad
    if kind == "tec":
        _, n, i, j = inp
        R = tk.two_edge_connected_relation(tk.cycle(n), i, j)
        return [] if tk.is_tutte_friendly(R)[0] else [f"C{n} relation not friendly"]
    _, n, k = inp  # broom, k >= 2
    B = tk.broom_relation(n, k)
    ok = tk.is_tutte_friendly(B)[0]
    return [] if ok and tk.kernel_membership(B) else [f"broom({n},{k}) not friendly or not in kernel"]


def op_quasi(inp) -> list[str]:
    _, n, arcs, weights = inp
    D = tk.Digraph(n, arcs, weights)
    N = D.total_weight()
    routes = [tk.tq(D, N), tk.tq_from_connected_partitions(D, N), tk.tq_from_arc_subsets(D, N)]
    bad = _same("TQ routes", routes)
    if routes[0].at_q(1) != tk.truncate_symfunc(tk.tutte_sym(tk.underlying(D)), N):
        bad.append("TQ at q=1 differs from truncated XB")
    if routes[0].at_t(-1) != tk.xq(D, N):
        bad.append("TQ at t=-1 differs from XQ")
    return bad


#### cli ops ###################################################################

def _complete_edges(n: int) -> list[list[int]]:
    return [list(e) for e in combinations(range(1, n + 1), 2)]


# ROADMAP's CLI rows: file name, subcommand and options, input JSON
HEAVY_CALLS = {
    "xb_k8_e": ("k8.json", ["xb", "--basis", "e"], lambda: {"n": 8, "edges": _complete_edges(8)}),
    "reduce_k5": ("k5.json", ["reduce"], lambda: {"n": 5, "terms": [
        {"coeff": ["1/1"], "graph": {"n": 5, "edges": _complete_edges(5)}}]}),
    "tq_dipath5": ("dipath5.json", ["quasi", "tq"], lambda: {"n": 5, "arcs": [[i, i + 1] for i in range(1, 5)]}),
    "friendly_c6": ("c6rel.json", ["friendly"],
                    lambda: tk.two_edge_connected_relation(tk.cycle(6), 1, 2).to_json_obj()),
}


def _graph_obj(graph) -> dict:
    n, edges, weights = graph
    return {"n": n, "edges": [list(e) for e in edges], "weights": list(weights)}


def _digraph_obj(D) -> dict:
    n, arcs, weights = D
    return {"n": n, "arcs": [list(a) for a in arcs], "weights": list(weights)}


def _combination_obj(spec) -> dict:
    if spec[0] == "ext":
        return _combination(spec).to_json_obj()
    _, n, terms = spec
    return {"n": n, "terms": [
        {"coeff": [f"{c}/1" for c in ((s,) if j == 0 else (s, s))],
         "graph": {"n": n, "edges": [list(e) for e in edges]}}
        for edges, s, j in terms
    ]}


def cli_argv(inp, index: int, workdir: str) -> list[str]:
    """Write the op's input file (set-up time) and return its argv."""
    out = os.path.join(workdir, f"out{index}.json")
    what = inp[1]
    if len(inp) == 2:
        name, cmd, make = HEAVY_CALLS[what]
        path = os.path.join(workdir, name)
        if not os.path.exists(path):
            with open(path, "w") as fh:
                json.dump(make(), fh)
        return cmd + [path, "--output", out]
    path = os.path.join(workdir, f"in{index}.json")
    if what in ("xb", "x"):
        obj = _graph_obj(inp[2])
        cmd = [what, path, "--route", inp[3], "--basis", inp[4]]
        if inp[5] is not None:
            cmd.append(f"--t-eval={inp[5]}")
    elif what == "friendly":
        obj = _combination_obj(inp[2])
        cmd = ["friendly", path]
    elif what == "quasi":
        obj = _digraph_obj(inp[2])
        cmd = ["quasi", inp[3], path, "--route", inp[4]]
    else:
        n, edges = inp[2], inp[3]
        obj = {"n": n, "terms": [{"coeff": ["1/1"], "graph": {"n": n, "edges": [list(e) for e in edges]}}]}
        cmd = ["reduce", path]
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return cmd + ["--output", out]


def cli_env(src: str) -> dict:
    """Environment of a child interpreter: this checkout's sources, fixed str hashing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    env.pop("TUTTEKIT_MAX_N", None)
    return env


def run_cli(argv: list[str], env: dict, cwd: str) -> tuple[int, str]:
    """One CLI call in a fresh interpreter: (exit code, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "tuttekit.cli", *argv],
        env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    return proc.returncode, proc.stderr


def _basis_view(f, basis):
    if basis == "mtilde":
        return f
    m = tk.mtilde_to_m(f)
    if basis == "m":
        return m
    return tk.m_to_e(m) if basis == "e" else tk.m_to_p(m)


def _other_route_xb(G, route):
    return tk.tutte_sym(G) if route == "delcon" else tk.tutte_sym_delcon(G)


def _star_forest_sum(rows) -> object:
    total = tk.SymFunc.zero("mtilde")
    for row in rows:
        R = tk.canonical_star_forest(row["lambda"])
        total = total + tk.tutte_sym(R).scale((_ONE + _T) ** row["k"] * tk.parse_rational(row["c"]))
    return total


def check_cli(inp, code: int, stderr: str, output: dict | None, memo: dict) -> list[str]:
    """Checks of one CLI answer; expected values come from other routes or by hand."""
    if code != 0 or output is None:
        return [f"exit {code}: {stderr.strip()[-200:]}"]
    what = inp[1]
    if what == "xb_k8_e":
        f = tk.SymFunc.from_json_obj(output)
        # X(K8) = 8! e_8 and XB at t = 0 is p_1^8 = e_(1^8), both by hand
        if f.basis != "e" or tk.specialize_t(f, -1) != tk.SymFunc("e", {(8,): 40320}) \
                or tk.specialize_t(f, 0) != tk.SymFunc("e", {(1,) * 8: 1}):
            return ["xb K8 in the e basis is wrong at t = -1 or t = 0"]
        return []
    if what in ("reduce_k5", "reduce"):
        n = 5 if what == "reduce_k5" else inp[2]
        edges = _complete_edges(5) if what == "reduce_k5" else inp[3]
        key = ("reduce", n, repr(edges))
        if key not in memo:
            memo[key] = tk.tutte_sym(tk.Multigraph(n, edges))
        if _star_forest_sum(output["terms"]) != memo[key]:
            return ["star-forest normal form has the wrong XB"]
        return []
    if what == "tq_dipath5":
        if "dipath5" not in memo:
            D = tk.Digraph(5, [(i, i + 1) for i in range(1, 5)])
            memo["dipath5"] = tk.tq_from_connected_partitions(D, 5)
        return [] if quasi.TruncatedQFunc.from_json_obj(output) == memo["dipath5"] else ["TQ of the dipath is wrong"]
    if what == "friendly_c6":
        return [] if output == {"friendly": True} else ["C6 relation reported not friendly"]
    if what in ("xb", "x"):
        G = tk.Multigraph(*inp[2])
        route, basis, t_eval = inp[3], inp[4], inp[5]
        if what == "xb":
            f = _other_route_xb(G, route)
        else:
            f = tk.chromatic_sym(G) if route == "delcon" else tk.chromatic_sym_delcon(G)
        f = _basis_view(f, basis)
        if t_eval is not None:
            f = tk.specialize_t(f, t_eval)
        return [] if tk.SymFunc.from_json_obj(output) == f else [f"{what} answer differs from another route"]
    if what == "friendly":
        spec, expect = inp[2], inp[3]
        if expect is True:
            want = {"friendly": True}
        else:
            want = {"friendly": False, "pi": [list(range(1, spec[1] + 1))], "a": expect}
        return [] if output == want else [f"friendly verdict {output} expected {want}"]
    # quasi
    D = tk.Digraph(*inp[2])
    N = D.total_weight()
    kind_q, route = inp[3], inp[4]
    want = tk.tq(D, N) if route != "def" else tk.tq_from_arc_subsets(D, N)
    if kind_q == "xq":
        want = want.at_t(-1)
    return [] if quasi.TruncatedQFunc.from_json_obj(output) == want else ["quasi answer differs from another route"]


def cli_main_inprocess(argv: list[str]) -> tuple[int, str]:
    """One cli op: tuttekit.cli.main in this process, (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


#### malformed inputs (ROADMAP item 4) #########################################

def malformed_calls(workdir: str) -> list[list[str]]:
    """Calls that must exit 1 with a single 'error: ...' line, input files written."""
    calls = [
        ("xb", {"edges": [[1, 2]]}, []),  # no n
        ("xb", {"n": 2, "edges": [["a", 2]]}, []),
        ("xb", {"n": 2, "edges": [[1, 2]], "weights": ["x", 1]}, []),
        ("friendly", {"n": 2, "terms": [{"coeff": ["1/0"], "graph": {"n": 2, "edges": [[1, 2]]}}]}, []),
        ("witness", {"n": 2, "terms": [{"coeff": ["1/1"], "graph": {"n": 2, "edges": [[1, 2]]}},
                                       {"coeff": ["-1/1"], "graph": {"n": 2, "edges": []}}]}, ["--pi", "1,x"]),
        ("xb", {"n": 2, "edges": [[1, 2]]}, ["--t-eval", "abc"]),
    ]
    out = []
    for i, (cmd, obj, extra) in enumerate(calls):
        path = os.path.join(workdir, f"malformed{i}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out.append([cmd, path, *extra])
    return out


def error_contract_ok(code: int, stderr: str) -> bool:
    lines = stderr.strip().splitlines()
    return code == 1 and len(lines) == 1 and lines[0].startswith("error: ")


#### known answers #############################################################

def known_answer_failures(workdir: str) -> list[str]:
    """Hand-derived answers, none produced by the code under test.

    Runs outside op timing at the start of every run.  It touches every
    traced layer once, so a traced run never reports a layer as exactly 0.
    """
    bad = []
    P3 = tk.path(3)
    readme = tk.SymFunc("mtilde", {(1, 1, 1): 1, (2, 1): _T * 2 + 3, (3,): (_ONE + _T) ** 2})
    for route in (tk.tutte_sym, tk.tutte_sym_delcon, tk.tutte_from_contractions,
                  tk.tutte_from_connected_partitions):
        if route(P3) != readme:
            bad.append(f"XB(P3) by {route.__name__} differs from the README")
    # Stanley: XB = sum over edge sets S of t^|S| p_lambda(S); p -> e by Newton
    m = tk.mtilde_to_m(readme)
    if tk.m_to_p(m) != tk.SymFunc("p", {(1, 1, 1): 1, (2, 1): _T * 2, (3,): _T * _T}):
        bad.append("XB(P3) in the p basis is wrong")
    if tk.m_to_e(m) != tk.SymFunc("e", {(1, 1, 1): (_ONE + _T) ** 2, (2, 1): _T * -4 - _T * _T * 3,
                                        (3,): _T * _T * 3}):
        bad.append("XB(P3) in the e basis is wrong")
    for n in range(1, 6):
        want = tk.SymFunc("mtilde", {(1,) * n: 1})
        if tk.chromatic_sym(tk.complete(n)) != want:
            bad.append(f"X(K{n}) is not mtilde_(1^{n})")
        if n <= 4 and tk.chromatic_sym_delcon(tk.complete(n)) != want:
            bad.append(f"X(K{n}) by deletion-contraction is not mtilde_(1^{n})")
    for n in range(1, 7):
        f = tk.tutte_sym(tk.edgeless(n))
        for lam in _partitions(n):
            want = factorial(n)
            for part in lam:
                want //= factorial(part)
            for r in _multiplicities(lam):
                want //= factorial(r)
            if f.coefficient(lam) != want:
                bad.append(f"XB(edgeless {n}) coefficient of mtilde_{lam} is not {want}")
    for name in GENERATORS[:4]:
        if not tk.is_tutte_friendly(_gen(name))[0]:
            bad.append(f"ell_{name} is not Tutte-friendly")
        if not tk.kernel_membership(_gen(name)):
            bad.append(f"ell_{name} is not in the kernel")
    if not tk.is_x_friendly(tk.ell_os())[0]:
        bad.append("ell_os is not X-friendly")
    # K2 minus the edgeless pair: B at the one block is (1+t) - 1, least power 0
    L = tk.GraphCombination(2, [(tk.Multigraph(2, [(1, 2)]), _ONE), (tk.Multigraph(2), -_ONE)])
    if tk.is_tutte_friendly(L) != (False, ((1, 2),), 0):
        bad.append("K2 - E2 friendliness verdict is wrong")
    elif tk.witness_mtilde_coefficient(L, ((1, 2),)).is_zero() or tk.witness_graph(L, ((1, 2),), 0).n <= 2:
        bad.append("K2 - E2 witness does not certify")
    # one edge 23 on [3] relabels onto R_(2,1) = edge 12 plus an isolated vertex
    L = tk.GraphCombination(3, [(tk.Multigraph(3, [(2, 3)]), _ONE)])
    result, cert = tk.reduce_to_star_forests(L)
    R21 = tk.GraphCombination(3, [(tk.Multigraph(3, [(1, 2)]), _ONE)])
    if result.shape_triples() != [((2, 1), 0, 1)] or tk.replay_certificate(L, cert) != R21:
        bad.append("edge 23 on [3] does not reduce to R_(2,1)")
    # one arc 1->2, N = 2: TQ = (1+t) x1^2 + (1+q) x1 x2 + (1+t) x2^2
    D = tk.Digraph(2, [(1, 2)])
    tq_want = quasi.TruncatedQFunc(2, {
        (2, 0): tk.QTPoly({(0, 0): 1, (0, 1): 1}),
        (1, 1): tk.QTPoly({(0, 0): 1, (1, 0): 1}),
        (0, 2): tk.QTPoly({(0, 0): 1, (0, 1): 1}),
    })
    for route in (tk.tq, tk.tq_from_connected_partitions, tk.tq_from_arc_subsets):
        if route(D, 2) != tq_want:
            bad.append(f"TQ of one arc by {route.__name__} is wrong")
    if tk.xq(D, 2) != quasi.TruncatedQFunc(2, {(1, 1): tk.QTPoly({(0, 0): 1, (1, 0): 1})}):
        bad.append("XQ of one arc is wrong")
    if tk.truncate_symfunc(readme, 3).terms[(1, 1, 1)] != tk.QTPoly({(0, 0): 6}):
        bad.append("truncated XB(P3) has the wrong x1 x2 x3 coefficient")
    # the README's CLI example, through cli.main in this process
    path = os.path.join(workdir, "known_p3.json")
    out = os.path.join(workdir, "known_p3_out.json")
    with open(path, "w") as fh:
        json.dump({"n": 3, "edges": [[1, 2], [2, 3]]}, fh)
    code, _ = cli_main_inprocess(["xb", path, "--output", out])
    with open(out) as fh:
        if code != 0 or tk.SymFunc.from_json_obj(json.load(fh)) != readme:
            bad.append("tuttekit xb on P3 differs from the README")
    return bad


def _partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for part in range(min(n, cap), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _multiplicities(lam) -> list[int]:
    return [lam.count(v) for v in set(lam)]


def bell(n: int) -> int:
    """Bell numbers by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


OPS = {"invariants": op_invariants, "kernel": op_kernel, "quasi": op_quasi}
