"""Command-line surface: graph invariants, kernel tools, and the selfcheck.

Exit codes: 0 success, 1 domain error (message on stderr naming the violated
precondition) or a failed write of standard output, 2 usage error.
`--output path` writes JSON; without it each command prints a short
human-readable summary.  All numbers are exact.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii

from tuttekit.combinatorics import DomainError, TPoly, echo, format_rational
from tuttekit.graphs import graph_from_json_obj, graph_to_json_obj
from tuttekit.invariants import (
    chromatic_sym,
    chromatic_sym_delcon,
    sigma_l_formula,
    tutte_from_connected_partitions,
    tutte_from_contractions,
    tutte_sym,
    tutte_sym_delcon,
)
from tuttekit.kernel import (
    GraphCombination,
    broom_relation,
    classify_n4,
    cycle_relation,
    ell_loop,
    ell_multi,
    ell_os,
    ell_os_plus,
    ell_tri,
    is_tutte_friendly,
    is_x_friendly,
    kernel_membership,
    reduce_to_star_forests,
    two_edge_connected_relation,
    witness_graph,
)
from tuttekit.quasi import (
    Digraph,
    tq,
    tq_from_arc_subsets,
    tq_from_connected_partitions,
    xq,
)
from tuttekit.symfun import BASES, SymFunc, m_to_e, m_to_p, mtilde_to_m, specialize_t


#### I/O helpers ###############################################################

def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {echo(path)}: {exc}")
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise DomainError(f"{echo(path)} is not valid JSON: {exc}")
    except RecursionError:
        raise DomainError(f"{echo(path)} nests too deeply to read")


_LITERALS = {None: "null", True: "true", False: "false"}


def _encode(v, nl: str = "\n") -> str:
    """The bytes of json.dumps(v, indent=2) for the trees the CLI writes:
    str-keyed dicts, lists, tuples, str, int, bool and None.

    CPython's C encoder runs only without an indent; this does one join per
    container and escapes strings with the C escaper.  Any other type is a
    TypeError, as in json.dumps.
    """
    t = type(v)
    if t is str:
        return encode_basestring_ascii(v)
    if t is int:
        return repr(v)
    inner = nl + "  "
    if t is dict:
        body = [encode_basestring_ascii(k) + ": " + _encode(x, inner) for k, x in v.items()]
        return "{" + inner + ("," + inner).join(body) + nl + "}" if body else "{}"
    if t is list or t is tuple:
        body = [_encode(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(body) + nl + "]" if body else "[]"
    if t is bool or v is None:
        return _LITERALS[v]
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(obj: Callable[[], dict], text: Callable[[], str], output: str | None) -> None:
    """Build only the form that is written: obj() as JSON to output, or else
    text() to stdout.  The JSON is encoded before the file is opened, so a
    refused output leaves an existing file as it was."""
    if output is None:
        print(text())
        return
    data = _encode(obj()) + "\n"
    try:
        with open(output, "w") as fh:
            fh.write(data)
    except OSError as exc:
        raise DomainError(f"cannot write {echo(output)}: {exc}")


def _tpoly_text(c: TPoly) -> str:
    if c.is_zero():
        return "0"
    bits = []
    for i, x in enumerate(c.coeffs):
        if x == 0:
            continue
        if i == 0:
            bits.append(format_rational(x))
        elif i == 1:
            bits.append(f"{format_rational(x)}*t")
        else:
            bits.append(f"{format_rational(x)}*t^{i}")
    return " + ".join(bits)


def _symfunc_text(f: SymFunc) -> str:
    if f.is_zero():
        return f"0 (basis {f.basis})"
    lines = [
        f"{f.basis}[{','.join(map(str, lam))}] : {_tpoly_text(c)}"
        for lam, c in f.sorted_terms()
    ]
    return "\n".join(lines)


def _parse_ints(chunk: str, text: str) -> list[int]:
    try:
        return [int(x) for x in chunk.split(",")]
    except ValueError:
        raise DomainError(f"non-integer vertex in {echo(text)}")


def _parse_blocks(text: str) -> list[list[int]]:
    blocks = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if not chunk:
            raise DomainError(f"empty block in partition {echo(text)}")
        blocks.append(_parse_ints(chunk, text))
    return blocks


def _parse_edge_list(text: str) -> list[tuple[int, int]]:
    edges = []
    for chunk in text.split(";"):
        parts = _parse_ints(chunk.strip(), text)
        if len(parts) != 2:
            raise DomainError(f"bad edge {echo(chunk)}; expected 'u,v'")
        edges.append((parts[0], parts[1]))
    return edges


def _basis_view(f: SymFunc, basis: str) -> SymFunc:
    if basis == "mtilde":
        return f
    m = mtilde_to_m(f)
    if basis == "m":
        return m
    if basis == "e":
        return m_to_e(m)
    return m_to_p(m)


#### subcommands ###############################################################

# zero-argument builders of a run's JSON object and of its text
_Forms = tuple[Callable[[], dict], Callable[[], str]]

# each route table is flat, so that a tracer can rebind its functions
_X_ROUTES = {"def": chromatic_sym, "delcon": chromatic_sym_delcon}

_XB_ROUTES = {
    "def": tutte_sym,
    "delcon": tutte_sym_delcon,
    "contract": tutte_from_contractions,
    "connparts": tutte_from_connected_partitions,
}

_TQ_ROUTES = {"def": tq, "connparts": tq_from_connected_partitions, "subsets": tq_from_arc_subsets}

# input kind -> reader of its JSON object; each kind is also its argument's name
_READERS = {
    "graph": graph_from_json_obj,
    "combination": GraphCombination.from_json_obj,
    "digraph": functools.partial(graph_from_json_obj, kind=Digraph),
}


def _symfunc_out(f: SymFunc, args) -> _Forms:
    # x and xb: the basis view first, then xb's --t-eval
    f = _basis_view(f, args.basis)
    if getattr(args, "t_eval", None) is not None:
        f = specialize_t(f, args.t_eval)
    return f.to_json_obj, lambda: _symfunc_text(f)


def _sigma(G, args) -> _Forms:
    value = format_rational(sigma_l_formula(G, args.k, args.l))
    return (lambda: {"k": args.k, "l": args.l, "value": value},
            lambda: f"sigma_{args.l} of [(1+t)^{args.k}] XB = {value}")


def _friendly(L, args) -> _Forms:
    ok, pi, a = is_tutte_friendly(L)
    if ok:
        return lambda: {"friendly": True}, lambda: "friendly"
    pi = [list(b) for b in pi]
    return (lambda: {"friendly": False, "pi": pi, "a": a},
            lambda: f"not friendly: B nonzero at pi={pi} (least power a={a})")


def _xfriendly(L, args) -> _Forms:
    ok, pi = is_x_friendly(L)
    if ok:
        return lambda: {"xfriendly": True}, lambda: "X-friendly"
    pi = [list(b) for b in pi]
    return lambda: {"xfriendly": False, "pi": pi}, lambda: f"not X-friendly: C nonzero at pi={pi}"


def _witness(L, args) -> _Forms:
    W = witness_graph(L, _parse_blocks(args.pi), args.a)
    return lambda: graph_to_json_obj(W), lambda: f"witness on [{W.n}] with {len(W.edges)} edges"


def _reduce(L, args) -> _Forms:
    result, cert = reduce_to_star_forests(L)

    def obj() -> dict:
        out = cert.to_json_obj()
        return {"terms": out["result"], "certificate": out["steps"]}

    def text() -> str:
        lines = [
            f"R{list(lam)} * (1+t)^{k} * {format_rational(c)}"
            for lam, k, c in result.shape_triples()
        ] or ["0"]
        lines.append(f"({len(cert.steps)} certificate steps)")
        return "\n".join(lines)

    return obj, text


def _member(L, args) -> _Forms:
    verdict = kernel_membership(L)
    return lambda: {"member": verdict}, lambda: "in the kernel of XB" if verdict else "not in the kernel of XB"


# relation kind -> (builder, the options it takes in order, their usage)
_RELATIONS = {
    "os-plus": (ell_os_plus, (), ""),
    "tri": (ell_tri, (), ""),
    "multi": (ell_multi, (), ""),
    "loop": (ell_loop, (), ""),
    "os": (ell_os, (), ""),
    "cycle": (cycle_relation, ("graph", "cycle", "i", "j"), "GRAPH --cycle 'u,v;...' --i I --j J"),
    "two-edge-connected": (two_edge_connected_relation, ("graph", "i", "j"), "GRAPH --i I --j J"),
    "broom": (broom_relation, ("n", "k"), "--n N --k K"),
}


def _relation(_, args) -> _Forms:
    build, names, usage = _RELATIONS[args.kind]
    values = [getattr(args, name) for name in names]
    if None in values:
        raise DomainError(f"{args.kind} relation needs {usage}")
    # the graph option names a JSON file and the cycle option lists edges
    read = {"graph": lambda path: graph_from_json_obj(_load(path)), "cycle": _parse_edge_list}
    L = build(*(read.get(name, lambda v: v)(v) for name, v in zip(names, values)))
    return L.to_json_obj, lambda: "\n".join(f"{_tpoly_text(c)}  *  {g!r}" for g, c in L.sorted_terms()) or "0"


def _classify_n4(_, args) -> _Forms:
    families = classify_n4()

    def text() -> str:
        lines = []
        for i, fam in enumerate(families, 1):
            lines.append(f"family {i} ({len(fam)} graphs):")
            for g in fam:
                lines.append(f"  edges {sorted(g.edges)}")
        return "\n".join(lines)

    return lambda: {"families": [[graph_to_json_obj(g) for g in fam] for fam in families]}, text


def _quasi_text(F) -> str:
    lines = []
    for exps, qbits in F._formatted_terms(_qtpoly_text):
        mono = " ".join(f"x{i+1}^{e}" for i, e in enumerate(exps) if e)
        lines.append(f"{mono or '1'} : {qbits}")
    return "\n".join(lines) or "0"


def _qtpoly_text(c) -> str:
    return " + ".join(f"{format_rational(v)}*q^{a}*t^{b}" for (a, b), v in sorted(c.terms.items()))


def _quasi(D, args) -> _Forms:
    N = args.vars if args.vars is not None else D.total_weight()
    if args.kind == "xq":
        if args.route != "def":
            raise DomainError("xq has a single route; use --route def")
        F = xq(D, N)
    else:
        F = _TQ_ROUTES[args.route](D, N)
    return F.to_json_obj, lambda: _quasi_text(F)


# subcommand -> (help, input kind, its other arguments in order, run); run(value,
# args) computes the answer and returns _Forms, whose builders _emit calls only
# for the form it writes.  Runs reach library functions only through module
# globals and the route tables, which a tracer can rebind.
_COMMANDS = {
    "x": ("chromatic symmetric function of a graph", "graph", (
        ("--route", {"choices": tuple(_X_ROUTES), "default": "def"}),
        ("--basis", {"choices": BASES, "default": "mtilde"}),
    ), lambda G, args: _symfunc_out(_X_ROUTES[args.route](G), args)),
    "xb": ("Tutte symmetric function of a graph", "graph", (
        ("--route", {"choices": tuple(_XB_ROUTES), "default": "def"}),
        ("--basis", {"choices": BASES, "default": "mtilde"}),
        ("--t-eval", {"help": "evaluate t at this rational, e.g. -1 or 1/2"}),
    ), lambda G, args: _symfunc_out(_XB_ROUTES[args.route](G), args)),
    "sigma": ("signed acyclic-orientation count sigma_l of [(1+t)^k] XB", "graph", (
        ("--k", {"type": int, "required": True}),
        ("--l", {"type": int, "required": True}),
    ), _sigma),
    "friendly": ("Tutte-friendliness of a graph combination", "combination", (), _friendly),
    "xfriendly": ("X-friendliness of a graph combination", "combination", (), _xfriendly),
    "witness": ("cloud witness graph for a non-friendly combination", "combination", (
        ("--pi", {"required": True, "help": "partition blocks, e.g. '1,2|3'"}),
        ("--a", {"type": int, "help": "(1+t)-power to certify"}),
    ), _witness),
    "reduce": ("reduce a combination to canonical star forests", "combination", (), _reduce),
    "member": ("kernel membership (two independent XB evaluations)", "combination", (), _member),
    "relation": ("named kernel relations", None, (
        ("kind", {"choices": tuple(_RELATIONS)}),
        ("graph", {"nargs": "?", "help": "graph JSON file (cycle / two-edge-connected)"}),
        ("--cycle", {"help": "cycle edges 'u,v;u,v;...' (cycle relation)"}),
        ("--i", {"type": int, "help": "1-based edge index"}),
        ("--j", {"type": int, "help": "1-based edge index"}),
        ("--n", {"type": int, "help": "broom path length"}),
        ("--k", {"type": int, "help": "broom star size, at least 2 (a bristle to exchange)"}),
    ), _relation),
    "classify-n4": ("friendliness families on four vertices", None, (), _classify_n4),
    "quasi": ("quasisymmetric XQ / TQ of a digraph", "digraph", (
        ("kind", {"choices": ("xq", "tq")}),
        ("--vars", {"type": int, "help": "variable count N (default w(D))"}),
        ("--route", {"choices": tuple(_TQ_ROUTES), "default": "def"}),
    ), _quasi),
}


def _run(args) -> int:
    _, kind, _, run = _COMMANDS[args.command]
    value = _READERS[kind](_load(getattr(args, kind))) if kind else None
    _emit(*run(value, args), args.output)
    return 0


def _cmd_selfcheck(args) -> int:
    from tuttekit.selfcheck import SUITES, format_report, run_all

    ids = None
    if args.only:
        known = [suite.id for suite in SUITES]
        ids = []
        for chunk in args.only.split(","):
            try:
                i = int(chunk)
            except ValueError:
                raise DomainError(f"--only expects comma-separated criterion ids, got {echo(chunk)}")
            if i not in known:
                raise DomainError(f"no criterion {echo(i)}; ids run from 1 to {len(known)}")
            ids.append(i)
    results = run_all(ids)
    print(format_report(results))
    # a run of zero suites checked nothing, so it is not a pass
    return 0 if results and all(r["passed"] for r in results) else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Build the parser from _COMMANDS, on the first call of main only."""
    parser = argparse.ArgumentParser(
        prog="tuttekit",
        description="Exact chromatic and Tutte symmetric functions of weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, kind, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        own = ((kind, {"help": f"{kind} JSON file"}),) if kind else ()
        # positionals first, the input last of them, as usage errors list them
        for flag, options in sorted(arguments + own, key=lambda arg: arg[0].startswith("-")):
            p.add_argument(flag, **options)
        p.add_argument("--output", help="write JSON to this path instead of printing text")
    p = sub.add_parser("selfcheck", help="run the acceptance suites")
    p.add_argument("--only", help="comma-separated criterion ids, e.g. 1,5,12")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _cmd_selfcheck(args) if args.command == "selfcheck" else _run(args)
        sys.stdout.flush()
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # files are read and written under DomainError guards, so this is
        # standard output: a reader that went away needs no message, a full
        # disk does
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        # the exit flush goes to devnull, not to a second error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
