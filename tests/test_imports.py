"""Source guards: no library module imports a name it never uses, no
private top-level helper is left with no caller, every public top-level
name serves the library or the bench, and each invariant route reaches
only the enumerators it is pinned to."""

import ast
import importlib
import inspect
import shutil
from pathlib import Path

import tuttekit


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    root = Path(tuttekit.__file__).resolve().parent
    found = {
        path.name: unused
        for path in sorted(root.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := _unused_imports(ast.parse(path.read_text(), str(path))))
    }
    assert not found, f"unused imports in src/tuttekit: {found}"


def _names_used(node: ast.AST) -> set[str]:
    """Identifiers node reads: names, attributes and imported names."""
    used: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def test_every_private_top_level_helper_is_referenced_elsewhere_in_src():
    root = Path(tuttekit.__file__).resolve().parent
    defined: list[tuple[str, str, ast.stmt]] = []
    statements: list[ast.stmt] = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        statements += tree.body
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                defined.append((path.name, node.name, node))
    # a use inside the helper's own definition (recursion) does not count
    uses = [(stmt, _names_used(stmt)) for stmt in statements]
    orphans = [
        f"{module}:{name}"
        for module, name, node in defined
        if not any(name in used for stmt, used in uses if stmt is not node)
    ]
    assert not orphans, f"private helpers nobody in src/tuttekit calls: {orphans}"


def _public_names_nothing_reaches(src: Path, bench: Path) -> list[str]:
    """module.name for each public top-level function or class of src that
    no other statement of src outside __init__.py names, and that no file
    of bench names, as an identifier or as a string (the tracer's table
    names what it patches by strings)."""
    defined: list[tuple[str, ast.stmt]] = []
    statements: list[ast.stmt] = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        statements += tree.body
        defined += [
            (path.stem, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
    in_bench: set[str] = set()
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_bench |= _names_used(tree)
        in_bench |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    uses = [(stmt, _names_used(stmt)) for stmt in statements]
    return [
        f"{module}.{node.name}"
        for module, node in defined
        if node.name not in in_bench and not any(node.name in used for stmt, used in uses if stmt is not node)
    ]


# public names that nothing in src/tuttekit or bench/ reaches, each with the
# reason it stays public
ALLOWED: dict[str, str] = {}

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_public_top_level_name_is_reached_from_src_or_bench():
    root = Path(tuttekit.__file__).resolve().parent
    found = _public_names_nothing_reaches(root, BENCH)
    assert sorted(found) == sorted(ALLOWED), f"public names only tests or __init__ reach: {found}"


def test_public_name_guard_catches_a_planted_function(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    shutil.copytree(Path(tuttekit.__file__).resolve().parent, src)
    shutil.copytree(BENCH, bench)
    with open(src / "graphs.py", "a") as f:
        f.write("\n\ndef planted(G):\n    return planted(G)\n")
    # a re-export from __init__ is not a use, and neither is recursion
    with open(src / "__init__.py", "a") as f:
        f.write("\nfrom tuttekit.graphs import planted\n")
    assert _public_names_nothing_reaches(src, bench) == sorted(ALLOWED) + ["graphs.planted"]
    (bench / "planted.py").write_text('CALLS = [("graphs", "planted", "call")]\n')
    assert _public_names_nothing_reaches(src, bench) == sorted(ALLOWED)


def test_selfcheck_imports_public_names_only():
    # the suites check the library from outside, through what it exports
    path = Path(tuttekit.__file__).resolve().parent / "selfcheck.py"
    private = [
        f"{node.module}.{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tuttekit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"selfcheck.py imports private names: {private}"


def test_no_public_callable_takes_a_per_call_cap():
    # TUTTEKIT_MAX_N is the one knob on the vertex caps, and every other
    # limit, the degree cap included, is a named constant
    root = Path(tuttekit.__file__).resolve().parent
    modules = [tuttekit] + [
        importlib.import_module(f"tuttekit.{path.stem}")
        for path in sorted(root.glob("*.py"))
        if path.name != "__init__.py"
    ]
    found = set()
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if not getattr(obj, "__module__", "").startswith("tuttekit"):
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [m for k, m in vars(obj).items() if not k.startswith("_") and callable(m)]
            for f in members:
                try:
                    params = inspect.signature(f).parameters
                except ValueError:  # DomainError keeps ValueError's C signature
                    continue
                found |= {f"{f.__qualname__}({p})" for p in ("max_n", "budget", "max_degree") if p in params}
    assert not found, f"per-call caps: {sorted(found)}"


#### which enumerators each route reaches ######################################

ENUMERATORS = {
    ("combinatorics", "enumerate_set_partitions"),
    ("combinatorics", "subsets_by_size"),
    ("graphs", "_flats"),
    ("graphs", "connected_partitions"),
    ("invariants", "_stable_counts"),
    ("invariants", "_delcon"),
    ("quasi", "_packed_sum"),
}


def _top_level_reach(root: Path, start: tuple[str, str]) -> set[tuple[str, str]]:
    """The top-level functions and classes of src/tuttekit that start's
    body names, directly or through those it names in turn.  Names bound
    by `from tuttekit.<module> import` resolve to the module they come from;
    a class counts with all its methods."""
    defs: dict[tuple[str, str], ast.stmt] = {}
    imports: dict[str, dict[str, tuple[str, str]]] = {}
    for path in sorted(root.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        imports[module] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tuttekit."):
                for alias in node.names:
                    imports[module][alias.asname or alias.name] = (node.module.split(".")[1], alias.name)

    def resolve(module: str, name: str) -> tuple[str, str] | None:
        while (module, name) not in defs:
            if name not in imports.get(module, {}):
                return None
            module, name = imports[module][name]
        return module, name

    seen = {start}
    todo = [start]
    while todo:
        module, _ = key = todo.pop()
        for name in _names_used(defs[key]):
            found = resolve(module, name)
            if found is not None and found not in seen:
                seen.add(found)
                todo.append(found)
    return seen


# route -> the enumerators it reaches; tutte_sym walks the set partitions,
# X walks its own stable partitions, and the TQ and XQ routes walk ordered
# set partitions only, so each route checks the others from apart
ROUTE_ENUMERATORS = {
    ("invariants", "tutte_sym"): {"enumerate_set_partitions"},
    ("invariants", "chromatic_sym"): {"_stable_counts"},
    ("invariants", "tutte_sym_delcon"): {"_delcon", "enumerate_set_partitions"},
    ("invariants", "chromatic_sym_delcon"): {"_delcon", "enumerate_set_partitions"},
    ("invariants", "tutte_from_contractions"): {"_stable_counts", "_flats"},
    ("invariants", "tutte_from_connected_partitions"): {"_stable_counts", "connected_partitions"},
    ("quasi", "xq"): {"_packed_sum"},
    ("quasi", "tq"): {"_packed_sum"},
    ("quasi", "tq_from_connected_partitions"): {"_packed_sum", "connected_partitions"},
    ("quasi", "tq_from_arc_subsets"): {"_packed_sum", "_flats"},
}


def test_each_route_reaches_the_enumerators_it_is_pinned_to():
    root = Path(tuttekit.__file__).resolve().parent
    got = {
        route: {name for module, name in _top_level_reach(root, route) & ENUMERATORS}
        for route in ROUTE_ENUMERATORS
    }
    assert got == ROUTE_ENUMERATORS
    assert "enumerate_set_partitions" in got["invariants", "tutte_sym"]
    assert not any("enumerate_set_partitions" in got[route] for route in got if route[0] == "quasi")
