"""Source guards: no library module imports a name it never uses, and no
private top-level helper is left with no caller."""

import ast
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
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            # a re-exported name counts as used
            used.update(ast.literal_eval(node.value))
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
