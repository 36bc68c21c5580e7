"""Source guard: no library module imports a name it never uses."""

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
