"""Static checks of the package sources: every import is used, and every
private function, class or method is referenced somewhere in the package.

The project depends on no linter, so these AST scans are the suite's lint
check.  A package ``__init__.py`` re-exports what it imports and is skipped
by the import check.
"""

import ast
from pathlib import Path

import scorefim

SRC = Path(scorefim.__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def _sources():
    """(path relative to the package, parsed module) of every source file."""
    for path in sorted(SRC.rglob("*.py")):
        yield str(path.relative_to(SRC)), ast.parse(path.read_text(), filename=str(path))


def test_no_unused_imports():
    found = {}
    for rel, tree in _sources():
        if rel.endswith("__init__.py"):
            continue
        unused = _unused_imports(tree)
        if unused:
            found[rel] = unused
    assert not found, f"unused imports: {found}"


def test_no_unreferenced_private_definitions():
    # a _-prefixed function, class or method that no name, attribute or
    # import in the package mentions is dead code left behind
    defined, used = {}, set()
    for rel, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.setdefault(node.name, f"{rel}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = sorted(where for name, where in defined.items() if name not in used)
    assert not dead, f"unreferenced private definitions: {dead}"
