"""Static check of the package sources: every import is used.

The project depends on no linter, so this AST scan is the suite's lint
check.  A package ``__init__.py`` re-exports what it imports and is skipped.
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


def test_no_unused_imports():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            found[str(path.relative_to(SRC))] = unused
    assert not found, f"unused imports: {found}"
