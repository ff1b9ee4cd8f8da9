"""Static checks of the package sources: every import is used, every
private function, class or method is referenced somewhere in the package,
every private top-level one is reached from code outside it, and every
public one is referenced somewhere in the package, its tests or the
benchmark.

The project depends on no linter, so these AST scans are the suite's lint
check.  A package ``__init__.py`` re-exports what it imports and is skipped
by the import check.  One check is not static: importing the package in a
fresh interpreter must leave scipy.special, scipy.stats and scipy.optimize
unloaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import scorefim

SRC = Path(scorefim.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]  # holds tests/ and bench/


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


def _sources(root=SRC):
    """(path relative to root, parsed module) of every source file under root."""
    for path in sorted(root.rglob("*.py")):
        yield str(path.relative_to(root)), ast.parse(path.read_text(), filename=str(path))


def _definitions(keep) -> dict:
    """name -> first "file:line" of every package function, class or method
    whose name ``keep`` accepts."""
    defined = {}
    for rel, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if keep(node.name):
                    defined.setdefault(node.name, f"{rel}:{node.lineno}")
    return defined


def _mentions(roots, strings: bool) -> set:
    """Every name, attribute and imported name in the sources under roots,
    plus every string literal when ``strings``."""
    used = set()
    for root in roots:
        for _, tree in _sources(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
                elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    return used


def test_no_unused_imports():
    found = {}
    for rel, tree in _sources():
        if rel.endswith("__init__.py"):
            continue
        unused = _unused_imports(tree)
        if unused:
            found[rel] = unused
    assert not found, f"unused imports: {found}"


def _loads(nodes) -> set:
    """Every name and attribute that ``nodes`` read (imports not counted)."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for top in nodes for node in ast.walk(top)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_private_top_level_definition_is_reached():
    # a _-prefixed top-level function or class must be read by code outside
    # it: a module statement, a public definition, or a private one that is
    # itself reached.  So deleting a definition cannot leave behind helpers
    # that only it used, and recursion or a dead caller does not count
    private, reached = {}, set()
    for rel, tree in _sources():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                private[node.name, rel] = _loads([node]) - {node.name}
            else:
                reached |= _loads([node])
    live, grew = set(), True
    while grew:
        grew = False
        for key, reads in private.items():
            if key not in live and key[0] in reached:
                live.add(key)
                reached |= reads
                grew = True
    dead = sorted(f"{rel}:{name}" for name, rel in set(private) - live)
    assert not dead, f"private top-level definitions nothing reaches: {dead}"


def test_no_unreferenced_private_definitions():
    # a _-prefixed function, class or method that no name, attribute or
    # import in the package mentions is dead code left behind
    defined = _definitions(lambda name: name.startswith("_") and not name.endswith("__"))
    used = _mentions([SRC], strings=False)
    dead = sorted(where for name, where in defined.items() if name not in used)
    assert not dead, f"unreferenced private definitions: {dead}"


def test_no_unreferenced_public_definitions():
    # a public one may serve the tests or the benchmark; string literals
    # count as mentions, since the benchmark looks functions up by name
    defined = _definitions(lambda name: not name.startswith("_"))
    used = _mentions([SRC, ROOT / "tests", ROOT / "bench"], strings=True)
    dead = sorted(where for name, where in defined.items() if name not in used)
    assert not dead, f"unreferenced public definitions: {dead}"


def _loaded_at_import(modules) -> list[str]:
    """Those of ``modules`` that importing the package loads, seen in a fresh
    interpreter, since this test process may already hold any of them."""
    code = (
        "import sys\n"
        "import scorefim, scorefim.cli, scorefim.studies\n"
        f"print(' '.join(m for m in {tuple(modules)!r} if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


def test_import_leaves_out_scipy_stats_and_optimize():
    # scipy.stats cost about 1 s of every CLI call; scipy.optimize loads
    # inside pk._profile_v's bounded-Brent fallback alone
    loaded = _loaded_at_import(("scipy.stats", "scipy.optimize"))
    assert loaded == [], f"imported at package import: {loaded}"


def test_import_leaves_out_scipy_special_stats_and_optimize():
    # the package needs numpy only: scipy.special cost about 0.2 s of every
    # process (its array-API layer loads numpy.testing and numpy.f2py)
    loaded = _loaded_at_import(("scipy.special", "scipy.stats", "scipy.optimize"))
    assert loaded == [], f"imported at package import: {loaded}"


def test_only_run_study_writes_study_files():
    # one writer: no other function in studies.py writes a table or makes
    # the manifest's timer
    tree = dict(_sources())["studies.py"]
    writers = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if called in ("write_table", "ManifestTimer"):
                        writers.add(fn.name)
    assert writers == {"run_study"}, f"study files written outside run_study: {writers}"
