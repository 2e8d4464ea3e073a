"""Every import in the package and its tests is read somewhere, and every
public name a module lists exists.

The project ships no linter, so this walks each module's syntax tree with
the standard library: a name an import binds must be read in the module, or
listed in its ``__all__``, unless the import's line carries ``# noqa``.
"""

import ast
import importlib
from pathlib import Path

import mtl21

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and "# noqa" not in lines[alias.lineno - 1]:
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    where = path.relative_to(ROOT)
    return [f"{where}:{line} {name}" for name, line in bound.items() if name not in used]


def test_every_import_is_used():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(files) > 10
    assert [entry for path in files for entry in unused_imports(path)] == []


def test_every_listed_name_is_bound():
    # each module's __all__ names only what it binds, and the package's lazy
    # exports come from their module's __all__ (``errors`` has none, so there
    # each export must be bound)
    unbound = []
    for path in sorted((ROOT / "src" / "mtl21").glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"mtl21.{path.stem}")
        listed = getattr(module, "__all__", ())
        unbound += [f"{path.stem}.{name}" for name in listed if not hasattr(module, name)]
        exported = mtl21._EXPORTS.get(path.stem, ())
        if hasattr(module, "__all__"):
            unbound += [f"{path.stem}.{name} (not in __all__)" for name in exported if name not in listed]
        else:
            unbound += [f"{path.stem}.{name}" for name in exported if not hasattr(module, name)]
    assert unbound == []
