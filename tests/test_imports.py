"""The package's imports and exports, read from its source with `ast`.

Every name a `cogmac` module imports is used in that module (a re-export
from `__init__.py` counts when `__all__` lists it), and every name in
`cogmac.__all__` resolves, so that a deleted function or class leaves no
orphaned import or export behind.
"""

import ast
from pathlib import Path

import pytest

import cogmac

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cogmac"
MODULES = sorted(SOURCE.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import statement, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the strings listed in `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but unused: {unused}"


def test_every_export_resolves():
    assert len(set(cogmac.__all__)) == len(cogmac.__all__)
    missing = [name for name in cogmac.__all__ if not hasattr(cogmac, name)]
    assert not missing
