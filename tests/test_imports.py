"""The package's imports, exports and derived terms, read from its source
with `ast`.

Every name a `cogmac` module imports is used in that module (a re-export
from `__init__.py` counts when `__all__` lists it), and every name in
`cogmac.__all__` resolves, so that a deleted function or class leaves no
orphaned import or export behind.  The received primary power h_p^2 P_p
and amplitude h_p sqrt(P_p) are written only in `ChannelInstance`, which
derives them once for every kernel.
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


def _name(node) -> str | None:
    """`x` for a Name x or an attribute `obj.x`."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _primary_power_or_amplitude(node) -> bool:
    """`h_p**2 * p_p` or `h_p * sqrt(p_p)`, on names or attributes, with
    any module's sqrt."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    left, right = node.left, node.right
    squared = (
        isinstance(left, ast.BinOp)
        and isinstance(left.op, ast.Pow)
        and _name(left.left) == "h_p"
        and isinstance(left.right, ast.Constant)
        and left.right.value == 2
        and _name(right) == "p_p"
    )
    rooted = (
        _name(left) == "h_p"
        and isinstance(right, ast.Call)
        and _name(right.func) == "sqrt"
        and len(right.args) == 1
        and _name(right.args[0]) == "p_p"
    )
    return squared or rooted


def _outside_channel_instance(tree: ast.Module):
    """Every node of the module outside `class ChannelInstance`."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == "ChannelInstance":
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_primary_terms_only_in_channel_instance(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = _outside_channel_instance(tree)
    found = [node.lineno for node in nodes if _primary_power_or_amplitude(node)]
    assert not found, f"{path.name}: h_p**2 * p_p or h_p * sqrt(p_p) at lines {found}"


def test_channel_instance_derives_the_primary_terms():
    tree = ast.parse((SOURCE / "channel.py").read_text(encoding="utf-8"))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ChannelInstance"]
    assert sum(map(_primary_power_or_amplitude, ast.walk(cls))) == 2
