"""The package's imports, exports and derived terms, read from its source
with `ast`.

Every name a `cogmac` module imports is used in that module (a re-export
from `__init__.py` counts when `__all__` lists it), and every name in
`cogmac.__all__` resolves, so that a deleted function or class leaves no
orphaned import or export behind.  The received primary power h_p^2 P_p
and amplitude h_p sqrt(P_p), and the relay amplitudes g_k sqrt(P_k), are
written only in `ChannelInstance`, which derives them once for every kernel;
`oracle.py`, whose checks stay independent of the kernels, forms its own
g_k sqrt(P_k).  No module writes the primary constraint in its expanded
form sigma_p2 X^2 - s_p (...), whose terms sigma_p2 A^2 and s_p sigma_p2
cancel: `channel._excess` writes it once without them.  The CLI reads the
scenario schema from the `ChannelInstance` and `SolverConfig` fields, and
names none of them in a string of its own, and of an instance it reads
only `num_users`: it parses, calls the library and prints.
"""

import ast
import dataclasses
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
    """`x` for a Name x, an attribute `obj.x` or a subscript of either."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _factors(node) -> list:
    """The factors of a product chain `a * b * ...`, or [node]."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    return [node]


def _is_sqrt_of(node, name: str) -> bool:
    """Any module's `sqrt(name)`, on a name, attribute or subscript."""
    return (
        isinstance(node, ast.Call)
        and _name(node.func) == "sqrt"
        and len(node.args) == 1
        and _name(node.args[0]) == name
    )


def _relay_amplitude(node) -> bool:
    """A product with a factor g and a factor sqrt(p): g_k sqrt(P_k)."""
    factors = _factors(node)
    return (
        len(factors) > 1
        and any(_name(f) == "g" for f in factors)
        and any(_is_sqrt_of(f, "p") for f in factors)
    )


def _squared(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and (
        isinstance(node.right, ast.Constant) and node.right.value == 2
    )


def _expanded_constraint(node) -> bool:
    """`sigma_p2 * x**2 - s_p * y` (or `sigma_p2 * x * x`): the primary
    constraint with its cancelling pair left in."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    left, right = _factors(node.left), _factors(node.right)
    dumps = [ast.dump(f) for f in left]
    square = any(map(_squared, left)) or len(set(dumps)) < len(dumps)
    return (
        any(_name(f) == "sigma_p2" for f in left)
        and square
        and any(_name(f) == "s_p" for f in right)
    )


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
    assert sum(map(_relay_amplitude, ast.walk(cls))) == 1


@pytest.mark.parametrize(
    "code, found",
    [
        ("ch.g * gamma * ch.sqrt_p", False),
        ("ch.g * np.sqrt(ch.p)", True),
        ("g * gamma * sqrt(p)", True),
        ("2.0 * x * ch.g[k] * math.sqrt(ch.p[k])", True),
        ("ch.g * ch.p", False),
    ],
)
def test_relay_amplitude_pattern(code, found):
    assert any(map(_relay_amplitude, ast.walk(ast.parse(code)))) is found


@pytest.mark.parametrize(
    "code, found",
    [
        ("ch.sigma_p2 * signal**2 - ch.s_p * noise", True),
        ("sigma_p2 * x * x - self.s_p * (sigma_p2 + lost)", True),
        ("ch.sigma_p2 * _excess(ch, s, lost)", False),
        ("relayed * (2.0 * amp + relayed) - ch.t * lost", False),
    ],
)
def test_expanded_constraint_pattern(code, found):
    assert any(map(_expanded_constraint, ast.walk(ast.parse(code)))) is found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_relay_amplitude_only_in_channel_instance(path):
    if path.name == "oracle.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted({n.lineno for n in _outside_channel_instance(tree) if _relay_amplitude(n)})
    assert not found, f"{path.name}: g * sqrt(p) at lines {found}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_expanded_constraint(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree) if _expanded_constraint(node)]
    assert not found, f"{path.name}: sigma_p2 * x**2 - s_p * ... at lines {found}"


FIELD_NAMES = {
    f.name for cls in (cogmac.ChannelInstance, cogmac.SolverConfig) for f in dataclasses.fields(cls)
}


def _field_strings(tree) -> list:
    """Each string constant that is a scenario field's name, with its line."""
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in FIELD_NAMES
    )


@pytest.mark.parametrize(
    "code, found",
    [
        ('keys = ("h", "g", "p")', True),
        ('cfg_kwargs["max_outer_iters"] = value', True),
        ("names = {f.name for f in dataclasses.fields(ChannelInstance)}", False),
        ('doc.pop("solver", {})', False),
    ],
)
def test_field_string_pattern(code, found):
    assert bool(_field_strings(ast.parse(code))) is found


def test_cli_names_no_field():
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    found = _field_strings(tree)
    assert not found, f"cli.py: field names as strings at {found}"


def test_cli_reads_no_instance_attribute_but_num_users():
    ch = cogmac.ChannelInstance(
        h=[1.0], g=[1.0], p=[1.0], h_p=1.0, p_p=1.0, sigma_p2=1.0, sigma_c2=1.0
    )
    attributes = set(vars(ch))  # the fields and derived terms, not num_users
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    found = sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in attributes
    )
    assert not found, f"cli.py: instance attributes read at {found}"
