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
scenario schema from the `ChannelInstance` fields, and names none of them
in a string of its own, and of an instance it reads only `num_users` (its
echo comes from `as_dict`): it parses, calls the library and prints.  The feasible grid has one kernel,
`region._blocks`, which the oracle reads without building a grid of its own.
The independent checks stay apart from the solver: `oracle` imports only
`channel` and `region`, and `solver` and `region` only `channel`.
Every sum over the users is the builtin `sum` in index order: no module
reduces with `ndarray.sum`, `np.sum` or `np.dot`, which add pairwise, not
even `ChannelInstance.__post_init__` for its received powers and residual
scale.  Every `np.errstate` is entered by a `with`, so numpy's float
state is set once per block of array work, not on each call of a wrapped
method.  And a `cogmac solve` process on any bundled or golden scenario,
all below the solver's array form, imports no numpy at all, nor does
building a `PowerSplit` from a list or tuple.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cogmac
from cogmac.channel import _Array

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
    """`h_p**2 * p_p`, `h_p * h_p * p_p` or `h_p * sqrt(p_p)`, on names or
    attributes, with any module's sqrt."""
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
    multiplied = (
        isinstance(left, ast.BinOp)
        and isinstance(left.op, ast.Mult)
        and _name(left.left) == _name(left.right) == "h_p"
        and _name(right) == "p_p"
    )
    rooted = (
        _name(left) == "h_p"
        and isinstance(right, ast.Call)
        and _name(right.func) == "sqrt"
        and len(right.args) == 1
        and _name(right.args[0]) == "p_p"
    )
    return squared or multiplied or rooted


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
    assert not found, f"{path.name}: h_p^2 * p_p or h_p * sqrt(p_p) at lines {found}"


@pytest.mark.parametrize(
    "code, found",
    [
        ("ch.h_p**2 * ch.p_p", True),
        ("h_p * h_p * p_p", True),
        ("self.h_p * math.sqrt(self.p_p)", True),
        ("ch.h_p * ch.p_p", False),
        ("ch.s_p * ch.p_p", False),
    ],
)
def test_primary_power_or_amplitude_pattern(code, found):
    assert any(map(_primary_power_or_amplitude, ast.walk(ast.parse(code)))) is found


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


def _numpy_sum(node) -> bool:
    """A call of `x.sum(...)`, `np.sum(...)` or `np.dot(...)`."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
        node.func.attr in ("sum", "dot")
    )


@pytest.mark.parametrize(
    "code, found",
    [
        ("(ch.a * gamma).sum(axis=-1)", True),
        ("float(np.sum(a2))", True),
        ("np.dot(h2, p)", True),
        ("sum(relay)", False),
        ("math.fsum(v)", False),
    ],
)
def test_numpy_sum_pattern(code, found):
    assert any(map(_numpy_sum, ast.walk(ast.parse(code)))) is found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_numpy_sum_but_in_post_init(path):
    # named for the rule's former exception, `ChannelInstance.__post_init__`,
    # which now sums by the rule too; the name keeps the test ids stable
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted(node.lineno for node in ast.walk(tree) if _numpy_sum(node))
    assert not found, f"{path.name}: .sum(, np.sum or np.dot at lines {found}"


def _loose_errstate(tree: ast.Module) -> list[int]:
    """The lines of each `errstate(...)` call that is not the context
    expression of a `with` item: one applied as a decorator, kept or
    entered by hand sets numpy's float state on every call it wraps."""
    entered = {
        id(item.context_expr)
        for node in ast.walk(tree)
        if isinstance(node, ast.With)
        for item in node.items
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _name(node.func) == "errstate" and id(node) not in entered
    )


@pytest.mark.parametrize(
    "code, found",
    [
        ('with np.errstate(over="ignore"):\n    x = 1', []),
        ('with open(f) as g, np.errstate(invalid="ignore") as s:\n    x = 1', []),
        ('method = np.errstate(over="ignore")(method)', [1]),
        ('@np.errstate(over="ignore")\ndef f():\n    pass', [1]),
        ('state = errstate(all="ignore")\nwith state:\n    x = 1', [1]),
    ],
)
def test_loose_errstate_pattern(code, found):
    assert _loose_errstate(ast.parse(code)) == found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_errstate_only_in_with(path):
    # numpy's float state is set once per block of array work, never per call
    found = _loose_errstate(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name}: errstate outside a with item at lines {found}"


FIELD_NAMES = {f.name for f in dataclasses.fields(cogmac.ChannelInstance)}


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
        ('kwargs["sigma_p2"] = value', True),
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
    # the held floats, scalars and derived terms, and the arrays made on
    # first read; not num_users or as_dict
    arrays = {name for name, value in vars(cogmac.ChannelInstance).items() if isinstance(value, _Array)}
    attributes = set(vars(ch)) | arrays
    assert {"h", "a", "h_floats", "a_floats", "s_p"} <= attributes
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    found = sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in attributes
    )
    assert not found, f"cli.py: instance attributes read at {found}"


def _calls(tree: ast.Module) -> set:
    """(function, callee) for each call: the innermost function around it
    (None at module level) and the name it calls."""
    calls = set()
    stack = [(tree, None)]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            calls.add((func, _name(node.func)))
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return calls


def test_one_grid_kernel():
    """The feasible grid is built in one place, `region._blocks`, from each
    user's grid on its own axis: no module builds an index grid, the
    per-coordinate quadratic is solved only there and in the solver's
    projection, and the oracle reads the grid's blocks without building any."""
    calls = {path.name: _calls(ast.parse(path.read_text(encoding="utf-8"))) for path in MODULES}

    def callers(name):
        return sorted(
            (module, func) for module, found in calls.items() for func, callee in found if callee == name
        )

    assert not callers("indices"), f"np.indices called in {callers('indices')}"
    assert callers("_coordinate_roots") == [("region.py", "_blocks"), ("solver.py", "_project")]
    builders = {"_grid", "arange", "linspace", "meshgrid", "feasible_grid", "_coordinate_roots"}
    built = sorted(callee for _, callee in calls["oracle.py"] if callee in builders)
    assert not built, f"oracle.py builds a grid with {built}"


def _package_imports(tree: ast.Module) -> set[str]:
    """The `cogmac` modules that a module imports from."""
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}


@pytest.mark.parametrize("name, allowed", [
    ("channel.py", set()),
    ("region.py", {"channel"}),
    ("solver.py", {"channel"}),
    ("oracle.py", {"channel", "region"}),
])
def test_checks_import_apart_from_the_solver(name, allowed):
    # the grid oracle and the KKT check read nothing of the solver, and the
    # solver reads the grid's row cap from `channel`, not from `region`
    assert _package_imports(ast.parse((SOURCE / name).read_text(encoding="utf-8"))) == allowed


GOLDEN = SOURCE.parent.parent / "tests" / "golden"
# the bundled scenarios and the scenarios among the goldens, whose names
# have no "-": every one has K <= 3, below the solver's array form
SOLVE_SCENARIOS = sorted((SOURCE.parent.parent / "scenarios").glob("*.json")) + sorted(
    path for path in GOLDEN.glob("*.json") if "-" not in path.name
)


@pytest.mark.parametrize("scenario", SOLVE_SCENARIOS, ids=[p.name for p in SOLVE_SCENARIOS])
def test_solve_process_imports_no_numpy(scenario):
    """A `cogmac solve` process below the array form never imports numpy:
    `python -X importtime` lists every module imported, and none is numpy
    or one of its submodules."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cogmac", "solve", "--scenario", str(scenario)],
        capture_output=True,
        text=True,
    )
    report = json.loads(proc.stdout)
    assert len(report["gamma_star"]) <= 3
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if "|" in line]
    assert "cogmac.solver" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def test_power_split_imports_no_numpy():
    """A split given as a list or a tuple is read and checked in Python
    floats, whatever its entries: a fresh interpreter that builds one has
    still not imported numpy."""
    code = (
        "import sys\n"
        "from cogmac import PowerSplit\n"
        "for gamma in [(0.5, 0.25), [0, 1], ['0.5']]:\n"
        "    PowerSplit(gamma)\n"
        "    assert 'numpy' not in sys.modules, gamma\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
