"""The solver's results on the seeded suites, against a committed record.

tests/golden/solver-reference.json holds, per suite, each solve's status,
path evaluations, lambda* and sum rate, and on the suites of at most five
users its gamma*, each float to 12 significant digits.  A change to the
root find may move the last bits of a result, but not its status, nor may
it add an evaluation to any solve: lambda* and the rate stay within 1e-9
relative of the record, and gamma* within 1e-9 of it relative to its
largest coordinate (a coordinate far below the others, t / c_k at 1e-15,
moves with the last bits of lambda* by more than 1e-9 of itself).  The
record is the solver of the commits that CHANGES.md names, one for the
evaluations and one for the rest;
`PYTHONPATH=src python tests/test_reference.py` rewrites it from the
solver in the tree, so run it only for an intended change of results, and
say why in CHANGES.md.
"""

import json
import math
from pathlib import Path

import pytest

from cogmac import solve_max_sum_rate
from cogmac.oracle import instance_suite
from conftest import wide_instances

RECORD = Path(__file__).resolve().parent / "golden" / "solver-reference.json"
TOL = 1e-9

# name -> (instances, whether gamma* is recorded)
SUITES = {
    "k1-3": (lambda: instance_suite(1, 450), True),
    "k10-200": (lambda: instance_suite(0, 60, sizes=(10, 20, 50, 100, 200)), False),
    "wide": (wide_instances, True),
}


def _rows(name):
    """[status, evaluations, lambda*, rate, *gamma*] per solve of the suite."""
    suite, with_gamma = SUITES[name]
    rows = []
    for ch in suite():
        r = solve_max_sum_rate(ch)
        floats = [r.lambda_star, r.sum_rate] + (r.gamma_star.gamma.tolist() if with_gamma else [])
        rows.append([r.status.value, r.outer_iterations] + [float(f"{v:.12g}") for v in floats])
    return rows


def _close(got, want, scale):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= TOL * scale


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


@pytest.mark.parametrize("name", SUITES)
def test_matches_the_record(record, name):
    rows, want = _rows(name), record[name]
    assert len(rows) == len(want)
    assert [row[0] for row in rows] == [row[0] for row in want]
    for i, (got, expected) in enumerate(zip(rows, want)):
        assert len(got) == len(expected), i
        assert got[1] <= expected[1], (i, got, expected)
        assert _close(got[2], expected[2], abs(expected[2])), (i, got, expected)
        assert _close(got[3], expected[3], abs(expected[3])), (i, got, expected)
        largest = max(map(abs, expected[4:]), default=0.0)
        assert all(_close(g, e, largest) for g, e in zip(got[4:], expected[4:])), (i, got, expected)


if __name__ == "__main__":
    with RECORD.open("w") as out:
        out.write("{\n")
        for n, name in enumerate(SUITES):
            out.write(f'"{name}": [\n')
            rows = _rows(name)
            out.write(",\n".join(json.dumps(row, separators=(",", ":")) for row in rows))
            out.write("\n]" + (",\n" if n + 1 < len(SUITES) else "\n"))
        out.write("}\n")
