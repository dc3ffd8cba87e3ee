"""The solver's results on the seeded suites, against committed records.

tests/golden/solver-reference.json holds, per suite, each solve's status,
path evaluations, lambda* and sum rate, and on the suites of at most five
users its gamma*, each float to 12 significant digits.  A change to the
root find may move the last bits of a result, but not its status, nor may
it add an evaluation to any solve: lambda* and the rate stay within 1e-9
relative of the record, and gamma* within 1e-9 of it relative to its
largest coordinate (a coordinate far below the others, t / c_k at 1e-15,
moves with the last bits of lambda* by more than 1e-9 of itself).  The
record is the solver of the commits that CHANGES.md names, one for the
evaluations and one for the rest.

tests/golden/solver-suites.json holds, for those suites and for the extreme
and limit fuzzes, what does not depend on the machine: the number of
solves, the total, mean and largest path evaluations, the count of each
status, the `Converged` solves that fail `kkt_check`, the
RuntimeWarnings raised while solving and checking, and a digest of every
result bit for bit (`_digest`).  Every count is compared exactly.

`PYTHONPATH=src python tests/test_reference.py NAME` rewrites the one
record named, `solver-reference.json` or `solver-suites.json`, from the
solver in the tree, and with no name writes nothing.  Run it only for an
intended change of results, and say why in CHANGES.md.
"""

import functools
import hashlib
import json
import math
import warnings
from collections import Counter
from pathlib import Path

import pytest

from cogmac import SolverStatus, kkt_check, solve_max_sum_rate
from cogmac.oracle import instance_suite
from conftest import extreme_fuzz, limit_fuzz, wide_instances

RECORD = Path(__file__).resolve().parent / "golden" / "solver-reference.json"
COUNTS = RECORD.with_name("solver-suites.json")
TOL = 1e-9

# name -> (instances, whether gamma* is recorded)
SUITES = {
    "k1-3": (lambda: instance_suite(1, 450), True),
    "k10-200": (lambda: instance_suite(0, 60, sizes=(10, 20, 50, 100, 200)), False),
    "wide": (wide_instances, True),
}
# name -> instances, for the record of counts
COUNTED = {name: suite for name, (suite, _) in SUITES.items()} | {
    "extreme": extreme_fuzz,
    "limit": limit_fuzz,
}


@functools.cache
def _solves(name):
    """The suite's solves, whether each passes `kkt_check`, and the warnings
    raised while solving and checking them, every one recorded."""
    suite = COUNTED[name]()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = [solve_max_sum_rate(ch) for ch in suite]
        passed = [kkt_check(ch, r).passed for ch, r in zip(suite, results)]
    return results, passed, caught


def _rows(name):
    """[status, evaluations, lambda*, rate, *gamma*] per solve of the suite."""
    with_gamma = SUITES[name][1]
    rows = []
    for r in _solves(name)[0]:
        floats = [r.lambda_star, r.sum_rate] + (list(r.gamma_star.gamma_floats) if with_gamma else [])
        rows.append([r.status.value, r.outer_iterations] + [float(f"{v:.12g}") for v in floats])
    return rows


def _digest(name):
    """SHA-256 of the suite's solves in suite order, one line each: its
    status, path evaluations, lambda*, rate, residual and gamma* as
    float.hex, so that a change of any last bit, or of a NaN, shows."""
    lines = []
    for r in _solves(name)[0]:
        floats = [r.lambda_star, r.sum_rate, r.residual, *r.gamma_star.gamma_floats]
        lines.append(" ".join([r.status.value, str(r.outer_iterations), *map(float.hex, floats)]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _counts(name):
    """The suite's record of counts."""
    results, passed, caught = _solves(name)
    evaluations = [r.outer_iterations for r in results]
    converged = [r.status is SolverStatus.CONVERGED for r in results]
    return {
        "solves": len(results),
        "evaluations": {
            "total": sum(evaluations),
            "mean": round(sum(evaluations) / len(evaluations), 2),
            "max": max(evaluations),
        },
        "statuses": dict(sorted(Counter(r.status.value for r in results).items())),
        "kkt_failures_among_converged": sum(c and not ok for c, ok in zip(converged, passed)),
        "runtime_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
        "digest": _digest(name),
    }


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


@pytest.mark.parametrize("name", COUNTED)
def test_counts_match_the_record(name):
    assert _counts(name) == json.loads(COUNTS.read_text())[name]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Rewrite one record from the solver in the tree.")
    parser.add_argument("name", choices=[RECORD.name, COUNTS.name])
    if parser.parse_args().name == COUNTS.name:
        COUNTS.write_text(json.dumps({name: _counts(name) for name in COUNTED}, indent=2) + "\n")
    else:
        with RECORD.open("w") as out:
            out.write("{\n")
            for n, name in enumerate(SUITES):
                out.write(f'"{name}": [\n')
                rows = _rows(name)
                out.write(",\n".join(json.dumps(row, separators=(",", ":")) for row in rows))
                out.write("\n]" + (",\n" if n + 1 < len(SUITES) else "\n"))
            out.write("}\n")
