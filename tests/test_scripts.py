import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def test_reference_experiments_write_every_output(tmp_path):
    """Each file the script writes is the stdout of a command that
    `tests/test_golden.py` pins, so it equals that golden byte for byte."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_reference_experiments.py"),
         "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    stems = [path.stem for path in sorted((ROOT / "scenarios").glob("*.json"))]
    assert len(stems) == 3
    expected = {f"{stem}.validate.json": f"validate-{stem}.json" for stem in stems}
    expected |= {f"{stem}.sweep.csv": f"sweep-{stem}.csv" for stem in stems}
    expected |= {f"{stem}.region.csv": f"region-{stem}.csv" for stem in stems if stem.startswith("k2")}
    assert len(expected) == 8
    assert {path.name for path in tmp_path.iterdir()} == set(expected)
    for name, golden in expected.items():
        assert (tmp_path / name).read_bytes() == (GOLDEN / golden).read_bytes(), name


def test_reference_writer_needs_a_record_name():
    """With no record named, `tests/test_reference.py` exits non-zero and
    leaves both records as they are."""
    records = [GOLDEN / "solver-reference.json", GOLDEN / "solver-suites.json"]
    before = [path.read_bytes() for path in records]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "test_reference.py")], capture_output=True, text=True, env=env,
    )
    assert proc.returncode != 0
    assert "solver-suites.json" in proc.stderr
    assert [path.read_bytes() for path in records] == before


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned(rss, ops, failed=0):
    """A run's summary with two metrics."""
    metrics = {"peak_rss_mb": {"value": rss, "unit": "MB"}, "ops_per_s": {"value": ops, "unit": "1/s"}}
    return {"correct": True, "attempted": 207, "failed": failed, "metrics": metrics}


def test_bench_pairs_summary_from_canned_runs():
    """The pair summary reads each run's last output line, and counts a pair
    as won when the change is better in the metric's own direction; it
    starts no benchmark."""
    bench = _bench_pairs()

    def line(rss, ops, failed=0):
        return "setup done\n" + json.dumps(_canned(rss, ops, failed)) + "\n"

    parents = [line(40.7, 400.0), line(40.5, 410.0), line(40.9, 420.0), line(40.7, 405.0)]
    changes = [line(39.3, 400.0), line(39.1, 405.0), line(39.5, 430.0), line(39.3, 406.0, failed=1)]
    pairs = [(bench.parse_run(p), bench.parse_run(c)) for p, c in zip(parents, changes)]
    metrics = [{"name": "peak_rss_mb", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]
    header, columns, rss, ops = bench.summarize(pairs, metrics)
    assert header == "4 pairs; correct: parent 4, change 4; failed operations: parent 0 of 828, change 1 of 828"
    assert columns.split() == ["metric", "parent", "median", "(q1-q3)", "change", "median", "(q1-q3)", "change", "won", "gain"]
    # medians 40.7 and 39.3, all 4 pairs won, gap 1.4 against a parent spread of 0.1
    assert rss.split() == ["peak_rss_mb", "40.7", "(40.65-40.75)", "39.3", "(39.25-39.35)", "-3.4%", "4/4", "yes"]
    # a tie in the first pair counts for neither side: 2 of 4 is no gain
    assert ops.split() == ["ops_per_s", "407.5", "(403.8-412.5)", "405.5", "(403.8-412)", "-0.5%", "2/4", "no"]


def test_bench_pairs_quartiles_of_one_run():
    assert _bench_pairs().quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_bench_pairs_series_from_canned_runs():
    """`compare` holds the figures that the summary prints, per metric."""
    bench = _bench_pairs()
    parents = [_canned(40.7, 400.0), _canned(40.5, 410.0), _canned(40.9, 420.0), _canned(40.7, 405.0)]
    changes = [_canned(39.3, 400.0), _canned(39.1, 405.0), _canned(39.5, 430.0), _canned(39.3, 406.0, 1)]
    pairs = list(zip(parents, changes))
    metrics = [{"name": "peak_rss_mb", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]
    series = bench.compare(pairs, metrics)
    assert series["pairs"] == 4
    assert series["correct"] == {"parent": 4, "change": 4}
    assert series["failed"] == {"parent": 0, "change": 1}
    assert series["attempted"] == {"parent": 828, "change": 828}
    rss, ops = series["metrics"]["peak_rss_mb"], series["metrics"]["ops_per_s"]
    assert rss["better"] == "lower" and rss["won"] == 4 and rss["gain"] is True
    assert rss["parent"] == {"median": 40.7, "q1": pytest.approx(40.65), "q3": pytest.approx(40.75)}
    assert rss["change"]["median"] == pytest.approx(39.3)
    assert ops["won"] == 2 and ops["gain"] is False
    assert ops["change"] == {"median": 405.5, "q1": 403.75, "q3": 412.0}


def test_bench_pairs_json_adds_each_series(tmp_path, monkeypatch):
    """`--json PATH` adds one entry per series to the list in PATH, with the
    workload, seed, host and per-metric figures.  The runs are canned: every
    end-to-end metric reads 10 plus the seed in the parent and 9 plus the
    seed in the change."""
    bench = _bench_pairs()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["end_to_end"]]

    def run(checkout, workload, seed, seconds):
        value = (10.0 if checkout.name == "parent" else 9.0) + seed
        metrics = {name: {"value": value, "unit": ""} for name in names}
        return {"correct": True, "attempted": 40, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench, "run", run)
    path = tmp_path / "BENCH.json"
    for seed in ("1", "2"):
        argv = ["parent", "change", "--workload", "solve-uniform", "--seed", seed, "--pairs", "2"]
        assert bench.main([*argv, "--json", str(path)]) == 0
    first, second = json.loads(path.read_text())
    assert (first["workload"], first["seed"], first["pairs"]) == ("solve-uniform", 1, 2)
    assert second["seed"] == 2
    assert first["nproc"] >= 1 and first["python"] == platform.python_version()
    assert first["numpy"] == np.__version__
    assert list(first["metrics"]) == names
    rss = first["metrics"]["peak_rss_mb"]
    assert rss["parent"] == {"median": 11.0, "q1": 11.0, "q3": 11.0}
    assert rss["change"]["median"] == 10.0 and rss["won"] == 2 and rss["gain"] is True
    ops = second["metrics"]["ops_per_s"]
    assert ops["change"]["median"] == 11.0 and ops["won"] == 0 and ops["gain"] is False


def test_process_times_one_round(tmp_path):
    """One round of the cheapest command, `python -c pass`, on this tree:
    the report names it with its quartiles, in milliseconds."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "process_times.py"), "--rounds", "1", "--only", "pass"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["rounds"] == 1 and report["nproc"] >= 1
    (tree,) = report["trees"].values()
    (figures,) = tree.values()
    assert list(tree) == ["pass"]
    assert 0.0 < figures["q1_ms"] == figures["median_ms"] == figures["q3_ms"]


def test_process_times_reports_the_cached_variant(tmp_path):
    """One round of a `cogmac` command reports it without and with the
    bytecode cache, side by side; the cache's temporary directory is gone
    once the script exits."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "process_times.py"), "--rounds", "1", "--only", "solve-k1_unit"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    (tree,) = json.loads(proc.stdout)["trees"].values()
    assert list(tree) == ["solve-k1_unit", "solve-k1_unit+pyc"]
    for figures in tree.values():
        assert 0.0 < figures["q1_ms"] == figures["median_ms"] == figures["q3_ms"]
    assert not list(tmp_path.iterdir())


def _cost_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # it imports bench_pairs
    return importlib.import_module("cost_counts")


@pytest.mark.parametrize("k, numpy_calls", [(2, False), (60, True)])
def test_cost_counts_repeat(monkeypatch, k, numpy_calls):
    """One solve, counted twice after an untraced one, gives the same
    counts; the list form makes no numpy call, the array form some."""
    from cogmac import instance_suite, solve_max_sum_rate

    script = _cost_counts(monkeypatch)
    (ch,) = instance_suite(0, 1, sizes=(k,))
    solve_max_sum_rate(ch)
    first, second = (script.counted(ch) for _ in range(2))
    assert first == second
    assert first["bytecodes"] > 0 and first["other_c_calls"] > 0 and first["evaluations"] > 0
    assert (first["numpy_calls"] > 0) is numpy_calls


def test_cost_counts_json_adds_a_counts_section(tmp_path, monkeypatch):
    """`--json PATH` adds one entry to the list in PATH: both trees' counts
    per K, with the host.  The trees' counts are canned."""
    script = _cost_counts(monkeypatch)

    def run(checkout):
        value = 10.0 if checkout.name == "parent" else 9.0
        solves = {"3": dict.fromkeys(script.COUNTS, value)}
        return {"python": platform.python_version(), "numpy": np.__version__, "solves": solves}

    monkeypatch.setattr(script, "run", run)
    path = tmp_path / "BENCH.json"
    assert script.main(["parent", "change", "--json", str(path)]) == 0
    (entry,) = json.loads(path.read_text())
    assert entry["python"] == platform.python_version() and entry["nproc"] >= 1
    section = entry["counts"]
    assert section["draws"] == script.DRAWS
    assert section["parent"]["solves"]["3"]["bytecodes"] == 10.0
    assert section["change"]["solves"]["3"]["numpy_calls"] == 9.0
