import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_from_canned_runs():
    """The pair summary reads each run's last output line, and counts a pair
    as won when the change is better in the metric's own direction; it
    starts no benchmark."""
    bench = _bench_pairs()

    def line(rss, ops, failed=0):
        metrics = {"peak_rss_mb": {"value": rss, "unit": "MB"}, "ops_per_s": {"value": ops, "unit": "1/s"}}
        doc = {"correct": True, "attempted": 207, "failed": failed, "metrics": metrics}
        return "setup done\n" + json.dumps(doc) + "\n"

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
