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
