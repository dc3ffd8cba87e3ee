"""The CLI's standard output on the bundled scenarios, byte for byte.

Each file under tests/golden/ is the stdout of one command below.  Stdout is
the contract for deterministic output, so a refactor must leave every byte
as it is; regenerate a file only for an intended change of output, and say
why in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
GOLDEN = HERE / "golden"

CASES = [
    (f"{stem}-{scenario}.{ext}", (command, "--scenario", str(SCENARIOS / f"{scenario}.json"), *extra))
    for scenario in ("k1_unit", "k2_reference", "k2_no_interference")
    for stem, command, extra, ext in (
        ("solve-oracle", "solve", ("--oracle",), "json"),
        ("sweep", "sweep", (), "csv"),
        ("validate", "validate", (), "json"),
    )
] + [
    (
        f"region-{scenario}.csv",
        ("region", "--scenario", str(SCENARIOS / f"{scenario}.json"), "--grid-step", "1e-3"),
    )
    for scenario in ("k2_reference", "k2_no_interference")
]


@pytest.mark.parametrize("golden, args", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(golden, args):
    proc = subprocess.run(
        [sys.executable, "-m", "cogmac", *args], capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / golden).read_bytes()
