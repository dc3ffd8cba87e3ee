"""Chunked passes: the feasible grid's blocks and the sweep's multipliers
come `channel.GRID_CHUNK_ROWS` rows at a time, and the hull walk and the
CLI's CSV read `channel.FLOAT_BATCH_ROWS` rows of Python floats at a time.

Every result is the same, bit for bit (compared as float hex), at any chunk
size: one grid line per chunk, 7 rows and 64 rows against the default.  And
peak memory is set by one chunk, not by the grid or the path: the pins below
are `tracemalloc` peaks, which count the same bytes on any machine.
"""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cogmac import channel, cli, grid_search, instance_suite, region, region_boundary, solver, sweep_trajectory
from cogmac.channel import GRID_CHUNK_ROWS
from cogmac.region import EmptyGridError, feasible_grid
from conftest import extreme_fuzz, limit_fuzz

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))

# 1 is one grid line (one row of a two-user block) or one multiplier per chunk
CHUNKS = (1, 7, 64)


def _chunk(monkeypatch, rows: int) -> None:
    monkeypatch.setattr(region, "GRID_CHUNK_ROWS", rows)
    monkeypatch.setattr(solver, "GRID_CHUNK_ROWS", rows)
    monkeypatch.setattr(channel, "FLOAT_BATCH_ROWS", rows)


def _hex(values) -> list[str]:
    return [v.hex() for v in np.asarray(values, dtype=float).ravel().tolist()]


def _grid_results(ch, step: float) -> dict:
    """`feasible_grid`'s rows, `grid_search`'s count, best gamma and rate and,
    for two users, `region_boundary`'s points, as float hex, or the error
    each raised."""
    results = {}
    try:
        rows = feasible_grid(ch, step)
        results["rows"] = rows.shape, _hex(rows)
        best = grid_search(ch, step)
        results["oracle"] = best.points_evaluated, _hex(best.best_gamma.gamma), best.best_sum_rate.hex()
        if ch.num_users == 2:
            boundary = region_boundary(ch, step)
            results["hull"] = boundary.samples_used, _hex(boundary.r1), _hex(boundary.r2)
    except EmptyGridError as exc:
        results["error"] = str(exc)
    return results


def _sweep_results(ch, samples: int):
    """`sweep_trajectory`'s columns as float hex, or the error it raised."""
    try:
        traj = sweep_trajectory(ch, None, samples)
    except FloatingPointError as exc:
        return str(exc)
    return [*map(_hex, (traj.lam, traj.x, traj.gamma, traj.phi)), traj.saturated.tolist()]


def _assert_chunk_invariant(monkeypatch, instances, steps, samples):
    default = [
        ([_grid_results(ch, step) for step in steps], _sweep_results(ch, samples))
        for ch in instances
    ]
    for rows in CHUNKS:
        with monkeypatch.context() as patch:
            _chunk(patch, rows)
            for ch, expected in zip(instances, default):
                got = [_grid_results(ch, step) for step in steps], _sweep_results(ch, samples)
                assert got == expected, (rows, ch)


def test_chunk_size_changes_no_bit_on_the_seeded_suite_and_scenarios(monkeypatch):
    scenarios = [cli.load_scenario(str(path))[0] for path in SCENARIOS]
    instances = instance_suite(1, 30, sizes=(1, 2, 3)) + scenarios
    _assert_chunk_invariant(monkeypatch, instances, (0.1, 0.05), 101)


@pytest.mark.parametrize("fuzz", [extreme_fuzz, limit_fuzz])
def test_chunk_size_changes_no_bit_on_the_fuzz(monkeypatch, fuzz):
    instances = [ch for ch in fuzz() if ch.num_users <= 3]
    _assert_chunk_invariant(monkeypatch, instances, (0.05,), 41)


@pytest.mark.parametrize("rows", CHUNKS)
def test_empty_grid_raises_once_after_the_last_chunk(monkeypatch, k2_reference, rows):
    # no row of either block passes the residual test; 21 grid points a user
    ch = dataclasses.replace(k2_reference, p=[1.0, 1e308])
    monkeypatch.setattr(region, "GRID_CHUNK_ROWS", rows)
    kept = []
    with pytest.raises(EmptyGridError, match="2-user"):
        for _, keep in region._blocks(ch, 0.05):
            kept.append(np.count_nonzero(keep))
    assert kept == [0] * (2 * math.ceil(21 / rows))


@pytest.mark.parametrize("k, rows, sizes", [
    (2, 7, [7] * 3),  # a two-user block's line is one row
    (3, 64, [63, 63, 63, 63, 63, 63, 63]),  # three whole 21-row lines a chunk
    (3, 1, [21] * 21),  # one line a chunk, however short the chunk
])
def test_blocks_cut_along_the_first_free_axis(monkeypatch, k, rows, sizes):
    ch = instance_suite(1, 1, sizes=(k,))[0]
    monkeypatch.setattr(region, "GRID_CHUNK_ROWS", rows)
    chunks = [keep.size for _, keep in region._blocks(ch, 0.05)]
    assert chunks == sizes * k


def test_one_chunk_sweep_evaluates_its_grid_at_once(monkeypatch, k2_reference):
    """A sweep that fits one chunk hands `_states` a view of its whole grid
    in one pass.  A longer one takes `GRID_CHUNK_ROWS` path values
    (multipliers x K) a pass."""
    calls = []
    states = solver._states

    def spy(ch, lam):
        calls.append(lam)
        return states(ch, lam)

    monkeypatch.setattr(solver, "_states", spy)
    traj = sweep_trajectory(k2_reference, None, 201)
    assert [lam.size for lam in calls] == [201]
    assert np.shares_memory(calls[0], traj.lam)
    calls.clear()
    monkeypatch.setattr(solver, "GRID_CHUNK_ROWS", 64)
    traj = sweep_trajectory(k2_reference, None, 201)
    assert [lam.size for lam in calls] == [32] * 6 + [9]
    assert all(np.shares_memory(lam, traj.lam) for lam in calls)


@pytest.mark.parametrize("command", ["region", "sweep"])
def test_cli_writes_the_same_bytes_in_any_chunk(monkeypatch, capsys, command):
    args = [command, "--scenario", str(ROOT / "scenarios" / "k2_reference.json")]
    if command == "region":
        args += ["--grid-step", "1e-2"]
    assert cli.main(args) == 0
    expected = capsys.readouterr()
    for rows in CHUNKS:
        with monkeypatch.context() as patch:
            _chunk(patch, rows)
            assert cli.main(args) == 0
            assert capsys.readouterr() == expected, rows


def test_the_largest_benchmark_block_fits_one_chunk():
    # three users at step 1e-2
    assert GRID_CHUNK_ROWS >= 101**2


def _peak(run):
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_three_user_grid_search_peak():
    # 3.0e6 candidate rows at step 1e-3, built 65 lines (65,065 rows) at a
    # time: 6.4 MB, against 107 MB with whole blocks
    ch = instance_suite(1, 1, sizes=(3,))[0]
    result, peak = _peak(lambda: grid_search(ch, 1e-3))
    assert result.points_evaluated > 0
    assert peak < 16e6


def test_region_peak_per_feasible_row(k2_reference):
    # 80 B per kept row, where c12 is formed and where the staircase is
    # gathered; a tuple per hull vertex made it 149 B
    boundary, peak = _peak(lambda: region_boundary(k2_reference, 1e-4))
    assert boundary.samples_used == 13_225
    assert peak < 100 * boundary.samples_used


def test_sweep_peak_within_twice_its_output(k2_reference):
    # 8.4 MB of output and one chunk's temporaries: 1.96x; 6.05x without chunks
    traj, peak = _peak(lambda: sweep_trajectory(k2_reference, None, 200_000))
    output = sum(a.nbytes for a in (traj.lam, traj.x, traj.gamma, traj.phi, traj.saturated))
    assert peak < 2 * output
