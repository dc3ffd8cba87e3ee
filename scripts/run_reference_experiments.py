#!/usr/bin/env python3
"""Reproduce the bundled reference experiments.

Writes, for each scenario in scenarios/:
  <name>.validate.json -- solver report, grid-oracle comparison and KKT
                          verdict (K <= 3)
  <name>.region.csv    -- two-user region boundary (K = 2 only)
  <name>.sweep.csv     -- multiplier trajectory

Usage: python3 scripts/run_reference_experiments.py [--outdir results]
"""

import argparse
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--grid-step", type=float, default=1e-3)
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for scenario in sorted((ROOT / "scenarios").glob("*.json")):
        stem = scenario.stem
        print(f"== {stem}")
        run(
            "validate", "--scenario", str(scenario),
            "--grid-step", str(args.grid_step),
            "--out", str(outdir / f"{stem}.validate.json"),
        )
        run(
            "sweep", "--scenario", str(scenario),
            "--out", str(outdir / f"{stem}.sweep.csv"),
        )
        if stem.startswith("k2"):
            run(
                "region", "--scenario", str(scenario),
                "--grid-step", str(args.grid_step),
                "--out", str(outdir / f"{stem}.region.csv"),
            )
    print(f"wrote results to {outdir}/")


def run(*cli_args):
    subprocess.run(
        [sys.executable, "-m", "cogmac", *cli_args], check=True
    )


if __name__ == "__main__":
    main()
