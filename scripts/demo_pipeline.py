#!/usr/bin/env python3
"""End-to-end walkthrough on the bundled sample data.

Ingests data/sample_daily_cases.csv, tunes hyperparameters for the
confirmed-cases series at a small search budget, trains the winning
configuration, scores it on the held-out tail and forecasts a week
ahead. Everything lands under runs/demo/; tests/test_golden.py checks
the primary artifacts against tests/golden/demo/.

Run from the repo root:  python scripts/demo_pipeline.py
With --update-golden the run replaces tests/golden/demo/ with its
primary artifacts (everything but the VOLATILE_FILES), for a change
that is meant to alter their bits, and prints each golden file it
changed, added or removed.
"""

import argparse
import hashlib
import shutil
import sys
from pathlib import Path

from swarmcast.cli import VOLATILE_FILES, main

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "runs" / "demo"
GOLDEN = ROOT / "tests" / "golden" / "demo"


def demo_commands(out: Path) -> list[list[str]]:
    """The demo's five CLI calls, writing under ``out``."""
    data = ROOT / "data" / "sample_daily_cases.csv"
    ingest_dir = out / "ingest"
    tune_dir = out / "tune"
    train_dir = out / "train"
    return [
        ["ingest", "--data", str(data), "--region", "sample",
         "--output-dir", str(ingest_dir)],
        ["tune", "--data-dir", str(ingest_dir), "--variable", "confirmed",
         "--algorithm", "rs-gwo-woa", "--population", "5", "--iterations", "4",
         "--fitness-epochs", "10", "--seed", "7", "--output-dir", str(tune_dir)],
        ["train", "--data-dir", str(ingest_dir), "--variable", "confirmed",
         "--from-tuning", str(tune_dir / "report.json"), "--epochs", "100",
         "--seed", "7", "--output-dir", str(train_dir)],
        ["evaluate", "--model", str(train_dir / "model.json"),
         "--data-dir", str(ingest_dir), "--variable", "confirmed",
         "--output-dir", str(out / "evaluate")],
        ["forecast", "--model", str(train_dir / "model.json"),
         "--data-dir", str(ingest_dir), "--variable", "confirmed",
         "--steps", "7", "--output-dir", str(out / "forecast")],
    ]


def main_demo(out: Path = OUT):
    for argv in demo_commands(out):
        print(f"\n$ swarmcast {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            sys.exit(code)
    print(f"\nall demo artifacts under {out}")


def file_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, by its path relative to it."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.rglob("*") if path.is_file()}


def update_golden():
    before = file_digests(GOLDEN)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    main_demo(GOLDEN)
    for path in sorted(GOLDEN.rglob("*")):
        if path.name in VOLATILE_FILES:
            path.unlink()
    after = file_digests(GOLDEN)
    print(f"\ngolden artifacts rewritten under {GOLDEN.relative_to(ROOT)}")
    moved = sorted(name for name in before.keys() | after.keys()
                   if before.get(name) != after.get(name))
    for name in moved:
        status = "added" if name not in before else "removed" if name not in after else "changed"
        print(f"  {status}: {name}")
    if not moved:
        print("  no golden file changed")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update-golden", action="store_true",
                        help="write the primary artifacts into tests/golden/demo/")
    if parser.parse_args().update_golden:
        update_golden()
    else:
        main_demo()
