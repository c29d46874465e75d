"""The scripts under scripts/ still run against the package and reproduce
what the repository commits or asserts."""

import runpy
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = REPO_ROOT / "scripts"


def test_make_sample_data_writes_the_committed_csv(tmp_path):
    # the script writes to data/ beside its own scripts/ directory
    (tmp_path / "scripts").mkdir()
    script = shutil.copy(SCRIPTS / "make_sample_data.py", tmp_path / "scripts")
    subprocess.run([sys.executable, script], check=True, capture_output=True)
    written = tmp_path / "data" / "sample_daily_cases.csv"
    assert written.read_bytes() == (REPO_ROOT / "data" / "sample_daily_cases.csv").read_bytes()


def test_pilot_convergence_clears_both_gates(capsys):
    runpy.run_path(str(SCRIPTS / "pilot_convergence.py"))["main"]()
    gates = [line for line in capsys.readouterr().out.splitlines() if "(gate >=" in line]
    assert [line.split()[0] for line in gates] == ["sphere", "rastrigin"]
    assert all(line.endswith(" ok") for line in gates), gates
