"""Golden artifacts: the demo pipeline must reproduce tests/golden/demo/
byte for byte. Manifests (absolute paths, versions) and timings.csv
(wall clock) are not part of the golden set.

Regenerate after a change that is meant to alter the bits:
    python scripts/demo_pipeline.py
    then copy the primary artifacts of runs/demo/ over tests/golden/demo/
"""

import importlib.util
from pathlib import Path

from swarmcast.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden" / "demo"
VOLATILE = {"manifest.json", "timings.csv"}


def _demo_commands(out: Path):
    spec = importlib.util.spec_from_file_location(
        "demo_pipeline", REPO_ROOT / "scripts" / "demo_pipeline.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.demo_commands(out)


def _primary(root: Path) -> set[str]:
    return {
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.name not in VOLATILE
    }


def test_demo_pipeline_reproduces_golden_artifacts(tmp_path):
    for argv in _demo_commands(tmp_path):
        assert main(argv) == 0, argv

    expected = _primary(GOLDEN)
    assert len(expected) == 8
    assert _primary(tmp_path) == expected
    differing = [
        name for name in sorted(expected)
        if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()
    ]
    assert not differing, f"artifacts differ from tests/golden/demo: {differing}"
