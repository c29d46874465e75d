"""Golden artifacts: the demo pipeline must reproduce tests/golden/demo/
byte for byte. Manifests (absolute paths, versions) and timings.csv
(wall clock) are not part of the golden set.

Regenerate after a change that is meant to alter the bits, from the repo root:
    PYTHONPATH=src python scripts/demo_pipeline.py --update-golden
"""

import importlib.util
from pathlib import Path

from swarmcast.cli import VOLATILE_FILES, main

REPO_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "demo_pipeline", REPO_ROOT / "scripts" / "demo_pipeline.py"
)
demo = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(demo)
GOLDEN = demo.GOLDEN


def _primary(root: Path) -> set[str]:
    return {
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.name not in VOLATILE_FILES
    }


def test_demo_pipeline_reproduces_golden_artifacts(tmp_path):
    for argv in demo.demo_commands(tmp_path):
        assert main(argv) == 0, argv

    expected = _primary(GOLDEN)
    assert len(expected) == 8
    assert _primary(tmp_path) == expected
    differing = [
        name for name in sorted(expected)
        if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()
    ]
    assert not differing, f"artifacts differ from tests/golden/demo: {differing}"
