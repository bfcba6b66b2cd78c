"""Each script that imports popsynth runs its own checkout's code."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_desk_pipeline.py", "run_census_chain.py", "seed_sweep.py"])
def test_script_imports_popsynth_from_its_own_checkout(tmp_path, script):
    """A decoy ``popsynth`` first on ``PYTHONPATH`` raises on import, so
    ``--help`` exits 0 only if the script puts its checkout's ``src``
    ahead of it (and finds popsynth without an install)."""
    decoy = tmp_path / "popsynth"
    decoy.mkdir()
    (decoy / "__init__.py").write_text("raise ImportError('the decoy popsynth')\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
