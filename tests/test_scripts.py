"""Each script that imports popsynth runs its own checkout's code, and
``code_lines.py`` counts what it says it counts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_module

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


SNIPPET = '''"""A module docstring,
over two lines."""

# a comment line
x = 1  # a code line with a comment


def f():
    """A function docstring."""
    return """a string that is a value,
over two lines"""
'''


def test_code_lines_counts_code_not_docstrings_comments_or_blanks(tmp_path):
    """``x = 1``, ``def f():`` and the two lines of the returned string."""
    code_lines = load_module("code_lines", "scripts/code_lines.py")
    assert code_lines.code_lines(SNIPPET) == 4
    (tmp_path / "snippet.py").write_text(SNIPPET)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["total", "4"]
