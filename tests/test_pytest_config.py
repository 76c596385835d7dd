"""The suite's pytest configuration: one failing test must not stop the run."""

import subprocess
import sys
from pathlib import Path

SAMPLE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_leaves_the_others_running(tmp_path):
    """Hypothesis warns while it reports a failure; under "error" that warning alone stopped the run."""
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    config = Path(__file__).parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr, result.stdout
    assert result.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), result.stdout
