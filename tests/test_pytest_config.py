"""The repository's pytest configuration reports a failing Hypothesis test.

``filterwarnings = ["error"]`` turns every warning into an error, including
one that Hypothesis's failure report itself can raise; pytest then stops
with INTERNALERROR, and neither that failure nor any later test is reported.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_MODULE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_failing_given_test_is_reported_normally(tmp_path):
    (tmp_path / "test_failing_given.py").write_text(FAILING_MODULE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert result.returncode == 1
