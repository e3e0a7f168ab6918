"""The suite's own pytest settings: a failing test is reported as a failure,
and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_FAILING_EXAMPLE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_example_leaves_the_session_running(tmp_path):
    """When an example fails, the Hypothesis plugin imports libcst to explain
    it, and libcst imports ``mypy_extensions.TypedDict``, which warns that it
    is deprecated. Turned into an error by ``error::DeprecationWarning``, that
    warning ended the session with an INTERNALERROR and no later test ran."""
    (tmp_path / "test_example.py").write_text(_FAILING_EXAMPLE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "-q", "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout
