"""The repo's pytest settings: a failing property test is reported like any other."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0, "property assertion"


def test_plain_fails():
    assert False, "plain assertion"
'''


def test_failing_property_test_reports_every_failure(tmp_path):
    # on a failure hypothesis imports libcst, whose import warns; under
    # filterwarnings = error that warning used to crash the whole run
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out[-3000:]
    assert "property assertion" in out and "plain assertion" in out
    assert "INTERNALERROR" not in out
