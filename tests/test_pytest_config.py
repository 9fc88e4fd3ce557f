"""The repo's pytest settings and hooks: a failing property test is reported like any
other, and the summary states the slow tests' wall time."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
CONFTEST = Path(__file__).resolve().parent / "conftest.py"

FAILING_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0, "property assertion"


def test_plain_fails():
    assert False, "plain assertion"
'''


def run_pytest(tmp_path, *args):
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)


def test_failing_property_test_reports_every_failure(tmp_path):
    # on a failure hypothesis imports libcst, whose import warns; under
    # filterwarnings = error that warning used to crash the whole run
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    run = run_pytest(tmp_path, "test_failing.py")
    out = run.stdout + run.stderr
    assert run.returncode == 1, out[-3000:]
    assert "property assertion" in out and "plain assertion" in out
    assert "INTERNALERROR" not in out


SLOW_TESTS = '''
import time

import pytest


@pytest.fixture(scope="session")
def trained():
    time.sleep(0.2)


@pytest.mark.slow
def test_first_slow(trained):
    pass


@pytest.mark.slow
def test_second_slow(trained):
    pass


def test_fast():
    pass
'''


def test_summary_states_slow_acceptance_time(tmp_path):
    (tmp_path / "conftest.py").write_text(CONFTEST.read_text())
    (tmp_path / "test_timed.py").write_text(SLOW_TESTS)
    run = run_pytest(tmp_path, "test_timed.py")
    assert run.returncode == 0, run.stdout[-3000:]
    line, = [ln for ln in run.stdout.splitlines() if ln.startswith("slow acceptance:")]
    seconds, count = line.split(": ")[1].split(" s over ")
    assert float(seconds) >= 0.2 and count == "2 tests"  # the fixture's sleep counts
    run = run_pytest(tmp_path, "test_timed.py", "-m", "not slow")
    assert run.returncode == 0 and "slow acceptance" not in run.stdout
