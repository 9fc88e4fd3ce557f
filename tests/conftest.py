"""Suite hooks: the slow acceptance time in the summary, and a per-sample block fixture."""

import pytest


def pytest_terminal_summary(terminalreporter):
    """One line summing the setup, call and teardown time of tests marked slow.

    A session fixture is built in the setup of the first test that asks for
    it, so the training behind the slow tests is counted. Nothing is printed
    when no slow test ran.
    """
    slow = [r for reports in terminalreporter.stats.values() for r in reports
            if isinstance(r, pytest.TestReport) and "slow" in r.keywords]
    if slow:
        terminalreporter.write_line(
            f"slow acceptance: {sum(r.duration for r in slow):.1f} s "
            f"over {len({r.nodeid for r in slow})} tests")


@pytest.fixture
def per_sample_blocks(monkeypatch):
    """``tensor.BLOCK_BYTES`` at 1 byte, so that every blocked op takes one sample at a time."""
    # imported here, since tests/test_pytest_config.py runs this file in suites
    # that do not put the package on the path
    from lightavseg import tensor
    monkeypatch.setattr(tensor, "BLOCK_BYTES", 1)
