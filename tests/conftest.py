"""Shared pytest plumbing: the acceptance-criteria summary block, and a
session that fails when any test was skipped."""

import pytest

CRITERION_LINES = {}


def record_criterion(number, ok, detail):
    state = "PASS" if ok else "FAIL"
    CRITERION_LINES[number] = f"criterion {number:2d}: {state}  {detail}"


def _skipped(config):
    """Reports of the tests (or collected modules) skipped this session."""
    reporter = config.pluginmanager.get_plugin("terminalreporter")
    return reporter.stats.get("skipped", []) if reporter else []


def pytest_terminal_summary(terminalreporter):
    skipped = _skipped(terminalreporter.config)
    if skipped:
        terminalreporter.section("skipped tests fail the run")
        for report in skipped:
            terminalreporter.write_line(report.nodeid)
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERION_LINES):
        terminalreporter.write_line(CRITERION_LINES[number])


def pytest_sessionfinish(session):
    """No test may be silently skipped: a skip turns a passing session
    into a failing one."""
    if _skipped(session.config) and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
