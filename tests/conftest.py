import pytest

from bernbvp import SolveOptions, example, solve

_criterion_lines = []


def record_criterion(line):
    """Collect a pass line for the acceptance summary (printed at session end)."""
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(f"[PASS] {line}")
    failed = terminalreporter.stats.get("failed", [])
    acceptance_failures = [r for r in failed if "test_acceptance" in r.nodeid]
    for r in acceptance_failures:
        terminalreporter.write_line(f"[FAIL] {r.nodeid}")


@pytest.fixture(scope="session")
def benchmark_sweep():
    """One solve to degree 20 per built-in example."""
    out = {}
    for ex_id in range(1, 6):
        ex = example(ex_id)
        out[ex_id] = (ex, solve(ex.problem, SolveOptions(degree=20)))
    return out
