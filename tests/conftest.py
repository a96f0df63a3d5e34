import contextlib
import itertools
import signal

import pytest

from indepcount import CnfFormula, parse_dimacs

CHAIN3_TEXT = "p cnf 3 2\n-1 2 0\n-2 3 0\n"
CHAIN4_TEXT = "p cnf 4 4\n1 2 0\n-2 3 0\n-3 4 0\n-1 2 0\n"


@pytest.fixture
def chain3():
    """Two-clause implication chain with 4 models."""
    return parse_dimacs(CHAIN3_TEXT)


@pytest.fixture
def chain4():
    """Four-clause chain with 2 models."""
    return parse_dimacs(CHAIN4_TEXT)


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the enclosed block once ``seconds`` of wall
    time have passed, so a test that must finish fails instead of hanging
    the run.  SIGALRM-based, so main thread only; the previous handler is
    restored on exit."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def slow_count(phi: CnfFormula) -> int:
    """Deliberately naive reference counter (dict-based, no bit tricks)."""
    total = 0
    for bits in itertools.product((False, True), repeat=phi.num_vars):
        assignment = dict(zip(phi.variables, bits))
        if all(any(assignment[abs(code)] == (code > 0) for code in c)
               for c in phi.clauses):
            total += 1
    return total


# --- acceptance reporting ----------------------------------------------------
# each acceptance test records exactly one line; the summary hook prints
# them together at the end of the run so the verdicts are easy to scan

_criterion_lines: dict[int, str] = {}


def record_criterion(num: int, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    _criterion_lines[num] = f"criterion {num}: {word} - {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criterion_lines):
        terminalreporter.write_line(_criterion_lines[num])
