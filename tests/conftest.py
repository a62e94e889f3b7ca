"""Shared test helpers and the acceptance-summary reporter.

Acceptance tests record one line per criterion; the terminal summary
prints them all at the end of the run so the pass/fail status of every
criterion is visible in one place.
"""
from __future__ import annotations

import os

# Set before numpy is first imported: the property tests call eigvalsh on
# matrices of up to 500 rows, and a multi-threaded BLAS on a busy machine
# can take seconds per call where one thread takes milliseconds.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

_ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    _ACCEPTANCE_LINES.append((number, f"criterion {number:2d}: {status}  {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
