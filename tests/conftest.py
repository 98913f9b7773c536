"""Shared fixtures: the worked-example source and small pipeline helpers."""

from __future__ import annotations

import subprocess
import sys

import pytest

from fmtderive.ioflow import analyze
from fmtderive.lexer import FIXED_FORM, tokenize
from fmtderive.symbols import build_tables
from fmtderive.syntax import attach_formats, parse

# The OD-time model fragment: a PARAMETER-sized double loop reading a
# list-directed matrix file, then a single loop writing five formatted
# columns.  Lines 14-17 (FORMAT 501, its CONTINUE, CLOSE, END) complete the
# truncated original, which ends at the WRITE.
MODEL_SOURCE = """\
      PARAMETER (N=136)
      DOUBLE PRECISION D(N,N)
      DOUBLE PRECISION BEMP(N),POP(N),SEMP(N)
      INTEGER I,J,OZONE(N),DZONE(N)
      OPEN (2, FILE='ODTIME.PRN', STATUS='OLD')
      DO 10 I=1,N
      DO 10 J=1,N
      READ (2,*) OZONE(I), DZONE(J), D(I,J)
   10 CONTINUE
      CLOSE(2)
      OPEN(12,FILE='Basic.TXT')
      DO 500 I=1,N
      WRITE(12,501) I,OZONE(I),BEMP(I),POP(I),SEMP(I)
  501 FORMAT(1X,2(1X,i4),3(1X,f12.6))
  500 CONTINUE
      CLOSE(12)
      END
"""

# Arithmetic, a block IF with I/O in both arms' reach, and a GOTO: nothing
# here may abort the parse, and the WRITE inside the IF must come out
# flagged conditional.
TOLERANT_SOURCE = """\
      PROGRAM MIXED
      INTEGER I, K
      REAL X
      X = 0.0
      K = 3
      OPEN(7, FILE='LOG.TXT')
      DO 20 I = 1, 4
          X = X * 1.5 + 2.0
          IF (X .GT. 2.0) THEN
              WRITE(7, 100) I
          ELSE
              X = X + 1.0
          ENDIF
          IF (X .LT. 0.5) GOTO 30
   20 CONTINUE
   30 WRITE(7, 100) I
  100 FORMAT(1X,I6)
      CLOSE(7)
      END
"""


def run_pipeline(source: str, dialect: str = FIXED_FORM, default_loop_count: int = 1):
    """tokenize -> parse -> tables -> events for a source string."""
    program = parse(tokenize(source, dialect))
    tables = build_tables(program)
    formats = attach_formats(program)
    events = analyze(program, tables, formats, default_loop_count)
    return program, tables, events


def run_limited(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run Python code in a fresh interpreter held to 1 GiB of address space
    and 10 seconds, so that a format unrolled without bound fails the test
    instead of exhausting the host.  args become sys.argv[1:]."""
    limit = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    return subprocess.run(
        [sys.executable, "-c", limit + code, *args],
        capture_output=True, text=True, timeout=10,
    )


@pytest.fixture
def model_source() -> str:
    return MODEL_SOURCE


@pytest.fixture
def tolerant_source() -> str:
    return TOLERANT_SOURCE


@pytest.fixture
def model_program(model_source):
    return parse(tokenize(model_source, FIXED_FORM))


# ---------------------------------------------------------------------------
# Acceptance reporting: one pass/fail line per criterion at the end of a run.
# ---------------------------------------------------------------------------

_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid and report.when == "call":
        name = report.nodeid.split("::")[-1]
        _acceptance_results[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_results):
        outcome = _acceptance_results[name].upper()
        terminalreporter.write_line(f"{name}: {outcome}")
