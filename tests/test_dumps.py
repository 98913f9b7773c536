"""Golden tests for --dump-tokens, --dump-ast and --dump-events.

They pin the statement walker's full nesting and order: END DO loops, label-
terminated loops sharing one terminal label, a labelled DO ended by a
labelled END DO, block IF arms and FORMAT statements inside loop bodies.
The token dumps pin every token's line:col, across fixed-form continuation
lines, ragged and blank-split labels, the column-72 cut, free-form '&'
continuations and '!' or '&' inside strings, and every keyword the lexer
classifies from a statement's leading word.
The document summary lines are part of the golden, with the output
directory written as <out>.
"""

from pathlib import Path

import pytest

from fmtderive.emit import run_cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

SOURCES = {
    "odtime": (ROOT / "docs" / "examples" / "odtime.f", "fixed"),
    "nested": (GOLDEN / "nested.f90", "free"),
    "continued": (GOLDEN / "continued.f", "fixed"),
    "ampersand": (GOLDEN / "ampersand.f90", "free"),
    # `10 END DO` ends `DO 10` by its label and closes no second loop.
    "labelled_enddo": (GOLDEN / "labelled_enddo.f90", "free"),
    # Every leading-keyword form the lexer classifies, each logical IF's
    # statement included; a guarded quoted format is descriptor text.
    "keywords": (GOLDEN / "keywords.f90", "free"),
}


@pytest.mark.parametrize("dump", ["tokens", "ast", "events"])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_dump_matches_golden(name, dump, tmp_path, capsys):
    source, dialect = SOURCES[name]
    out = tmp_path / "out"
    code = run_cli([
        "parse", str(source), "--dialect", dialect, "-o", str(out), f"--dump-{dump}",
    ])
    assert code == 0
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    assert stdout == (GOLDEN / f"{name}.dump-{dump}.txt").read_text()
