import os
import subprocess
import sys
from xml.dom import minidom

import pytest

from fmtderive.emit import run_cli

from conftest import MODEL_SOURCE


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.f"
    path.write_text(MODEL_SOURCE)
    return path


def test_parse_writes_one_doc_per_file(model_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["parse", str(model_file), "-o", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "Basic.TXT.format.xml", "ODTIME.PRN.format.xml",
    ]
    stdout = capsys.readouterr().out
    assert "ODTIME.PRN: input, 1 group(s)" in stdout
    assert "Basic.TXT: output, 1 group(s)" in stdout


def test_runs_are_byte_identical(model_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["parse", str(model_file), "-o", str(out1)])
    run_cli(["parse", str(model_file), "-o", str(out2)])
    for name in ("ODTIME.PRN.format.xml", "Basic.TXT.format.xml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_missing_sources_is_usage_error(capsys):
    assert run_cli(["parse"]) == 2
    assert run_cli([]) == 2


def test_malformed_open_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.f"
    bad.write_text("      X = 1\n      OPEN (, FILE='X')\n")
    assert run_cli(["parse", str(bad), "-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "bad.f" in err
    assert "bad.f:2:7:" in err


def test_unreadable_input_exits_one(tmp_path, capsys):
    assert run_cli(["parse", str(tmp_path / "nope.f"), "-o", str(tmp_path)]) == 1
    assert "nope.f" in capsys.readouterr().err


def test_lex_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "lex.f"
    bad.write_text("      OPEN (2, FILE='UNTERMINATED\n")
    assert run_cli(["parse", str(bad), "-o", str(tmp_path)]) == 1
    assert "unterminated" in capsys.readouterr().err


def test_good_and_bad_sources_still_exit_one(model_file, tmp_path):
    bad = tmp_path / "bad.f"
    bad.write_text("      OPEN (, FILE='X')\n")
    assert run_cli(["parse", str(model_file), str(bad), "-o", str(tmp_path)]) == 1
    assert (tmp_path / "ODTIME.PRN.format.xml").exists()


def test_descriptor_subcommand(capsys):
    assert run_cli(["descriptor", "1X,2(1X,i4),3(1X,f12.6)"]) == 0
    out = capsys.readouterr().out
    assert "record width: 50" in out
    assert "space, space, integer with a width of 4" in out


def test_descriptor_subcommand_rejects_garbage(capsys):
    assert run_cli(["descriptor", "q9"]) == 1
    assert "error" in capsys.readouterr().err


def test_dump_flags(model_file, tmp_path, capsys):
    code = run_cli([
        "parse", str(model_file), "-o", str(tmp_path),
        "--dump-tokens", "--dump-ast", "--dump-symbols", "--dump-events",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "read-write-keyword(READ)" in out          # tokens
    assert "IoStmt: READ (2, *)" in out               # ast
    assert "N = 136" in out                           # symbols
    assert "line 8: READ ODTIME.PRN x18496" in out    # events
    assert "1:7 control-keyword(PARAMETER) PARAMETER" in out


def test_free_form_dialect_flag(tmp_path):
    src = tmp_path / "free.f90"
    src.write_text(
        "open(3, file='F.TXT')\n"
        "write(3,*) x  ! comment\n"
        "close(3)\n"
    )
    out = tmp_path / "out"
    assert run_cli(["parse", str(src), "--dialect", "free", "-o", str(out)]) == 0
    assert (out / "F.TXT.format.xml").exists()


def test_default_loop_count_flag(tmp_path):
    src = tmp_path / "var.f"
    src.write_text(
        "      OPEN(8,FILE='VAR.TXT')\n"
        "      DO 10 I=1,M\n"
        "      WRITE(8,*) I\n"
        "   10 CONTINUE\n"
        "      CLOSE(8)\n"
    )
    out = tmp_path / "out"
    assert run_cli(["parse", str(src), "-o", str(out), "--default-loop-count", "9"]) == 0
    text = (out / "VAR.TXT.format.xml").read_text()
    assert 'number="M" resolved="9" resolution="default"' in text


def test_stdout_pseudo_file_doc_name(tmp_path):
    src = tmp_path / "console.f"
    src.write_text("      WRITE(6,*) X\n")
    out = tmp_path / "out"
    assert run_cli(["parse", str(src), "-o", str(out)]) == 0
    assert (out / "stdout.format.xml").exists()


def test_module_entry_point(model_file, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "fmtderive", "parse", str(model_file), "-o", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "o" / "Basic.TXT.format.xml").exists()


@pytest.mark.parametrize("name, source, location, message", [
    ("q.f",
     "      OPEN(3, FILE='Q.TXT')\n      WRITE(3,100) X\n  100 FORMAT(Q4)\n",
     ":2", "position 0: unknown edit descriptor 'Q'"),
    ("dup.f",
     "      WRITE(6,100) X\n  100 FORMAT(I4)\n  100 FORMAT(F8.2)\n",
     ":3", "duplicate FORMAT label 100"),
    ("conflict.f",
     "      INTEGER K\n      REAL K\n",
     ":2", "conflicting declarations for K"),
    ("clash.f",
     "      PARAMETER (N=3)\n      INTEGER N(4)\n",
     ":2", "N is used as both a variable and a constant"),
    ("undeclared.f",
     "      IMPLICIT NONE\n      INTEGER I\n      WRITE(6,*) I, Q\n",
     ":3", "Q is not declared and IMPLICIT NONE is in force"),
    ("missing.f",
     "      X = 1\n      WRITE(6,900) X\n",
     ":2", "FORMAT label 900 is never defined"),
    ("lex.f",
     "      OPEN (2, FILE='UNTERMINATED\n",
     ":1:21", "unterminated string literal"),
    ("implied.f",
     "      X = 1\n      WRITE(6,*) (A(I), I=1,3)\n",
     ":2:7", "implied-DO loops in I/O item lists are not supported"),
    ("undo.f",
     "      X = 1\n   20 DO 10 I=1,3\n      WRITE(6,*) I\n",
     ":2:7", "unterminated DO loop"),
], ids=["format", "duplicate-label", "conflict", "clash", "undeclared", "missing-label", "lex",
        "parse", "unterminated-do"])
def test_errors_name_file_line_and_column(tmp_path, capsys, name, source, location, message):
    path = tmp_path / name
    path.write_text(source)
    assert run_cli(["parse", str(path), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"{path}{location}: error: {message}\n"


def _run_module(args, encoding: str):
    env = dict(os.environ, PYTHONIOENCODING=encoding)
    return subprocess.run(
        [sys.executable, "-m", "fmtderive", *args],
        capture_output=True, text=True, encoding=encoding, env=env,
    )


def test_non_ascii_digits_lex_as_punctuation(tmp_path):
    # Superscript digits pass str.isdigit but are not FORTRAN digits.
    fixed = tmp_path / "sup.f"
    fixed.write_bytes("      PARAMETER (N=\u00b2)\n      WRITE(6,*) N\n".encode("latin-1"))
    free = tmp_path / "sup.f90"
    free.write_bytes("\u00b2 X = 1\nwrite(*,*) x\n".encode("latin-1"))
    out = tmp_path / "out"
    result = _run_module(["parse", str(fixed), "-o", str(out), "--dump-symbols"], "utf-8")
    assert (result.returncode, result.stderr) == (0, "")
    assert "unresolved-constant at line 1: constant N = \u00b2 cannot be resolved" in result.stdout
    result = _run_module(["parse", str(free), "--dialect", "free", "-o", str(out),
                          "--dump-tokens"], "utf-8")
    assert (result.returncode, result.stderr) == (0, "")
    assert "1:1 punctuation(OTHER) \u00b2\n1:3 identifier X\n" in result.stdout


def test_non_ascii_digit_in_a_format_is_an_error(tmp_path):
    src = tmp_path / "sup.f"
    src.write_bytes("      WRITE(6,100) K\n  100 FORMAT(\u00b2I4)\n".encode("latin-1"))
    result = _run_module(["parse", str(src), "-o", str(tmp_path / "out")], "utf-8")
    assert (result.returncode, result.stderr) == (
        1, f"{src}:1: error: position 0: unknown edit descriptor '\u00b2'\n")
    result = _run_module(["descriptor", "I\u00b2"], "utf-8")
    assert (result.returncode, result.stderr) == (
        1, "error: position 0: I descriptor needs a width\n")


def test_summary_lines_survive_an_ascii_stdout(tmp_path):
    cafe = tmp_path / "cafe.f"
    cafe.write_bytes("      OPEN(3, FILE='CAF\u00c9.DAT')\n      WRITE(3,*) X\n".encode("latin-1"))
    second = tmp_path / "second.f"
    second.write_text("      WRITE(6,*) Y\n")
    out = tmp_path / "out"
    result = _run_module(["parse", str(cafe), str(second), "-o", str(out)], "ascii")
    assert (result.returncode, result.stderr) == (0, "")
    assert "CAF\\xc9.DAT: output, 1 group(s)" in result.stdout
    assert (out / "CAF\u00c9.DAT.format.xml").exists()
    assert (out / "stdout.format.xml").exists()


def test_negative_default_loop_count_is_usage_error(tmp_path, capsys):
    src = tmp_path / "var.f"
    src.write_text("      DO 10 I=1,M\n      WRITE(6,*) I\n   10 CONTINUE\n")
    out = tmp_path / "out"
    assert run_cli(["parse", str(src), "-o", str(out), "--default-loop-count", "-3"]) == 2
    assert "--default-loop-count" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(["parse", str(src), "-o", str(out), "--default-loop-count", "0"]) == 0
    assert 'number="M" resolved="0"' in (out / "stdout.format.xml").read_text()


def test_latin1_source_gives_ascii_xml(tmp_path):
    src = tmp_path / "cafe.f"
    src.write_bytes(
        "C     Résumé of the café model\n"
        "      OPEN(3, FILE='CAFÉ.DAT')\n"
        "      WRITE(3,*) X  ! née\n"
        "      CLOSE(3)\n".encode("latin-1"))
    out = tmp_path / "out"
    assert run_cli(["parse", str(src), "-o", str(out)]) == 0
    raw = (out / "CAFÉ.DAT.format.xml").read_bytes()
    assert raw.isascii()
    assert b'file="CAF&#201;.DAT"' in raw
    assert minidom.parseString(raw).documentElement.getAttribute("file") == "CAFÉ.DAT"
