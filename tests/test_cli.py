import ast
import errno
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import pytest

from fmtderive.emit import run_cli

from conftest import MODEL_SOURCE, TOLERANT_SOURCE, run_limited

REPO = Path(__file__).resolve().parent.parent


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


def test_descriptor_subcommand_logical_general_and_record_break(capsys):
    assert run_cli(["descriptor", "L2,G12.5,I4/A2"]) == 0
    table = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in table[1:3]] == [["logical", "2"], ["general-real", "12"]]
    assert table[4] == "-- new record --"
    assert table[5].split()[:2] == ["character", "2"]


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


def test_dump_symbols_reports_implicit_none(tmp_path, capsys):
    src = tmp_path / "imp.f"
    src.write_text("      IMPLICIT NONE\n      INTEGER K\n      WRITE(6,*) K\n")
    assert run_cli(["parse", str(src), "-o", str(tmp_path / "out"), "--dump-symbols"]) == 0
    assert "implicit none: yes" in capsys.readouterr().out.splitlines()


def test_logical_and_general_descriptors_carry_their_types(tmp_path, capsys):
    # F77 13.5.10 and 13.5.9.2.3: Lw carries LOGICAL, Gw.d a real value.
    src = tmp_path / "l.f"
    src.write_text("      LOGICAL L\n      REAL X\n      WRITE(6,10) L, X\n   10 FORMAT(L2, G12.5)\n")
    assert run_cli(["parse", str(src), "-o", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "stdout.format.xml").read_text() == (
        '<dataformat file="&lt;stdout&gt;" direction="output">\n'
        '  <group number="1" separator="explicit">\n'
        '    <logical format="l2"/>\n'
        '    <real format="g12.5"/>\n'
        '  </group>\n'
        '</dataformat>\n')


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


def test_closed_stdout_stops_quietly(tmp_path):
    # Enough dump lines to overflow the pipe once the reader has gone.
    src = tmp_path / "big.f"
    src.write_text("      WRITE(6,*) I, J, K, L\n" * 5000)
    out = tmp_path / "out"
    with subprocess.Popen(
        [sys.executable, "-m", "fmtderive", "parse", "--dump-tokens", str(src), "-o", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"1:7 read-write-keyword(WRITE) WRITE\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


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
    ("zero.f",
     "      OPEN(3, FILE='Z.TXT')\n      WRITE(3,100) K\n  100 FORMAT(0(I4))\n",
     ":2", "position 0: repeat count must be at least 1"),
    ("dp.f",
     "      PARAMETER (N=1)\n      PARAMETER (N=2)\n",
     ":2", "conflicting declarations for N"),
    ("cont.f",
     "     1X = 1\n",
     ":1:6", "continuation with nothing to continue"),
], ids=["format", "duplicate-label", "conflict", "clash", "undeclared", "missing-label", "lex",
        "parse", "unterminated-do", "zero-count", "parameter-twice", "lone-continuation"])
def test_errors_name_file_line_and_column(tmp_path, capsys, name, source, location, message):
    path = tmp_path / name
    path.write_text(source)
    assert run_cli(["parse", str(path), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"{path}{location}: error: {message}\n"


# Each parse error a source can reach, as the column of the statement's first
# token and the message.  Statements the lexer does not classify as the
# statement their first word names never reach a statement parser; see
# test_syntax.test_statement_forms.
@pytest.mark.parametrize("source, column, message", [
    ("integer*", 1, "malformed INTEGER length specifier"),
    ("integer 3", 1, "malformed declaration entity"),
    ("integer k(3", 1, "unbalanced dimensions for k"),
    ("integer k*", 1, "malformed length for k"),
    ("integer k l", 1, "unexpected tokens after declaration of k"),
    ("integer k()", 1, "missing expression"),
    ("parameter (n=1", 1, "unbalanced parentheses in PARAMETER"),
    ("parameter (n)", 1, "malformed PARAMETER assignment"),
    ("open (10", 1, "malformed OPEN statement"),
    ("open (file='a')", 1, "OPEN without a unit"),
    ("open (10) x", 1, "unexpected tokens after OPEN"),
    ("open (10, file=1+2)", 1, "malformed FILE= specifier"),
    ("open (10, status=x)", 1, "malformed STATUS= specifier"),
    ("close (status='x')", 1, "CLOSE without a unit"),
    ("read (5, 0) k", 1, "format label must be positive"),
    ("read (5, 1+2) k", 1, "unsupported format specifier"),
    ("write (6,*) ,", 1, "empty I/O list item"),
    ("write (6,*) k l", 1, "malformed I/O item k"),
    ("write (6,*) k(1", 1, "malformed I/O item k"),
    ("write (6,*) 1+2", 1, "malformed I/O item list"),
    ("10 format (i4) x", 4, "malformed FORMAT statement"),
    ("do i=1", 1, "DO statement needs start and stop bounds"),
])
def test_each_parse_error_names_its_statement(tmp_path, capsys, source, column, message):
    path = tmp_path / "t.f90"
    path.write_text(source + "\n")
    assert run_cli(["parse", str(path), "--dialect", "free", "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"{path}:1:{column}: error: {message}\n"


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
    assert "  N = \u00b2 (unresolved): integer" in result.stdout
    doc = (out / "stdout.format.xml").read_text()
    assert '<note kind="unresolved-constant" line="1">constant N = &#178; cannot be resolved' in doc
    assert "is undeclared" not in doc
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


def test_unwritable_document_is_reported_and_the_run_goes_on(model_file, tmp_path, capsys):
    # A document name longer than common file systems allow (255 bytes), then one that fits.
    long_name = "L" * 300
    src = tmp_path / "long.f90"
    src.write_text(
        f"open(8, file='{long_name}')\nwrite(8,*) k\n"
        "open(9, file='SHORT.DAT')\nwrite(9,*) k\nend\n")
    out = tmp_path / "out"
    argv = ["parse", "--dialect", "free", str(src), str(model_file), "-o", str(out)]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    target = out / f"{long_name}.format.xml"
    assert captured.err == (
        f"{src}: error: cannot write {target}: {os.strerror(errno.ENAMETOOLONG)}\n")
    assert long_name not in captured.out
    # The source's other document and the later source's documents are written.
    assert sorted(p.name for p in out.iterdir()) == [
        "Basic.TXT.format.xml", "ODTIME.PRN.format.xml", "SHORT.DAT.format.xml",
    ]


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


_HUGE_REPEAT_SOURCE = "      OPEN(10, FILE='OUT.DAT')\n      WRITE(10,20) {}\n   20 FORMAT({})\n"
_TIMED_CLI = (
    "import sys, time\n"
    "from fmtderive.emit import run_cli\n"
    "started = time.perf_counter()\n"
    "status = run_cli(sys.argv[1:])\n"
    "print(status, time.perf_counter() - started)\n"
)


@pytest.mark.parametrize("text", ["I4,1000000000(1X)", "I4,1000000000(1X,'A')"])
def test_huge_separator_repeat_costs_no_time(tmp_path, text):
    src = tmp_path / "huge.f"
    src.write_text(_HUGE_REPEAT_SOURCE.format("I, J, K", text))
    out = tmp_path / "out"
    result = run_limited(_TIMED_CLI, "parse", str(src), "-o", str(out))
    assert result.stderr == ""
    status, seconds = result.stdout.split()[-2:]
    assert status == "0"
    assert float(seconds) < 1.0
    fields = minidom.parse(str(out / "OUT.DAT.format.xml")).getElementsByTagName("integer")
    assert [f.getAttribute("format") for f in fields] == ["i4", "*", "*"]


def test_separator_cap_fails_cleanly_under_a_memory_limit(tmp_path):
    src = tmp_path / "cap.f"
    src.write_text(_HUGE_REPEAT_SOURCE.format("I, J", "I4,1000000000(1X),I4"))
    result = run_limited(
        "from fmtderive.emit import main\nmain()\n", "parse", str(src), "-o", str(tmp_path / "out"))
    assert (result.returncode, result.stderr) == (
        1, f"{src}:2: error: 1000000000 separators in one transfer exceed the limit of 1000000\n")


# ---------------------------------------------------------------------------
# Metamorphic checks: two spellings of one statement give the same output.
# ---------------------------------------------------------------------------


def _parse_outputs(tmp_path, capsys, source, *flags):
    """The documents, by name, and the stdout of one `parse` run on a fixed-form
    source; every run writes to the same place, so the summary lines agree."""
    src, out = tmp_path / "model.f", tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    src.write_text(source)
    assert run_cli(["parse", str(src), "-o", str(out), *flags]) == 0
    docs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return docs, capsys.readouterr().out


_UNLABELLED_DO = """\
      OPEN(3, FILE='OUT.DAT')
      DO I = 1, 3
        WRITE(3,100) I
      END DO
  100 FORMAT(I4)
      END
"""


@pytest.mark.parametrize("source", [MODEL_SOURCE, TOLERANT_SOURCE, _UNLABELLED_DO])
def test_comma_after_do_label_changes_nothing(tmp_path, capsys, source):
    # F77 11.10 and F90 R821: DO [s] [,] i = e1, e2 [, e3].
    comma, loops = re.subn(r"\bDO (\d+ )?(?=[A-Z]\w* ?=)", r"DO \1, ", source)
    assert loops > 0
    flags = ("--dump-ast", "--dump-events")
    assert _parse_outputs(tmp_path, capsys, comma, *flags) == _parse_outputs(tmp_path, capsys, source, *flags)


@pytest.mark.parametrize("parenthesised, plain", [
    ("CHARACTER*(8) NAME, TAG*(4), CODE(3)*(2)", "CHARACTER*8 NAME, TAG*4, CODE(3)*2"),
    ("CHARACTER*(*) NAME, TAG*(N), CODE(3)*(2*N)", "CHARACTER NAME, TAG, CODE(3)"),
])
def test_parenthesised_character_length_changes_nothing(tmp_path, capsys, parenthesised, plain):
    # F77 8.4.2: a length is n, (n) or (*); one that is not an integer literal records none.
    body = (
        "      PARAMETER (N=2)\n"
        "      {}\n"
        "      OPEN(3, FILE='NAMES.TXT')\n"
        "      WRITE(3,100) NAME, TAG, CODE\n"
        "  100 FORMAT(A8,1X,A4,3A2)\n"
        "      READ(3,*) NAME\n"
        "      END\n"
    )
    flags = ("--dump-symbols", "--dump-ast")
    expected = _parse_outputs(tmp_path, capsys, body.format(plain), *flags)
    assert _parse_outputs(tmp_path, capsys, body.format(parenthesised), *flags) == expected


# ---------------------------------------------------------------------------
# The benchmark's stage seam
# ---------------------------------------------------------------------------


def test_bench_trace_spans_every_stage(tmp_path):
    """bench/child.py wraps the stage functions emit.process_source calls; a
    renamed or skipped stage shows here as a missing span."""
    child = ast.parse((REPO / "bench" / "child.py").read_text(encoding="utf-8"))
    stages = next(ast.literal_eval(node.value) for node in child.body if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "STAGES")
    sources = tmp_path / "sources.txt"
    sources.write_text(str(REPO / "docs" / "examples" / "odtime.f"))
    result = subprocess.run(
        [sys.executable, "-I", str(REPO / "bench" / "child.py"), "trace",
         str(REPO), str(sources), str(tmp_path / "out"), "fixed"],
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    report = json.loads(result.stdout)
    assert report["status"] == 0
    spans = report["spans"]
    names = [name for name, *_ in spans]
    assert names.count("emit.process_source") == 1
    source = names.index("emit.process_source")
    for stage in stages.values():
        # Each stage runs, and only inside the source's pipeline.
        parents = {parent for name, parent, *_ in spans if name == stage}
        assert parents == {source}, stage
