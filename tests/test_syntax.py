from pathlib import Path

import pytest

from fmtderive.lexer import FIXED_FORM, FREE_FORM, tokenize
from fmtderive.syntax import (
    ANONYMOUS_MAIN, CloseStmt, ContinueStmt, DeclStmt, DoStmt,
    DuplicateFormatLabel, FormatStmt, Inline, IoItem, IoStmt, Label,
    ListDirected, Literal, OpenStmt, OtherStmt, ParameterStmt, ParseError,
    BinOp, Neg, StarUnit, SymbolRef, attach_formats, canonical_text, dump_ast,
    expr_text, flatten, parse, walk,
)

from conftest import run_pipeline


def parse_src(text, dialect=FIXED_FORM):
    return parse(tokenize(text, dialect))


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", [
    ROOT / "docs" / "examples" / "odtime.f", *sorted((ROOT / "tests" / "golden").glob("*.f*")),
], ids=lambda path: path.name)
def test_end_line_is_the_largest_token_line(path):
    dialect = FREE_FORM if path.suffix == ".f90" else FIXED_FORM
    tokens = tokenize(path.read_text(encoding="latin-1"), dialect)
    assert parse(tokens).end_line == max(tok.line for tok in tokens)


def test_empty_token_list_gives_anonymous_main():
    unit = parse([])
    assert unit.kind == ANONYMOUS_MAIN
    assert unit.name is None
    assert unit.statements == []


def test_shared_label_double_loop_nests():
    unit = parse_src(
        "      DO 10 I=1,N\n"
        "      DO 10 J=1,N\n"
        "      READ (2,*) OZONE(I), DZONE(J), D(I,J)\n"
        "   10 CONTINUE\n"
    )
    assert len(unit.statements) == 1
    outer = unit.statements[0]
    assert isinstance(outer, DoStmt)
    assert (outer.var, outer.start, outer.stop) == ("I", Literal(1), SymbolRef("N"))
    assert len(outer.body) == 1
    inner = outer.body[0]
    assert isinstance(inner, DoStmt)
    assert inner.var == "J"
    read, cont = inner.body
    assert isinstance(read, IoStmt) and read.direction == "READ"
    assert read.format == ListDirected()
    assert read.items == [
        IoItem("OZONE", (SymbolRef("I"),)),
        IoItem("DZONE", (SymbolRef("J"),)),
        IoItem("D", (SymbolRef("I"), SymbolRef("J"))),
    ]
    assert isinstance(cont, ContinueStmt) and cont.label == 10


def test_open_statement_fields():
    unit = parse_src("      OPEN (2, FILE='ODTIME.PRN', STATUS='OLD')")
    stmt = unit.statements[0]
    assert isinstance(stmt, OpenStmt)
    assert stmt.unit == Literal(2)
    assert stmt.file_name == "ODTIME.PRN"
    assert stmt.status == "OLD"


def test_open_with_symbolic_file_name():
    stmt = parse_src("      OPEN (9, FILE=FNAME)").statements[0]
    assert stmt.file_name is None
    assert stmt.file_symbol == "FNAME"


def test_labeled_terminal_statement_stays_inside_loop():
    unit = parse_src(
        "      DO 40 I=1,8\n"
        "   40 WRITE(6,*) I\n"
    )
    loop = unit.statements[0]
    assert isinstance(loop, DoStmt)
    assert len(loop.body) == 1
    assert isinstance(loop.body[0], IoStmt) and loop.body[0].direction == "WRITE"


def test_end_do_terminates_unlabeled_loop():
    unit = parse_src(
        "      DO I=1,3\n"
        "      WRITE(6,*) I\n"
        "      END DO\n"
    )
    loop = unit.statements[0]
    assert isinstance(loop, DoStmt)
    assert loop.label is None
    assert isinstance(loop.body[0], IoStmt) and loop.body[0].direction == "WRITE"
    assert isinstance(loop.body[1], OtherStmt)


def test_unterminated_do_raises():
    with pytest.raises(ParseError):
        parse_src("      DO 10 I=1,3\n      WRITE(6,*) I\n")


def test_do_with_step_and_arith_bounds():
    unit = parse_src("      DO 10 K=2,N*M,3\n   10 CONTINUE\n")
    loop = unit.statements[0]
    assert loop.start == Literal(2)
    assert loop.stop == BinOp("*", SymbolRef("N"), SymbolRef("M"))
    assert loop.step == Literal(3)


def test_subtraction_bound_is_a_binary_node():
    loop = parse_src("      DO 10 K=1,N-1\n   10 CONTINUE\n").statements[0]
    assert loop.stop == BinOp("-", SymbolRef("N"), Literal(1))
    _, _, events = run_pipeline(
        "      PARAMETER (N=10)\n      DO 10 K=1,N-1\n      WRITE(6,*) K\n   10 CONTINUE\n")
    assert (events[0].multiplicity.resolved, events[0].multiplicity.defaulted) == (9, False)


@pytest.mark.parametrize("text, tree", [
    ("-N+1", BinOp("+", Neg(SymbolRef("N")), Literal(1))),
    ("-N*2", Neg(BinOp("*", SymbolRef("N"), Literal(2)))),
    ("(N+1)*2", BinOp("*", BinOp("+", SymbolRef("N"), Literal(1)), Literal(2))),
    ("N-(M-1)", BinOp("-", SymbolRef("N"), BinOp("-", SymbolRef("M"), Literal(1)))),
    ("N/2/M", BinOp("/", BinOp("/", SymbolRef("N"), Literal(2)), SymbolRef("M"))),
    ("N*(-2)", BinOp("*", SymbolRef("N"), Neg(Literal(2)))),
    ("+N", SymbolRef("N")),
    ("N**2", SymbolRef("N**2")),
    ("MAX(N,2)", SymbolRef("MAX(N,2)")),
    ("N*-2", SymbolRef("N*-2")),
    ("(N", SymbolRef("(N")),
])
def test_bound_expressions_parse_with_fortran_precedence(text, tree):
    loop = parse_src(f"DO K=1,{text}\nEND DO\n", FREE_FORM).statements[0]
    assert loop.stop == tree


def test_program_header_sets_unit_name():
    unit = parse_src("      PROGRAM ODMODEL\n      END\n")
    assert unit.name == "ODMODEL"
    assert unit.kind == "PROGRAM"
    # Header and END are still present as statements.
    assert len(unit.statements) == 2


_CONDITIONAL_NEST = """\
IF (A) THEN
WRITE(6,*) X
IF (B) THEN
WRITE(6,*) X
ELSE IF (C) THEN
WRITE(6,*) X
END IF
WRITE(6,*) X
ENDIF
WRITE(6,*) X
"""


# Each source form: the statements it parses to, in walk order, as (loop
# depth, node class, conditional flag), and the unit's kind and name.
@pytest.mark.parametrize("text, shape, unit", [
    ("INTEGER FUNCTION F(X)\nSUBROUTINE S\nEND\n",
     [(0, OtherStmt, False)] * 3, ("FUNCTION", "F")),
    ("DOUBLE PRECISION FUNCTION G(X)\nEND\n",
     [(0, OtherStmt, False)] * 2, ("FUNCTION", "G")),
    ("PROGRAM P\nFUNCTION F(X)\nEND\n", [(0, OtherStmt, False)] * 3, ("PROGRAM", "P")),
    ("IF (K.GT.0) OPEN(10, FILE='A.DAT')\n", [(0, OpenStmt, False)], (ANONYMOUS_MAIN, None)),
    ("IF (K.GT.0) CLOSE(10)\n", [(0, CloseStmt, False)], (ANONYMOUS_MAIN, None)),
    ("IF (K.GT.0) GOTO 10\n", [(0, OtherStmt, False)], (ANONYMOUS_MAIN, None)),
    ("DO = 1\n", [(0, OtherStmt, False)], (ANONYMOUS_MAIN, None)),
    ("READ(1) = 3\n", [(0, OtherStmt, False)], (ANONYMOUS_MAIN, None)),
    (_CONDITIONAL_NEST,
     [(0, OtherStmt, False), (0, IoStmt, True), (0, OtherStmt, False), (0, IoStmt, True),
      (0, OtherStmt, False), (0, IoStmt, True), (0, OtherStmt, False), (0, IoStmt, True),
      (0, OtherStmt, False), (0, IoStmt, False)],
     (ANONYMOUS_MAIN, None)),
    ("DO I=1,3\nWRITE(6,*) I\n10 END DO\nWRITE(6,*) J\n",
     [(0, DoStmt, False), (1, IoStmt, False), (1, OtherStmt, False), (0, IoStmt, False)],
     (ANONYMOUS_MAIN, None)),
    # The lexer makes FORMAT, PARAMETER and DO keywords only in the forms
    # their parsers take, so these never reach a statement parser.
    ("FORMAT (I4)\n", [(0, OtherStmt, False)], (ANONYMOUS_MAIN, None)),
    ("10 IF (X) FORMAT (I4)\n", [(0, OtherStmt, False)], (ANONYMOUS_MAIN, None)),
    ("PARAMETER X\n", [(0, OtherStmt, False)], (ANONYMOUS_MAIN, None)),
    ("DO I\n", [(0, OtherStmt, False)], (ANONYMOUS_MAIN, None)),
    # F77 15.5.1: a typed FUNCTION's type may have a length.
    ("CHARACTER*8 FUNCTION NAMEOF(K)\nEND\n", [(0, OtherStmt, False)] * 2, ("FUNCTION", "NAMEOF")),
    ("CHARACTER*(*) FUNCTION F(X)\nEND\n", [(0, OtherStmt, False)] * 2, ("FUNCTION", "F")),
    # F90 R821: a comma may follow DO without a label.
    ("do, i = 1, 3\nwrite(6,*) i\nend do\n",
     [(0, DoStmt, False), (1, IoStmt, False), (1, OtherStmt, False)], (ANONYMOUS_MAIN, None)),
])
def test_statement_forms(text, shape, unit):
    program = parse_src(text, FREE_FORM)
    assert [(len(loops), type(stmt), getattr(stmt, "conditional", False))
            for stmt, loops in walk(program.statements)] == shape
    assert (program.kind, program.name) == unit


def test_parameter_statement():
    stmt = parse_src("      PARAMETER (N=136, EPS=0.5, TAG='OD')").statements[0]
    assert isinstance(stmt, ParameterStmt)
    assert stmt.assignments == [("N", 136), ("EPS", 0.5), ("TAG", "OD")]


def test_read_with_label_format():
    stmt = parse_src("      READ (3,200) A, B").statements[0]
    assert isinstance(stmt, IoStmt) and stmt.direction == "READ"
    assert stmt.format == Label(200)


def test_write_star_unit_and_inline_format():
    stmt = parse_src("      WRITE(*,'(1X,I4)') K").statements[0]
    assert isinstance(stmt, IoStmt) and stmt.direction == "WRITE"
    assert stmt.unit == StarUnit()
    assert stmt.format == Inline("1X,I4")


def test_read_star_shorthand():
    stmt = parse_src("      READ *, A, B(2)").statements[0]
    assert isinstance(stmt, IoStmt) and stmt.direction == "READ"
    assert stmt.unit == StarUnit()
    assert stmt.format == ListDirected()
    assert stmt.items == [IoItem("A"), IoItem("B", (Literal(2),))]


def test_literal_items_are_recorded():
    stmt = parse_src("      WRITE(6,*) 'TOTAL=', K").statements[0]
    assert stmt.items[0] == IoItem("'TOTAL='", (), literal=True)
    assert stmt.items[1] == IoItem("K", ())


def test_implied_do_is_rejected_with_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse_src("      READ (2,*) (A(I), I=1,N)")
    assert "implied-DO" in str(exc.value)


def test_malformed_open_raises_with_line():
    with pytest.raises(ParseError) as exc:
        parse_src("      X = 1\n      OPEN (, FILE='X')\n")
    assert exc.value.line == 2
    assert exc.value.column == 7


def test_logical_if_io_is_conditional():
    stmt = parse_src("      IF (X .GT. 0.0) WRITE(6,*) X").statements[0]
    assert isinstance(stmt, IoStmt) and stmt.direction == "WRITE"
    assert stmt.conditional


def test_block_if_marks_io_conditional():
    unit = parse_src(
        "      IF (X .GT. 0.0) THEN\n"
        "      WRITE(6,*) X\n"
        "      ENDIF\n"
        "      WRITE(6,*) Y\n"
    )
    first, second = [s for s in unit.statements if isinstance(s, IoStmt) and s.direction == "WRITE"]
    assert first.conditional
    assert not second.conditional


def test_non_format_statements_become_other(tolerant_source):
    unit = parse_src(tolerant_source)
    others = [s for s in flatten(unit.statements) if isinstance(s, OtherStmt)]
    raws = [s.raw for s in others]
    assert any("GOTO" in r for r in raws)
    assert any("=" in r for r in raws)


def test_statement_count_is_preserved(model_source, model_program):
    logical = [l for l in model_source.split("\n") if l.strip()]
    assert len(list(flatten(model_program.statements))) == len(logical)


def test_do_while_is_tolerated_as_other():
    unit = parse_src(
        "      DO WHILE (X .LT. 4)\n"
        "      X = X + 1\n"
        "      END DO\n"
    )
    assert all(isinstance(s, OtherStmt) for s in unit.statements)


def test_attach_formats_collects_labels(model_program):
    assert attach_formats(model_program) == {501: "1X,2(1X,i4),3(1X,f12.6)"}


def test_attach_formats_empty():
    assert attach_formats(parse_src("      X = 1")) == {}


def test_attach_formats_duplicate_label():
    src = (
        "  501 FORMAT(1X,I4)\n"
        "  501 FORMAT(1X,I6)\n"
    )
    with pytest.raises(DuplicateFormatLabel) as exc:
        attach_formats(parse_src(src))
    assert exc.value.label == 501


def test_format_without_label_is_not_a_format_statement():
    # FORMAT only lexes as a keyword in labeled-statement position, so an
    # unlabeled spelling falls through to OtherStmt like any identifier.
    stmt = parse_src("      FORMAT(1X,I4)").statements[0]
    assert isinstance(stmt, OtherStmt)


def test_parse_is_deterministic(model_source):
    assert parse_src(model_source) == parse_src(model_source)


@pytest.mark.parametrize("text", [
    "INTEGER I, J, OZONE(N), DZONE(N)",
    "DOUBLE PRECISION D(N, N)",
    "CHARACTER*8 NAME",
    "PARAMETER (N = 136)",
    "PARAMETER (TAG = 'OD''T')",
    "OPEN (2, FILE='ODTIME.PRN', STATUS='OLD')",
    "OPEN (9, FILE=FNAME)",
    "CLOSE (2)",
    "READ (2, *) OZONE(I), DZONE(J), D(I, J)",
    "WRITE (12, 501) I, OZONE(I), BEMP(I), POP(I), SEMP(I)",
    "WRITE (6, '(1X,I4)') K",
    "501 FORMAT (1X,2(1X,i4),3(1X,f12.6))",
])
def test_round_trip_format_relevant_statements(text):
    stmt = parse_src(text, FREE_FORM).statements[0]
    again = parse_src(canonical_text(stmt), FREE_FORM).statements[0]
    assert again == stmt


def test_round_trip_do_loop():
    src = (
        "DO 10 I=1,N\n"
        "DO 10 J=1,N\n"
        "READ (2,*) D(I,J)\n"
        "10 CONTINUE\n"
    )
    stmt = parse_src(src, FREE_FORM).statements[0]
    again = parse_src(canonical_text(stmt), FREE_FORM).statements[0]
    assert again == stmt


def test_corpus_round_trip(model_program):
    relevant = (DeclStmt, ParameterStmt, OpenStmt, CloseStmt, IoStmt, FormatStmt)
    for stmt in model_program.statements:
        if isinstance(stmt, relevant + (DoStmt,)):
            again = parse_src(canonical_text(stmt), FREE_FORM).statements[0]
            assert again == stmt


def test_bound_text_keeps_its_parentheses():
    unit = parse_src("      DO 10 I=1,(N+1)*2\n   10 CONTINUE\n")
    assert dump_ast(unit).splitlines()[1] == "  DO 10 I = 1, (N+1)*2"


def test_expr_text():
    assert expr_text(BinOp("*", SymbolRef("N"), SymbolRef("N"))) == "N*N"
    assert expr_text(Literal(7)) == "7"
    n, one = SymbolRef("N"), Literal(1)
    assert expr_text(BinOp("*", BinOp("+", n, one), Literal(2))) == "(N+1)*2"
    assert expr_text(BinOp("-", n, BinOp("+", n, one))) == "N-(N+1)"
    assert expr_text(BinOp("*", Neg(n), n)) == "(-N)*N"
    assert expr_text(Neg(Neg(n))) == "-(-N)"
    assert expr_text(BinOp("+", Neg(n), Neg(one))) == "-N+(-1)"
