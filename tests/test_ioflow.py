import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmtderive import ioflow
from fmtderive.fmtengine import DataEdit, PositionX
from fmtderive.ioflow import (
    MissingFormatLabel, Multiplicity, bind_units, loop_multiplicity, trip_count,
)
from fmtderive.lexer import FIXED_FORM, tokenize
from fmtderive.symbols import (
    DOUBLE_PRECISION, INTEGER, REAL, SymbolTables, build_tables, character,
)
from fmtderive.syntax import (
    DoStmt, IoStmt, Label, ListDirected, Literal, SymbolRef, expr_text,
    flatten, parse,
)

from conftest import run_pipeline


def simulate_loops(bounds: list[tuple[int, int, int]]) -> int:
    """Brute-force oracle: run the nest and count innermost executions."""
    count = 0

    def run(level: int):
        nonlocal count
        if level == len(bounds):
            count += 1
            return
        start, stop, step = bounds[level]
        i = start
        while (step > 0 and i <= stop) or (step < 0 and i >= stop):
            run(level + 1)
            i += step

    run(0)
    return count


# ---------------------------------------------------------------------------
# bind_units
# ---------------------------------------------------------------------------


def test_model_unit_bindings(model_program):
    tables = build_tables(model_program)
    bindings = bind_units(model_program, tables)
    assert len(bindings) == 2
    first, second = bindings
    assert (first.unit, first.file_name, first.status) == (2, "ODTIME.PRN", "OLD")
    assert (first.opened_at, first.closed_at) == (5, 10)
    assert (second.unit, second.file_name, second.status) == (12, "Basic.TXT", None)
    assert (second.opened_at, second.closed_at) == (11, 16)


def test_unclosed_binding_runs_to_end_of_program():
    src = (
        "      OPEN(12,FILE='Basic.TXT')\n"
        "      WRITE(12,*) K\n"
        "      END\n"
    )
    program = parse(tokenize(src, FIXED_FORM))
    binding = bind_units(program, build_tables(program))[0]
    assert binding.opened_at == 1
    assert binding.closed_at == program.end_line == 3


def test_unit_reopen_gives_non_overlapping_ranges():
    src = (
        "      OPEN(3,FILE='A.TXT')\n"
        "      READ(3,*) X\n"
        "      CLOSE(3)\n"
        "      OPEN(3,FILE='B.TXT')\n"
        "      READ(3,*) Y\n"
        "      CLOSE(3)\n"
    )
    program, tables, events = run_pipeline(src)
    bindings = bind_units(program, tables)
    assert [(b.file_name, b.opened_at, b.closed_at) for b in bindings] == [
        ("A.TXT", 1, 3), ("B.TXT", 4, 6),
    ]
    for a, b in zip(bindings, bindings[1:]):
        if a.unit == b.unit:
            assert a.closed_at < b.opened_at
    assert [e.binding.file_name for e in events] == ["A.TXT", "B.TXT"]


def test_symbolic_file_name_binding():
    src = "      OPEN(9,FILE=FNAME)\n      WRITE(9,*) X\n"
    program, tables, events = run_pipeline(src)
    binding = events[0].binding
    assert binding.file_name == "<unit-9>"
    assert any(d.kind == "symbolic-file-name" for d in binding.diagnostics)


def test_character_constant_file_name_resolves():
    src = (
        "      CHARACTER*9 FNAME\n"
        "      PARAMETER (FNAME='GRID.DAT')\n"
        "      OPEN(9,FILE=FNAME)\n"
        "      WRITE(9,*) X\n"
    )
    _, _, events = run_pipeline(src)
    assert events[0].binding.file_name == "GRID.DAT"


def test_stdout_and_stdin_defaults():
    src = (
        "      WRITE(6,*) X\n"
        "      READ(5,*) Y\n"
        "      WRITE(*,*) Z\n"
    )
    _, _, events = run_pipeline(src)
    assert [e.binding.file_name for e in events] == ["<stdout>", "<stdin>", "<stdout>"]


def test_unknown_unit_gets_placeholder_and_diagnostic():
    _, _, events = run_pipeline("      WRITE(44,*) X\n")
    assert events[0].binding.file_name == "<unit-44>"
    assert any(d.kind == "unknown-unit" for d in events[0].diagnostics)


def test_reopen_without_close_truncates_previous_range():
    src = (
        "      OPEN(3,FILE='A.TXT')\n"
        "      READ(3,*) X\n"
        "      OPEN(3,FILE='B.TXT')\n"
        "      READ(3,*) Y\n"
    )
    program, tables, events = run_pipeline(src)
    bindings = bind_units(program, tables)
    assert [(b.file_name, b.opened_at, b.closed_at) for b in bindings] == [
        ("A.TXT", 1, 3), ("B.TXT", 3, 4),
    ]
    assert [e.binding.file_name for e in events] == ["A.TXT", "B.TXT"]


def test_read_star_goes_to_stdin():
    _, _, events = run_pipeline("      READ *, A\n")
    assert events[0].binding.file_name == "<stdin>"
    assert events[0].direction == "READ"


def test_format_spanning_continuation_lines():
    src = (
        "      OPEN(12,FILE='B.TXT')\n"
        "      WRITE(12,501) I,J\n"
        "  501 FORMAT(1X,i4,\n"
        "     &1X,i6)\n"
        "      CLOSE(12)\n"
    )
    _, _, events = run_pipeline(src)
    assert [i.descriptor for i in events[0].items] == [DataEdit("I", 4), DataEdit("I", 6)]


def test_literal_items_take_the_type_of_their_constant():
    # F77 4.5: a D exponent makes a constant DOUBLE PRECISION, and a doubled
    # quote in a character constant is one character.
    _, _, events = run_pipeline("      WRITE(6,*) 1D0, .5d-3, 1.5E2, 2., 3, 'it''s', \"a\"\"b\"\n")
    assert [i.data_type for i in events[0].items] == [
        DOUBLE_PRECISION, DOUBLE_PRECISION, REAL, REAL, INTEGER, character(4), character(3)]


# ---------------------------------------------------------------------------
# loop_multiplicity
# ---------------------------------------------------------------------------


def _do(var, start, stop, step=None):
    return DoStmt(None, var, start, stop, step, [])


def _nest(path, tables, default_count=1):
    return loop_multiplicity([trip_count(do, tables, default_count) for do in path])


def test_double_loop_multiplicity(model_program):
    tables = build_tables(model_program)
    path = (
        _do("I", Literal(1), SymbolRef("N")),
        _do("J", Literal(1), SymbolRef("N")),
    )
    mult = _nest(path, tables)
    assert expr_text(mult.count) == "N*N"
    assert mult.resolved == 18496
    assert not mult.defaulted


def test_no_loops_multiplicity():
    mult = loop_multiplicity([])
    assert mult == Multiplicity(Literal(1), 1)


def test_unresolved_bound_uses_default_and_flags():
    path = (_do("I", Literal(1), SymbolRef("M")),)
    mult = _nest(path, SymbolTables(), default_count=1)
    assert expr_text(mult.count) == "M"
    assert mult.resolved == 1
    assert mult.defaulted
    assert _nest(path, SymbolTables(), default_count=7).resolved == 7


def test_step_loop_trip_count():
    path = (_do("I", Literal(1), Literal(10), Literal(3)),)
    mult = _nest(path, SymbolTables())
    assert mult.resolved == simulate_loops([(1, 10, 3)]) == 4
    assert expr_text(mult.count) == "(10-1+3)/3"


def test_offset_loop_symbolic_text():
    path = (_do("I", Literal(2), SymbolRef("N")),)
    tables = SymbolTables()
    mult = _nest(path, tables, default_count=5)
    assert expr_text(mult.count) == "N-2+1"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_model_read_event(model_source):
    _, _, events = run_pipeline(model_source)
    read = events[0]
    assert read.direction == "READ"
    assert read.binding.file_name == "ODTIME.PRN"
    assert read.format == ListDirected()
    assert [(i.name, i.data_type, i.descriptor) for i in read.items] == [
        ("OZONE", INTEGER, None),
        ("DZONE", INTEGER, None),
        ("D", DOUBLE_PRECISION, None),
    ]
    assert read.multiplicity.resolved == 18496
    assert expr_text(read.multiplicity.count) == "N*N"
    assert read.source_line == 8


def test_model_write_event(model_source):
    _, _, events = run_pipeline(model_source)
    write = events[1]
    assert write.direction == "WRITE"
    assert write.binding.file_name == "Basic.TXT"
    assert write.format == Label(501)
    assert [(i.name, i.data_type, i.descriptor) for i in write.items] == [
        ("I", INTEGER, DataEdit("I", 4)),
        ("OZONE", INTEGER, DataEdit("I", 4)),
        ("BEMP", DOUBLE_PRECISION, DataEdit("F", 12, 6)),
        ("POP", DOUBLE_PRECISION, DataEdit("F", 12, 6)),
        ("SEMP", DOUBLE_PRECISION, DataEdit("F", 12, 6)),
    ]
    assert write.items[0].separators == (PositionX(1), PositionX(1))
    assert all(i.separators == (PositionX(1),) for i in write.items[1:])
    assert write.multiplicity.resolved == 136
    assert write.source_line == 13


def test_event_count_matches_statement_count(model_source, tolerant_source):
    for src in (model_source, tolerant_source):
        program, _, events = run_pipeline(src)
        io_statements = [
            s for s in flatten(program.statements)
            if isinstance(s, IoStmt)
        ]
        assert len(events) == len(io_statements)


def test_program_without_io_has_no_events():
    _, _, events = run_pipeline("      X = 1\n      END\n")
    assert events == []


def test_missing_format_label_raises():
    with pytest.raises(MissingFormatLabel) as exc:
        run_pipeline("      WRITE(6,900) X\n")
    assert exc.value.label == 900
    assert exc.value.line == 1


def test_conditional_io_is_flagged(tolerant_source):
    _, _, events = run_pipeline(tolerant_source)
    assert [e.multiplicity.conditional for e in events] == [True, False]


def test_reversion_note_when_items_outnumber_descriptors():
    src = (
        "      WRITE(6,100) I, J, K\n"
        "  100 FORMAT(1X,I4)\n"
    )
    _, _, events = run_pipeline(src)
    event = events[0]
    assert [i.descriptor for i in event.items] == [DataEdit("I", 4)] * 3
    assert any(d.kind == "descriptor-arity" for d in event.diagnostics)


@pytest.mark.parametrize("fmt, items, unpaired", [
    ("1X", "K", 1),
    ("I4,2(1X)", "I, J", 1),
    ("'HEAD',I4,2(' TAIL')", "I, J, K", 2),
])
def test_format_without_data_descriptor_for_an_item_is_named(fmt, items, unpaired):
    # F77 13.3: a format needs a data edit descriptor for every list item.
    _, _, events = run_pipeline(f"      WRITE(6,100) {items}\n  100 FORMAT({fmt})\n")
    event = events[0]
    assert [i.descriptor for i in event.items][-unpaired:] == [None] * unpaired
    assert [d.message for d in event.diagnostics if d.kind == "descriptor-arity"] == [
        f"the format has no data edit descriptor for {unpaired} of {len(event.items)} items"]


def test_each_format_text_is_parsed_once(monkeypatch):
    texts = []

    def counting(text, notes=None):
        texts.append(text)
        return parse(text, notes)

    parse = ioflow.parse_descriptors
    monkeypatch.setattr(ioflow, "parse_descriptors", counting)
    source = "      OPEN(3, FILE='A.TXT')\n" + "      WRITE(3,100) K\n" * 5 + "  100 FORMAT(BN,I4)\n"
    _, _, events = run_pipeline(source)
    assert len(texts) == 1
    note = "control descriptor BN has no layout effect and was skipped"
    assert [[d.message for d in e.diagnostics if d.kind == "unsupported-descriptor"]
            for e in events] == [[note]] * 5


def test_type_descriptor_mismatch_is_diagnosed():
    src = (
        "      REAL X\n"
        "      WRITE(6,100) X\n"
        "  100 FORMAT(I4)\n"
    )
    _, _, events = run_pipeline(src)
    assert any(d.kind == "type-descriptor-mismatch" for d in events[0].diagnostics)


def test_default_loop_count_option():
    src = (
        "      DO 10 I=1,M\n"
        "      WRITE(6,*) I\n"
        "   10 CONTINUE\n"
    )
    _, _, events = run_pipeline(src, default_loop_count=4)
    mult = events[0].multiplicity
    assert expr_text(mult.count) == "M"
    assert mult.resolved == 4
    assert mult.defaulted
    assert any(d.kind == "default-loop-count" for d in events[0].diagnostics)


def test_empty_item_list_is_diagnosed():
    _, _, events = run_pipeline("      WRITE(6,*)\n")
    assert events[0].items == ()
    assert any(d.kind == "empty-item-list" for d in events[0].diagnostics)


# ---------------------------------------------------------------------------
# Multiplicity property: pipeline vs brute-force simulator
# ---------------------------------------------------------------------------

# A bound is a literal (-4..5), or a PARAMETER P spelled P, P-c, P/c, -P or
# (P+c)*d; the step is a nonzero literal.  Stops on the wrong side of their
# start give zero-trip loops.
_bounds = st.tuples(
    st.sampled_from(["literal", "name", "minus", "div", "neg", "scaled"]),
    st.integers(0, 9),  # P
    st.integers(1, 3),  # c
    st.integers(1, 2),  # d
)
loop_specs = st.lists(
    st.tuples(_bounds, _bounds, st.sampled_from([-3, -2, -1, 1, 2, 3])),
    min_size=0, max_size=3,
)


def spell_bound(bound, name: str) -> tuple[str, str | None, int]:
    """A bound's source text, the PARAMETER it needs (or None) and its
    value, worked out here with Python integers (P >= 0 and c > 0, so // is
    FORTRAN's truncating division)."""
    spelling, p, c, d = bound
    if spelling == "literal":
        return str(p - 4), None, p - 4
    text, value = {
        "name": (name, p),
        "minus": (f"{name}-{c}", p - c),
        "div": (f"{name}/{c}", p // c),
        "neg": (f"-{name}", -p),
        "scaled": (f"({name}+{c})*{d}", (p + c) * d),
    }[spelling]
    return text, f"      PARAMETER ({name}={p})", value


def build_loop_source(specs, shared_label: bool) -> tuple[str, list[tuple[int, int, int]]]:
    lines = []
    bounds = []
    heads = []
    for idx, (start, stop, step) in enumerate(specs):
        start_text, start_param, first = spell_bound(start, f"NA{idx}")
        stop_text, stop_param, last = spell_bound(stop, f"NB{idx}")
        lines += [p for p in (start_param, stop_param) if p is not None]
        label = 10 if shared_label else 10 * (idx + 1)
        heads.append(f"      DO {label} {'IJK'[idx]}={start_text},{stop_text},{step}")
        bounds.append((first, last, step))
    lines.append("      OPEN(9,FILE='OUT.TXT')")
    lines += heads
    lines.append("      WRITE(9,*) I")
    if shared_label:
        if specs:
            lines.append("   10 CONTINUE")
    else:
        for idx in range(len(specs) - 1, -1, -1):
            lines.append(f"   {10 * (idx + 1)} CONTINUE")
    lines.append("      CLOSE(9)")
    lines.append("      END")
    return "\n".join(lines) + "\n", bounds


@given(specs=loop_specs, shared=st.booleans())
@settings(max_examples=60, deadline=None)
def test_multiplicity_matches_loop_simulator(specs, shared):
    src, bounds = build_loop_source(specs, shared)
    _, _, events = run_pipeline(src)
    assert len(events) == 1
    mult = events[0].multiplicity
    assert not mult.defaulted
    assert mult.resolved == simulate_loops(bounds)


def test_parameter_spelled_bounds_resolve():
    src = (
        "      PARAMETER (N=10)\n"
        "      OPEN(9,FILE='OUT.TXT')\n"
        "      DO 10 I=N,1,-1\n      WRITE(9,*) I\n   10 CONTINUE\n"
        "      DO 20 I=1,N-1\n      WRITE(9,*) I\n   20 CONTINUE\n"
        "      DO 30 I=1,N/2\n      WRITE(9,*) I\n   30 CONTINUE\n"
        "      DO 40 I=1,0,2\n      WRITE(9,*) I\n   40 CONTINUE\n"
        "      DO 50 I=1,(N+1)*2\n      WRITE(9,*) I\n   50 CONTINUE\n"
        "      DO 60 I=1,N,0\n      WRITE(9,*) I\n   60 CONTINUE\n"
    )
    _, _, events = run_pipeline(src)
    assert [(e.multiplicity.resolved, e.multiplicity.defaulted) for e in events] == [
        (10, False), (9, False), (5, False), (0, False), (22, False), (1, True)]
    assert [expr_text(e.multiplicity.count) for e in events] == [
        "(1-N+(-1))/(-1)", "N-1", "N/2", "(0-1+2)/2", "(N+1)*2", "(N-1+0)/0"]
    assert [any(d.kind == "default-loop-count" for d in e.diagnostics) for e in events] == [
        False] * 5 + [True]


def test_unresolved_constant_reaches_the_event():
    src = (
        "      PARAMETER (M=Q+1)\n"
        "      OPEN(9,FILE='OUT.TXT')\n"
        "      WRITE(9,*) M\n"
        "      DO 10 I=1,M\n      WRITE(9,*) I\n   10 CONTINUE\n"
    )
    _, _, events = run_pipeline(src)
    note = ("unresolved-constant", "constant M = Q+1 cannot be resolved", 1)
    for event in events:
        found = [(d.kind, d.message, d.line) for d in event.diagnostics]
        assert note in found
        assert not any(kind == "implicitly-typed" and "M " in message for kind, message, _ in found)


# ---------------------------------------------------------------------------
# Unit binding against a brute-force scan
# ---------------------------------------------------------------------------

_unit_numbers = st.sampled_from([5, 6, 7, 8])
_unit_ops = st.one_of(
    st.tuples(st.just("OPEN"), _unit_numbers, st.integers(0, 3)),
    st.tuples(st.just("CLOSE"), _unit_numbers),
    st.tuples(st.sampled_from(["READ", "WRITE"]), _unit_numbers),
)
_binding_programs = st.lists(
    st.recursive(
        st.one_of(_unit_ops, st.tuples(st.just("IF"), _unit_ops)),
        lambda inner: st.tuples(st.just("DO"), st.lists(inner, max_size=4)),
        max_leaves=12,
    ),
    max_size=12,
)


def build_binding_source(ops) -> tuple[str, list[tuple[int, str, int, str | None]]]:
    """Fixed-form source for nested ops, plus (line, verb, unit, file) for
    every OPEN, CLOSE, READ and WRITE it contains, in source order."""
    lines: list[str] = []
    flat: list[tuple[int, str, int, str | None]] = []
    labels = iter(range(10, 10000, 10))

    def render(op, prefix=""):
        verb = op[0]
        if verb == "DO":
            label = next(labels)
            lines.append(f"      DO {label} I=1,2")
            for inner in op[1]:
                render(inner)
            lines.append(f"{label:5d} CONTINUE")
        elif verb == "IF":
            render(op[1], "IF (X .GT. 0.0) ")
        else:
            unit, file_name = op[1], None
            if verb == "OPEN":
                file_name = f"F{op[2]}.DAT"
                text = f"OPEN({unit}, FILE='{file_name}')"
            elif verb == "CLOSE":
                text = f"CLOSE({unit})"
            else:
                text = f"{verb}({unit},*) X"
            lines.append(f"      {prefix}{text}")
            flat.append((len(lines), verb, unit, file_name))

    for op in ops:
        render(op)
    lines.append("      END")
    return "\n".join(lines) + "\n", flat


def latest_open(flat, line: int, verb: str, unit: int) -> tuple[str, int]:
    """Oracle: the file of the unit's latest OPEN before this line that no
    CLOSE has ended since, with the OPEN's line; else stdin/stdout or a
    <unit-K> placeholder, opened at line 0."""
    live = None
    for at, other_verb, other_unit, file_name in flat:
        if at < line and other_unit == unit:
            if other_verb == "OPEN":
                live = (file_name, at)
            elif other_verb == "CLOSE":
                live = None
    if live is not None:
        return live
    if unit == 5 and verb == "READ":
        return "<stdin>", 0
    if unit == 6 and verb == "WRITE":
        return "<stdout>", 0
    return f"<unit-{unit}>", 0


@given(ops=_binding_programs)
@settings(max_examples=150, deadline=None)
def test_unit_binding_matches_brute_force_scan(ops):
    src, flat = build_binding_source(ops)
    _, _, events = run_pipeline(src)
    transfers = [entry for entry in flat if entry[1] in ("READ", "WRITE")]
    assert len(events) == len(transfers)
    for event, (line, verb, unit, _) in zip(events, transfers):
        assert event.source_line == line
        assert event.direction == verb
        expected = latest_open(flat, line, verb, unit)
        assert (event.binding.file_name, event.binding.opened_at) == expected


def test_zero_do_step_note_names_the_step():
    src = (
        "      PARAMETER (N=10, M=0)\n"
        "      DO 10 I=1,N,0\n"
        "      WRITE(6,*) I\n"
        "   10 CONTINUE\n"
        "      DO 20 I=1,N\n"
        "      DO 20 J=1,N,M\n"
        "      WRITE(6,*) J\n"
        "   20 CONTINUE\n"
    )
    _, _, events = run_pipeline(src, default_loop_count=3)
    notes = [[d.message for d in e.diagnostics if d.kind == "default-loop-count"] for e in events]
    assert notes == [
        ["DO step at line 2 is zero; default 3 used per loop"],
        ["DO step at line 6 is zero; default 3 used per loop"],
    ]
    # The group keeps its defaulted count.
    assert [(e.multiplicity.resolved, e.multiplicity.defaulted) for e in events] == [(3, True), (30, True)]


def test_comma_after_do_label_keeps_the_loops():
    # F77 11.10: DO s [,] i = e1, e2 [, e3].
    src = (
        "      PARAMETER (N=3)\n"
        "      DO 10, I = 1, N\n"
        "      DO 10, J = 1, N\n"
        "      WRITE(6,20) I, J\n"
        "   20 FORMAT(2I4)\n"
        "   10 CONTINUE\n"
    )
    program, _, events = run_pipeline(src)
    outer = program.statements[1]
    assert isinstance(outer, DoStmt) and (outer.label, outer.var) == (10, "I")
    mult = events[0].multiplicity
    assert (expr_text(mult.count), mult.resolved, mult.defaulted) == ("N*N", 9, False)
    assert {note.kind for note in events[0].diagnostics} == {"implicitly-typed"}
