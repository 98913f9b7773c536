"""Per-file I/O event extraction: unit binding, item typing, format pairing
and loop-multiplicity computation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import diagnostics as diag
from .diagnostics import AnalysisError, Diagnostic
from .fmtengine import EditDescriptor, data_format_of, pair_items, parse_descriptors
from .symbols import (
    DOUBLE_PRECISION, DataType, INTEGER, REAL, SymbolTables, Unresolved,
    character, eval_int, lookup_type,
)
from .syntax import (
    BinOp, CloseStmt, DoStmt, Inline, IntExpr, IoStmt, Label, ListDirected,
    Literal, OpenStmt, ProgramUnit, StarUnit, expr_text, walk,
)

STDIN_NAME = "<stdin>"
STDOUT_NAME = "<stdout>"


class MissingFormatLabel(AnalysisError):
    def __init__(self, label: int, line: int):
        super().__init__(f"FORMAT label {label} is never defined", line)
        self.label = label


@dataclass(slots=True)
class UnitBinding:
    unit: int | str
    file_name: str
    status: str | None = None
    opened_at: int = 0
    closed_at: int | None = None
    diagnostics: tuple[Diagnostic, ...] = ()


@dataclass(frozen=True, slots=True)
class Multiplicity:
    count: IntExpr  # the trip-count product
    resolved: int
    conditional: bool = False
    defaulted: bool = False


@dataclass(frozen=True, slots=True)
class EventItem:
    name: str
    data_type: DataType
    descriptor: EditDescriptor | None
    separators: tuple[EditDescriptor, ...] = ()


@dataclass(frozen=True, slots=True)
class IoEvent:
    direction: str  # READ or WRITE
    binding: UnitBinding
    format: ListDirected | Label | Inline
    items: tuple[EventItem, ...]
    multiplicity: Multiplicity
    source_line: int
    diagnostics: tuple[Diagnostic, ...] = ()


def _unit_key(expr: IntExpr, tables: SymbolTables) -> int | str:
    """The unit's number, or its text when the number is not constant."""
    number = eval_int(tables, expr)
    return number if isinstance(number, int) else expr_text(expr)


def bind_units(unit: ProgramUnit, tables: SymbolTables) -> list[UnitBinding]:
    """Derive unit-to-file bindings from OPEN/CLOSE statements, one per OPEN
    in statement order.

    OPEN and CLOSE close the live binding of their unit; bindings still live
    at the end of the program are closed at the unit's last line, so live
    ranges never overlap.
    """
    bindings: list[UnitBinding] = []
    live: dict[int | str, UnitBinding] = {}  # unit -> its open binding
    for stmt, _ in walk(unit.statements):
        if not isinstance(stmt, (OpenStmt, CloseStmt)):
            continue
        key = _unit_key(stmt.unit, tables)
        if key in live:
            live.pop(key).closed_at = stmt.line
        if isinstance(stmt, OpenStmt):
            notes: list[Diagnostic] = []
            if stmt.file_name is not None:
                name = stmt.file_name
            elif stmt.file_symbol is not None:
                constant = tables.find_constant(stmt.file_symbol)
                if constant is not None and isinstance(constant.value, str):
                    name = constant.value
                else:
                    name = f"<unit-{key}>"
                    notes.append(Diagnostic(
                        diag.SYMBOLIC_FILE_NAME,
                        f"unit {key} is opened with a variable file name ({stmt.file_symbol})",
                        stmt.line,
                    ))
            else:
                name = f"<unit-{key}>"
            live[key] = UnitBinding(key, name, stmt.status, stmt.line, None, tuple(notes))
            bindings.append(live[key])
    for binding in live.values():
        binding.closed_at = unit.end_line
    return bindings


# ---------------------------------------------------------------------------
# Loop multiplicity
# ---------------------------------------------------------------------------


def trip_count(
    do: DoStmt,
    tables: SymbolTables,
    default_count: int = 1,
    diagnostics: list[Diagnostic] | None = None,
) -> Multiplicity:
    """The iteration count of one DO loop, MAX(INT((m2-m1+m3)/m3),0)
    (F77 11.10.3), written stop for 1,stop and stop-start+1 for a step of 1.

    A loop whose count the constant table cannot resolve counts
    default_count and is flagged as defaulted; the notes of constants its
    bounds name that could not be resolved go to diagnostics.
    """
    start, stop, step = do.start, do.stop, do.step or Literal(1)
    if step != Literal(1):
        count: IntExpr = BinOp("/", BinOp("+", BinOp("-", stop, start), step), step)
    elif start != Literal(1):
        count = BinOp("+", BinOp("-", stop, start), Literal(1))
    else:
        count = stop
    value = eval_int(tables, count, diagnostics)
    if isinstance(value, Unresolved):
        return Multiplicity(count, default_count, defaulted=True)
    return Multiplicity(count, max(0, value))


def loop_multiplicity(trips: list[Multiplicity]) -> Multiplicity:
    """Multiply the trip counts of a DO-nesting chain, outermost first; the
    count is defaulted when any loop's is."""
    if not trips:
        return Multiplicity(Literal(1), 1)
    return reduce(lambda outer, inner: Multiplicity(
        BinOp("*", outer.count, inner.count), outer.resolved * inner.resolved,
        defaulted=outer.defaulted or inner.defaulted,
    ), trips)


# ---------------------------------------------------------------------------
# Event extraction
# ---------------------------------------------------------------------------


def _literal_item_type(name: str) -> DataType:
    """The type of a constant (F77 4.5): a D exponent makes it DOUBLE
    PRECISION, and a doubled quote in a string is one character."""
    if name[:1] in "'\"":
        return character(max(1, len(name[1:-1].replace(name[0] * 2, name[0]))))
    if "d" in name or "D" in name:
        return DOUBLE_PRECISION
    return REAL if any(c in name for c in ".eE") else INTEGER


def analyze(
    unit: ProgramUnit,
    tables: SymbolTables,
    formats: dict[int, str],
    default_loop_count: int = 1,
) -> list[IoEvent]:
    """Produce one IoEvent per READ/WRITE statement, in source order.

    default_loop_count is the trip count assumed for a loop whose bounds the
    constant table cannot resolve.  An AnalysisError raised while analyzing a
    statement carries that statement's line.
    """
    process = unit.name or "<main>"
    # Statements are walked in source order, so the binding a READ/WRITE
    # uses is the one its unit's latest OPEN made, unless it was closed.
    bindings = iter(bind_units(unit, tables))
    opened: dict[int | str, UnitBinding] = {}  # unit -> its latest OPEN's binding
    # Bindings that no OPEN made: stdin, stdout and <unit-K> placeholders.
    synthetic: dict[str, UnitBinding] = {}

    # Each distinct format text is parsed once: text -> (descriptors, notes).
    parsed: dict[str, tuple[list[EditDescriptor], list[Diagnostic]]] = {}

    def synthetic_binding(key: int | str, name: str) -> UnitBinding:
        if name not in synthetic:
            synthetic[name] = UnitBinding(key, name, None, 0, unit.end_line)
        return synthetic[name]

    def event(stmt: IoStmt, loops: tuple[DoStmt, ...]) -> IoEvent:
        direction = stmt.direction
        notes: list[Diagnostic] = []

        if isinstance(stmt.unit, StarUnit):  # unit 5 for READ, 6 for WRITE
            key, binding = (5 if direction == "READ" else 6), None
        else:
            key = _unit_key(stmt.unit, tables)
            binding = opened.get(key)
            if binding is not None and binding.closed_at < stmt.line:
                binding = None
        if binding is None:
            if key == 5 and direction == "READ":
                binding = synthetic_binding(5, STDIN_NAME)
            elif key == 6 and direction == "WRITE":
                binding = synthetic_binding(6, STDOUT_NAME)
            else:
                notes.append(Diagnostic(
                    diag.UNKNOWN_UNIT,
                    f"unit {key} has no live binding at line {stmt.line}",
                    stmt.line,
                ))
                binding = synthetic_binding(key, f"<unit-{key}>")

        if isinstance(stmt.format, ListDirected):
            pairs = [(None, ())] * len(stmt.items)
        else:
            if isinstance(stmt.format, Label):
                text = formats.get(stmt.format.value)
                if text is None:
                    raise MissingFormatLabel(stmt.format.value, stmt.line)
            else:
                text = stmt.format.descriptor_text
            if text not in parsed:
                parse_notes: list[Diagnostic] = []
                parsed[text] = parse_descriptors(text, parse_notes), parse_notes
            descriptors, parse_notes = parsed[text]
            notes += parse_notes
            pairs, reverted = pair_items(descriptors, len(stmt.items))
            if reverted:
                # Only reversion can leave items unpaired: F77 13.3 wants a
                # data edit descriptor for every item.
                unpaired = sum(leaf is None for leaf, _ in pairs)
                notes.append(Diagnostic(
                    diag.DESCRIPTOR_ARITY,
                    f"the format has no data edit descriptor for {unpaired} of {len(pairs)} items"
                    if unpaired else
                    f"{len(stmt.items)} items exceed the format's data descriptors;"
                    " format reversion applied",
                    stmt.line,
                ))

        items = []
        for io_item, (leaf, seps) in zip(stmt.items, pairs):
            if io_item.literal:
                dtype = _literal_item_type(io_item.name)
            else:
                dtype = lookup_type(tables, io_item, process, notes)
            if leaf is not None:
                data_format_of(dtype, leaf, notes)
            items.append(EventItem(io_item.name, dtype, leaf, tuple(seps)))

        if not stmt.items:
            notes.append(Diagnostic(
                diag.EMPTY_ITEM_LIST,
                f"{direction} at line {stmt.line} transfers no items",
                stmt.line,
            ))

        mult = loop_multiplicity([trip_count(do, tables, default_loop_count, notes) for do in loops])
        if mult.defaulted:
            # F77 11.10 forbids a zero DO increment: name it as the cause.
            zero = next((do for do in loops if do.step is not None and eval_int(tables, do.step) == 0), None)
            cause = (f"DO step at line {zero.line} is zero" if zero is not None else
                     f"loop count {expr_text(mult.count)} is not constant")
            notes.append(Diagnostic(
                diag.DEFAULT_LOOP_COUNT,
                f"{cause}; default {default_loop_count} used per loop",
                stmt.line,
            ))
        if stmt.conditional:
            mult = Multiplicity(mult.count, mult.resolved, True, mult.defaulted)

        return IoEvent(
            direction, binding, stmt.format, tuple(items), mult,
            stmt.line, tuple(notes),
        )

    events: list[IoEvent] = []
    for stmt, loops in walk(unit.statements):
        if isinstance(stmt, OpenStmt):
            binding = next(bindings)
            opened[binding.unit] = binding
        elif isinstance(stmt, IoStmt):
            try:
                events.append(event(stmt, loops))
            except AnalysisError as err:
                if err.line is None:
                    err.line = stmt.line
                raise
    return events


def dump_events(events: list[IoEvent]) -> str:
    """One line per event for --dump-events."""
    lines = []
    for e in events:
        items = ", ".join(
            f"{i.name}:{i.data_type.name.lower()}:{data_format_of(i.data_type, i.descriptor)}"
            for i in e.items
        )
        flags = ""
        if e.multiplicity.conditional:
            flags += " conditional"
        if e.multiplicity.defaulted:
            flags += " defaulted"
        lines.append(
            f"line {e.source_line}: {e.direction} {e.binding.file_name}"
            f" x{e.multiplicity.resolved} ({expr_text(e.multiplicity.count)}){flags} [{items}]"
        )
    return "\n".join(lines)
