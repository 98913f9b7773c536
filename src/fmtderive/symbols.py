"""Process, variable and constant tables, plus type and constant resolution.

Implicit typing is always in force: an undeclared name starting with I-N is
INTEGER, anything else REAL.  An IMPLICIT NONE statement in the source turns
the fallback into an UndeclaredName error instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import diagnostics as diag
from .diagnostics import AnalysisError, Diagnostic
from .syntax import (
    DeclStmt, IntExpr, IoItem, Literal, Neg, OtherStmt, ParameterStmt,
    ProgramUnit, SymbolRef, expr_text, flatten,
)


@dataclass(frozen=True, slots=True)
class DataType:
    name: str  # INTEGER, REAL, DOUBLE_PRECISION, CHARACTER, LOGICAL, COMPLEX
    char_len: int | None = None


INTEGER = DataType("INTEGER")
REAL = DataType("REAL")
DOUBLE_PRECISION = DataType("DOUBLE_PRECISION")
LOGICAL = DataType("LOGICAL")
COMPLEX = DataType("COMPLEX")


def character(length: int = 1) -> DataType:
    return DataType("CHARACTER", length)


_DOC_NAMES = {
    "INTEGER": "integer",
    "REAL": "real",
    "DOUBLE_PRECISION": "double",
    "CHARACTER": "character",
    "LOGICAL": "logical",
    "COMPLEX": "complex",
}


def doc_name(data_type: DataType) -> str:
    """Lowercase element name used in emitted documentation."""
    return _DOC_NAMES[data_type.name]


@dataclass(frozen=True, slots=True)
class Unresolved:
    """A constant expression that could not be reduced to an integer."""

    text: str


class ConflictingDeclaration(AnalysisError):
    def __init__(self, name: str, line: int):
        super().__init__(f"conflicting declarations for {name}", line)
        self.name = name


class VariableConstantClash(AnalysisError):
    def __init__(self, name: str, line: int):
        super().__init__(f"{name} is used as both a variable and a constant", line)
        self.name = name


class UndeclaredName(AnalysisError):
    def __init__(self, name: str):
        super().__init__(f"{name} is not declared and IMPLICIT NONE is in force")
        self.name = name


@dataclass(slots=True)
class VariableEntry:
    name: str  # case-folded
    data_type: DataType
    dimensions: tuple[IntExpr, ...]
    process: str


@dataclass(slots=True)
class ConstantEntry:
    name: str  # case-folded
    data_type: DataType
    value: int | float | str | Unresolved
    note: Diagnostic | None = None  # why the value is Unresolved


@dataclass(slots=True)
class ProcessEntry:
    name: str
    kind: str


@dataclass(slots=True)
class SymbolTables:
    """Variables and constants are keyed by their case-folded name."""

    processes: list[ProcessEntry] = field(default_factory=list)
    variables: dict[str, VariableEntry] = field(default_factory=dict)
    constants: dict[str, ConstantEntry] = field(default_factory=dict)
    implicit_none: bool = False

    def find_variable(self, name: str, process: str | None = None) -> VariableEntry | None:
        entry = self.variables.get(name.upper())
        return entry if entry is None or process in (None, entry.process) else None

    def find_constant(
        self, name: str, diagnostics: list[Diagnostic] | None = None,
    ) -> ConstantEntry | None:
        """The constant of that name; the note of one whose value could not
        be resolved is appended to diagnostics."""
        entry = self.constants.get(name.upper())
        if entry is not None and entry.note is not None and diagnostics is not None:
            diagnostics.append(entry.note)
        return entry


def implicit_type(name: str) -> DataType:
    """FORTRAN implicit rule: first letter I-N is INTEGER, the rest REAL."""
    return INTEGER if name[:1].upper() in "IJKLMN" else REAL


def _decl_type(stmt: DeclStmt, entity_len: int | None) -> DataType:
    if stmt.base_type == "CHARACTER":
        length = entity_len if entity_len is not None else stmt.char_len
        return character(length if length is not None else 1)
    return DataType(stmt.base_type)


def _is_implicit_none(stmt: OtherStmt) -> bool:
    return stmt.raw.upper().replace(" ", "") == "IMPLICITNONE"


def build_tables(unit: ProgramUnit) -> SymbolTables:
    """Populate the three symbol tables from a parsed program unit."""
    process = unit.name or "<main>"
    tables = SymbolTables(processes=[ProcessEntry(process, unit.kind)])

    statements = list(flatten(unit.statements))
    tables.implicit_none = any(
        isinstance(s, OtherStmt) and _is_implicit_none(s) for s in statements
    )

    for stmt in statements:
        if isinstance(stmt, DeclStmt):
            for entity in stmt.entities:
                name = entity.name.upper()
                dtype = _decl_type(stmt, entity.char_len)
                existing = tables.find_variable(name, process)
                if existing is not None:
                    if existing.data_type != dtype:
                        raise ConflictingDeclaration(entity.name, stmt.line)
                    continue
                constant = tables.find_constant(name)
                if constant is not None:
                    if entity.dimensions:
                        raise VariableConstantClash(entity.name, stmt.line)
                    constant.data_type = dtype
                    continue
                tables.variables[name] = VariableEntry(name, dtype, entity.dimensions, process)
        elif isinstance(stmt, ParameterStmt):
            for raw_name, value in stmt.assignments:
                name = raw_name.upper()
                if tables.find_constant(name) is not None:
                    raise ConflictingDeclaration(raw_name, stmt.line)
                declared = tables.find_variable(name, process)
                if declared is not None:
                    if declared.dimensions:
                        raise VariableConstantClash(raw_name, stmt.line)
                    dtype = declared.data_type
                    del tables.variables[name]
                elif isinstance(value, str):
                    dtype = character(len(value))
                else:
                    dtype = implicit_type(name)

                note = None
                if not isinstance(value, (int, float, str)):
                    value = eval_int(tables, value)
                    if isinstance(value, Unresolved):
                        note = Diagnostic(
                            diag.UNRESOLVED_CONSTANT,
                            f"constant {raw_name} = {value.text} cannot be resolved",
                            stmt.line,
                        )
                if dtype.name == "INTEGER" and isinstance(value, float):
                    value = int(value)
                elif dtype.name in ("REAL", "DOUBLE_PRECISION") and isinstance(value, int):
                    value = float(value)
                tables.constants[name] = ConstantEntry(name, dtype, value, note)
    return tables


def lookup_type(
    tables: SymbolTables,
    item: IoItem,
    process: str,
    diagnostics: list[Diagnostic] | None = None,
) -> DataType:
    """Resolve the data type of one I/O item.

    Declared types win; otherwise the implicit rule applies and an
    implicitly-typed diagnostic is recorded so emitted docs can flag the
    inference.
    """
    variable = tables.find_variable(item.name, process)
    if variable is not None:
        return variable.data_type
    constant = tables.find_constant(item.name, diagnostics)
    if constant is not None:
        return constant.data_type
    if tables.implicit_none:
        raise UndeclaredName(item.name)
    inferred = implicit_type(item.name)
    if diagnostics is not None:
        diagnostics.append(Diagnostic(
            diag.IMPLICITLY_TYPED,
            f"{item.name} is undeclared; implicitly typed {doc_name(inferred)}",
        ))
    return inferred


def eval_int(
    tables: SymbolTables, expr: IntExpr, diagnostics: list[Diagnostic] | None = None,
) -> int | Unresolved:
    """Evaluate an integer expression against the constant table.  Division
    truncates toward zero, as in FORTRAN.  A name without an integral constant
    value, or a division by zero, leaves the expression Unresolved; the notes
    of named constants that could not be resolved go to diagnostics."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, SymbolRef):
        constant = tables.find_constant(expr.name, diagnostics)
        value = constant.value if constant is not None else None
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        return value if isinstance(value, int) else Unresolved(expr.name)
    if isinstance(expr, Neg):
        value = eval_int(tables, expr.operand, diagnostics)
        return Unresolved(expr_text(expr)) if isinstance(value, Unresolved) else -value
    left = eval_int(tables, expr.left, diagnostics)
    right = eval_int(tables, expr.right, diagnostics)
    if isinstance(left, Unresolved) or isinstance(right, Unresolved) or (expr.op == "/" and right == 0):
        return Unresolved(expr_text(expr))
    if expr.op == "/":
        quotient = abs(left) // abs(right)
        return quotient if (left < 0) == (right < 0) else -quotient
    return left + right if expr.op == "+" else left - right if expr.op == "-" else left * right


def dump_symbols(tables: SymbolTables) -> str:
    """Readable rendering of the three tables for --dump-symbols."""
    lines = ["processes:"]
    for p in tables.processes:
        lines.append(f"  {p.name} ({p.kind})")
    lines.append("variables:")
    for v in tables.variables.values():
        dims = f"({', '.join(expr_text(d) for d in v.dimensions)})" if v.dimensions else ""
        lines.append(f"  {v.name}{dims}: {doc_name(v.data_type)} [{v.process}]")
    lines.append("constants:")
    for c in tables.constants.values():
        value = f"{c.value.text} (unresolved)" if isinstance(c.value, Unresolved) else repr(c.value)
        lines.append(f"  {c.name} = {value}: {doc_name(c.data_type)}")
    for note in (c.note for c in tables.constants.values() if c.note is not None):
        lines.append(f"{note.kind} at line {note.line}: {note.message}")
    if tables.implicit_none:
        lines.append("implicit none: yes")
    return "\n".join(lines)
