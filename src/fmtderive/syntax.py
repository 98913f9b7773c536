"""Statement-level parsing of the token stream into a program AST.

Only the statement classes that matter for format derivation are given
structure: declarations, PARAMETER, OPEN/CLOSE, READ/WRITE, FORMAT and DO
loops.  Everything else is preserved as an OtherStmt so that arithmetic and
control flow the tool does not understand can never abort an analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import AnalysisError
from .lexer import Token, TokenKind, _match_paren, _split_commas


class ParseError(AnalysisError):
    """A malformed statement; parse() sets the column of its first token."""

    def __init__(self, line: int, message: str, column: int | None = None):
        super().__init__(message, line, column)


class DuplicateFormatLabel(AnalysisError):
    def __init__(self, label: int, line: int):
        super().__init__(f"duplicate FORMAT label {label}", line)
        self.label = label


# ---------------------------------------------------------------------------
# Integer expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: int


@dataclass(frozen=True)
class SymbolRef:
    name: str


@dataclass(frozen=True)
class Product:
    left: "IntExpr"
    right: "IntExpr"


@dataclass(frozen=True)
class Sum:
    left: "IntExpr"
    right: "IntExpr"


IntExpr = Literal | SymbolRef | Product | Sum


def expr_text(expr: IntExpr) -> str:
    if isinstance(expr, Literal):
        return str(expr.value)
    if isinstance(expr, SymbolRef):
        return expr.name
    if isinstance(expr, Product):
        return f"{expr_text(expr.left)}*{expr_text(expr.right)}"
    if isinstance(expr, Sum):
        return f"{expr_text(expr.left)}+{expr_text(expr.right)}"
    raise TypeError(f"not an IntExpr: {expr!r}")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarUnit:
    """The '*' unit: stdin for READ, stdout for WRITE."""


UnitSpec = IntExpr | StarUnit


@dataclass(frozen=True)
class ListDirected:
    """Format '*': fields separated by default separators."""


@dataclass(frozen=True)
class Label:
    value: int


@dataclass(frozen=True)
class Inline:
    descriptor_text: str


FormatRef = ListDirected | Label | Inline


@dataclass(frozen=True)
class DeclEntity:
    name: str
    dimensions: tuple[IntExpr, ...] = ()
    char_len: int | None = None


@dataclass(frozen=True)
class IoItem:
    name: str
    subscripts: tuple[IntExpr, ...] = ()
    literal: bool = False


@dataclass
class DeclStmt:
    base_type: str  # INTEGER, REAL, DOUBLE_PRECISION, CHARACTER, LOGICAL, COMPLEX
    char_len: int | None
    entities: list[DeclEntity]
    label: int | None = None
    line: int = field(default=0, compare=False)


@dataclass
class ParameterStmt:
    # value is a Python int/float/str literal, or an IntExpr to be evaluated
    # against the constant table when the tables are built.
    assignments: list[tuple[str, object]]
    label: int | None = None
    line: int = field(default=0, compare=False)


@dataclass
class OpenStmt:
    unit: IntExpr
    file_name: str | None = None
    file_symbol: str | None = None
    status: str | None = None
    label: int | None = None
    line: int = field(default=0, compare=False)


@dataclass
class CloseStmt:
    unit: IntExpr
    label: int | None = None
    line: int = field(default=0, compare=False)


@dataclass
class IoStmt:
    direction: str  # READ or WRITE
    unit: UnitSpec
    format: FormatRef
    items: list[IoItem]
    label: int | None = None
    conditional: bool = field(default=False, compare=False)
    line: int = field(default=0, compare=False)


@dataclass
class FormatStmt:
    label: int
    descriptor_text: str
    line: int = field(default=0, compare=False)


@dataclass
class DoStmt:
    label: int | None  # terminal statement label; None for END DO loops
    var: str
    start: IntExpr
    stop: IntExpr
    step: IntExpr | None
    body: list["Stmt"]
    own_label: int | None = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)  # of the DO keyword


@dataclass
class ContinueStmt:
    label: int | None = None
    line: int = field(default=0, compare=False)


@dataclass
class OtherStmt:
    raw: str
    label: int | None = None
    line: int = field(default=0, compare=False)


Stmt = (
    DeclStmt | ParameterStmt | OpenStmt | CloseStmt | IoStmt | FormatStmt
    | DoStmt | ContinueStmt | OtherStmt
)

ANONYMOUS_MAIN = "anonymous-main"


@dataclass
class ProgramUnit:
    name: str | None
    kind: str  # PROGRAM, SUBROUTINE, FUNCTION or anonymous-main
    statements: list[Stmt]
    end_line: int = field(default=0, compare=False)


def walk(statements: list[Stmt], loops: tuple[DoStmt, ...] = ()):
    """Yield (statement, enclosing DO loops, outermost first) in source order,
    descending into DO bodies."""
    for stmt in statements:
        yield stmt, loops
        if isinstance(stmt, DoStmt):
            yield from walk(stmt.body, loops + (stmt,))


def flatten(statements: list[Stmt]):
    """Yield statements in source order, descending into DO bodies."""
    return (stmt for stmt, _ in walk(statements))


# ---------------------------------------------------------------------------
# Token helpers
# ---------------------------------------------------------------------------


def _is_punct(tok: Token | None, which: str) -> bool:
    return tok is not None and tok.kind is TokenKind.PUNCTUATION and tok.which == which


def _string_value(tok: Token) -> str:
    quote = tok.lexeme[0]
    return tok.lexeme[1:-1].replace(quote + quote, quote)


_WORDY = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


def _raw_text(toks: list[Token]) -> str:
    out = ""
    for tok in toks:
        lx = tok.lexeme
        if not lx:
            continue
        if out and (
            (out[-1] in _WORDY and lx[0] in _WORDY)
            or (out[-1] in "'\"" and lx[0] in "'\"")
        ):
            out += " "
        out += lx
    return out


def _strip_outer_parens(text: str) -> str:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    return s
        return s[1:-1]
    return s


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------


class _Opaque(Exception):
    pass


def _parse_int_expr(toks: list[Token], line: int) -> IntExpr:
    """Parse literals, names, sums and products; fall back to an opaque
    symbolic reference for anything richer."""
    if not toks:
        raise ParseError(line, "missing expression")

    pos = 0

    def atom() -> IntExpr:
        nonlocal pos
        tok = toks[pos] if pos < len(toks) else None
        if tok is None:
            raise _Opaque
        if tok.kind is TokenKind.INTEGER_CONSTANT:
            pos += 1
            return Literal(int(tok.lexeme))
        if tok.kind is TokenKind.IDENTIFIER:
            pos += 1
            return SymbolRef(tok.lexeme.upper())
        if _is_punct(tok, "LPAREN"):
            close = _match_paren(toks, pos)
            if close is None:
                raise _Opaque
            inner = _parse_int_expr(toks[pos + 1:close], line)
            pos = close + 1
            return inner
        raise _Opaque

    def product() -> IntExpr:
        nonlocal pos
        left = atom()
        while pos < len(toks) and _is_punct(toks[pos], "ASTERISK"):
            pos += 1
            left = Product(left, atom())
        return left

    def summation() -> IntExpr:
        nonlocal pos
        left = product()
        while pos < len(toks) and _is_punct(toks[pos], "OTHER") and toks[pos].lexeme == "+":
            pos += 1
            left = Sum(left, product())
        return left

    try:
        expr = summation()
        if pos != len(toks):
            raise _Opaque
        return expr
    except _Opaque:
        return SymbolRef(_raw_text(toks))


# ---------------------------------------------------------------------------
# Statement parsers
# ---------------------------------------------------------------------------

_TYPE_WIDTHS_TO_DOUBLE = {("REAL", 8), ("REAL", 16)}


def _parse_decl(toks: list[Token], line: int) -> DeclStmt:
    base = toks[0].which
    assert base is not None
    char_len: int | None = None
    i = 1
    if _is_punct(toks[i] if i < len(toks) else None, "ASTERISK"):
        if i + 1 >= len(toks) or toks[i + 1].kind is not TokenKind.INTEGER_CONSTANT:
            raise ParseError(line, f"malformed {base} length specifier")
        width = int(toks[i + 1].lexeme)
        if base == "CHARACTER":
            char_len = width
        elif (base, width) in _TYPE_WIDTHS_TO_DOUBLE:
            base = "DOUBLE_PRECISION"
        i += 2
    entities: list[DeclEntity] = []
    for part in _split_commas(toks[i:]):
        if not part or part[0].kind is not TokenKind.IDENTIFIER:
            raise ParseError(line, "malformed declaration entity")
        name = part[0].lexeme
        dims: tuple[IntExpr, ...] = ()
        entity_len: int | None = None
        j = 1
        if j < len(part) and _is_punct(part[j], "LPAREN"):
            close = _match_paren(part, j)
            if close is None:
                raise ParseError(line, f"unbalanced dimensions for {name}")
            dims = tuple(
                _parse_int_expr(p, line) for p in _split_commas(part[j + 1:close])
            )
            j = close + 1
        if j < len(part) and _is_punct(part[j], "ASTERISK"):
            if j + 1 >= len(part) or part[j + 1].kind is not TokenKind.INTEGER_CONSTANT:
                raise ParseError(line, f"malformed length for {name}")
            entity_len = int(part[j + 1].lexeme)
            j += 2
        if j != len(part):
            raise ParseError(line, f"unexpected tokens after declaration of {name}")
        entities.append(DeclEntity(name, dims, entity_len))
    if not entities:
        raise ParseError(line, "declaration without entities")
    return DeclStmt(base, char_len, entities, line=line)


def _parse_parameter(toks: list[Token], line: int) -> ParameterStmt:
    if not _is_punct(toks[1] if len(toks) > 1 else None, "LPAREN"):
        raise ParseError(line, "malformed PARAMETER statement")
    close = _match_paren(toks, 1)
    if close is None or close != len(toks) - 1:
        raise ParseError(line, "unbalanced parentheses in PARAMETER")
    assignments: list[tuple[str, object]] = []
    for part in _split_commas(toks[2:close]):
        if (
            len(part) < 3
            or part[0].kind is not TokenKind.IDENTIFIER
            or not _is_punct(part[1], "EQUALS")
        ):
            raise ParseError(line, "malformed PARAMETER assignment")
        name = part[0].lexeme
        value = _parse_param_value(part[2:], line)
        assignments.append((name, value))
    if not assignments:
        raise ParseError(line, "empty PARAMETER statement")
    return ParameterStmt(assignments, line=line)


def _parse_param_value(toks: list[Token], line: int) -> object:
    sign = 1
    if len(toks) >= 2 and _is_punct(toks[0], "OTHER") and toks[0].lexeme in "+-":
        if toks[0].lexeme == "-":
            sign = -1
        toks = toks[1:]
    if len(toks) == 1:
        tok = toks[0]
        if tok.kind is TokenKind.INTEGER_CONSTANT:
            return sign * int(tok.lexeme)
        if tok.kind is TokenKind.REAL_CONSTANT:
            return sign * float(tok.lexeme.upper().replace("D", "E"))
        if tok.kind is TokenKind.STRING_LITERAL:
            return _string_value(tok)
    if sign == -1:
        return SymbolRef("-" + _raw_text(toks))
    return _parse_int_expr(toks, line)


def _control_list(toks: list[Token], line: int, verb: str):
    """Split the parenthesized control list that follows an OPEN, CLOSE, READ
    or WRITE keyword.  Returns the index of its closing ')', the non-empty
    positional parts, the KEY=value parts by key, and the unit's tokens."""
    close = _match_paren(toks, 1) if _is_punct(toks[1] if len(toks) > 1 else None, "LPAREN") else None
    if close is None:
        raise ParseError(line, f"malformed {verb} statement")
    positional: list[list[Token]] = []
    keywords: dict[str, list[Token]] = {}
    for part in _split_commas(toks[2:close]):
        if (
            len(part) >= 3
            and part[0].kind is TokenKind.IDENTIFIER
            and _is_punct(part[1], "EQUALS")
        ):
            keywords[part[0].lexeme.upper()] = part[2:]
        elif part:
            positional.append(part)
    unit_toks = keywords.get("UNIT") or (positional[0] if positional else None)
    if not unit_toks:
        raise ParseError(line, f"{verb} without a unit")
    return close, positional, keywords, unit_toks


def _parse_open(toks: list[Token], line: int) -> OpenStmt:
    close, _, keywords, unit_toks = _control_list(toks, line, "OPEN")
    if close != len(toks) - 1:
        raise ParseError(line, "unexpected tokens after OPEN")
    unit = _parse_int_expr(unit_toks, line)
    file_name = file_symbol = status = None
    file_toks = keywords.get("FILE")
    if file_toks:
        if len(file_toks) == 1 and file_toks[0].kind is TokenKind.STRING_LITERAL:
            file_name = _string_value(file_toks[0])
        elif len(file_toks) == 1 and file_toks[0].kind is TokenKind.IDENTIFIER:
            file_symbol = file_toks[0].lexeme.upper()
        else:
            raise ParseError(line, "malformed FILE= specifier")
    status_toks = keywords.get("STATUS")
    if status_toks:
        if len(status_toks) == 1 and status_toks[0].kind is TokenKind.STRING_LITERAL:
            status = _string_value(status_toks[0])
        else:
            raise ParseError(line, "malformed STATUS= specifier")
    return OpenStmt(unit, file_name, file_symbol, status, line=line)


def _parse_close(toks: list[Token], line: int) -> CloseStmt:
    *_, unit_toks = _control_list(toks, line, "CLOSE")
    return CloseStmt(_parse_int_expr(unit_toks, line), line=line)


def _parse_format_ref(toks: list[Token], line: int) -> FormatRef:
    if len(toks) == 1:
        tok = toks[0]
        if _is_punct(tok, "ASTERISK"):
            return ListDirected()
        if tok.kind is TokenKind.INTEGER_CONSTANT:
            value = int(tok.lexeme)
            if value <= 0:
                raise ParseError(line, "format label must be positive")
            return Label(value)
        if tok.kind in (TokenKind.FORMAT_DESCRIPTOR_TEXT, TokenKind.STRING_LITERAL):
            return Inline(_strip_outer_parens(_string_value(tok)))
    raise ParseError(line, "unsupported format specifier")


def _parse_io(toks: list[Token], line: int, conditional: bool) -> IoStmt:
    direction = toks[0].which
    if _is_punct(toks[1] if len(toks) > 1 else None, "ASTERISK"):
        # READ *, list: list-directed transfer on the standard unit.
        rest = toks[2:]
        if rest and _is_punct(rest[0], "COMMA"):
            rest = rest[1:]
        items = _parse_io_items(rest, line)
        return IoStmt(direction, StarUnit(), ListDirected(), items,
                      conditional=conditional, line=line)
    close, positional, keywords, unit_toks = _control_list(toks, line, direction)
    unit: UnitSpec
    if len(unit_toks) == 1 and _is_punct(unit_toks[0], "ASTERISK"):
        unit = StarUnit()
    else:
        unit = _parse_int_expr(unit_toks, line)

    fmt_toks = keywords.get("FMT")
    if fmt_toks is None and len(positional) >= 2:
        fmt_toks = positional[1]
    fmt: FormatRef = ListDirected() if fmt_toks is None else _parse_format_ref(fmt_toks, line)

    items = _parse_io_items(toks[close + 1:], line)
    return IoStmt(direction, unit, fmt, items, conditional=conditional, line=line)


def _parse_io_items(toks: list[Token], line: int) -> list[IoItem]:
    items: list[IoItem] = []
    if not toks:
        return items
    for part in _split_commas(toks):
        if not part:
            raise ParseError(line, "empty I/O list item")
        head = part[0]
        if _is_punct(head, "LPAREN"):
            raise ParseError(
                line, "implied-DO loops in I/O item lists are not supported")
        if head.kind is TokenKind.IDENTIFIER:
            subs: tuple[IntExpr, ...] = ()
            if len(part) > 1:
                if not _is_punct(part[1], "LPAREN"):
                    raise ParseError(line, f"malformed I/O item {head.lexeme}")
                pclose = _match_paren(part, 1)
                if pclose is None or pclose != len(part) - 1:
                    raise ParseError(line, f"malformed I/O item {head.lexeme}")
                subs = tuple(
                    _parse_int_expr(p, line)
                    for p in _split_commas(part[2:pclose])
                )
            items.append(IoItem(head.lexeme, subs))
        elif head.kind in (
            TokenKind.STRING_LITERAL,
            TokenKind.INTEGER_CONSTANT,
            TokenKind.REAL_CONSTANT,
        ) and len(part) == 1:
            items.append(IoItem(head.lexeme, (), literal=True))
        else:
            raise ParseError(line, "malformed I/O item list")
    return items


def _parse_format_stmt(toks: list[Token], line: int, label: int | None) -> FormatStmt:
    if label is None:
        raise ParseError(line, "FORMAT statement without a statement label")
    body = toks[2:-1]
    if not _is_punct(toks[1] if len(toks) > 1 else None, "LPAREN") or not _is_punct(toks[-1], "RPAREN"):
        raise ParseError(line, "malformed FORMAT statement")
    if len(body) == 0:
        text = ""
    elif len(body) == 1 and body[0].kind is TokenKind.FORMAT_DESCRIPTOR_TEXT:
        text = body[0].lexeme
    else:
        raise ParseError(line, "malformed FORMAT statement")
    return FormatStmt(label, text, line=line)


def _parse_do_header(toks: list[Token], line: int, own_label: int | None) -> DoStmt:
    i = 1
    terminal: int | None = None
    if i < len(toks) and toks[i].kind is TokenKind.INTEGER_CONSTANT:
        terminal = int(toks[i].lexeme)
        i += 1
    if i >= len(toks) or toks[i].kind is not TokenKind.IDENTIFIER:
        raise ParseError(line, "malformed DO statement")
    var = toks[i].lexeme
    if not _is_punct(toks[i + 1] if i + 1 < len(toks) else None, "EQUALS"):
        raise ParseError(line, "malformed DO statement")
    parts = _split_commas(toks[i + 2:])
    if len(parts) not in (2, 3) or not all(parts):
        raise ParseError(line, "DO statement needs start and stop bounds")
    start = _parse_int_expr(parts[0], line)
    stop = _parse_int_expr(parts[1], line)
    step = _parse_int_expr(parts[2], line) if len(parts) == 3 else None
    return DoStmt(terminal, var, start, stop, step, [], own_label=own_label, line=line,
                  column=toks[0].column)


# ---------------------------------------------------------------------------
# The parser proper
# ---------------------------------------------------------------------------


def _split_statements(tokens: list[Token]) -> list[list[Token]]:
    statements: list[list[Token]] = []
    current: list[Token] = []
    for tok in tokens:
        if tok.kind is TokenKind.END_OF_STATEMENT:
            statements.append(current)
            current = []
        else:
            current.append(tok)
    if current:
        statements.append(current)
    return statements


def parse(tokens: list[Token]) -> ProgramUnit:
    """Build a ProgramUnit from a token stream produced by tokenize().

    Statements outside the six format-relevant classes are preserved as
    OtherStmt without further checking; errors are raised only for malformed
    declarations, PARAMETER, OPEN/CLOSE, READ/WRITE, FORMAT and DO
    statements.
    """
    unit = ProgramUnit(None, ANONYMOUS_MAIN, [])
    if tokens:
        unit.end_line = max(tok.line for tok in tokens)
    do_stack: list[DoStmt] = []  # open loops, innermost last
    if_depth = 0
    header_seen = False

    def current_body() -> list[Stmt]:
        return do_stack[-1].body if do_stack else unit.statements

    def close_innermost():
        loop = do_stack.pop()
        current_body().append(loop)

    def close_loops(label: int | None):
        while label is not None and do_stack and do_stack[-1].label == label:
            close_innermost()

    def append(stmt: Stmt, label: int | None):
        if not isinstance(stmt, (FormatStmt, DoStmt, ContinueStmt)):
            stmt.label = label
        current_body().append(stmt)
        close_loops(label)

    for stmt_toks in _split_statements(tokens):
        if not stmt_toks:
            continue
        label = None
        if stmt_toks[0].kind is TokenKind.STATEMENT_LABEL:
            label = stmt_toks[0].value
            stmt_toks = stmt_toks[1:]
        line = stmt_toks[0].line if stmt_toks else 0
        if not stmt_toks:
            append(OtherStmt("", line=line), label)
            continue

        first = stmt_toks[0]
        try:
            kind, which = first.kind, first.which

            if kind is TokenKind.DATA_TYPE_KEYWORD:
                if (
                    len(stmt_toks) > 1
                    and stmt_toks[1].kind is TokenKind.CONTROL_KEYWORD
                    and stmt_toks[1].which == "FUNCTION"
                ):
                    if not header_seen and len(stmt_toks) > 2:
                        unit.name = stmt_toks[2].lexeme
                        unit.kind = "FUNCTION"
                        header_seen = True
                    append(OtherStmt(_raw_text(stmt_toks), line=line), label)
                else:
                    append(_parse_decl(stmt_toks, line), label)
            elif kind is TokenKind.CONTROL_KEYWORD and which == "PARAMETER":
                append(_parse_parameter(stmt_toks, line), label)
            elif kind is TokenKind.CONTROL_KEYWORD and which == "DO":
                do_stack.append(_parse_do_header(stmt_toks, line, label))
            elif kind is TokenKind.CONTROL_KEYWORD and which == "CONTINUE":
                append(ContinueStmt(label, line=line), label)
            elif kind is TokenKind.CONTROL_KEYWORD and which in ("PROGRAM", "SUBROUTINE", "FUNCTION"):
                if not header_seen and len(stmt_toks) > 1:
                    unit.name = stmt_toks[1].lexeme
                    unit.kind = which
                    header_seen = True
                append(OtherStmt(_raw_text(stmt_toks), line=line), label)
            elif kind is TokenKind.CONTROL_KEYWORD and which == "IF":
                close = _match_paren(stmt_toks, 1)
                after = stmt_toks[close + 1:] if close is not None else []
                if close is None:
                    append(OtherStmt(_raw_text(stmt_toks), line=line), label)
                elif (
                    len(after) == 1
                    and after[0].kind is TokenKind.CONTROL_KEYWORD
                    and after[0].which == "THEN"
                ):
                    append(OtherStmt(_raw_text(stmt_toks), line=line), label)
                    if_depth += 1
                elif after and after[0].kind is TokenKind.READ_WRITE_KEYWORD and after[0].which in ("READ", "WRITE"):
                    append(_parse_io(after, line, conditional=True), label)
                elif after and after[0].kind is TokenKind.FILE_OP_KEYWORD:
                    sub = _parse_open(after, line) if after[0].which == "OPEN" else _parse_close(after, line)
                    append(sub, label)
                else:
                    append(OtherStmt(_raw_text(stmt_toks), line=line), label)
            elif kind is TokenKind.CONTROL_KEYWORD and which == "ENDIF":
                append(OtherStmt(_raw_text(stmt_toks), line=line), label)
                if_depth = max(0, if_depth - 1)
            elif kind is TokenKind.FILE_OP_KEYWORD:
                parser = _parse_open if which == "OPEN" else _parse_close
                append(parser(stmt_toks, line), label)
            elif kind is TokenKind.READ_WRITE_KEYWORD:
                if which == "FORMAT":
                    append(_parse_format_stmt(stmt_toks, line, label), label)
                else:
                    append(_parse_io(stmt_toks, line, conditional=if_depth > 0), label)
            else:
                raw = _raw_text(stmt_toks)
                append(OtherStmt(raw, line=line), label)
                if raw.upper().replace(" ", "") == "ENDDO" and do_stack and do_stack[-1].label is None:
                    close_innermost()
        except ParseError as err:
            err.column = first.column
            raise

    if do_stack:
        raise ParseError(do_stack[-1].line, "unterminated DO loop", do_stack[-1].column)
    return unit


def attach_formats(unit: ProgramUnit) -> dict[int, str]:
    """Collect FORMAT statement labels to descriptor text, rejecting duplicates."""
    formats: dict[int, str] = {}
    for stmt in flatten(unit.statements):
        if isinstance(stmt, FormatStmt):
            if stmt.label in formats:
                raise DuplicateFormatLabel(stmt.label, stmt.line)
            formats[stmt.label] = stmt.descriptor_text
    return formats


# ---------------------------------------------------------------------------
# Canonical statement text (round-trips through the parser)
# ---------------------------------------------------------------------------


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _item_text(item: IoItem) -> str:
    if item.literal:
        return item.name
    if item.subscripts:
        return f"{item.name}({', '.join(expr_text(s) for s in item.subscripts)})"
    return item.name


def _param_value_text(value: object) -> str:
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (int, float)):
        return str(value)
    return expr_text(value)


def _format_ref_text(fmt: FormatRef) -> str:
    if isinstance(fmt, ListDirected):
        return "*"
    if isinstance(fmt, Label):
        return str(fmt.value)
    return _quote(f"({fmt.descriptor_text})")


def _do_head(stmt: DoStmt) -> str:
    head = f"{stmt.own_label} DO " if stmt.own_label is not None else "DO "
    if stmt.label is not None:
        head += f"{stmt.label} "
    head += f"{stmt.var} = {expr_text(stmt.start)}, {expr_text(stmt.stop)}"
    if stmt.step is not None:
        head += f", {expr_text(stmt.step)}"
    return head


def canonical_text(stmt: Stmt) -> str:
    """Render a statement back to parseable text (free-form)."""
    prefix = ""
    if not isinstance(stmt, (FormatStmt, DoStmt)) and stmt.label is not None:
        prefix = f"{stmt.label} "
    if isinstance(stmt, DeclStmt):
        head = stmt.base_type.replace("_", " ")
        if stmt.char_len is not None:
            head += f"*{stmt.char_len}"
        ents = []
        for ent in stmt.entities:
            text = ent.name
            if ent.dimensions:
                text += f"({', '.join(expr_text(d) for d in ent.dimensions)})"
            if ent.char_len is not None:
                text += f"*{ent.char_len}"
            ents.append(text)
        return prefix + f"{head} {', '.join(ents)}"
    if isinstance(stmt, ParameterStmt):
        body = ", ".join(f"{n} = {_param_value_text(v)}" for n, v in stmt.assignments)
        return prefix + f"PARAMETER ({body})"
    if isinstance(stmt, OpenStmt):
        parts = [expr_text(stmt.unit)]
        if stmt.file_name is not None:
            parts.append(f"FILE={_quote(stmt.file_name)}")
        elif stmt.file_symbol is not None:
            parts.append(f"FILE={stmt.file_symbol}")
        if stmt.status is not None:
            parts.append(f"STATUS={_quote(stmt.status)}")
        return prefix + f"OPEN ({', '.join(parts)})"
    if isinstance(stmt, CloseStmt):
        return prefix + f"CLOSE ({expr_text(stmt.unit)})"
    if isinstance(stmt, IoStmt):
        unit = "*" if isinstance(stmt.unit, StarUnit) else expr_text(stmt.unit)
        head = f"{stmt.direction} ({unit}, {_format_ref_text(stmt.format)})"
        if stmt.items:
            head += " " + ", ".join(_item_text(i) for i in stmt.items)
        return prefix + head
    if isinstance(stmt, FormatStmt):
        return f"{stmt.label} FORMAT ({stmt.descriptor_text})"
    if isinstance(stmt, DoStmt):
        return "\n".join([_do_head(stmt), *(canonical_text(s) for s in stmt.body)])
    if isinstance(stmt, ContinueStmt):
        return (f"{stmt.label} " if stmt.label is not None else "") + "CONTINUE"
    if isinstance(stmt, OtherStmt):
        return prefix + stmt.raw
    raise TypeError(f"not a statement: {stmt!r}")


def dump_ast(unit: ProgramUnit) -> str:
    """Indented statement tree for --dump-ast."""
    lines = [f"{unit.kind} {unit.name or ''}".rstrip()]
    for stmt, loops in walk(unit.statements):
        pad = "  " * (len(loops) + 1)
        if isinstance(stmt, DoStmt):
            lines.append(pad + _do_head(stmt))
        else:
            lines.append(f"{pad}{type(stmt).__name__}: {canonical_text(stmt)}")
    return "\n".join(lines)
