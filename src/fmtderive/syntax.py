"""Statement-level parsing of the token stream into a program AST.

Only the statement classes that matter for format derivation are given
structure: declarations, PARAMETER, OPEN/CLOSE, READ/WRITE, FORMAT and DO
loops.  Everything else is preserved as an OtherStmt so that arithmetic and
control flow the tool does not understand can never abort an analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import AnalysisError
from .lexer import (
    DATA_TYPE_WORDS, Token, TokenKind, _match_paren, _punct_at, _split_commas,
)


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


@dataclass(frozen=True, slots=True)
class Literal:
    value: int


@dataclass(frozen=True, slots=True)
class SymbolRef:
    name: str


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # + - * or /
    left: "IntExpr"
    right: "IntExpr"


@dataclass(frozen=True, slots=True)
class Neg:
    operand: "IntExpr"


IntExpr = Literal | SymbolRef | BinOp | Neg

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def expr_text(expr: IntExpr, context: int = 0) -> str:
    """Render expr with the fewest parentheses that parse back to the same
    tree; context is the precedence its position needs.  Operators are left
    associative, and a leading minus negates the first product of a sum."""
    if isinstance(expr, Literal):
        return str(expr.value)
    if isinstance(expr, SymbolRef):
        return expr.name
    if isinstance(expr, Neg):
        own, text = 1, "-" + expr_text(expr.operand, 2)
    elif isinstance(expr, BinOp):
        own = _PRECEDENCE[expr.op]
        text = expr_text(expr.left, own) + expr.op + expr_text(expr.right, own + 1)
    else:
        raise TypeError(f"not an IntExpr: {expr!r}")
    return f"({text})" if own < context else text


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class StarUnit:
    """The '*' unit: stdin for READ, stdout for WRITE."""


UnitSpec = IntExpr | StarUnit


@dataclass(frozen=True, slots=True)
class ListDirected:
    """Format '*': fields separated by default separators."""


@dataclass(frozen=True, slots=True)
class Label:
    value: int


@dataclass(frozen=True, slots=True)
class Inline:
    descriptor_text: str


FormatRef = ListDirected | Label | Inline


@dataclass(frozen=True, slots=True)
class DeclEntity:
    name: str
    dimensions: tuple[IntExpr, ...] = ()
    char_len: int | None = None


@dataclass(frozen=True, slots=True)
class IoItem:
    name: str
    subscripts: tuple[IntExpr, ...] = ()
    literal: bool = False


@dataclass(slots=True)
class DeclStmt:
    base_type: str  # INTEGER, REAL, DOUBLE_PRECISION, CHARACTER, LOGICAL, COMPLEX
    char_len: int | None
    entities: list[DeclEntity]
    label: int | None = None
    line: int = field(default=0, compare=False)


@dataclass(slots=True)
class ParameterStmt:
    # value is a Python int/float/str literal, or an IntExpr to be evaluated
    # against the constant table when the tables are built.
    assignments: list[tuple[str, object]]
    label: int | None = None
    line: int = field(default=0, compare=False)


@dataclass(slots=True)
class OpenStmt:
    unit: IntExpr
    file_name: str | None = None
    file_symbol: str | None = None
    status: str | None = None
    label: int | None = None
    line: int = field(default=0, compare=False)


@dataclass(slots=True)
class CloseStmt:
    unit: IntExpr
    label: int | None = None
    line: int = field(default=0, compare=False)


@dataclass(slots=True)
class IoStmt:
    direction: str  # READ or WRITE
    unit: UnitSpec
    format: FormatRef
    items: list[IoItem]
    label: int | None = None
    conditional: bool = field(default=False, compare=False)
    line: int = field(default=0, compare=False)


@dataclass(slots=True)
class FormatStmt:
    label: int
    descriptor_text: str
    line: int = field(default=0, compare=False)


@dataclass(slots=True)
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


@dataclass(slots=True)
class ContinueStmt:
    label: int | None = None
    line: int = field(default=0, compare=False)


@dataclass(slots=True)
class OtherStmt:
    raw: str
    label: int | None = None
    line: int = field(default=0, compare=False)


Stmt = (
    DeclStmt | ParameterStmt | OpenStmt | CloseStmt | IoStmt | FormatStmt
    | DoStmt | ContinueStmt | OtherStmt
)

ANONYMOUS_MAIN = "anonymous-main"


@dataclass(slots=True)
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
    """Parse integer constants, names, + - * /, a leading sign and
    parentheses, with FORTRAN precedence; anything richer (**, function
    calls, 0:4) becomes an opaque SymbolRef of its text."""
    if not toks:
        raise ParseError(line, "missing expression")
    try:
        expr, end = _operand(toks, 0, 1)
        if end == len(toks):
            return expr
    except _Opaque:
        pass
    return SymbolRef(_raw_text(toks))


def _operand(toks: list[Token], pos: int, level: int) -> tuple[IntExpr, int]:
    """The sum (level 1), product (level 2) or primary (level 3) that starts
    at toks[pos], and the position after it."""
    tok = toks[pos] if pos < len(toks) else None
    if level == 3:
        if tok is not None and tok.kind is TokenKind.INTEGER_CONSTANT:
            return Literal(int(tok.lexeme)), pos + 1
        if tok is not None and tok.kind is TokenKind.IDENTIFIER:
            return SymbolRef(tok.lexeme.upper()), pos + 1
        if _punct_at(toks, pos) == "LPAREN":
            inner, pos = _operand(toks, pos + 1, 1)
            if _punct_at(toks, pos) == "RPAREN":
                return inner, pos + 1
        raise _Opaque
    sign = tok.lexeme if level == 1 and _punct_at(toks, pos) == "OTHER" else None
    if sign in ("+", "-"):
        pos += 1
    left, pos = _operand(toks, pos, level + 1)
    if sign == "-":
        left = Neg(left)
    # Only punctuation tokens are spelled + - * or /.
    while pos < len(toks) and _PRECEDENCE.get(toks[pos].lexeme) == level:
        right, end = _operand(toks, pos + 1, level + 1)
        left, pos = BinOp(toks[pos].lexeme, left, right), end
    return left, pos


# ---------------------------------------------------------------------------
# Statement parsers
# ---------------------------------------------------------------------------

_TYPE_WIDTHS_TO_DOUBLE = {("REAL", 8), ("REAL", 16)}


def _star_length(toks: list[Token], i: int, line: int, what: str) -> tuple[int | None, int]:
    """The length `*n`, `*(n)` or `*(*)` (F77 8.4.2) if one starts at toks[i],
    and the index after it.  A length that is not an integer literal reads as
    None, as does no length at all."""
    if _punct_at(toks, i) != "ASTERISK":
        return None, i
    close = _match_paren(toks, i + 1) if _punct_at(toks, i + 1) == "LPAREN" else None
    if close is not None and close > i + 2:
        inner = toks[i + 2:close]
        literal = len(inner) == 1 and inner[0].kind is TokenKind.INTEGER_CONSTANT
        return (int(inner[0].lexeme) if literal else None), close + 1
    if i + 1 >= len(toks) or toks[i + 1].kind is not TokenKind.INTEGER_CONSTANT:
        raise ParseError(line, f"malformed {what}")
    return int(toks[i + 1].lexeme), i + 2


def _parse_decl(toks: list[Token], line: int, label: int | None) -> DeclStmt:
    base = toks[0].which
    assert base is not None
    width, i = _star_length(toks, 1, line, f"{base} length specifier")
    char_len = width if base == "CHARACTER" else None
    if (base, width) in _TYPE_WIDTHS_TO_DOUBLE:
        base = "DOUBLE_PRECISION"
    entities: list[DeclEntity] = []
    for part in _split_commas(toks[i:]):
        if not part or part[0].kind is not TokenKind.IDENTIFIER:
            raise ParseError(line, "malformed declaration entity")
        name = part[0].lexeme
        dims: tuple[IntExpr, ...] = ()
        j = 1
        if _punct_at(part, j) == "LPAREN":
            close = _match_paren(part, j)
            if close is None:
                raise ParseError(line, f"unbalanced dimensions for {name}")
            dims = tuple(
                _parse_int_expr(p, line) for p in _split_commas(part[j + 1:close])
            )
            j = close + 1
        entity_len, j = _star_length(part, j, line, f"length for {name}")
        if j != len(part):
            raise ParseError(line, f"unexpected tokens after declaration of {name}")
        entities.append(DeclEntity(name, dims, entity_len))
    return DeclStmt(base, char_len, entities, label, line=line)


def _parse_parameter(toks: list[Token], line: int, label: int | None) -> ParameterStmt:
    # The lexer makes PARAMETER a keyword only when a '(' follows it.
    close = _match_paren(toks, 1)
    if close is None or close != len(toks) - 1:
        raise ParseError(line, "unbalanced parentheses in PARAMETER")
    assignments: list[tuple[str, object]] = []
    for part in _split_commas(toks[2:close]):
        if (
            len(part) < 3
            or part[0].kind is not TokenKind.IDENTIFIER
            or _punct_at(part, 1) != "EQUALS"
        ):
            raise ParseError(line, "malformed PARAMETER assignment")
        name = part[0].lexeme
        value = _parse_param_value(part[2:], line)
        assignments.append((name, value))
    return ParameterStmt(assignments, label, line=line)


def _parse_param_value(toks: list[Token], line: int) -> object:
    """A signed integer or real constant, or a string, as its Python value;
    anything else as an IntExpr."""
    tok = toks[-1]
    if len(toks) == 1 and tok.kind is TokenKind.STRING_LITERAL:
        return _string_value(tok)
    if len(toks) == 1 or len(toks) == 2 and toks[0].lexeme in ("+", "-"):
        sign = -1 if toks[0].lexeme == "-" else 1
        if tok.kind is TokenKind.INTEGER_CONSTANT:
            return sign * int(tok.lexeme)
        if tok.kind is TokenKind.REAL_CONSTANT:
            return sign * float(tok.lexeme.upper().replace("D", "E"))
    return _parse_int_expr(toks, line)


def _control_list(toks: list[Token], line: int, verb: str):
    """Split the parenthesized control list that follows an OPEN, CLOSE, READ
    or WRITE keyword.  Returns the index of its closing ')', the non-empty
    positional parts, the KEY=value parts by key, and the unit's tokens."""
    close = _match_paren(toks, 1) if _punct_at(toks, 1) == "LPAREN" else None
    if close is None:
        raise ParseError(line, f"malformed {verb} statement")
    positional: list[list[Token]] = []
    keywords: dict[str, list[Token]] = {}
    for part in _split_commas(toks[2:close]):
        if (
            len(part) >= 3
            and part[0].kind is TokenKind.IDENTIFIER
            and _punct_at(part, 1) == "EQUALS"
        ):
            keywords[part[0].lexeme.upper()] = part[2:]
        elif part:
            positional.append(part)
    unit_toks = keywords.get("UNIT") or (positional[0] if positional else None)
    if not unit_toks:
        raise ParseError(line, f"{verb} without a unit")
    return close, positional, keywords, unit_toks


def _parse_open(toks: list[Token], line: int, label: int | None) -> OpenStmt:
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
    return OpenStmt(unit, file_name, file_symbol, status, label, line=line)


def _parse_close(toks: list[Token], line: int, label: int | None) -> CloseStmt:
    *_, unit_toks = _control_list(toks, line, "CLOSE")
    return CloseStmt(_parse_int_expr(unit_toks, line), label, line=line)


def _parse_format_ref(toks: list[Token], line: int) -> FormatRef:
    if len(toks) == 1:
        tok = toks[0]
        if tok.which == "ASTERISK":
            return ListDirected()
        if tok.kind is TokenKind.INTEGER_CONSTANT:
            value = int(tok.lexeme)
            if value <= 0:
                raise ParseError(line, "format label must be positive")
            return Label(value)
        if tok.kind in (TokenKind.FORMAT_DESCRIPTOR_TEXT, TokenKind.STRING_LITERAL):
            return Inline(_strip_outer_parens(_string_value(tok)))
    raise ParseError(line, "unsupported format specifier")


def _parse_io(toks: list[Token], line: int, label: int | None) -> IoStmt:
    direction = toks[0].which
    if _punct_at(toks, 1) == "ASTERISK":
        # READ *, list: list-directed transfer on the standard unit.
        rest = toks[2:]
        if _punct_at(rest, 0) == "COMMA":
            rest = rest[1:]
        items = _parse_io_items(rest, line)
        return IoStmt(direction, StarUnit(), ListDirected(), items, label, line=line)
    close, positional, keywords, unit_toks = _control_list(toks, line, direction)
    unit: UnitSpec
    if len(unit_toks) == 1 and unit_toks[0].which == "ASTERISK":
        unit = StarUnit()
    else:
        unit = _parse_int_expr(unit_toks, line)

    fmt_toks = keywords.get("FMT")
    if fmt_toks is None and len(positional) >= 2:
        fmt_toks = positional[1]
    fmt: FormatRef = ListDirected() if fmt_toks is None else _parse_format_ref(fmt_toks, line)

    items = _parse_io_items(toks[close + 1:], line)
    return IoStmt(direction, unit, fmt, items, label, line=line)


def _parse_io_items(toks: list[Token], line: int) -> list[IoItem]:
    items: list[IoItem] = []
    if not toks:
        return items
    for part in _split_commas(toks):
        if not part:
            raise ParseError(line, "empty I/O list item")
        head = part[0]
        if head.which == "LPAREN":
            raise ParseError(
                line, "implied-DO loops in I/O item lists are not supported")
        if head.kind is TokenKind.IDENTIFIER:
            subs: tuple[IntExpr, ...] = ()
            if len(part) > 1:
                if part[1].which != "LPAREN":
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
    # The lexer makes FORMAT a keyword only in a labelled statement, before a '('.
    body = toks[2:-1]
    if toks[-1].which != "RPAREN":
        raise ParseError(line, "malformed FORMAT statement")
    if len(body) == 0:
        text = ""
    elif len(body) == 1 and body[0].kind is TokenKind.FORMAT_DESCRIPTOR_TEXT:
        text = body[0].lexeme
    else:
        raise ParseError(line, "malformed FORMAT statement")
    return FormatStmt(label, text, line=line)


def _parse_do_header(toks: list[Token], line: int, own_label: int | None) -> DoStmt:
    # The lexer makes DO a keyword only in `DO [label] [,] name =`.
    terminal = int(toks[1].lexeme) if toks[1].kind is TokenKind.INTEGER_CONSTANT else None
    i = 1 + (terminal is not None)
    i += _punct_at(toks, i) == "COMMA"
    var = toks[i].lexeme
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


def _parse_continue(toks: list[Token], line: int, label: int | None) -> ContinueStmt:
    return ContinueStmt(label, line=line)


# The parser of each modelled statement, by the `which` of the keyword token
# that leads it.  Keyword and punctuation names never coincide and other
# tokens have none, so a statement led by anything else is kept as text.
_PARSERS = {
    **dict.fromkeys(DATA_TYPE_WORDS.values(), _parse_decl),
    "PARAMETER": _parse_parameter,
    "FORMAT": _parse_format_stmt,
    "DO": _parse_do_header,
    "CONTINUE": _parse_continue,
    "OPEN": _parse_open,
    "CLOSE": _parse_close,
    "READ": _parse_io,
    "WRITE": _parse_io,
}
# The statements of that table that a logical IF may guard.
_GUARDED = ("OPEN", "CLOSE", "READ", "WRITE")
# Program unit headers; the first one names the unit.
_HEADERS = ("PROGRAM", "SUBROUTINE", "FUNCTION")


def parse(tokens: list[Token]) -> ProgramUnit:
    """Build a ProgramUnit from a token stream produced by tokenize().

    Statements outside the six format-relevant classes are preserved as
    OtherStmt without further checking; errors are raised only for malformed
    declarations, PARAMETER, OPEN/CLOSE, READ/WRITE, FORMAT and DO
    statements.
    """
    unit = ProgramUnit(None, ANONYMOUS_MAIN, [])
    if tokens:
        unit.end_line = tokens[-1].line  # tokens come in source order
    loops: list[DoStmt] = []  # open loops, innermost last
    if_depth = 0
    start = 0
    ends = [i for i, tok in enumerate(tokens) if tok.kind is TokenKind.END_OF_STATEMENT]
    for end in ends + [len(tokens)]:
        toks, start = tokens[start:end], end + 1
        if not toks:
            continue
        label = toks[0].value  # only a statement label has a value
        if label is not None:
            del toks[0]
        line = toks[0].line if toks else 0
        # A typed FUNCTION header is led by its FUNCTION keyword, after the
        # type and its length; the lexer makes FUNCTION a keyword only there.
        head = 0
        if toks and toks[0].kind is TokenKind.DATA_TYPE_KEYWORD:
            head = next((k for k, tok in enumerate(toks) if tok.which == "FUNCTION"), 0)
        key = toks[head].which if toks else None
        body, conditional = toks, if_depth > 0
        if key == "IF":
            rest = toks[_match_paren(toks, 1) + 1:]
            if rest and rest[0].which in _GUARDED:
                body, key, conditional = rest, rest[0].which, True
            elif rest and rest[0].which == "THEN":
                if_depth += 1
        elif key == "ENDIF":
            if_depth = max(0, if_depth - 1)
        elif key in _HEADERS and unit.kind == ANONYMOUS_MAIN:
            unit.kind, unit.name = key, toks[head + 1].lexeme
        parser = _PARSERS.get(key)
        try:
            stmt = parser(body, line, label) if parser else OtherStmt(_raw_text(toks), label, line)
        except ParseError as err:
            err.column = toks[0].column
            raise
        if isinstance(stmt, IoStmt):
            stmt.conditional = conditional
        # A loop joins its enclosing body when it opens; a statement then
        # closes the loops that end on its label, or else one END DO loop.
        (loops[-1].body if loops else unit.statements).append(stmt)
        if isinstance(stmt, DoStmt):
            loops.append(stmt)
            continue
        open_loops = len(loops)
        while label is not None and loops and loops[-1].label == label:
            loops.pop()
        if (len(loops) == open_loops and loops and loops[-1].label is None
                and isinstance(stmt, OtherStmt)
                and stmt.raw.upper().replace(" ", "") == "ENDDO"):
            loops.pop()

    if loops:
        raise ParseError(loops[-1].line, "unterminated DO loop", loops[-1].column)
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
