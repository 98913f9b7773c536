"""Tokenizer for the FORTRAN subset the format analyzer understands.

Source text is first assembled into logical statements (fixed-form column
rules or free-form ampersand continuations), then each statement is scanned
into classified tokens.  FORTRAN has no reserved words, so keyword-vs-
identifier resolution is driven by statement-leading context: ``READ`` is a
keyword only when a read statement can start there, otherwise it is an
ordinary identifier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .diagnostics import AnalysisError

FIXED_FORM = "fixed-form-77"
FREE_FORM = "free-form"

_DIALECTS = (FIXED_FORM, FREE_FORM)


class LexError(AnalysisError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(message, line, column)


@dataclass(frozen=True)
class SourceUnit:
    """One source file queued for analysis."""

    path: str
    text: str
    dialect: str = FIXED_FORM

    def __post_init__(self):
        if self.dialect not in _DIALECTS:
            raise ValueError(f"unknown dialect {self.dialect!r}")


class TokenKind(enum.Enum):
    IDENTIFIER = "identifier"
    INTEGER_CONSTANT = "integer-constant"
    REAL_CONSTANT = "real-constant"
    STRING_LITERAL = "string-literal"
    DATA_TYPE_KEYWORD = "data-type-keyword"
    CONTROL_KEYWORD = "control-keyword"
    FILE_OP_KEYWORD = "file-op-keyword"
    READ_WRITE_KEYWORD = "read-write-keyword"
    FORMAT_DESCRIPTOR_TEXT = "format-descriptor-text"
    PUNCTUATION = "punctuation"
    STATEMENT_LABEL = "statement-label"
    END_OF_STATEMENT = "end-of-statement"


@dataclass(frozen=True)
class Token:
    """A classified lexeme with its position in the original source.

    ``which`` discriminates within keyword and punctuation classes (for
    example ``READ`` or ``LPAREN``); ``value`` holds the numeric value of a
    statement label.  ``lexeme`` always preserves the original spelling.
    """

    kind: TokenKind
    lexeme: str
    line: int
    column: int
    which: str | None = None
    value: int | None = None


DATA_TYPE_WORDS = {"INTEGER", "REAL", "LOGICAL", "COMPLEX", "CHARACTER"}
CONTROL_WORDS = {
    "DO", "CONTINUE", "IF", "THEN", "ELSE", "ENDIF", "GOTO",
    "PROGRAM", "SUBROUTINE", "FUNCTION", "END", "PARAMETER",
}
FILE_OP_WORDS = {"OPEN", "CLOSE"}
READ_WRITE_WORDS = {"READ", "WRITE", "FORMAT"}

PUNCT_NAMES = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "*": "ASTERISK",
    "=": "EQUALS",
    "/": "SLASH",
    "'": "APOSTROPHE",
}
# Any other printable character lexes as Punctuation(OTHER); the paper's
# final label class is a catch-all, which keeps arithmetic statements lexable.
PUNCT_OTHER = "OTHER"


def describe_token(tok: Token) -> str:
    """Render a token kind for --dump-tokens output."""
    name = tok.kind.value
    if tok.which is not None:
        return f"{name}({tok.which})"
    if tok.value is not None:
        return f"{name}({tok.value})"
    return name


# ---------------------------------------------------------------------------
# Logical statement assembly
# ---------------------------------------------------------------------------

# A cell is (char, line, column); a segment is the run of cells one physical
# line contributed to a logical statement.


class _Builder:
    __slots__ = ("label", "label_line", "label_col", "label_text", "segments")

    def __init__(self, label, label_line, label_col, label_text):
        self.label = label
        self.label_line = label_line
        self.label_col = label_col
        self.label_text = label_text
        self.segments: list[list[tuple[str, int, int]]] = []


@dataclass
class _Statement:
    label: int | None
    label_line: int
    label_col: int
    label_text: str
    text: str
    pos: list[tuple[int, int]]


def _cells(line: str, lineno: int, start_col: int, end: int | None = None):
    chunk = line if end is None else line[:end]
    return [(ch, lineno, start_col + i) for i, ch in enumerate(chunk)]


def _finalize(builder: _Builder) -> _Statement:
    # Strip '!' comments with quote state carried across continuation
    # segments; a comment only runs to the end of its physical line.
    text_chars: list[str] = []
    pos: list[tuple[int, int]] = []
    quote: str | None = None
    for seg in builder.segments:
        for ch, ln, col in seg:
            if quote is not None:
                if ch == quote:
                    quote = None
            elif ch in "'\"":
                quote = ch
            elif ch == "!":
                break
            text_chars.append(ch)
            pos.append((ln, col))
    return _Statement(
        builder.label, builder.label_line, builder.label_col,
        builder.label_text, "".join(text_chars), pos,
    )


def _leading_label(cells, lineno: int):
    """Start a statement at a line's cells: leading blanks are dropped, and a
    leading integer followed by a blank is taken as the statement label.
    Returns the statement builder and the cells after the label."""
    i = 0
    while i < len(cells) and cells[i][0] == " ":
        i += 1
    j = i
    while j < len(cells) and cells[j][0].isdigit():
        j += 1
    if j > i and j < len(cells) and cells[j][0] == " ":
        label_text = "".join(c[0] for c in cells[i:j])
        return _Builder(int(label_text), cells[i][1], cells[i][2], label_text), cells[j + 1:]
    return _Builder(None, lineno, 1, ""), cells[i:]


def _assemble_fixed(text: str) -> list[_Statement]:
    statements: list[_Statement] = []
    current: _Builder | None = None

    def flush():
        nonlocal current
        if current is not None:
            statements.append(_finalize(current))
            current = None

    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r").replace("\t", " ")
        if not line.strip():
            continue
        if line[0] in "Cc*" or line.lstrip().startswith("!"):
            continue
        label_field = line[:5]
        cont = line[5] if len(line) > 5 else " "
        if any(c not in " 0123456789" for c in label_field):
            # Ragged source: the statement starts in column 1.  A leading
            # integer followed by a space is still taken as the label.
            flush()
            current, cells = _leading_label(_cells(line, lineno, 1, 72), lineno)
            current.segments.append(cells)
        elif cont not in " 0" and not label_field.strip():
            if current is None:
                raise LexError(lineno, 6, "continuation with nothing to continue")
            current.segments.append(_cells(line[6:72], lineno, 7))
        else:
            flush()
            # Blanks are insignificant inside the label field: ' 1 0 ' is 10.
            digits = label_field.replace(" ", "")
            label = int(digits) if digits else None
            label_col = len(label_field) - len(label_field.lstrip()) + 1 if digits else 1
            current = _Builder(label, lineno, label_col, digits)
            current.segments.append(_cells(line[6:72], lineno, 7))
    flush()
    return statements


def _assemble_free(text: str) -> list[_Statement]:
    statements: list[_Statement] = []
    current: _Builder | None = None
    quote: str | None = None
    continuing = False

    def flush():
        nonlocal current, continuing
        if current is not None:
            statements.append(_finalize(current))
        current = None
        continuing = False

    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r").replace("\t", " ")
        if not line.strip():
            continue
        if line.lstrip().startswith("!") and quote is None:
            continue

        cells = _cells(line, lineno, 1)
        if continuing:
            # Drop leading whitespace and an optional leading '&'.
            i = 0
            while i < len(cells) and cells[i][0] == " ":
                i += 1
            if i < len(cells) and cells[i][0] == "&" and quote is None:
                i += 1
            cells = cells[i:]
        else:
            flush()
            current, cells = _leading_label(cells, lineno)

        # Scan for a comment and a trailing continuation ampersand, keeping
        # quote state so neither is recognized inside a string literal.
        kept: list[tuple[str, int, int]] = []
        for cell in cells:
            ch = cell[0]
            if quote is not None:
                if ch == quote:
                    quote = None
            elif ch in "'\"":
                quote = ch
            elif ch == "!":
                break
            kept.append(cell)
        while kept and kept[-1][0] == " ":
            kept.pop()
        continuing = bool(kept) and kept[-1][0] == "&" and quote is None
        if continuing:
            kept.pop()
        if current is None:  # pragma: no cover - defensive
            current = _Builder(None, lineno, 1, "")
        current.segments.append(kept)
        if not continuing:
            flush()
    flush()
    return statements


# ---------------------------------------------------------------------------
# Raw scanning of one logical statement
# ---------------------------------------------------------------------------


class _Tk:
    __slots__ = ("kind", "which", "value", "s", "e")

    def __init__(self, kind, which, value, s, e):
        self.kind = kind
        self.which = which
        self.value = value
        self.s = s
        self.e = e


def _scan_raw(stmt: _Statement) -> list[_Tk]:
    text = stmt.text
    pos = stmt.pos
    toks: list[_Tk] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " ":
            i += 1
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == quote:
                    if j + 1 < n and text[j + 1] == quote:
                        j += 2
                        continue
                    break
                j += 1
            if j >= n:
                ln, col = pos[i]
                raise LexError(ln, col, "unterminated string literal")
            toks.append(_Tk(TokenKind.STRING_LITERAL, None, None, i, j + 1))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            is_real = False
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and not (j + 1 < n and text[j + 1].isalpha() and text[j + 1] not in "eEdD"):
                is_real = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eEdD":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    is_real = True
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            kind = TokenKind.REAL_CONSTANT if is_real else TokenKind.INTEGER_CONSTANT
            toks.append(_Tk(kind, None, None, i, j))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tk(TokenKind.IDENTIFIER, None, None, i, j))
            i = j
            continue
        if ch in PUNCT_NAMES:
            toks.append(_Tk(TokenKind.PUNCTUATION, PUNCT_NAMES[ch], None, i, i + 1))
            i += 1
            continue
        if ch.isprintable():
            toks.append(_Tk(TokenKind.PUNCTUATION, PUNCT_OTHER, None, i, i + 1))
            i += 1
            continue
        ln, col = pos[i]
        raise LexError(ln, col, f"character {ch!r} outside the accepted set")
    return toks


# ---------------------------------------------------------------------------
# Context classification
# ---------------------------------------------------------------------------


def _word_at(text: str, toks: list[_Tk], i: int) -> str | None:
    if 0 <= i < len(toks) and toks[i].kind is TokenKind.IDENTIFIER:
        return text[toks[i].s:toks[i].e].upper()
    return None


def _punct_at(toks, i: int) -> str | None:
    if 0 <= i < len(toks) and toks[i].kind is TokenKind.PUNCTUATION:
        return toks[i].which
    return None


# _match_paren and _split_commas serve raw tokens and finished Tokens alike:
# both carry .kind and .which.


def _match_paren(toks, i_lparen: int) -> int | None:
    """Index of the ')' that closes the '(' at i_lparen, or None."""
    depth = 0
    for j in range(i_lparen, len(toks)):
        which = _punct_at(toks, j)
        if which == "LPAREN":
            depth += 1
        elif which == "RPAREN":
            depth -= 1
            if depth == 0:
                return j
    return None


def _split_commas(toks: list) -> list[list]:
    """Split a token run at the commas outside parentheses."""
    parts: list[list] = []
    depth = 0
    current: list = []
    for tok in toks:
        which = tok.which if tok.kind is TokenKind.PUNCTUATION else None
        if which == "LPAREN":
            depth += 1
        elif which == "RPAREN":
            depth -= 1
        if which == "COMMA" and depth == 0:
            parts.append(current)
            current = []
        else:
            current.append(tok)
    parts.append(current)
    return parts


def _merge(toks: list[_Tk], i: int, kind, which) -> None:
    """Fuse toks[i] and toks[i+1] into a single token of the given class."""
    a, b = toks[i], toks[i + 1]
    toks[i] = _Tk(kind, which, None, a.s, b.e)
    del toks[i + 1]


def _classify_leading(stmt: _Statement, toks: list[_Tk], i: int) -> None:
    text = stmt.text
    w = _word_at(text, toks, i)
    if w is None:
        return
    nxt_punct = _punct_at(toks, i + 1)
    if nxt_punct == "EQUALS":
        return  # assignment: the leading word is a plain identifier

    def set_kw(kind, which, at=i):
        toks[at].kind = kind
        toks[at].which = which

    if w in DATA_TYPE_WORDS or (w == "DOUBLE" and _word_at(text, toks, i + 1) == "PRECISION"):
        if w == "DOUBLE":
            _merge(toks, i, TokenKind.DATA_TYPE_KEYWORD, "DOUBLE_PRECISION")
        else:
            set_kw(TokenKind.DATA_TYPE_KEYWORD, w)
        if _word_at(text, toks, i + 1) == "FUNCTION" and _word_at(text, toks, i + 2):
            set_kw(TokenKind.CONTROL_KEYWORD, "FUNCTION", i + 1)
    elif w in ("READ", "WRITE"):
        if nxt_punct == "LPAREN":
            close = _match_paren(toks, i + 1)
            if close is not None and _punct_at(toks, close + 1) == "EQUALS":
                return  # assignment to an array named READ/WRITE
            set_kw(TokenKind.READ_WRITE_KEYWORD, w)
        elif nxt_punct == "ASTERISK":
            set_kw(TokenKind.READ_WRITE_KEYWORD, w)
    elif w == "FORMAT":
        if stmt.label is not None and nxt_punct == "LPAREN":
            set_kw(TokenKind.READ_WRITE_KEYWORD, "FORMAT")
    elif w in FILE_OP_WORDS:
        if nxt_punct == "LPAREN":
            set_kw(TokenKind.FILE_OP_KEYWORD, w)
    elif w == "PARAMETER":
        if nxt_punct == "LPAREN":
            set_kw(TokenKind.CONTROL_KEYWORD, "PARAMETER")
    elif w == "CONTINUE":
        set_kw(TokenKind.CONTROL_KEYWORD, "CONTINUE")
    elif w == "GOTO":
        set_kw(TokenKind.CONTROL_KEYWORD, "GOTO")
    elif w == "GO" and _word_at(text, toks, i + 1) == "TO":
        _merge(toks, i, TokenKind.CONTROL_KEYWORD, "GOTO")
    elif w in ("PROGRAM", "SUBROUTINE"):
        if _word_at(text, toks, i + 1):
            set_kw(TokenKind.CONTROL_KEYWORD, w)
    elif w == "FUNCTION":
        if _word_at(text, toks, i + 1):
            set_kw(TokenKind.CONTROL_KEYWORD, "FUNCTION")
    elif w == "END":
        nw = _word_at(text, toks, i + 1)
        if nw == "IF":
            _merge(toks, i, TokenKind.CONTROL_KEYWORD, "ENDIF")
        elif nw == "DO":
            # No ENDDO keyword class exists; the parser recognizes the
            # merged identifier by its text.
            _merge(toks, i, TokenKind.IDENTIFIER, None)
        elif nw in ("PROGRAM", "SUBROUTINE", "FUNCTION") or len(toks) == i + 1:
            set_kw(TokenKind.CONTROL_KEYWORD, "END")
    elif w == "ENDIF":
        if len(toks) == i + 1:
            set_kw(TokenKind.CONTROL_KEYWORD, "ENDIF")
    elif w == "ELSE" or w == "ELSEIF":
        set_kw(TokenKind.CONTROL_KEYWORD, "ELSE")
        if w == "ELSEIF" or _word_at(text, toks, i + 1) == "IF":
            j = i + 1 if w == "ELSEIF" else i + 2
            if w != "ELSEIF":
                set_kw(TokenKind.CONTROL_KEYWORD, "IF", i + 1)
            if _punct_at(toks, j) == "LPAREN":
                close = _match_paren(toks, j)
                if close is not None and _word_at(text, toks, close + 1) == "THEN" and close + 2 == len(toks):
                    set_kw(TokenKind.CONTROL_KEYWORD, "THEN", close + 1)
    elif w == "IF":
        if nxt_punct == "LPAREN":
            close = _match_paren(toks, i + 1)
            if close is None:
                return
            set_kw(TokenKind.CONTROL_KEYWORD, "IF")
            if _word_at(text, toks, close + 1) == "THEN" and close + 2 == len(toks):
                set_kw(TokenKind.CONTROL_KEYWORD, "THEN", close + 1)
            else:
                # Logical IF: the remainder is itself a statement.
                _classify_leading(stmt, toks, close + 1)
    elif w == "DO":
        k = i + 1
        if k < len(toks) and toks[k].kind is TokenKind.INTEGER_CONSTANT:
            k += 1
        if _word_at(text, toks, k) and _punct_at(toks, k + 1) == "EQUALS":
            set_kw(TokenKind.CONTROL_KEYWORD, "DO")


def _collapse_format_text(stmt: _Statement, toks: list[_Tk]) -> None:
    """Replace a FORMAT statement's parenthesized body with one verbatim token."""
    if not toks or toks[0].kind is not TokenKind.READ_WRITE_KEYWORD or toks[0].which != "FORMAT":
        return
    if _punct_at(toks, 1) != "LPAREN":
        return
    close = _match_paren(toks, 1)
    if close is None:
        ln, col = stmt.pos[toks[1].s]
        raise LexError(ln, col, "unbalanced parentheses in FORMAT statement")
    start, end = toks[1].e, toks[close].s
    fdt = _Tk(TokenKind.FORMAT_DESCRIPTOR_TEXT, None, None, start, end)
    toks[2:close] = [fdt] if end > start else []


def _reclassify_inline_formats(stmt: _Statement, toks: list[_Tk]) -> None:
    """Mark a quoted format inside a READ/WRITE control list as descriptor text."""
    if not toks or toks[0].kind is not TokenKind.READ_WRITE_KEYWORD:
        return
    if toks[0].which not in ("READ", "WRITE") or _punct_at(toks, 1) != "LPAREN":
        return
    close = _match_paren(toks, 1)
    if close is None:
        return
    for idx, part in enumerate(_split_commas(toks[2:close])):
        if idx == 1 and len(part) == 1 and part[0].kind is TokenKind.STRING_LITERAL:
            part[0].kind = TokenKind.FORMAT_DESCRIPTOR_TEXT
        elif (
            len(part) == 3
            and _word_at(stmt.text, part, 0) == "FMT"
            and _punct_at(part, 1) == "EQUALS"
            and part[2].kind is TokenKind.STRING_LITERAL
        ):
            part[2].kind = TokenKind.FORMAT_DESCRIPTOR_TEXT


def tokenize(unit: SourceUnit) -> list[Token]:
    """Convert one source unit into a flat token list.

    Statement boundaries become EndOfStatement tokens; comment lines and
    blank lines produce nothing.  Raises LexError on characters outside the
    accepted set and on unterminated string literals.
    """
    assemble = _assemble_fixed if unit.dialect == FIXED_FORM else _assemble_free
    out: list[Token] = []
    for stmt in assemble(unit.text):
        raws = _scan_raw(stmt)
        if not raws and stmt.label is None:
            continue
        _classify_leading(stmt, raws, 0)
        _collapse_format_text(stmt, raws)
        _reclassify_inline_formats(stmt, raws)

        if stmt.label is not None:
            out.append(Token(
                TokenKind.STATEMENT_LABEL, stmt.label_text,
                stmt.label_line, stmt.label_col, value=stmt.label,
            ))
        for tk in raws:
            ln, col = stmt.pos[tk.s]
            out.append(Token(tk.kind, stmt.text[tk.s:tk.e], ln, col,
                             which=tk.which, value=tk.value))
        if stmt.pos:
            ln, col = stmt.pos[-1]
            out.append(Token(TokenKind.END_OF_STATEMENT, "", ln, col + 1))
        else:
            out.append(Token(TokenKind.END_OF_STATEMENT, "",
                             stmt.label_line, stmt.label_col + len(stmt.label_text)))
    return out
