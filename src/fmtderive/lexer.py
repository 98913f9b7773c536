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
import re
from bisect import bisect_right
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


class _Statement:
    """One logical statement: its label, its text with comments cut, and for
    each physical-line segment of that text its offset and its source line
    and column."""

    __slots__ = ("label", "label_line", "label_col", "label_text", "text", "parts",
                 "offsets", "starts")

    def __init__(self, label, label_line, label_col, label_text):
        self.label = label
        self.label_line = label_line
        self.label_col = label_col
        self.label_text = label_text
        self.text = ""
        self.parts: list[str] = []
        self.offsets: list[int] = []
        self.starts: list[tuple[int, int]] = []

    def add(self, text: str, line: int, column: int) -> None:
        """Append one physical line's segment, which starts at line:column."""
        self.offsets.append(self.offsets[-1] + len(self.parts[-1]) if self.parts else 0)
        self.starts.append((line, column))
        self.parts.append(text)

    def finish(self) -> _Statement:
        self.text = "".join(self.parts)
        return self

    def position(self, offset: int) -> tuple[int, int]:
        """Source line and column of the character at offset in text."""
        at = bisect_right(self.offsets, offset) - 1
        line, column = self.starts[at]
        return line, column + offset - self.offsets[at]


# The patterns in this module are compiled on first use, through re's cache,
# which keeps their compilation out of import time.

# The code of a line up to a '!' comment or to a quote that no closing quote
# matches on the same line.
_CODE = r"""[^'"!]*(?:(?:'[^']*'|"[^"]*")[^'"!]*)*"""


def _cut_comment(text: str, quote: str | None = None) -> tuple[str, str | None]:
    """Cut a '!' comment off one physical line's text.  quote is the quote of
    a string still open from the previous segment; returns the text kept and
    the quote still open at its end."""
    start = 0
    if quote is not None:
        start = text.find(quote) + 1
        if not start:
            return text, quote
    end = re.compile(_CODE).match(text, start).end()
    if end == len(text):
        return text, None
    if text[end] == "!":
        return text[:end], None
    return text, text[end]


_LABEL = r" *(?:([0-9]+) )?"


def _leading_label(line: str, lineno: int) -> tuple[_Statement, int]:
    """Start a statement at a line: leading blanks are dropped, and a leading
    integer followed by a blank is taken as the statement label.  Returns the
    statement and the offset in line of the text after the label."""
    match = re.match(_LABEL, line)
    digits = match.group(1)
    if digits is None:
        return _Statement(None, lineno, 1, ""), match.end()
    return _Statement(int(digits), lineno, match.start(1) + 1, digits), match.end()


def _assemble_fixed(text: str) -> list[_Statement]:
    statements: list[_Statement] = []
    current: _Statement | None = None
    quote: str | None = None  # carried across the segments of one statement

    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r").replace("\t", " ")
        if not line.strip() or line[0] in "Cc*" or line.lstrip().startswith("!"):
            continue
        label_field = line[:5]
        cont = line[5] if len(line) > 5 else " "
        start = 6
        if any(c not in " 0123456789" for c in label_field):
            # Ragged source: the statement starts in column 1.  A leading
            # integer followed by a space is still taken as the label.
            current, start = _leading_label(line[:72], lineno)
            statements.append(current)
            quote = None
        elif cont not in " 0" and not label_field.strip():
            if current is None:
                raise LexError(lineno, 6, "continuation with nothing to continue")
        else:
            # Blanks are insignificant inside the label field: ' 1 0 ' is 10.
            digits = label_field.replace(" ", "")
            label = int(digits) if digits else None
            label_col = len(label_field) - len(label_field.lstrip()) + 1 if digits else 1
            current = _Statement(label, lineno, label_col, digits)
            statements.append(current)
            quote = None
        kept, quote = _cut_comment(line[start:72], quote)
        current.add(kept, lineno, start + 1)
    return [stmt.finish() for stmt in statements]


def _assemble_free(text: str) -> list[_Statement]:
    statements: list[_Statement] = []
    current: _Statement | None = None
    continuing = False

    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r").replace("\t", " ")
        if not line.strip() or line.lstrip().startswith("!"):
            continue
        if continuing:
            # Drop leading blanks and an optional leading '&'.
            start = len(line) - len(line.lstrip(" "))
            start += line.startswith("&", start)
        else:
            current, start = _leading_label(line, lineno)
            statements.append(current)
            quote = None
        # A trailing '&' continues the statement; inside a string it continues
        # the string after the next line's leading '&' (F95 3.3.1.3).
        kept, quote = _cut_comment(line[start:], quote)
        kept = kept.rstrip(" ")
        continuing = kept.endswith("&")
        current.add(kept[:-1] if continuing else kept, lineno, start + 1)
    return [stmt.finish() for stmt in statements]


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


# Letters are the characters str.isalpha accepts: over Latin-1, the source
# encoding, that is \w less the digits 0-9, '_' and the numerals ¹²³¼½¾.
# Digits are ASCII only.
_RAW = r"""(?xs) \ * (?:  # blanks, then one token
    # A quoted string; a doubled quote stands for one quote character.
    (?P<string> '(?:[^']|'')*'(?!') | "(?:[^"]|"")*"(?!") )
  | (?P<unterminated> ['"] )
    # 1.5, 1., .5, 1.5E3, 1D-2; a '.' before a letter other than E or D, as
    # in 1.X, is not part of the number.
  | (?P<real> (?: [0-9]+ \.(?![^\W\d_eEdD\xb2\xb3\xb9\xbc-\xbe]) [0-9]* | \.[0-9]+ )
              (?: [eEdD][+-]?[0-9]+ )?
            | [0-9]+ [eEdD][+-]?[0-9]+ )
  | (?P<integer> [0-9]+ )
  | (?P<word> [^\W\d_\xb2\xb3\xb9\xbc-\xbe] [^\W\xb2\xb3\xb9\xbc-\xbe]* )
    # (),*=/ by name; any other printable character is OTHER.
  | (?P<punct> [^ ] )
)"""

_RAW_KINDS = {
    "string": TokenKind.STRING_LITERAL,
    "real": TokenKind.REAL_CONSTANT,
    "integer": TokenKind.INTEGER_CONSTANT,
    "word": TokenKind.IDENTIFIER,
}


def _scan_raw(stmt: _Statement) -> list[_Tk]:
    toks: list[_Tk] = []
    for match in re.finditer(_RAW, stmt.text):
        group = match.lastgroup
        s, e = match.span(group)
        kind = _RAW_KINDS.get(group)
        if kind is not None:
            toks.append(_Tk(kind, None, None, s, e))
        elif group == "punct" and match.group(group).isprintable():
            which = PUNCT_NAMES.get(match.group(group), PUNCT_OTHER)
            toks.append(_Tk(TokenKind.PUNCTUATION, which, None, s, e))
        else:
            ln, col = stmt.position(s)
            if group == "unterminated":
                raise LexError(ln, col, "unterminated string literal")
            raise LexError(ln, col, f"character {match.group(group)!r} outside the accepted set")
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
        ln, col = stmt.position(toks[1].s)
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
            ln, col = stmt.position(tk.s)
            out.append(Token(tk.kind, stmt.text[tk.s:tk.e], ln, col,
                             which=tk.which, value=tk.value))
        if stmt.text:
            ln, col = stmt.position(len(stmt.text) - 1)
            out.append(Token(TokenKind.END_OF_STATEMENT, "", ln, col + 1))
        else:
            out.append(Token(TokenKind.END_OF_STATEMENT, "",
                             stmt.label_line, stmt.label_col + len(stmt.label_text)))
    return out
