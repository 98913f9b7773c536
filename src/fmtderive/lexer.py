"""Tokenizer for the FORTRAN subset the format analyzer understands.

Source text is first assembled into logical statements (fixed-form column
rules or free-form ampersand continuations), then each statement is scanned
into classified tokens.  FORTRAN has no reserved words, so keyword-vs-
identifier resolution is driven by statement-leading context: ``READ`` is a
keyword only when a read statement can start there, otherwise it is an
ordinary identifier.  One pass classifies each statement, a logical IF's
statement included.
"""

from __future__ import annotations

import enum
import re
import sys
from bisect import bisect_right
from typing import Iterator, NamedTuple

from .diagnostics import AnalysisError

FIXED_FORM = "fixed"
FREE_FORM = "free"


class LexError(AnalysisError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(message, line, column)


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


class Token(NamedTuple):
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


# The data type keywords, by spelling, and the type each names.  DOUBLE
# PRECISION may also be written as two words, which the lexer merges.
DATA_TYPE_WORDS = {
    "INTEGER": "INTEGER", "REAL": "REAL", "LOGICAL": "LOGICAL", "COMPLEX": "COMPLEX",
    "CHARACTER": "CHARACTER", "DOUBLEPRECISION": "DOUBLE_PRECISION",
}

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
    """One logical statement: its label token, its text with comments cut,
    for each physical-line segment of that text its offset and its source
    line and column, and the source line and column just past its last
    character, where its end-of-statement token goes."""

    __slots__ = ("label", "text", "offsets", "starts", "end")

    def __init__(self, label: Token | None):
        self.label = label
        self.text = ""
        self.offsets: list[int] = []
        self.starts: list[tuple[int, int]] = []
        self.end = (label.line, label.column + len(label.lexeme)) if label else None

    def add(self, text: str, line: int, column: int) -> None:
        """Append one physical line's segment, which starts at line:column."""
        self.offsets.append(len(self.text))
        self.starts.append((line, column))
        self.text += text
        if text:
            self.end = (line, column + len(text))

    def position(self, offset: int) -> tuple[int, int]:
        """Source line and column of the character at offset in text."""
        at = bisect_right(self.offsets, offset) - 1
        line, column = self.starts[at]
        return line, column + offset - self.offsets[at]


def _label(digits: str, line: int, column: int) -> Token:
    return Token(TokenKind.STATEMENT_LABEL, digits, line, column, value=int(digits))


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
    label = _label(digits, lineno, match.start(1) + 1) if digits else None
    return _Statement(label), match.end()


def _assemble_fixed(text: str) -> Iterator[_Statement]:
    current: _Statement | None = None
    quote: str | None = None  # carried across the segments of one statement

    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r").replace("\t", " ")
        if not line.strip() or line[0] in "Cc*" or line.lstrip().startswith("!"):
            continue
        label_field = line[:5]
        cont = line[5] if len(line) > 5 else " "
        start = 6
        if label_field.strip(" 0123456789"):
            # Ragged source: the statement starts in column 1.  A leading
            # integer followed by a space is still taken as the label.
            if current is not None:
                yield current
            current, start = _leading_label(line[:72], lineno)
            quote = None
        elif cont not in " 0" and not label_field.strip():
            if current is None:
                raise LexError(lineno, 6, "continuation with nothing to continue")
        else:
            # Blanks are insignificant inside the label field: ' 1 0 ' is 10.
            digits = label_field.replace(" ", "")
            label_col = len(label_field) - len(label_field.lstrip()) + 1
            if current is not None:
                yield current
            current = _Statement(_label(digits, lineno, label_col) if digits else None)
            quote = None
        kept, quote = _cut_comment(line[start:72], quote)
        current.add(kept, lineno, start + 1)
    if current is not None:
        yield current


def _assemble_free(text: str) -> Iterator[_Statement]:
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
            if current is not None:
                yield current
            current, start = _leading_label(line, lineno)
            quote = None
        # A trailing '&' continues the statement; inside a string it continues
        # the string after the next line's leading '&' (F95 3.3.1.3).
        kept, quote = _cut_comment(line[start:], quote)
        kept = kept.rstrip(" ")
        continuing = kept.endswith("&")
        current.add(kept[:-1] if continuing else kept, lineno, start + 1)
    if current is not None:
        yield current


# ---------------------------------------------------------------------------
# Raw scanning of one logical statement
# ---------------------------------------------------------------------------


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

# The kind of token each group of _RAW yields, by group number; an
# unterminated string yields none.
_RAW_KINDS = (
    None, TokenKind.STRING_LITERAL, None, TokenKind.REAL_CONSTANT,
    TokenKind.INTEGER_CONSTANT, TokenKind.IDENTIFIER, TokenKind.PUNCTUATION,
)

# Token's generated __new__ is a Python function; the scanner, which builds
# nearly every token, fills all six fields through tuple.__new__ instead.
_new_token = tuple.__new__


def _scan_raw(stmt: _Statement) -> tuple[list[Token], list[int]]:
    """Scan a statement's text into tokens classified by their form alone,
    and the offset in the text where each starts."""
    text, offsets, starts = stmt.text, stmt.offsets, stmt.starts
    toks: list[Token] = []
    offs: list[int] = []
    # A cursor moving forward over the segments: line is the source line of
    # the segment holding offset s, shift + s its column, and the next segment
    # starts at offset nxt.  Every token starts before len(text).
    k = 0
    line, shift = starts[0]
    nxt = offsets[1] if len(offsets) > 1 else len(text)
    for match in re.finditer(_RAW, text):
        group = match.lastindex
        s = match.start(group)
        while s >= nxt:
            k += 1
            line, column = starts[k]
            shift = column - offsets[k]
            nxt = offsets[k + 1] if k + 1 < len(offsets) else len(text)
        lexeme = sys.intern(match[group])  # repeated names and numbers share one string
        kind = _RAW_KINDS[group]
        if kind is TokenKind.PUNCTUATION:
            which = PUNCT_NAMES.get(lexeme, PUNCT_OTHER)
            if which is PUNCT_OTHER and not lexeme.isprintable():
                raise LexError(line, shift + s, f"character {lexeme!r} outside the accepted set")
        elif kind is None:
            raise LexError(line, shift + s, "unterminated string literal")
        else:
            which = None
        toks.append(_new_token(Token, (kind, lexeme, line, shift + s, which, None)))
        offs.append(s)
    return toks, offs


# ---------------------------------------------------------------------------
# Context classification
# ---------------------------------------------------------------------------


def _word_at(toks: list[Token], i: int) -> str | None:
    return toks[i].lexeme.upper() if 0 <= i < len(toks) and toks[i].kind is TokenKind.IDENTIFIER else None


def _punct_at(toks, i: int) -> str | None:
    return toks[i].which if 0 <= i < len(toks) and toks[i].kind is TokenKind.PUNCTUATION else None


def _match_paren(toks, i_lparen: int) -> int | None:
    """Index of the ')' that closes the '(' at i_lparen, or None."""
    depth = 0
    for j in range(i_lparen, len(toks)):
        which = toks[j].which  # only punctuation has which LPAREN or RPAREN
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


# The token class of a keyword, by its `which`; any other keyword is a
# control keyword, and `which` None (END DO) leaves an identifier.
_KEYWORD_KINDS = {
    **dict.fromkeys(DATA_TYPE_WORDS.values(), TokenKind.DATA_TYPE_KEYWORD),
    **dict.fromkeys(("READ", "WRITE", "FORMAT"), TokenKind.READ_WRITE_KEYWORD),
    "OPEN": TokenKind.FILE_OP_KEYWORD, "CLOSE": TokenKind.FILE_OP_KEYWORD, None: TokenKind.IDENTIFIER,
}

# The keyword each two-word spelling stands for.  No ENDDO keyword exists;
# the parser recognizes a merged END DO by its text.
_TWO_WORDS = {("DOUBLE", "PRECISION"): "DOUBLE_PRECISION", ("GO", "TO"): "GOTO",
              ("END", "IF"): "ENDIF", ("END", "DO"): None}

# Leading words that are keywords when a name follows them.
_NAME_LED = {"PROGRAM", "SUBROUTINE", "FUNCTION"}


def _keyword(toks: list[Token], i: int, which: str | None, lexeme: str | None = None) -> None:
    """Make toks[i] the keyword `which`, with its own lexeme unless given one."""
    tok = toks[i]
    toks[i] = Token(_KEYWORD_KINDS.get(which, TokenKind.CONTROL_KEYWORD),
                    lexeme or tok.lexeme, tok.line, tok.column, which)


def _condition(toks: list[Token], i: int) -> int | None:
    """Index of the ')' closing the IF condition whose '(' is toks[i], or
    None; a THEN that ends the statement after it becomes a keyword."""
    close = _match_paren(toks, i) if _punct_at(toks, i) == "LPAREN" else None
    if close is not None and close + 2 == len(toks) and _word_at(toks, close + 1) == "THEN":
        _keyword(toks, close + 1, "THEN")
    return close


def _classify_leading(stmt: _Statement, toks: list[Token], offs: list[int], i: int) -> None:
    """Classify the statement that starts at toks[i] in one pass: its keywords,
    a FORMAT's body as one descriptor-text token, a READ/WRITE's quoted format
    as descriptor text, and the statement a logical IF guards."""
    w = _word_at(toks, i)
    if w is None:
        return
    nxt = _punct_at(toks, i + 1)
    if nxt == "EQUALS":
        return  # assignment: the leading word is a plain identifier
    if w in ("DOUBLE", "GO", "END") and (w, _word_at(toks, i + 1)) in _TWO_WORDS:
        which = _TWO_WORDS[w, _word_at(toks, i + 1)]
        end = offs[i + 1] + len(toks[i + 1].lexeme)
        del toks[i + 1], offs[i + 1]
        _keyword(toks, i, which, stmt.text[offs[i]:end])
        if which != "DOUBLE_PRECISION":
            return
        w = "DOUBLEPRECISION"
    if w in DATA_TYPE_WORDS:
        _keyword(toks, i, DATA_TYPE_WORDS[w])
        k = i + 1  # FUNCTION may follow a length *n or *(...) (F77 15.5.1)
        if _punct_at(toks, k) == "ASTERISK":
            paren = _punct_at(toks, k + 1) == "LPAREN"
            k = (_match_paren(toks, k + 1) or k) + 1 if paren else k + 2
        if _word_at(toks, k) == "FUNCTION" and _word_at(toks, k + 1):
            _keyword(toks, k, "FUNCTION")
    elif w == "READ" or w == "WRITE":
        close = _match_paren(toks, i + 1) if nxt == "LPAREN" else None
        if close is not None and _punct_at(toks, close + 1) == "EQUALS":
            return  # assignment to an array named READ/WRITE
        if nxt == "ASTERISK" or nxt == "LPAREN":
            _keyword(toks, i, w)
        # A quoted format, second positional or FMT=, is descriptor text.
        after = i + 1  # index of the ',' or ')' after each control-list item
        for idx, part in enumerate(_split_commas(toks[i + 2:close]) if close is not None else ()):
            after += len(part) + 1
            if part and part[-1].kind is TokenKind.STRING_LITERAL and (
                (idx == 1 and len(part) == 1)
                or (len(part) == 3 and _word_at(part, 0) == "FMT" and _punct_at(part, 1) == "EQUALS")
            ):
                toks[after - 1] = toks[after - 1]._replace(kind=TokenKind.FORMAT_DESCRIPTOR_TEXT)
    elif w == "FORMAT":
        if stmt.label is not None and nxt == "LPAREN":
            _keyword(toks, i, "FORMAT")
            close = _match_paren(toks, i + 1)
            if close is None:
                raise LexError(toks[i + 1].line, toks[i + 1].column, "unbalanced parentheses in FORMAT statement")
            start, end = offs[i + 1] + 1, offs[close]
            if end > start:  # the body between the parentheses becomes one token
                body = Token(TokenKind.FORMAT_DESCRIPTOR_TEXT, stmt.text[start:end], *stmt.position(start))
                toks[i + 2:close] = [body]
    elif w == "OPEN" or w == "CLOSE" or w == "PARAMETER":
        if nxt == "LPAREN":
            _keyword(toks, i, w)
    elif w == "CONTINUE" or w == "GOTO":
        _keyword(toks, i, w)
    elif w in _NAME_LED:
        if _word_at(toks, i + 1):
            _keyword(toks, i, w)
    elif w == "END" or w == "ENDIF":
        if len(toks) == i + 1 or w == "END" and _word_at(toks, i + 1) in _NAME_LED:
            _keyword(toks, i, w)
    elif w == "ELSE" or w == "ELSEIF":
        _keyword(toks, i, "ELSE")
        if w == "ELSEIF":
            _condition(toks, i + 1)
        elif _word_at(toks, i + 1) == "IF":
            _keyword(toks, i + 1, "IF")
            _condition(toks, i + 2)
    elif w == "IF":
        close = _condition(toks, i + 1)
        if close is not None:
            _keyword(toks, i, "IF")
            # Logical IF: the rest is itself a statement.  A THEN that
            # _condition made a keyword is no word, so nothing follows.
            _classify_leading(stmt, toks, offs, close + 1)
    elif w == "DO":
        k = i + 1 + (i + 1 < len(toks) and toks[i + 1].kind is TokenKind.INTEGER_CONSTANT)
        k += _punct_at(toks, k) == "COMMA"  # DO [s] [,] i = (F77 11.10, F90 R821)
        if _word_at(toks, k) and _punct_at(toks, k + 1) == "EQUALS":
            _keyword(toks, i, "DO")


def tokenize(text: str, dialect: str) -> list[Token]:
    """Convert one FIXED_FORM or FREE_FORM source text into a flat token list.

    Statement boundaries become EndOfStatement tokens; comment lines and
    blank lines produce nothing.  Raises ValueError on any other dialect, and
    LexError on characters outside the accepted set and on unterminated
    string literals.
    """
    if dialect not in (FIXED_FORM, FREE_FORM):
        raise ValueError(f"unknown dialect {dialect!r}")
    assemble = _assemble_fixed if dialect == FIXED_FORM else _assemble_free
    out: list[Token] = []
    for stmt in assemble(text):
        toks, offs = _scan_raw(stmt)
        if not toks and stmt.label is None:
            continue
        _classify_leading(stmt, toks, offs, 0)
        if stmt.label is not None:
            out.append(stmt.label)
        out += toks
        out.append(Token(TokenKind.END_OF_STATEMENT, "", *stmt.end))
    return out
