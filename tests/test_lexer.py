import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fmtderive.lexer import (
    FIXED_FORM, FREE_FORM, LexError, Token, TokenKind, tokenize,
)


def kinds(tokens):
    return [(t.kind, t.which) for t in tokens]


def lex(text, dialect=FIXED_FORM):
    return tokenize(text, dialect)


def test_parameter_statement_tokens():
    toks = lex("PARAMETER (N=136)")
    assert kinds(toks) == [
        (TokenKind.CONTROL_KEYWORD, "PARAMETER"),
        (TokenKind.PUNCTUATION, "LPAREN"),
        (TokenKind.IDENTIFIER, None),
        (TokenKind.PUNCTUATION, "EQUALS"),
        (TokenKind.INTEGER_CONSTANT, None),
        (TokenKind.PUNCTUATION, "RPAREN"),
        (TokenKind.END_OF_STATEMENT, None),
    ]
    assert toks[2].lexeme == "N"
    assert toks[4].lexeme == "136"


def test_empty_input_yields_no_tokens():
    assert lex("") == []
    assert lex("\n\n   \n") == []


def test_read_statement_prefix():
    toks = lex("READ (2,*) OZONE(I), DZONE(J), D(I,J)")
    head = kinds(toks)[:7]
    assert head == [
        (TokenKind.READ_WRITE_KEYWORD, "READ"),
        (TokenKind.PUNCTUATION, "LPAREN"),
        (TokenKind.INTEGER_CONSTANT, None),
        (TokenKind.PUNCTUATION, "COMMA"),
        (TokenKind.PUNCTUATION, "ASTERISK"),
        (TokenKind.PUNCTUATION, "RPAREN"),
        (TokenKind.IDENTIFIER, None),
    ]
    assert toks[6].lexeme == "OZONE"


@pytest.mark.parametrize("spelling", ["read", "READ", "Read", "rEaD"])
def test_keyword_recognition_is_case_insensitive(spelling):
    toks = lex(f"{spelling} (1,*) X")
    assert toks[0].kind is TokenKind.READ_WRITE_KEYWORD
    assert toks[0].which == "READ"
    assert toks[0].lexeme == spelling


def test_keywords_in_assignment_position_are_identifiers():
    for word in ("READ", "WRITE", "OPEN", "END", "FORMAT"):
        toks = lex(f"{word} = 5")
        assert toks[0].kind is TokenKind.IDENTIFIER, word


def test_comment_lines_produce_no_tokens():
    src = "C this is a comment\n*so is this\nc lower case too\n      CONTINUE\n"
    toks = lex(src)
    assert kinds(toks) == [
        (TokenKind.CONTROL_KEYWORD, "CONTINUE"),
        (TokenKind.END_OF_STATEMENT, None),
    ]


def test_label_field_blanks_are_insignificant():
    toks = lex(" 1 0  CONTINUE")
    assert toks[0].kind is TokenKind.STATEMENT_LABEL
    assert toks[0].value == 10


def test_statement_label_is_first_token():
    toks = lex("  501 FORMAT(1X,I4)")
    assert toks[0].kind is TokenKind.STATEMENT_LABEL
    assert toks[0].value == 501
    assert toks[0].lexeme == "501"
    labels = [i for i, t in enumerate(toks) if t.kind is TokenKind.STATEMENT_LABEL]
    assert labels == [0]


def test_format_descriptor_text_is_verbatim():
    toks = lex("  501 FORMAT(1X,2(1X,i4),3(1X,f12.6))")
    fdt = [t for t in toks if t.kind is TokenKind.FORMAT_DESCRIPTOR_TEXT]
    assert len(fdt) == 1
    assert fdt[0].lexeme == "1X,2(1X,i4),3(1X,f12.6)"


def test_format_outside_format_statement_is_not_descriptor_text():
    # No statement label, so this cannot be a FORMAT statement.
    toks = lex("FORMAT(1X,I4) = 3") + lex("X = FORMAT(1)")
    assert all(t.kind is not TokenKind.FORMAT_DESCRIPTOR_TEXT for t in toks)


def test_inline_quoted_format_is_descriptor_text():
    toks = lex("WRITE(6,'(1X,I4)') K")
    fdt = [t for t in toks if t.kind is TokenKind.FORMAT_DESCRIPTOR_TEXT]
    assert len(fdt) == 1
    assert fdt[0].lexeme == "'(1X,I4)'"


def test_fmt_keyword_quoted_format_is_descriptor_text():
    toks = lex("WRITE(6,FMT='(I4)') K")
    fdt = [t for t in toks if t.kind is TokenKind.FORMAT_DESCRIPTOR_TEXT]
    assert len(fdt) == 1


def test_double_precision_merges_into_one_token():
    toks = lex("DOUBLE PRECISION D(N,N)")
    assert toks[0].kind is TokenKind.DATA_TYPE_KEYWORD
    assert toks[0].which == "DOUBLE_PRECISION"
    assert toks[0].lexeme == "DOUBLE PRECISION"


def test_doubleprecision_as_one_word_is_a_type_keyword():
    # Like END IF and GO TO, DOUBLE PRECISION may be written without its blank.
    toks = lex("DOUBLEPRECISION X")
    assert kinds(toks)[0] == (TokenKind.DATA_TYPE_KEYWORD, "DOUBLE_PRECISION")
    assert toks[0].lexeme == "DOUBLEPRECISION"
    assert kinds(lex("DOUBLEPRECISION FUNCTION G(X)"))[:2] == [
        (TokenKind.DATA_TYPE_KEYWORD, "DOUBLE_PRECISION"),
        (TokenKind.CONTROL_KEYWORD, "FUNCTION"),
    ]
    assert kinds(lex("DOUBLEPRECISION = 1.0"))[0] == (TokenKind.IDENTIFIER, None)


def test_fixed_form_continuation_joins_statement():
    src = (
        "      OPEN (2, FILE='ODT\n"
        "     &IME.PRN', STATUS='OLD')\n"
    )
    toks = lex(src)
    strings = [t.lexeme for t in toks if t.kind is TokenKind.STRING_LITERAL]
    assert strings == ["'ODTIME.PRN'", "'OLD'"]
    eos = [t for t in toks if t.kind is TokenKind.END_OF_STATEMENT]
    assert len(eos) == 1


def test_fixed_form_ignores_columns_past_72():
    src = "      CONTINUE" + " " * 58 + "IGNORED TRAILING JUNK\n"
    toks = lex(src)
    assert kinds(toks)[0] == (TokenKind.CONTROL_KEYWORD, "CONTINUE")
    assert len(toks) == 2


def test_free_form_ampersand_continuation():
    src = "READ (2,*) OZONE(I), &\n   & DZONE(J)\n"
    toks = lex(src, FREE_FORM)
    names = [t.lexeme for t in toks if t.kind is TokenKind.IDENTIFIER]
    assert names == ["OZONE", "I", "DZONE", "J"]


def test_free_form_string_continues_after_leading_ampersand():
    src = "open(8, file='AMP  &\n  &.DAT !x') ! comment\nwrite(8,*) 'a&\n&'\n"
    toks = lex(src, FREE_FORM)
    strings = [(t.lexeme, t.line, t.column) for t in toks if t.kind is TokenKind.STRING_LITERAL]
    assert strings == [("'AMP  .DAT !x'", 1, 14), ("'a'", 3, 12)]
    assert sum(t.kind is TokenKind.END_OF_STATEMENT for t in toks) == 2


def test_free_form_bang_comments():
    src = "K = 1  ! trailing comment\n! whole-line comment\nWRITE(6,*) K\n"
    toks = lex(src, FREE_FORM)
    assert sum(t.kind is TokenKind.END_OF_STATEMENT for t in toks) == 2
    assert all("comment" not in t.lexeme for t in toks)


def test_bang_inside_string_is_not_a_comment():
    toks = lex("OPEN(3, FILE='A!B.TXT')", FREE_FORM)
    strings = [t.lexeme for t in toks if t.kind is TokenKind.STRING_LITERAL]
    assert strings == ["'A!B.TXT'"]


def test_real_constants():
    toks = lex("X = 1.5E3 + 1D0 + .25 + 2.")
    reals = [t.lexeme for t in toks if t.kind is TokenKind.REAL_CONSTANT]
    assert reals == ["1.5E3", "1D0", ".25", "2."]


def test_unterminated_string_raises():
    with pytest.raises(LexError) as exc:
        lex("OPEN (2, FILE='ODTIME.PRN\n")
    assert exc.value.line == 1


def test_character_outside_accepted_set_raises():
    with pytest.raises(LexError):
        lex("      X = 1 \x01 2")


def test_tokenize_is_deterministic(model_source):
    assert lex(model_source) == lex(model_source)


def test_lexeme_positions_point_into_source(model_source):
    lines = model_source.split("\n")
    for tok in lex(model_source):
        if tok.kind is TokenKind.END_OF_STATEMENT:
            continue
        line = lines[tok.line - 1]
        assert line[tok.column - 1:tok.column - 1 + len(tok.lexeme)] == tok.lexeme


def test_statement_reconstruction_modulo_layout(model_source):
    # Concatenated lexemes reproduce each logical statement up to whitespace.
    lines = [l for l in model_source.split("\n") if l.strip()]
    statement_texts = ["".join(l[6:72].split()) for l in lines]
    per_statement: list[str] = []
    current: list[str] = []
    for tok in lex(model_source):
        if tok.kind is TokenKind.END_OF_STATEMENT:
            per_statement.append("".join(current))
            current = []
        elif tok.kind is not TokenKind.STATEMENT_LABEL:
            current.append("".join(tok.lexeme.split()))
    assert per_statement == statement_texts


def test_dialect_must_be_known():
    with pytest.raises(ValueError):
        tokenize("      END", "f2008")


def test_token_is_immutable():
    tok = Token(TokenKind.IDENTIFIER, "X", 1, 1)
    with pytest.raises(AttributeError):
        tok.lexeme = "Y"


# ---------------------------------------------------------------------------
# Position oracle for statements spread over several lines
# ---------------------------------------------------------------------------

# Lexemes that lex as exactly one token wherever they stand, so that the k-th
# token of the source is the k-th lexeme placed; no word here starts a merge
# (GO TO, DOUBLE PRECISION, END IF) or a FORMAT statement.
_words = st.text("XYZ", min_size=1, max_size=3) | st.sampled_from(["READ", "WRITE", "IF", "DO", "OPEN"])
_strings = st.builds(
    lambda quote, body: quote + body.replace(quote, quote * 2) + quote,
    st.sampled_from("'\""), st.text("AB !&'\"", max_size=8),
)
_lexemes = st.lists(st.one_of(
    _words, _strings, st.integers(0, 999).map(str),
    st.sampled_from(["1.5", ".5", "2.", "1E3", "1.5D-2", *"(),=*/+-"]),
), min_size=1, max_size=8)


@st.composite
def _fixed_source(draw):
    """A fixed-form source and the line and column of each token's first
    character, as placed: statements continue over lines, some of them empty
    continuation lines, and strings may be split across lines."""
    lines: list[str] = []
    where: list[tuple[int, int]] = []

    def continuation():
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["C note", "", "  ! note"])))
        lines.append("     " + draw(st.sampled_from("&1+")))

    for lexemes in draw(st.lists(_lexemes, min_size=1, max_size=4)):
        label = draw(st.none() | st.integers(1, 99999))
        digits = "" if label is None else str(label)
        pad = draw(st.integers(0, 5 - len(digits)))
        lines.append((" " * pad + digits).ljust(5) + " ")
        if label is not None:
            where.append((len(lines), pad + 1))
        for k, lexeme in enumerate(lexemes):
            if k:  # at least one blank between two tokens, all within column 72
                if len(lines[-1]) >= 72:
                    continuation()
                lines[-1] += " " * draw(st.integers(1, 2))
            # A first line without a label must hold a token: a blank one is no
            # initial line.
            while (k or label is not None) and draw(st.booleans()) or len(lines[-1]) + len(lexeme) > 72:
                continuation()
                if len(lines[-1]) + len(lexeme) <= 72 and draw(st.booleans()):
                    break
            where.append((len(lines), len(lines[-1]) + 1))
            if lexeme[0] in "'\"" and len(lexeme) > 1 and draw(st.booleans()):
                cut = draw(st.integers(1, len(lexeme) - 1))
                lines[-1] += lexeme[:cut]
                continuation()
                lexeme = lexeme[cut:]
            lines[-1] += lexeme
    return "\n".join(lines) + "\n", where


@st.composite
def _free_source(draw):
    """A free-form source and the line and column of each token's first
    character, as placed: statements continue after a trailing '&', and a
    string split across lines resumes after the next line's leading '&'."""
    lines: list[str] = []
    where: list[tuple[int, int]] = []

    def continuation(lead):
        # Inside a string, '!' starts no comment.
        lines[-1] += draw(st.sampled_from(["&", "&  "] if lead else ["&", "&  ", "& ! note"]))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["! note", ""])))
        lines.append(" " * draw(st.integers(0, 3)) + lead)

    for lexemes in draw(st.lists(_lexemes, min_size=1, max_size=4)):
        lines.append(" " * draw(st.integers(0, 2)))
        if draw(st.booleans()):
            label = str(draw(st.integers(1, 99999)))
            where.append((len(lines), len(lines[-1]) + 1))
            lines[-1] += label + " "
        for k, lexeme in enumerate(lexemes):
            if k:
                lines[-1] += " " * draw(st.integers(1, 2))
                if draw(st.booleans()):
                    continuation(draw(st.sampled_from(["", "&"])))
            where.append((len(lines), len(lines[-1]) + 1))
            if lexeme[0] in "'\"" and len(lexeme) > 1 and draw(st.booleans()):
                cut = draw(st.integers(1, len(lexeme) - 1))
                lines[-1] += lexeme[:cut]
                continuation("&")
                lexeme = lexeme[cut:]
            lines[-1] += lexeme
    return "\n".join(lines) + "\n", where


@pytest.mark.parametrize("dialect, sources", [(FIXED_FORM, _fixed_source()), (FREE_FORM, _free_source())])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_positions_of_continued_statements(dialect, sources, data):
    text, where = data.draw(sources)
    toks = lex(text, dialect)
    assert [(t.line, t.column) for t in toks if t.kind is not TokenKind.END_OF_STATEMENT] == where
    # Tokens come in source order, so the last one has the largest line.
    assert [t.line for t in toks] == sorted(t.line for t in toks)


# ---------------------------------------------------------------------------
# A logical IF's statement lexes like the same statement alone
# ---------------------------------------------------------------------------

_GUARDABLE = [
    "WRITE(6,'(1X,I4)') K", "WRITE(6,FMT='(I4)') K", "READ(5,'(I4)',ERR=9) K",
    "WRITE(6,*) K", "READ *, X", "READ(2) = 1", "OPEN(10, FILE='A.DAT')", "CLOSE(10)",
    "GO TO 30", "GOTO 30", "CONTINUE", "X = 1", "CALL S(X)", "FORMAT(I4, 2X)",
    "FORMAT(I4", "DOUBLE PRECISION D", "END DO", "END IF", "END", "IF (Y) THEN",
]
# Every word the classifier tests for, and constants and punctuation to follow them.
_VOCABULARY = st.sampled_from([
    "READ", "WRITE", "FORMAT", "OPEN", "CLOSE", "PARAMETER", "CONTINUE", "IF", "THEN",
    "ELSE", "ELSEIF", "END", "ENDIF", "DO", "GO", "TO", "GOTO", "DOUBLE", "PRECISION",
    "DOUBLEPRECISION", "INTEGER", "real", "FUNCTION", "PROGRAM", "SUBROUTINE", "FMT", "X",
    "10", "'(I4)'", "'A'", "(", ")", "=", ",", "*", "+",
])


def _after_the_guard(statement, label):
    """The tokens of `label IF (X) statement` after the condition's ')', and
    those of `label statement` after its label, without their columns; or the
    message of the LexError each raises."""
    def lexed(text, skip):
        try:
            return [(t.kind, t.lexeme, t.line, t.which, t.value) for t in lex(text, FREE_FORM)[skip:]]
        except LexError as err:
            return str(err)
    skip = 1 if label else 0
    return lexed(f"{label}IF (X) {statement}", skip + 4), lexed(label + statement, skip)


@pytest.mark.parametrize("label", ["", "10 "])
@pytest.mark.parametrize("statement", _GUARDABLE)
def test_guarded_statement_lexes_like_the_statement_alone(statement, label):
    guarded, alone = _after_the_guard(statement, label)
    assert guarded == alone


@settings(max_examples=300, deadline=None)
@given(words=st.lists(_VOCABULARY, min_size=1, max_size=8), label=st.sampled_from(["", "10 "]))
def test_any_guarded_statement_lexes_like_the_statement_alone(words, label):
    # A lone THEN after a condition makes `IF (X) THEN`, a block IF, and an
    # integer that starts a line is its label.
    statement = " ".join(words)
    assume(statement.upper() != "THEN" and not words[0].isdigit())
    guarded, alone = _after_the_guard(statement, label)
    assert guarded == alone
