import pytest

from fmtderive.lexer import (
    FIXED_FORM, FREE_FORM, LexError, SourceUnit, Token, TokenKind, tokenize,
)


def kinds(tokens):
    return [(t.kind, t.which) for t in tokens]


def lex(text, dialect=FIXED_FORM):
    return tokenize(SourceUnit("<test>", text, dialect))


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
    unit = SourceUnit("model.f", model_source)
    assert tokenize(unit) == tokenize(unit)


def test_lexeme_positions_point_into_source(model_source):
    lines = model_source.split("\n")
    for tok in tokenize(SourceUnit("model.f", model_source)):
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
    for tok in tokenize(SourceUnit("model.f", model_source)):
        if tok.kind is TokenKind.END_OF_STATEMENT:
            per_statement.append("".join(current))
            current = []
        elif tok.kind is not TokenKind.STATEMENT_LABEL:
            current.append("".join(tok.lexeme.split()))
    assert per_statement == statement_texts


def test_dialect_must_be_known():
    with pytest.raises(ValueError):
        SourceUnit("x.f", "      END", "f2008")


def test_token_is_immutable():
    tok = Token(TokenKind.IDENTIFIER, "X", 1, 1)
    with pytest.raises(AttributeError):
        tok.lexeme = "Y"
