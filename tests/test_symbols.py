from fractions import Fraction
from math import trunc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmtderive.lexer import FIXED_FORM, FREE_FORM, tokenize
from fmtderive.symbols import (
    DOUBLE_PRECISION, INTEGER, REAL, ConflictingDeclaration, DataType,
    SymbolTables, UndeclaredName, Unresolved, VariableConstantClash,
    build_tables, character, doc_name, dump_symbols, eval_int, implicit_type,
    lookup_type,
)
from fmtderive.syntax import BinOp, IoItem, Literal, Neg, SymbolRef, expr_text, parse

from conftest import run_pipeline


def tables_for(src):
    return build_tables(parse(tokenize(src, FIXED_FORM)))


def test_model_example_tables(model_program):
    tables = build_tables(model_program)
    assert [p.kind for p in tables.processes] == ["anonymous-main"]

    n = tables.find_constant("N")
    assert n is not None
    assert n.data_type == INTEGER
    assert n.value == 136

    assert tables.find_variable("D").data_type == DOUBLE_PRECISION
    assert len(tables.find_variable("D").dimensions) == 2
    for name in ("BEMP", "POP", "SEMP"):
        entry = tables.find_variable(name)
        assert entry.data_type == DOUBLE_PRECISION
        assert len(entry.dimensions) == 1
    for name in ("I", "J"):
        assert tables.find_variable(name).data_type == INTEGER
        assert tables.find_variable(name).dimensions == ()
    for name in ("OZONE", "DZONE"):
        assert tables.find_variable(name).data_type == INTEGER
        assert len(tables.find_variable(name).dimensions) == 1


def test_no_declarations_gives_bare_process_table():
    tables = tables_for("      X = 1")
    assert len(tables.processes) == 1
    assert tables.variables == {}
    assert tables.constants == {}


def test_build_tables_is_idempotent(model_program):
    assert build_tables(model_program) == build_tables(model_program)


def test_implicit_type_rule():
    assert implicit_type("N") == INTEGER
    assert implicit_type("X") == REAL
    # Case-folded: 'o' is outside I-N, so OZONE would be REAL if undeclared.
    assert implicit_type("ozone") == REAL


def test_all_single_letters():
    for letter in "ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        expected = INTEGER if letter in "IJKLMN" else REAL
        assert implicit_type(letter) == expected
        assert implicit_type(letter.lower()) == expected


def test_declaration_overrides_implicit(model_program):
    # OZONE would be REAL by the implicit rule but is declared INTEGER.
    tables = build_tables(model_program)
    notes = []
    got = lookup_type(tables, IoItem("OZONE", (SymbolRef("I"),)), "<main>", notes)
    assert got == INTEGER
    assert notes == []


def test_lookup_subscripted_array_element_type(model_program):
    tables = build_tables(model_program)
    item = IoItem("D", (SymbolRef("I"), SymbolRef("J")))
    assert lookup_type(tables, item, "<main>") == DOUBLE_PRECISION


def test_lookup_undeclared_emits_diagnostic(model_program):
    tables = build_tables(model_program)
    notes = []
    assert lookup_type(tables, IoItem("K"), "<main>", notes) == INTEGER
    assert len(notes) == 1
    assert notes[0].kind == "implicitly-typed"


def test_eval_int():
    tables = tables_for("      PARAMETER (N=136)")
    assert eval_int(tables, BinOp("*", SymbolRef("N"), SymbolRef("N"))) == 18496
    assert eval_int(tables, Literal(1)) == 1
    assert eval_int(tables, SymbolRef("M")) == Unresolved("M")
    assert eval_int(tables, BinOp("+", SymbolRef("N"), Literal(1))) == 137
    assert eval_int(tables, BinOp("*", SymbolRef("M"), SymbolRef("N"))) == Unresolved("M*N")
    assert eval_int(tables, BinOp("/", Neg(SymbolRef("N")), Literal(10))) == -13
    assert eval_int(tables, Neg(SymbolRef("M"))) == Unresolved("-M")
    zero = BinOp("-", SymbolRef("N"), SymbolRef("N"))
    assert eval_int(tables, BinOp("/", Literal(1), zero)) == Unresolved("1/(N-N)")


def test_parameter_expression_value():
    tables = tables_for("      PARAMETER (N=8, M=N*2+1)")
    assert tables.find_constant("M").value == 17


def test_unresolvable_parameter_is_diagnosed_and_kept():
    tables = tables_for("      INTEGER M\n      PARAMETER (M=Q*2)")
    entry = tables.find_constant("M")
    assert (entry.data_type, entry.value) == (INTEGER, Unresolved("Q*2"))
    assert (entry.note.kind, entry.note.line) == ("unresolved-constant", 2)
    assert dump_symbols(tables).splitlines()[-1] == (
        "unresolved-constant at line 2: constant M = Q*2 cannot be resolved")
    notes = []
    assert lookup_type(tables, IoItem("M"), "<main>", notes) == INTEGER
    assert eval_int(tables, SymbolRef("M"), notes) == Unresolved("M")
    assert notes == [entry.note] * 2


def test_dump_symbols_lists_unresolved_notes_in_source_order():
    tables = tables_for("      PARAMETER (B=Y+1, N=3)\n      PARAMETER (A=X)")
    assert dump_symbols(tables).splitlines()[-5:] == [
        "  B = Y+1 (unresolved): real",
        "  N = 3: integer",
        "  A = X (unresolved): real",
        "unresolved-constant at line 1: constant B = Y+1 cannot be resolved",
        "unresolved-constant at line 2: constant A = X cannot be resolved",
    ]


def test_negated_parameter_resolves():
    tables = tables_for("      PARAMETER (N=10, M=-N, K=-(N+2)/4)")
    assert tables.find_constant("M").value == -10
    assert tables.find_constant("K").value == -3


def test_declared_parameter_takes_declared_type():
    tables = tables_for(
        "      REAL SCALE\n"
        "      PARAMETER (SCALE=3)\n"
    )
    entry = tables.find_constant("SCALE")
    assert entry.data_type == REAL
    assert entry.value == 3.0
    assert tables.find_variable("SCALE") is None


def test_character_declarations():
    tables = tables_for("      CHARACTER*8 NAME, SHORT*2, PLAIN\n")
    assert tables.find_variable("NAME").data_type == character(8)
    assert tables.find_variable("SHORT").data_type == character(2)
    # Entity without a length takes the statement length.
    assert tables.find_variable("PLAIN").data_type == character(8)


def test_character_defaults_to_length_one():
    tables = tables_for("      CHARACTER C\n")
    assert tables.find_variable("C").data_type == character(1)


def test_star_width_declarations():
    tables = tables_for("      REAL*8 X\n      INTEGER*2 K\n")
    assert tables.find_variable("X").data_type == DOUBLE_PRECISION
    assert tables.find_variable("K").data_type == INTEGER


def test_doubleprecision_as_one_word_declares_double():
    source = "      DOUBLEPRECISION FUNCTION G(X)\n      DOUBLEPRECISION X\n      WRITE(6,*) X\n"
    program, tables, events = run_pipeline(source)
    assert (program.kind, program.name) == ("FUNCTION", "G")
    assert "  X: double [G]" in dump_symbols(tables).splitlines()
    assert [doc_name(item.data_type) for item in events[0].items] == ["double"]
    assert not events[0].diagnostics


def test_complex_and_logical_declarations():
    tables = tables_for("      COMPLEX Z\n      LOGICAL FLAG\n")
    assert doc_name(tables.find_variable("Z").data_type) == "complex"
    assert doc_name(tables.find_variable("FLAG").data_type) == "logical"


def test_eval_through_integral_real_constant():
    tables = tables_for("      PARAMETER (W=4.0)\n")
    assert eval_int(tables, SymbolRef("W")) == 4


def test_conflicting_declaration_raises():
    with pytest.raises(ConflictingDeclaration):
        tables_for("      INTEGER A\n      REAL A\n")


def test_array_parameter_clash_raises():
    with pytest.raises(VariableConstantClash):
        tables_for("      INTEGER A(10)\n      PARAMETER (A=1)\n")


def test_implicit_none_turns_lookup_into_error():
    tables = tables_for("      IMPLICIT NONE\n      INTEGER I\n")
    assert lookup_type(tables, IoItem("I"), "<main>") == INTEGER
    with pytest.raises(UndeclaredName):
        lookup_type(tables, IoItem("Q"), "<main>")


def test_doc_names():
    assert doc_name(INTEGER) == "integer"
    assert doc_name(DOUBLE_PRECISION) == "double"
    assert doc_name(character(4)) == "character"


_names = st.text(
    alphabet=st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ"), min_size=1, max_size=6)
_types = st.sampled_from(["INTEGER", "REAL", "DOUBLE_PRECISION", "LOGICAL"])


@given(name=_names, decl=_types)
def test_declared_type_always_wins(name, decl):
    src = f"      {decl.replace('_', ' ')} {name}\n"
    tables = tables_for(src)
    got = lookup_type(tables, IoItem(name.lower()), "<main>")
    assert got == DataType(decl)


@given(a=st.integers(0, 1000), b=st.integers(0, 1000))
def test_eval_product_is_multiplication(a, b):
    tables = SymbolTables()
    assert eval_int(tables, BinOp("*", Literal(a), Literal(b))) == a * b
    assert eval_int(tables, BinOp("+", Literal(a), Literal(b))) == a + b


@given(name=_names)
def test_implicit_rule_depends_only_on_first_letter(name):
    expected = INTEGER if name[0] in "IJKLMN" else REAL
    assert implicit_type(name) == expected


def test_pipeline_tables_match_direct_build(model_source):
    program, tables, _ = run_pipeline(model_source)
    assert tables == build_tables(program)


# ---------------------------------------------------------------------------
# Expression oracle: printing, parsing and evaluation of drawn trees
# ---------------------------------------------------------------------------

# N, M and Z are PARAMETERs (Z is zero, for division by zero); U is not.
_CONSTANTS = {"N": 7, "M": -3, "Z": 0}
_expr_trees = st.recursive(
    st.one_of(st.integers(0, 12).map(Literal), st.sampled_from("NMZU").map(SymbolRef)),
    lambda inner: st.one_of(
        st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
        st.builds(Neg, inner),
    ),
    max_leaves=10,
)


def reference_value(expr):
    """Independent evaluator: exact fractions truncated toward zero for /;
    an undefined name or a zero divisor makes the result None."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, SymbolRef):
        return _CONSTANTS.get(expr.name)
    if isinstance(expr, Neg):
        value = reference_value(expr.operand)
        return None if value is None else -value
    left, right = reference_value(expr.left), reference_value(expr.right)
    if left is None or right is None:
        return None
    if expr.op == "/":
        return None if right == 0 else trunc(Fraction(left, right))
    return {"+": left + right, "-": left - right, "*": left * right}[expr.op]


@given(_expr_trees)
@settings(max_examples=300, deadline=None)
def test_expr_text_parses_back_to_the_same_tree(tree):
    source = f"do i = 1, {expr_text(tree)}\nend do\n"
    loop = parse(tokenize(source, FREE_FORM)).statements[0]
    assert loop.stop == tree


_expr_tables = tables_for("      PARAMETER (N=7, M=-3, Z=0)\n")


@given(_expr_trees)
@settings(max_examples=300)
def test_eval_int_matches_reference_evaluator(tree):
    expected = reference_value(tree)
    got = eval_int(_expr_tables, tree)
    assert got == (Unresolved(expr_text(tree)) if expected is None else expected)
