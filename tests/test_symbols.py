import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmtderive.lexer import SourceUnit, tokenize
from fmtderive.symbols import (
    DOUBLE_PRECISION, INTEGER, REAL, ConflictingDeclaration, DataType,
    SymbolTables, UndeclaredName, Unresolved, VariableConstantClash,
    build_tables, character, doc_name, eval_int, implicit_type, lookup_type,
)
from fmtderive.syntax import IoItem, Literal, Product, Sum, SymbolRef, parse

from conftest import run_pipeline


def tables_for(src):
    return build_tables(parse(tokenize(SourceUnit("<test>", src))))


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
    assert eval_int(tables, Product(SymbolRef("N"), SymbolRef("N"))) == 18496
    assert eval_int(tables, Literal(1)) == 1
    assert eval_int(tables, SymbolRef("M")) == Unresolved("M")
    assert eval_int(tables, Sum(SymbolRef("N"), Literal(1))) == 137
    assert eval_int(tables, Product(SymbolRef("M"), SymbolRef("N"))) == Unresolved("M*N")


def test_parameter_expression_value():
    tables = tables_for("      PARAMETER (N=8, M=N*2+1)")
    assert tables.find_constant("M").value == 17


def test_unresolvable_parameter_is_diagnosed_and_skipped():
    tables = tables_for("      PARAMETER (M=Q*2)")
    assert tables.find_constant("M") is None
    assert any(d.kind == "unresolved-constant" for d in tables.diagnostics)


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
    assert eval_int(tables, Product(Literal(a), Literal(b))) == a * b
    assert eval_int(tables, Sum(Literal(a), Literal(b))) == a + b


@given(name=_names)
def test_implicit_rule_depends_only_on_first_letter(name):
    expected = INTEGER if name[0] in "IJKLMN" else REAL
    assert implicit_type(name) == expected


def test_pipeline_tables_match_direct_build(model_source):
    program, tables, _ = run_pipeline(model_source)
    assert tables == build_tables(program)
