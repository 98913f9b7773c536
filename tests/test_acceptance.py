"""Acceptance suite: one test per criterion, at its stated tolerance.

The conftest terminal-summary hook prints one PASS/FAIL line per criterion
at the end of the run.
"""

import time
from xml.dom import minidom

from hypothesis import given, settings
from hypothesis import strategies as st

from fmtderive.emit import build_docs, run_cli
from fmtderive.fmtengine import LayoutKind, canonical_text, expand, parse_descriptors
from fmtderive.symbols import (
    DataType, INTEGER, REAL, build_tables, implicit_type, lookup_type,
)
from fmtderive.syntax import (
    IoItem, IoStmt, OtherStmt, flatten,
)

from conftest import MODEL_SOURCE, TOLERANT_SOURCE, run_pipeline
from test_emit import BASIC_GOLDEN, ODTIME_GOLDEN
from test_fmtengine import brute_width, descriptor_lists
from test_ioflow import build_loop_source, loop_specs, simulate_loops


def test_criterion_1_model_example_end_to_end(tmp_path):
    source = tmp_path / "model.f"
    source.write_text(MODEL_SOURCE)
    out = tmp_path / "out"

    started = time.perf_counter()
    assert run_cli(["parse", str(source), "-o", str(out)]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"end-to-end run took {elapsed:.3f}s"

    written = sorted(p.name for p in out.iterdir())
    assert written == ["Basic.TXT.format.xml", "ODTIME.PRN.format.xml"]
    assert (out / "ODTIME.PRN.format.xml").read_text() == ODTIME_GOLDEN
    assert (out / "Basic.TXT.format.xml").read_text() == BASIC_GOLDEN


def test_criterion_2_descriptor_expansion():
    layout = expand(parse_descriptors("1X,2(1X,i4),3(1X,f12.6)"))
    B, I, F = LayoutKind.BLANK, LayoutKind.INTEGER, LayoutKind.FIXED_REAL
    assert [(i.kind, i.width, i.frac) for i in layout.items] == [
        (B, 1, None),
        (B, 1, None), (I, 4, None),
        (B, 1, None), (I, 4, None),
        (B, 1, None), (F, 12, 6),
        (B, 1, None), (F, 12, 6),
        (B, 1, None), (F, 12, 6),
    ]
    # Derived oracle: 1 + 2*(1+4) + 3*(1+12) = 50.
    assert layout.record_width == 1 + 2 * (1 + 4) + 3 * (1 + 12) == 50


@given(specs=loop_specs, shared=st.booleans())
@settings(max_examples=200, deadline=None)
def test_criterion_3_multiplicity_matches_simulator(specs, shared):
    source, bounds = build_loop_source(specs, shared)
    _, _, events = run_pipeline(source)
    assert len(events) == 1
    assert not events[0].multiplicity.defaulted
    assert events[0].multiplicity.resolved == simulate_loops(bounds)


@given(descriptor_lists)
@settings(max_examples=500, deadline=None)
def test_criterion_4_descriptor_round_trip(descriptors):
    assert parse_descriptors(canonical_text(descriptors)) == descriptors
    assert expand(descriptors).record_width == brute_width(descriptors)


_letters = st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_decl_types = st.sampled_from(["INTEGER", "REAL", "DOUBLE_PRECISION", "LOGICAL"])


def test_criterion_5_implicit_typing_rule():
    for letter in "ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        expected = INTEGER if letter in "IJKLMN" else REAL
        assert implicit_type(letter) == expected
        assert implicit_type(letter.lower()) == expected


@given(letter=_letters, suffix=st.text(alphabet=_letters, max_size=4), decl=_decl_types)
def test_criterion_5_declaration_overrides_implicit(letter, suffix, decl):
    name = letter + suffix
    source = f"      {decl.replace('_', ' ')} {name}\n"
    program, tables, _ = run_pipeline(source)
    assert lookup_type(tables, IoItem(name), "<main>") == DataType(decl)
    bare = build_tables(run_pipeline("      X = 1\n")[0])
    assert lookup_type(bare, IoItem(name), "<main>") == implicit_type(name)


def test_criterion_6_well_formed_and_deterministic(tmp_path):
    from fmtderive.emit import serialize
    from test_emit import assert_well_formed

    for name, source in (("model.f", MODEL_SOURCE), ("mixed.f", TOLERANT_SOURCE)):
        _, _, events = run_pipeline(source)
        for doc in build_docs(events):
            text = serialize(doc)
            minidom.parseString(text)
            assert_well_formed(text)

    source = tmp_path / "model.f"
    source.write_text(MODEL_SOURCE)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(["parse", str(source), "-o", str(out1)]) == 0
    assert run_cli(["parse", str(source), "-o", str(out2)]) == 0
    for path in sorted(out1.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes()


def test_criterion_7_tolerant_parsing():
    program, tables, events = run_pipeline(TOLERANT_SOURCE)

    statements = list(flatten(program.statements))
    others = [s for s in statements if isinstance(s, OtherStmt)]
    raws = [s.raw for s in others]
    assert any(r.startswith("X=") or r.startswith("X =") for r in raws)  # arithmetic
    assert any("IF" in r and "THEN" in r for r in raws)                  # block IF
    assert any("ELSE" == r for r in raws)
    assert any("ENDIF" == r.replace(" ", "") for r in raws)
    assert any("GOTO" in r for r in raws)

    # No format-relevant statement may hide inside an OtherStmt.
    for raw in raws:
        head = raw.split("(")[0].strip().upper()
        assert head not in ("OPEN", "CLOSE", "FORMAT")
        assert not head.startswith(("READ ", "WRITE ", "INTEGER", "REAL ", "PARAMETER"))

    io_events = [s for s in statements if isinstance(s, IoStmt)]
    assert len(io_events) == len(events) == 2
    conditional, terminal = events
    assert conditional.multiplicity.conditional
    assert not terminal.multiplicity.conditional
