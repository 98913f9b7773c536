import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmtderive.fmtengine import (
    CharEdit, DescriptorError, ExpEdit, FixedEdit, Group, IntEdit, LayoutKind,
    LiteralText, PositionX, RecordBreak, Repeated, canonical_text,
    data_format_of, describe, expand, pair_items, parse_descriptors,
)
from fmtderive.symbols import DOUBLE_PRECISION, INTEGER, character

MODEL_FORMAT = "1X,2(1X,i4),3(1X,f12.6)"


def brute_width(descriptors) -> int:
    """Independent width oracle: leaf widths times repeat multiplicities."""
    total = 0
    for d in descriptors:
        if isinstance(d, PositionX):
            total += d.count
        elif isinstance(d, (IntEdit, FixedEdit, ExpEdit)):
            total += d.width
        elif isinstance(d, CharEdit):
            total += d.width if d.width is not None else 1
        elif isinstance(d, LiteralText):
            total += len(d.text)
        elif isinstance(d, RecordBreak):
            pass
        elif isinstance(d, Group):
            total += d.repeat * brute_width(d.children)
        elif isinstance(d, Repeated):
            total += d.repeat * brute_width([d.single])
        else:  # pragma: no cover
            raise TypeError(d)
    return total


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_model_format():
    assert parse_descriptors(MODEL_FORMAT) == [
        PositionX(1),
        Group(2, (PositionX(1), IntEdit(4))),
        Group(3, (PositionX(1), FixedEdit(12, 6))),
    ]


def test_parse_single_descriptors():
    assert parse_descriptors("i4") == [IntEdit(4)]
    assert parse_descriptors("f12.6") == [FixedEdit(12, 6)]
    assert parse_descriptors("E10.3") == [ExpEdit(10, 3)]
    assert parse_descriptors("d14.7") == [ExpEdit(14, 7)]
    assert parse_descriptors("a") == [CharEdit(None)]
    assert parse_descriptors("A12") == [CharEdit(12)]
    assert parse_descriptors("x") == [PositionX(1)]
    assert parse_descriptors("10X") == [PositionX(10)]
    assert parse_descriptors("/") == [RecordBreak()]
    assert parse_descriptors("3i2") == [Repeated(3, IntEdit(2))]
    assert parse_descriptors("'ab''c'") == [LiteralText("ab'c")]
    assert parse_descriptors("4HG= x") == [LiteralText("G= x")]
    assert parse_descriptors("") == []


def test_parse_nested_groups():
    got = parse_descriptors("2(1x,3(i2,a))")
    assert got == [Group(2, (PositionX(1), Group(3, (IntEdit(2), CharEdit(None)))))]


@pytest.mark.parametrize("bad", [
    "q4",          # unknown letter
    "i",           # missing width
    "f12",         # missing fraction
    "f5.5",        # fraction not below width
    "2(1x",        # missing )
    "1x)",         # stray )
    "3",           # dangling repeat
    "2H1",         # Hollerith runs past end
    "()",          # empty group
])
def test_parse_errors(bad):
    with pytest.raises(DescriptorError):
        parse_descriptors(bad)


@pytest.mark.parametrize("text, position, message", [
    ("1x)", 2, "unbalanced ')'"),
    ("i4,)", 3, "unbalanced ')'"),
    ("+i4", 0, "unexpected '+'"),
    ("-", 0, "unexpected '-'"),
    ("+2", 0, "unexpected '+'"),
    ("1x,3", 3, "dangling repeat count"),
    ("2(1x", 1, "missing ')'"),
    ("2(i4,(1x)", 1, "missing ')'"),
    ("()", 0, "empty group"),
    ("i4,2(,)", 4, "empty group"),
    ("Hx", 0, "Hollerith descriptor needs a count"),
    ("0Hx", 1, "Hollerith descriptor needs a count"),
    ("3Hab", 1, "Hollerith descriptor runs past the format"),
    ("1x,'abc", 3, "unterminated literal in format"),
    ("'ab''", 0, "unterminated literal in format"),
    ('"ab', 0, "unterminated literal in format"),
    ("q4", 0, "unknown edit descriptor 'q'"),
    ("2 i4", 1, "unknown edit descriptor ' '"),
    ("P", 0, "unknown edit descriptor 'P'"),
    ("x,2)", 3, "unknown edit descriptor ')'"),
    ("A4.2", 2, "unknown edit descriptor '.'"),
    ("i", 0, "I descriptor needs a width"),
    ("1x,I0", 3, "I descriptor needs a width"),
    ("i.5", 0, "I descriptor needs a width"),
    ("f.5", 0, "F descriptor needs a width"),
    ("D0.0", 0, "D descriptor needs a width"),
    ("e10.3e", 5, "E descriptor needs a width"),
    ("i4.", 2, "malformed minimum digits"),
    ("f12", 0, "F descriptor needs width.frac"),
    ("f12.", 0, "F descriptor needs width.frac"),
    ("e10", 0, "E descriptor needs width.frac"),
    ("1x,d10.", 3, "D descriptor needs width.frac"),
    ("F5.5", 0, "fraction digits must be smaller than the width"),
    ("E4.9", 0, "fraction digits must be smaller than the width"),
    # Digits and letters are ASCII.
    ("\u00b2I4", 0, "unknown edit descriptor '\u00b2'"),
    ("I\u00b2", 0, "I descriptor needs a width"),
    ("1x,3\u00b9X", 4, "unknown edit descriptor '\u00b9'"),
    ("\u00dfI4", 0, "unknown edit descriptor '\u00df'"),
])
def test_descriptor_error_messages_and_positions(text, position, message):
    with pytest.raises(DescriptorError) as caught:
        parse_descriptors(text)
    assert (caught.value.position, caught.value.message) == (position, f"position {position}: {message}")


@pytest.mark.parametrize("text, name", [
    ("-2P", "-2P"), ("+02p", "+02p"), ("2P", "2P"), ("02p", "2P"), (":", ":"), ("3:", ":"),
    ("BN", "BN"), ("bz", "BZ"), ("T10", "T10"), ("tl4", "TL4"), ("TR", "TR"),
    ("SP", "SP"), ("ss", "SS"), ("S", "S"), ("t", "T"), ("3BN", "BN"),
])
def test_control_descriptor_skip_notes(text, name):
    notes = []
    assert parse_descriptors(f"{text},i4", notes) == [IntEdit(4)]
    assert [(d.kind, d.message) for d in notes] == [
        ("unsupported-descriptor", f"control descriptor {name} has no layout effect and was skipped")]


def test_parse_time_is_linear_in_format_length():
    started = time.perf_counter()
    descriptors = parse_descriptors("I4," * 40000)
    assert time.perf_counter() - started < 1.0
    assert descriptors == [IntEdit(4)] * 40000


def test_control_descriptors_skip_with_diagnostic():
    notes = []
    got = parse_descriptors("2P,BN,T12,1X,SP,i4,:", notes)
    assert got == [PositionX(1), IntEdit(4)]
    assert {d.kind for d in notes} == {"unsupported-descriptor"}
    assert len(notes) == 5


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def test_expand_model_format_sequence():
    layout = expand(parse_descriptors(MODEL_FORMAT))
    got = [(i.kind, i.width, i.frac) for i in layout.items]
    B, I, F = LayoutKind.BLANK, LayoutKind.INTEGER, LayoutKind.FIXED_REAL
    assert got == [
        (B, 1, None),
        (B, 1, None), (I, 4, None),
        (B, 1, None), (I, 4, None),
        (B, 1, None), (F, 12, 6),
        (B, 1, None), (F, 12, 6),
        (B, 1, None), (F, 12, 6),
    ]
    assert len(layout.items) == 11
    # Independent oracle: 1 + 2*(1+4) + 3*(1+12) = 50.
    assert layout.record_width == 50
    assert layout.record_width == brute_width(parse_descriptors(MODEL_FORMAT))


def test_expand_empty():
    layout = expand([])
    assert layout.items == ()
    assert layout.record_width == 0


def test_expand_columns_tile():
    layout = expand(parse_descriptors(MODEL_FORMAT))
    assert layout.items[0].start_column == 1
    for prev, item in zip(layout.items, layout.items[1:]):
        assert item.start_column == prev.end_column + 1
        assert item.end_column == item.start_column + item.width - 1


def test_expand_slash_starts_new_record():
    layout = expand(parse_descriptors("i4,1x/f6.2"))
    assert layout.record_breaks == (2,)
    records = layout.records()
    assert len(records) == 2
    assert [i.kind for i in records[0].items] == [LayoutKind.INTEGER, LayoutKind.BLANK]
    assert records[1].items[0].start_column == 1
    assert records[0].record_width == 5
    assert records[1].record_width == 6


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_describe_simple():
    assert describe(expand(parse_descriptors("1X,i4"))) == \
        "space, integer with a width of 4"


def test_describe_empty():
    assert describe(expand([])) == ""


def test_describe_fixed_real():
    assert describe(expand(parse_descriptors("f12.6"))) == \
        "real number with a width of 12 and 6 digits after the decimal point"


def test_describe_other_kinds():
    assert describe(expand(parse_descriptors("3X,e10.3,a12,'ab'"))) == (
        "3 spaces, "
        "real number in exponent form with a width of 10 and 3 digits after the decimal point, "
        "character string with a width of 12, "
        "literal text with a width of 2"
    )


def test_describe_record_break():
    assert describe(expand(parse_descriptors("i2/i3"))) == \
        "integer with a width of 2, new record, integer with a width of 3"


def test_char_edit_without_width_occupies_one_column():
    layout = expand(parse_descriptors("a,i2"))
    assert layout.items[0].width == 1
    assert layout.items[1].start_column == 2


def test_describe_model_format_matches_enumeration():
    got = describe(expand(parse_descriptors(MODEL_FORMAT)))
    real = "real number with a width of 12 and 6 digits after the decimal point"
    assert got == ", ".join([
        "space",
        "space", "integer with a width of 4",
        "space", "integer with a width of 4",
        "space", real,
        "space", real,
        "space", real,
    ])


def test_data_format_of():
    assert data_format_of(INTEGER, IntEdit(4)) == "i4"
    assert data_format_of(DOUBLE_PRECISION, None) == "*"
    assert data_format_of(DOUBLE_PRECISION, FixedEdit(12, 6)) == "f12.6"


def test_data_format_of_mismatch_diagnostic():
    notes = []
    assert data_format_of(INTEGER, FixedEdit(12, 6), notes) == "f12.6"
    assert [d.kind for d in notes] == ["type-descriptor-mismatch"]
    notes = []
    data_format_of(DOUBLE_PRECISION, CharEdit(8), notes)
    assert [d.kind for d in notes] == ["type-descriptor-mismatch"]
    notes = []
    data_format_of(character(4), CharEdit(8), notes)
    assert notes == []


def test_data_format_of_rejects_groups():
    with pytest.raises(ValueError):
        data_format_of(INTEGER, Group(1, (IntEdit(1),)))


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


def test_pair_items_model_case():
    pairs, reverted = pair_items(parse_descriptors(MODEL_FORMAT), 5)
    assert not reverted
    leaves = [leaf for leaf, _ in pairs]
    assert leaves == [IntEdit(4), IntEdit(4),
                      FixedEdit(12, 6), FixedEdit(12, 6), FixedEdit(12, 6)]
    seps = [s for _, s in pairs]
    assert seps == [(PositionX(1), PositionX(1)), (PositionX(1),),
                    (PositionX(1),), (PositionX(1),), (PositionX(1),)]


def test_pair_items_reversion():
    pairs, reverted = pair_items(parse_descriptors("1x,i4"), 3)
    assert reverted
    assert [leaf for leaf, _ in pairs] == [IntEdit(4)] * 3


def test_pair_items_reversion_uses_last_group():
    pairs, reverted = pair_items(parse_descriptors("i2,2(1x,f4.1)"), 5)
    assert reverted
    assert [leaf for leaf, _ in pairs] == [
        IntEdit(2), FixedEdit(4, 1), FixedEdit(4, 1),
        FixedEdit(4, 1), FixedEdit(4, 1),
    ]


def test_pair_items_without_data_leaves():
    pairs, reverted = pair_items(parse_descriptors("1x,'hi'"), 2)
    assert reverted
    assert pairs == [(None, ()), (None, ())]


def test_pair_items_zero_items():
    assert pair_items(parse_descriptors(MODEL_FORMAT), 0) == ([], False)


def reference_pairs(descriptors, item_count):
    """Independent pairing oracle over materialised leaf lists: the first
    pass reads the whole format, each later pass the part from the last
    top-level group on, or the whole format when it has no group."""
    def leaves(ds):
        out = []
        for d in ds:
            if isinstance(d, Group):
                out += leaves(d.children) * d.repeat
            elif isinstance(d, Repeated):
                out += [d.single] * d.repeat
            else:
                out.append(d)
        return out

    groups = [k for k, d in enumerate(descriptors) if isinstance(d, Group)]
    again = leaves(descriptors[groups[-1] if groups else 0:])
    pairs = []
    for n, sequence in enumerate([leaves(descriptors)] + [again] * item_count):
        if len(pairs) == item_count:
            return pairs, n > 1
        separators = []
        for leaf in sequence:
            if isinstance(leaf, (PositionX, LiteralText)):
                separators.append(leaf)
            elif not isinstance(leaf, RecordBreak) and len(pairs) < item_count:
                pairs.append((leaf, tuple(separators)))
                separators = []
    # Passes without a data leaf leave the remaining items without one.
    return pairs + [(None, ())] * (item_count - len(pairs)), True


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_repeatable_leaves = st.one_of(
    st.builds(IntEdit, st.integers(1, 40)),
    st.integers(2, 40).flatmap(
        lambda w: st.builds(FixedEdit, st.just(w), st.integers(0, w - 1))),
    st.integers(2, 40).flatmap(
        lambda w: st.builds(ExpEdit, st.just(w), st.integers(0, w - 1))),
    st.builds(CharEdit, st.one_of(st.none(), st.integers(1, 30))),
    st.builds(LiteralText, st.text(
        alphabet=st.sampled_from("abcXY Z0',.-"), max_size=8)),
    st.just(RecordBreak()),
)

_leaves = st.one_of(_repeatable_leaves, st.builds(PositionX, st.integers(1, 99)))


def _wrap_tree(children):
    return st.one_of(
        st.builds(Group, st.integers(1, 5),
                  st.lists(children, min_size=1, max_size=4).map(tuple)),
        st.builds(Repeated, st.integers(1, 9), _repeatable_leaves),
    )


descriptor_trees = st.recursive(_leaves, _wrap_tree, max_leaves=12)
descriptor_lists = st.lists(descriptor_trees, max_size=6)


@given(descriptor_lists)
@settings(max_examples=150)
def test_round_trip_canonical_text(descriptors):
    assert parse_descriptors(canonical_text(descriptors)) == descriptors


@given(descriptor_lists)
@settings(max_examples=150)
def test_record_width_matches_brute_force(descriptors):
    assert expand(descriptors).record_width == brute_width(descriptors)


@given(descriptor_lists, st.integers(0, 30))
@settings(max_examples=150)
def test_pair_items_matches_reference(descriptors, item_count):
    assert pair_items(descriptors, item_count) == reference_pairs(descriptors, item_count)


@given(st.integers(1, 10), st.lists(_leaves, min_size=1, max_size=5))
def test_group_expansion_is_k_concatenated_copies(k, children):
    single = expand([d for d in children for _ in range(1)])
    grouped = expand([Group(k, tuple(children))])
    base = [(i.kind, i.width, i.frac) for i in single.items]
    got = [(i.kind, i.width, i.frac) for i in grouped.items]
    assert got == base * k


@given(descriptor_lists)
@settings(max_examples=100)
def test_tiling_invariant(descriptors):
    layout = expand(descriptors)
    for record in layout.records():
        if record.items:
            assert record.items[0].start_column == 1
        for prev, item in zip(record.items, record.items[1:]):
            assert item.start_column == prev.end_column + 1
            assert item.end_column == item.start_column + item.width - 1
