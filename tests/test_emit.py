import re
from xml.dom import minidom
from xml.sax.saxutils import escape

from hypothesis import given
from hypothesis import strategies as st

from fmtderive.diagnostics import Diagnostic
from fmtderive.emit import DataFormatDoc, FieldEntry, RecordGroup, build_docs, serialize
from fmtderive.fmtengine import IntEdit, LiteralText, PositionX, canonical_text
from fmtderive.ioflow import EventItem, IoEvent, Multiplicity, UnitBinding
from fmtderive.symbols import INTEGER
from fmtderive.syntax import Label, Literal

from conftest import run_pipeline

_ATTR_VALUE = r"(?:[^\"<>&]|&(?:amp|lt|gt|quot);)*"
_TAG = re.compile(
    r"<(/?)([A-Za-z][\w.-]*)((?:\s+[\w.-]+=\"" + _ATTR_VALUE + r"\")*)\s*(/?)>")


def assert_well_formed(text: str) -> None:
    """Minimal well-formedness check, independent of the stdlib XML parser.

    Verifies tag balance, double-quoted attributes, a single root element and
    properly escaped character data.
    """
    stack = []
    roots = 0
    pos = 0
    for match in _TAG.finditer(text):
        between = text[pos:match.start()]
        assert "<" not in between and re.search(r"&(?!amp;|lt;|gt;|quot;)", between) is None, \
            f"unescaped character data: {between!r}"
        closing, name, _attrs, self_closing = match.groups()
        if closing:
            assert not self_closing
            assert stack and stack[-1] == name, f"mismatched </{name}>"
            stack.pop()
        else:
            if not stack:
                roots += 1
            if not self_closing:
                stack.append(name)
        pos = match.end()
    assert stack == [], f"unclosed elements: {stack}"
    assert roots == 1, f"expected a single root element, found {roots}"
    assert text[pos:].strip() == "", f"trailing junk: {text[pos:]!r}"

# Golden documents for the worked example.  The Basic.TXT group sequence is
# the hand expansion of 1X,2(1X,i4),3(1X,f12.6) paired with the five items:
# seps 1x,1x then i4; sep 1x then i4; then (sep 1x, f12.6) three times.
ODTIME_GOLDEN = """\
<dataformat file="ODTIME.PRN" direction="input">
  <group number="18496" separator="list-directed">
    <integer format="*"/>
    <integer format="*"/>
    <double format="*"/>
  </group>
</dataformat>
"""

BASIC_GOLDEN = """\
<dataformat file="Basic.TXT" direction="output">
  <group number="136" separator="explicit">
    <sep format="1x"/>
    <sep format="1x"/>
    <integer format="i4"/>
    <sep format="1x"/>
    <integer format="i4"/>
    <sep format="1x"/>
    <double format="f12.6"/>
    <sep format="1x"/>
    <double format="f12.6"/>
    <sep format="1x"/>
    <double format="f12.6"/>
  </group>
</dataformat>
"""


def docs_for(source, **kwargs):
    _, _, events = run_pipeline(source, **kwargs)
    return build_docs(events)


def test_model_docs_structure(model_source):
    docs = docs_for(model_source)
    assert [d.file_name for d in docs] == ["ODTIME.PRN", "Basic.TXT"]

    odtime, basic = docs
    assert odtime.direction == "input"
    assert len(odtime.groups) == 1
    group = odtime.groups[0]
    assert group.number == 18496
    assert group.separator_mode == "list-directed"
    assert [(e.type_name, e.format) for e in group.entries] == [
        ("integer", "*"), ("integer", "*"), ("double", "*"),
    ]

    assert basic.direction == "output"
    assert len(basic.groups) == 1
    group = basic.groups[0]
    assert group.number == 136
    assert group.separator_mode == "explicit"
    assert [(e.type_name, e.format) for e in group.entries] == [
        ("integer", "i4"), ("integer", "i4"),
        ("double", "f12.6"), ("double", "f12.6"), ("double", "f12.6"),
    ]
    assert group.entries[0].separators_before == ("1x", "1x")
    assert all(e.separators_before == ("1x",) for e in group.entries[1:])


def test_model_docs_golden(model_source):
    docs = docs_for(model_source)
    assert serialize(docs[0]) == ODTIME_GOLDEN
    assert serialize(docs[1]) == BASIC_GOLDEN


def test_empty_event_list_gives_no_docs():
    assert build_docs([]) == []


def test_two_writes_merge_into_one_doc_two_groups():
    src = (
        "      OPEN(8,FILE='TWO.TXT')\n"
        "      WRITE(8,*) A\n"
        "      WRITE(8,100) B\n"
        "  100 FORMAT(F8.2)\n"
        "      CLOSE(8)\n"
    )
    docs = docs_for(src)
    assert len(docs) == 1
    doc = docs[0]
    assert doc.direction == "output"
    assert [g.separator_mode for g in doc.groups] == ["list-directed", "explicit"]


def test_read_and_write_same_file_direction_both():
    src = (
        "      OPEN(8,FILE='RW.TXT')\n"
        "      READ(8,*) A\n"
        "      WRITE(8,*) A\n"
        "      CLOSE(8)\n"
    )
    docs = docs_for(src)
    assert docs[0].direction == "both"


def test_zero_group_doc_serialization():
    doc = DataFormatDoc("X", "input")
    assert serialize(doc) == '<dataformat file="X" direction="input"></dataformat>\n'


def test_defaulted_multiplicity_serialization():
    src = (
        "      OPEN(8,FILE='VAR.TXT')\n"
        "      DO 10 I=1,M\n"
        "      WRITE(8,*) I\n"
        "   10 CONTINUE\n"
        "      CLOSE(8)\n"
    )
    doc = docs_for(src)[0]
    group = doc.groups[0]
    assert group.number == "M"
    assert group.resolved_default == 1
    text = serialize(doc)
    assert '<group number="M" resolved="1" resolution="default" separator="list-directed">' in text
    assert any(d.kind == "default-loop-count" for d in doc.diagnostics)
    assert "<note" in text


def test_parameter_spelled_bounds_document_resolved_counts():
    src = "      PARAMETER (N=10)\n      OPEN(8,FILE='P.TXT')\n" + "".join(
        f"      DO {label} I={bounds}\n      WRITE(8,*) I\n{label:5d} CONTINUE\n"
        for label, bounds in ((10, "N,1,-1"), (20, "1,N-1"), (30, "1,N/2"), (40, "1,0,2")))
    text = serialize(docs_for(src)[0])
    assert re.findall(r'<group number="(\w+)" separator', text) == ["10", "9", "5", "0"]
    assert "default-loop-count" not in text


def test_unresolved_constant_note_reaches_the_document():
    src = (
        "      PARAMETER (N=M+1)\n"
        "      WRITE(6,*) N\n"
        "      DO 10 I=1,N\n      WRITE(6,*) I\n   10 CONTINUE\n"
    )
    text = serialize(docs_for(src)[0])
    note = '<note kind="unresolved-constant" line="1">constant N = M+1 cannot be resolved</note>'
    assert text.count(note) == 1
    assert "N is undeclared" not in text
    assert '<group number="N" resolved="1" resolution="default"' in text


def test_conditional_group_attribute(tolerant_source):
    doc = docs_for(tolerant_source)[0]
    assert [g.conditional for g in doc.groups] == [True, False]
    assert 'conditional="true"' in serialize(doc)


def test_notes_and_attributes_are_escaped():
    doc = DataFormatDoc(
        'WE"IRD<&>.TXT', "input",
        (RecordGroup(1, (FieldEntry("integer", "i4"),), "explicit"),),
        (Diagnostic("unknown-unit", 'unit <9> has no "binding" & more'),),
    )
    text = serialize(doc)
    minidom.parseString(text)
    assert_well_formed(text)
    assert "&amp;" in text and "&lt;" in text


def test_all_docs_are_well_formed_xml(model_source, tolerant_source):
    for source in (model_source, tolerant_source):
        for doc in docs_for(source):
            text = serialize(doc)
            minidom.parseString(text)
            assert_well_formed(text)


def test_serialization_is_deterministic(model_source):
    first = [serialize(d) for d in docs_for(model_source)]
    second = [serialize(d) for d in docs_for(model_source)]
    assert first == second


def test_every_item_appears_exactly_once(model_source, tolerant_source):
    for source in (model_source, tolerant_source):
        _, _, events = run_pipeline(source)
        docs = build_docs(events)
        emitted = sum(len(g.entries) for d in docs for g in d.groups)
        expected = sum(len(e.items) for e in events)
        assert emitted == expected


def test_zero_multiplicity_group_is_kept_with_note():
    src = (
        "      OPEN(8,FILE='Z.TXT')\n"
        "      DO 10 I=5,1\n"
        "      WRITE(8,*) I\n"
        "   10 CONTINUE\n"
        "      CLOSE(8)\n"
    )
    doc = docs_for(src)[0]
    assert doc.groups[0].number == 0
    assert any(d.kind == "zero-multiplicity" for d in doc.diagnostics)


# Separator runs: equal leaves, drawn apart or repeated as one object, side by
# side, with text that needs escaping.
_separator_runs = st.lists(st.tuples(
    st.one_of(
        st.builds(PositionX, st.integers(1, 3)),
        st.builds(LiteralText, st.text(alphabet=st.sampled_from("a<&\"' "), max_size=3)),
    ),
    st.integers(1, 30),
), max_size=6)
_items = st.lists(_separator_runs.map(
    lambda runs: EventItem("K", INTEGER, IntEdit(4), tuple(sep for sep, n in runs for _ in range(n)))),
    min_size=1, max_size=4)


def one_sep_per_separator(events) -> str:
    """Reference rendering: one canonical text and one <sep> line per separator."""
    lines = ['<dataformat file="OUT.DAT" direction="output">']
    for event in events:
        lines.append('  <group number="1" separator="explicit">')
        for item in event.items:
            for sep in item.separators:
                text = escape(canonical_text([sep]), {'"': "&quot;"})
                lines.append(f'    <sep format="{text}"/>')
            lines.append('    <integer format="i4"/>')
        lines.append("  </group>")
    return "\n".join(lines) + "\n</dataformat>\n"


@given(st.lists(_items, min_size=1, max_size=3))
def test_separator_runs_serialize_one_line_per_separator(item_lists):
    binding = UnitBinding(10, "OUT.DAT")
    events = [
        IoEvent("WRITE", binding, Label(20), tuple(items), Multiplicity(Literal(1), 1), line)
        for line, items in enumerate(item_lists, 1)
    ]
    [doc] = build_docs(events)
    assert serialize(doc) == one_sep_per_separator(events)
