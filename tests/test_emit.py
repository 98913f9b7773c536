import dataclasses
import importlib
import pkgutil
import re
import weakref
from xml.dom import minidom
from xml.sax.saxutils import escape

from hypothesis import given
from hypothesis import strategies as st

import fmtderive
from fmtderive import emit
from fmtderive.diagnostics import Diagnostic
from fmtderive.emit import DataFormatDoc, build_docs, run_cli, serialize
from fmtderive.fmtengine import DataEdit, LiteralText, PositionX
from fmtderive.ioflow import EventItem, IoEvent, Multiplicity, UnitBinding
from fmtderive.symbols import DOUBLE_PRECISION, INTEGER, LOGICAL, REAL, character
from fmtderive.syntax import BinOp, Inline, Label, ListDirected, Literal, SymbolRef, expr_text

from conftest import MODEL_SOURCE, run_pipeline

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
    [event] = odtime.groups
    assert event.multiplicity.resolved == 18496 and not event.multiplicity.defaulted
    assert isinstance(event.format, ListDirected)
    assert [(i.data_type, i.descriptor, i.separators) for i in event.items] == [
        (INTEGER, None, ()), (INTEGER, None, ()), (DOUBLE_PRECISION, None, ()),
    ]

    assert basic.direction == "output"
    [event] = basic.groups
    assert event.multiplicity.resolved == 136 and not event.multiplicity.defaulted
    assert event.format == Label(501)
    x, i4, f12 = PositionX(1), DataEdit("I", 4), DataEdit("F", 12, 6)
    assert [(i.data_type, i.descriptor, i.separators) for i in event.items] == [
        (INTEGER, i4, (x, x)), (INTEGER, i4, (x,)),
        (DOUBLE_PRECISION, f12, (x,)), (DOUBLE_PRECISION, f12, (x,)), (DOUBLE_PRECISION, f12, (x,)),
    ]


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
    assert [e.format for e in doc.groups] == [ListDirected(), Label(100)]
    assert re.findall(r'separator="([\w-]+)"', serialize(doc)) == ["list-directed", "explicit"]


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
    mult = doc.groups[0].multiplicity
    assert mult.defaulted and expr_text(mult.count) == "M"
    assert mult.resolved == 1
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
    assert [e.multiplicity.conditional for e in doc.groups] == [True, False]
    assert 'conditional="true"' in serialize(doc)


def test_notes_and_attributes_are_escaped():
    name = 'WE"IRD<&>.TXT'
    item = EventItem("K", INTEGER, DataEdit("I", 4), (LiteralText('<&">'),))
    event = IoEvent("READ", UnitBinding(9, name), Label(20), (item,), Multiplicity(Literal(1), 1), 3)
    doc = DataFormatDoc(
        name, "input", (event,),
        (Diagnostic("unknown-unit", 'unit <9> has no "binding" & more'),),
    )
    text = serialize(doc)
    minidom.parseString(text)
    assert_well_formed(text)
    assert '<sep format="\'&lt;&amp;&quot;&gt;\'"/>' in text
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
        for doc in build_docs(events):
            root = minidom.parseString(serialize(doc)).documentElement
            fields = [
                node for group in root.getElementsByTagName("group")
                for node in group.childNodes
                if node.nodeType == node.ELEMENT_NODE and node.tagName != "sep"
            ]
            expected = sum(len(e.items) for e in events if e.binding.file_name == doc.file_name)
            assert len(fields) == expected > 0


def test_zero_multiplicity_group_is_kept_with_note():
    src = (
        "      OPEN(8,FILE='Z.TXT')\n"
        "      DO 10 I=5,1\n"
        "      WRITE(8,*) I\n"
        "   10 CONTINUE\n"
        "      CLOSE(8)\n"
    )
    doc = docs_for(src)[0]
    assert doc.groups[0].multiplicity.resolved == 0
    assert '<group number="0" separator="list-directed">' in serialize(doc)
    assert any(d.kind == "zero-multiplicity" for d in doc.diagnostics)


# Drawn transfers for the serialize oracle.  Separator runs: equal leaves,
# drawn apart or repeated as one object, side by side, with text that needs
# escaping.  Counts: resolved, zero or defaulted, conditional or not.  A
# transfer may have no items.
_separator_runs = st.lists(st.tuples(
    st.one_of(
        st.builds(PositionX, st.integers(1, 3)),
        st.builds(LiteralText, st.text(alphabet=st.sampled_from("a<&\"' "), max_size=3)),
    ),
    st.integers(1, 30),
), max_size=6)
_types = st.sampled_from([INTEGER, REAL, DOUBLE_PRECISION, LOGICAL, character(8)])
_descriptors = st.one_of(
    st.builds(DataEdit, st.sampled_from("IL"), st.integers(1, 12)),
    st.builds(DataEdit, st.sampled_from("FEG"), st.integers(1, 12), st.integers(0, 6)),
    st.builds(DataEdit, st.just("A"), st.none() | st.integers(1, 12)),
)
_explicit_items = st.lists(st.builds(
    lambda data_type, descriptor, runs: EventItem(
        "K", data_type, descriptor, tuple(sep for sep, n in runs for _ in range(n))),
    _types, _descriptors, _separator_runs,
), max_size=4)
_list_items = st.lists(st.builds(EventItem, st.just("K"), _types, st.none()), max_size=4)

# Trip-count products and their text, written by the rules of
# docs/format-schema.md: outermost loop first, only the parentheses needed.
# All but the first are symbolic, so they may be defaulted.
N, M, NR = SymbolRef("N"), SymbolRef("M"), SymbolRef("NR")
_COUNTS = [
    (Literal(7), "7"),
    (N, "N"),
    (BinOp("*", N, M), "N*M"),
    (BinOp("*", BinOp("+", BinOp("-", NR, Literal(2)), Literal(1)), M), "(NR-2+1)*M"),
]


@st.composite
def _events(draw):
    """An event writing OUT.DAT, with the expected text of its symbolic count."""
    defaulted = draw(st.booleans())
    count, text = draw(st.sampled_from(_COUNTS[1:] if defaulted else _COUNTS))
    resolved, line = draw(st.integers(0, 50)), draw(st.integers(1, 3))
    fmt = draw(st.sampled_from([ListDirected(), Label(20), Inline("I4")]))
    items = draw(_list_items if fmt == ListDirected() else _explicit_items)
    mult = Multiplicity(count, resolved, draw(st.booleans()), defaulted)
    return IoEvent("WRITE", UnitBinding(10, "OUT.DAT"), fmt, tuple(items), mult, line), text


_ELEMENTS = {INTEGER: "integer", REAL: "real", DOUBLE_PRECISION: "double", LOGICAL: "logical",
             character(8): "character"}


def _descriptor_text(d) -> str:
    """The canonical lowercase text of one leaf, as the schema spells it."""
    if isinstance(d, PositionX):
        return f"{d.count}x"
    if isinstance(d, DataEdit):
        width = "" if d.width is None else d.width
        return f"{d.letter.lower()}{width}" + ("" if d.frac is None else f".{d.frac}")
    return "'" + d.text.replace("'", "''") + "'"


def reference_groups(drawn) -> str:
    """Reference rendering from docs/format-schema.md: one <group> per
    transfer of at least one item, one <sep> line per separator and one field
    element per item."""
    quote = {'"': "&quot;"}
    lines = ['<dataformat file="OUT.DAT" direction="output">']
    for event, text in drawn:
        if not event.items:
            continue
        mult = event.multiplicity
        if mult.defaulted:
            attrs = f'number="{text}" resolved="{mult.resolved}" resolution="default"'
        else:
            attrs = f'number="{mult.resolved}"'
        attrs += ' separator="list-directed"' if event.format == ListDirected() else ' separator="explicit"'
        if mult.conditional:
            attrs += ' conditional="true"'
        lines.append(f"  <group {attrs}>")
        for item in event.items:
            for sep in item.separators:
                lines.append(f'    <sep format="{escape(_descriptor_text(sep), quote)}"/>')
            form = "*" if item.descriptor is None else _descriptor_text(item.descriptor)
            lines.append(f'    <{_ELEMENTS[item.data_type]} format="{form}"/>')
        lines.append("  </group>")
    if len(lines) == 1:
        return '<dataformat file="OUT.DAT" direction="output"></dataformat>\n'
    return "\n".join(lines) + "\n</dataformat>\n"


_NOTE = re.compile(r'  <note kind="([\w-]+)" line="(\d+)">.*</note>\n')


@given(st.lists(_events(), min_size=1, max_size=3))
def test_separator_runs_serialize_one_line_per_separator(drawn):
    [doc] = build_docs([event for event, _ in drawn])
    text = serialize(doc)
    assert _NOTE.sub("", text) == reference_groups(drawn)
    # A group that never executes is kept, with one note per line.
    zero_lines = dict.fromkeys(
        e.source_line for e, _ in drawn if e.items and e.multiplicity.resolved == 0)
    assert _NOTE.findall(text) == [("zero-multiplicity", str(line)) for line in zero_lines]


# ---------------------------------------------------------------------------
# Pipeline memory
# ---------------------------------------------------------------------------


class _TokenList(list):
    """A token list that can be weakly referenced, which a plain list cannot."""


def test_token_list_is_released_before_analysis(monkeypatch, tmp_path):
    tokenize, analyze = emit.tokenize, emit.analyze
    lists = []  # a weak reference to each token list tokenize returned
    released = []  # at each analyze call, whether the last list was freed

    def tracked_tokenize(*args):
        tokens = _TokenList(tokenize(*args))
        lists.append(weakref.ref(tokens))
        return tokens

    def checked_analyze(*args, **kwargs):
        released.append(lists[-1]() is None)
        return analyze(*args, **kwargs)

    monkeypatch.setattr(emit, "tokenize", tracked_tokenize)
    monkeypatch.setattr(emit, "analyze", checked_analyze)
    src = tmp_path / "model.f"
    src.write_text(MODEL_SOURCE)
    assert run_cli(["parse", str(src), "-o", str(tmp_path / "out")]) == 0
    assert len(lists) == 1
    assert released == [True]


def test_every_dataclass_declares_slots():
    """Node types carry no per-instance dict.  Every dataclass in the
    package's modules is checked, so a type added later is covered too."""
    modules = [
        importlib.import_module(f"fmtderive.{info.name}")
        for info in pkgutil.iter_modules(fmtderive.__path__)
        if not info.name.startswith("__")
    ]
    classes = [
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and dataclasses.is_dataclass(obj)
    ]
    assert len(classes) >= 40
    unslotted = [
        f"{cls.__module__}.{cls.__qualname__}" for cls in classes
        if "__slots__" not in vars(cls)
        or any("__dict__" in vars(base) for base in cls.__mro__)
    ]
    assert unslotted == []
