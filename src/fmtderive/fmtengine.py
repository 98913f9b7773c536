"""FORTRAN format edit descriptor parsing, expansion and rendering.

Supported descriptors: nX position skips, Iw, Fw.d, Ew.d (D is accepted and
normalized to E), Aw, quoted literals, Hollerith literals, slashes and
repeat groups of arbitrary nesting depth.  Control descriptors that only
affect runtime formatting (P, BN, BZ, S, SP, SS, T, TL, TR, colon) are
skipped with a diagnostic rather than rejected.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from . import diagnostics as diag
from .diagnostics import AnalysisError, Diagnostic
from .symbols import DataType


class DescriptorError(AnalysisError):
    """A malformed format; position is the offset within the format text."""

    def __init__(self, position: int, message: str):
        super().__init__(f"position {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class PositionX:
    count: int


@dataclass(frozen=True)
class IntEdit:
    width: int


@dataclass(frozen=True)
class FixedEdit:
    width: int
    frac: int


@dataclass(frozen=True)
class ExpEdit:
    width: int
    frac: int


@dataclass(frozen=True)
class CharEdit:
    width: int | None = None


@dataclass(frozen=True)
class LiteralText:
    text: str


@dataclass(frozen=True)
class RecordBreak:
    pass


@dataclass(frozen=True)
class Group:
    repeat: int
    children: tuple["EditDescriptor", ...]


@dataclass(frozen=True)
class Repeated:
    repeat: int
    single: "EditDescriptor"

    def __post_init__(self):
        # A count before X is the X count itself, and counts before groups
        # make Group nodes, so those shapes under Repeated would not survive
        # a canonical-text round trip.
        if isinstance(self.single, (PositionX, Group, Repeated)):
            raise ValueError("Repeated wraps only letter, literal and slash leaves")


EditDescriptor = (
    PositionX | IntEdit | FixedEdit | ExpEdit | CharEdit | LiteralText
    | RecordBreak | Group | Repeated
)

_DATA_LEAVES = (IntEdit, FixedEdit, ExpEdit, CharEdit)
_SEPARATOR_LEAVES = (PositionX, LiteralText)


class LayoutKind(enum.Enum):
    BLANK = "blank"
    INTEGER = "integer"
    FIXED_REAL = "fixed-real"
    EXP_REAL = "exp-real"
    CHARACTER = "character"
    LITERAL = "literal"


@dataclass(frozen=True)
class LayoutItem:
    kind: LayoutKind
    width: int
    frac: int | None
    start_column: int
    end_column: int


@dataclass(frozen=True)
class Layout:
    items: tuple[LayoutItem, ...]
    record_width: int
    # Indices into items where a new record starts (from slash descriptors).
    record_breaks: tuple[int, ...] = ()

    def records(self) -> list["Layout"]:
        """Split a multi-record layout into one Layout per record."""
        bounds = [0, *self.record_breaks, len(self.items)]
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            items = self.items[lo:hi]
            out.append(Layout(items, sum(i.width for i in items)))
        return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# One item of a format list and the blanks and commas before it.  Letters
# match in either case; digits are ASCII 0-9.  Compiled on first use, through
# re's cache, which keeps the compilation out of import time.
_ITEM = r"""(?xs) [ ,]* (?:
    (?P<close> \) )
  | (?P<end> \Z )
    # -2P or 2P: a scale factor, which needs its count.
  | (?P<scale> [+-] [0-9]+ [Pp] | (?P<factor> [0-9]+ ) [Pp] )
  | (?P<sign> [+-] )
    # Any other item may follow a repeat count.
  | (?P<count> [0-9]+ )? (?:
        # Iw.m, Fw.d, Ew.d, Dw.d; E and D also take an Ee exponent suffix.
        (?P<edit> (?P<letter> [IiFf] | (?P<exp> [EeDd] ) ) (?P<width> [0-9]* )
                  (?: (?P<dot> \. ) (?P<frac> [0-9]* ) (?(exp) (?: [Ee][0-9]+ )? ) )? )
      | (?P<x> [Xx] )
      | (?P<open> \( )
      | (?P<char> [Aa] (?P<length> [0-9]* ) )
      | (?P<slash> / )
        # A doubled quote inside a literal stands for one quote character.
      | (?P<quoted> '[^']*(?:''[^']*)*'(?!') | "[^"]*(?:""[^"]*)*"(?!") )
      | (?P<unterminated> ['"] )
      | (?P<colon> : )
        # nH: the n characters after the H are the literal.
      | (?P<hollerith> [Hh] )
        # BN, BZ, SP, SS, S, TLn, TRn, Tn: no layout effect, skipped.
      | (?P<control> (?P<name> [Bb][NnZz] | [Ss][PpSs]? | [Tt][LlRr]? ) (?P<tab> [0-9]* ) )
        # Anything else; nothing at all only after a repeat count.
      | (?P<other> . | \Z )
    )
)"""


def parse_descriptors(text: str, diagnostics: list[Diagnostic] | None = None) -> list[EditDescriptor]:
    """Parse the content between FORMAT parentheses into a descriptor tree."""
    match = re.compile(_ITEM).match
    items: list[EditDescriptor] = []
    # (enclosing list, repeat count, offset of the '(') of each open group
    open_groups: list[tuple[list[EditDescriptor], int | None, int]] = []
    pos = 0
    while True:
        m = match(text, pos)
        kind, pos = m.lastgroup, m.end()
        count = int(m["count"]) if m["count"] else None
        if kind == "edit":
            letter, width, frac = m["letter"].upper(), int(m["width"] or 0), m["frac"]
            if width < 1:
                raise DescriptorError(m.start(kind), f"{letter} descriptor needs a width")
            if letter == "I":
                # Iw.m: the minimum-digits suffix does not change the layout.
                if frac == "":
                    raise DescriptorError(m.start("dot"), "malformed minimum digits")
                leaf: EditDescriptor = IntEdit(width)
            elif not frac:
                raise DescriptorError(m.start(kind), f"{letter} descriptor needs width.frac")
            elif int(frac) >= width:
                raise DescriptorError(m.start(kind), "fraction digits must be smaller than the width")
            else:
                leaf = (FixedEdit if letter == "F" else ExpEdit)(width, int(frac))
        elif kind == "x":
            items.append(PositionX(1 if count is None else count))
            continue
        elif kind == "open":
            open_groups.append((items, count, m.start(kind)))
            items = []
            continue
        elif kind == "close":
            if not open_groups:
                raise DescriptorError(m.start(kind), "unbalanced ')'")
            outer, repeat, at = open_groups.pop()
            if not items:
                raise DescriptorError(at, "empty group")
            outer.append(Group(1 if repeat is None else repeat, tuple(items)))
            items = outer
            continue
        elif kind == "end":
            if open_groups:
                raise DescriptorError(open_groups[-1][2], "missing ')'")
            return items
        elif kind == "char":
            leaf = CharEdit(int(m["length"]) if m["length"] else None)
        elif kind == "quoted":
            quote = text[m.start(kind)]
            leaf = LiteralText(m[kind][1:-1].replace(quote * 2, quote))
        elif kind == "slash":
            leaf = RecordBreak()
        elif kind == "hollerith":
            if count is None or count < 1:
                raise DescriptorError(m.start(kind), "Hollerith descriptor needs a count")
            if pos + count > len(text):
                raise DescriptorError(m.start(kind), "Hollerith descriptor runs past the format")
            items.append(LiteralText(text[pos:pos + count]))
            pos += count
            continue
        elif kind in ("scale", "colon", "control"):
            if kind == "control":
                name = m["name"].upper() + (str(int(m["tab"])) if m["tab"] else "")
            else:
                name = f"{int(m['factor'])}P" if m["factor"] else m[kind]
            if diagnostics is not None:
                diagnostics.append(Diagnostic(
                    diag.UNSUPPORTED_DESCRIPTOR,
                    f"control descriptor {name} has no layout effect and was skipped"))
            continue
        elif kind == "sign":
            raise DescriptorError(m.start(kind), f"unexpected {m[kind]!r}")
        elif kind == "unterminated":
            raise DescriptorError(m.start(kind), "unterminated literal in format")
        elif m[kind]:
            raise DescriptorError(m.start(kind), f"unknown edit descriptor {m[kind]!r}")
        else:
            raise DescriptorError(m.start("count"), "dangling repeat count")
        items.append(leaf if count is None else Repeated(count, leaf))


# ---------------------------------------------------------------------------
# Expansion and rendering
# ---------------------------------------------------------------------------


def expand(descriptors: list[EditDescriptor]) -> Layout:
    """Unroll repeat groups into a flat, column-tiled layout.

    Slash descriptors start a new record; record starts are available via
    Layout.record_breaks and Layout.records().
    """
    items: list[LayoutItem] = []
    breaks: list[int] = []
    column = 1
    for d in _iter_leaves(descriptors):
        if isinstance(d, RecordBreak):
            breaks.append(len(items))
            column = 1
            continue
        frac = None
        if isinstance(d, PositionX):
            kind, width = LayoutKind.BLANK, d.count
        elif isinstance(d, IntEdit):
            kind, width = LayoutKind.INTEGER, d.width
        elif isinstance(d, (FixedEdit, ExpEdit)):
            kind = LayoutKind.FIXED_REAL if isinstance(d, FixedEdit) else LayoutKind.EXP_REAL
            width, frac = d.width, d.frac
        elif isinstance(d, CharEdit):
            kind, width = LayoutKind.CHARACTER, d.width if d.width is not None else 1
        elif isinstance(d, LiteralText):
            kind, width = LayoutKind.LITERAL, len(d.text)
        else:
            raise TypeError(f"not an edit descriptor: {d!r}")
        items.append(LayoutItem(kind, width, frac, column, column + width - 1))
        column += width
    return Layout(tuple(items), sum(i.width for i in items), tuple(breaks))


_CLAUSES = {
    LayoutKind.INTEGER: "integer with a width of {w}",
    LayoutKind.FIXED_REAL: "real number with a width of {w} and {f} digits after the decimal point",
    LayoutKind.EXP_REAL: "real number in exponent form with a width of {w} and {f} digits after the decimal point",
    LayoutKind.CHARACTER: "character string with a width of {w}",
    LayoutKind.LITERAL: "literal text with a width of {w}",
}


def describe(layout: Layout) -> str:
    """English rendering of a layout, one clause per item."""
    clauses = []
    breaks = set(layout.record_breaks)
    for idx, item in enumerate(layout.items):
        if idx in breaks:
            clauses.append("new record")
        if item.kind is LayoutKind.BLANK:
            clauses.append("space" if item.width == 1 else f"{item.width} spaces")
        else:
            clauses.append(_CLAUSES[item.kind].format(w=item.width, f=item.frac))
    return ", ".join(clauses)


def canonical_text(descriptors: list[EditDescriptor]) -> str:
    """Render a descriptor tree back to parseable format text."""
    return ",".join(_canonical_one(d) for d in descriptors)


def _canonical_one(d: EditDescriptor) -> str:
    if isinstance(d, PositionX):
        return f"{d.count}x"
    if isinstance(d, IntEdit):
        return f"i{d.width}"
    if isinstance(d, FixedEdit):
        return f"f{d.width}.{d.frac}"
    if isinstance(d, ExpEdit):
        return f"e{d.width}.{d.frac}"
    if isinstance(d, CharEdit):
        return "a" if d.width is None else f"a{d.width}"
    if isinstance(d, LiteralText):
        return "'" + d.text.replace("'", "''") + "'"
    if isinstance(d, RecordBreak):
        return "/"
    if isinstance(d, Group):
        return f"{d.repeat}({canonical_text(list(d.children))})"
    if isinstance(d, Repeated):
        return f"{d.repeat}{_canonical_one(d.single)}"
    raise TypeError(f"not an edit descriptor: {d!r}")


# ---------------------------------------------------------------------------
# Item pairing
# ---------------------------------------------------------------------------

_COMPATIBLE = {
    IntEdit: ("INTEGER",),
    FixedEdit: ("REAL", "DOUBLE_PRECISION", "COMPLEX"),
    ExpEdit: ("REAL", "DOUBLE_PRECISION", "COMPLEX"),
    CharEdit: ("CHARACTER",),
}


def data_format_of(
    item_type: DataType,
    descriptor: EditDescriptor | None,
    diagnostics: list[Diagnostic] | None = None,
) -> str:
    """Canonical format attribute for one item; '*' for list-directed."""
    if descriptor is None:
        return "*"
    if isinstance(descriptor, (Group, Repeated)):
        raise ValueError("data_format_of expects a leaf descriptor")
    text = _canonical_one(descriptor)
    compatible = _COMPATIBLE.get(type(descriptor), ())
    if item_type.name not in compatible and diagnostics is not None:
        diagnostics.append(Diagnostic(
            diag.TYPE_DESCRIPTOR_MISMATCH,
            f"descriptor {text} cannot carry a value of type {item_type.name}",
        ))
    return text


def _iter_leaves(descriptors):
    """Yield the leaf descriptors in the order a transfer visits them, with
    groups and repeat counts unrolled."""
    for d in descriptors:
        if isinstance(d, Group):
            for _ in range(d.repeat):
                yield from _iter_leaves(d.children)
        elif isinstance(d, Repeated):
            for _ in range(d.repeat):
                yield d.single
        else:
            yield d


def pair_items(
    descriptors: list[EditDescriptor],
    item_count: int,
) -> tuple[list[tuple[EditDescriptor | None, tuple[EditDescriptor, ...]]], bool]:
    """Positionally pair I/O items with data-carrying leaf descriptors.

    Position and literal leaves become separator entries attached to the
    following data leaf.  When items outnumber data leaves the descriptor
    list reverts to its last open group, per the standard reversion rule;
    the second return value reports whether reversion was needed.
    """
    pairs: list[tuple[EditDescriptor | None, tuple[EditDescriptor, ...]]] = []
    segment, reverted = descriptors, False
    # One pass over the segment per loop; separators do not carry over.
    while len(pairs) < item_count:
        paired = len(pairs)
        pending: list[EditDescriptor] = []
        for leaf in _iter_leaves(segment):
            if isinstance(leaf, _SEPARATOR_LEAVES):
                pending.append(leaf)
            elif isinstance(leaf, _DATA_LEAVES):
                pairs.append((leaf, tuple(pending)))
                pending.clear()
                if len(pairs) == item_count:
                    break
        else:
            if not reverted:
                # Reversion restarts at the last top-level group, with its
                # repeat count, or at the beginning when the format has none.
                groups = [k for k, d in enumerate(descriptors) if isinstance(d, Group)]
                segment, reverted = descriptors[groups[-1] if groups else 0:], True
            elif len(pairs) == paired:
                # The segment has no data leaf to pair the remaining items with.
                pairs += [(None, ())] * (item_count - paired)
    return pairs, reverted


def layout_table(layout: Layout) -> str:
    """Column table for the descriptor CLI subcommand."""
    lines = [f"{'kind':<12} {'width':>5} {'start':>5} {'end':>5}"]
    breaks = set(layout.record_breaks)
    for idx, item in enumerate(layout.items):
        if idx in breaks:
            lines.append("-- new record --")
        lines.append(
            f"{item.kind.value:<12} {item.width:>5} {item.start_column:>5} {item.end_column:>5}")
    lines.append(f"record width: {layout.record_width}")
    return "\n".join(lines)
