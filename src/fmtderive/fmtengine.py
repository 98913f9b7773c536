"""FORTRAN format edit descriptor parsing, expansion and rendering.

Supported descriptors: nX position skips, Iw, Fw.d, Ew.d (D is accepted and
normalized to E), Aw, quoted literals, Hollerith literals, slashes and
repeat groups of arbitrary nesting depth.  Control descriptors that only
affect runtime formatting (P, BN, BZ, S, SP, SS, T, TL, TR, colon) are
skipped with a diagnostic rather than rejected.
"""

from __future__ import annotations

import enum
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

# Control descriptors without layout effect; skipped with a diagnostic.
_SKIPPED_PREFIXES = ("BN", "BZ", "SP", "SS", "TL", "TR", "S", "T")


def parse_descriptors(text: str, diagnostics: list[Diagnostic] | None = None) -> list[EditDescriptor]:
    """Parse the content between FORMAT parentheses into a descriptor tree."""
    items, pos = _parse_list(text, 0, diagnostics)
    if pos != len(text):
        raise DescriptorError(pos, "unbalanced ')'")
    return items


def _skip_separators(text: str, i: int) -> int:
    while i < len(text) and text[i] in " ,":
        i += 1
    return i


def _scan_int(text: str, i: int) -> tuple[int | None, int]:
    j = i
    while j < len(text) and text[j].isdigit():
        j += 1
    if j == i:
        return None, i
    return int(text[i:j]), j


def _note_skip(diagnostics: list[Diagnostic] | None, name: str) -> None:
    if diagnostics is not None:
        diagnostics.append(Diagnostic(
            diag.UNSUPPORTED_DESCRIPTOR,
            f"control descriptor {name} has no layout effect and was skipped",
        ))


def _parse_list(text: str, i: int, diagnostics) -> tuple[list[EditDescriptor], int]:
    items: list[EditDescriptor] = []
    n = len(text)
    while True:
        i = _skip_separators(text, i)
        if i >= n or text[i] == ")":
            return items, i

        start = i
        # Signed scale factor, e.g. -2P.
        if text[i] in "+-":
            count, j = _scan_int(text, i + 1)
            if count is not None and j < n and text[j].upper() == "P":
                _note_skip(diagnostics, text[start:j + 1])
                i = j + 1
                continue
            raise DescriptorError(i, f"unexpected {text[i]!r}")

        count, i = _scan_int(text, i)
        if i >= n and count is not None:
            raise DescriptorError(start, "dangling repeat count")

        if i < n and text[i] == "(":
            children, j = _parse_list(text, i + 1, diagnostics)
            if j >= n or text[j] != ")":
                raise DescriptorError(i, "missing ')'")
            if not children:
                raise DescriptorError(i, "empty group")
            items.append(Group(count if count is not None else 1, tuple(children)))
            i = j + 1
            continue
        if i < n and text[i] == "/":
            item: EditDescriptor = RecordBreak()
            items.append(Repeated(count, item) if count is not None else item)
            i += 1
            continue
        if i < n and text[i] in "'\"":
            literal, i = _parse_quoted(text, i)
            items.append(Repeated(count, literal) if count is not None else literal)
            continue
        if i < n and text[i] == ":":
            _note_skip(diagnostics, ":")
            i += 1
            continue
        if i >= n:
            return items, i

        ch = text[i].upper()
        if ch == "X":
            items.append(PositionX(count if count is not None else 1))
            i += 1
            continue
        if ch == "H":
            if count is None or count < 1:
                raise DescriptorError(i, "Hollerith descriptor needs a count")
            if i + 1 + count > n:
                raise DescriptorError(i, "Hollerith descriptor runs past the format")
            items.append(LiteralText(text[i + 1:i + 1 + count]))
            i += 1 + count
            continue
        if ch == "P" and count is not None:
            _note_skip(diagnostics, f"{count}P")
            i += 1
            continue

        upper_rest = text[i:].upper()
        skipped = next((p for p in _SKIPPED_PREFIXES if upper_rest.startswith(p)), None)
        if skipped is not None and ch not in "IFEDA":
            i += len(skipped)
            width, i = _scan_int(text, i)
            label = skipped if width is None else f"{skipped}{width}"
            _note_skip(diagnostics, label)
            continue

        if ch in "IFEDA":
            leaf, i = _parse_widths(text, i, ch)
            items.append(Repeated(count, leaf) if count is not None else leaf)
            continue
        raise DescriptorError(i, f"unknown edit descriptor {text[i]!r}")


def _parse_quoted(text: str, i: int) -> tuple[LiteralText, int]:
    quote = text[i]
    j = i + 1
    out = []
    n = len(text)
    while j < n:
        if text[j] == quote:
            if j + 1 < n and text[j + 1] == quote:
                out.append(quote)
                j += 2
                continue
            return LiteralText("".join(out)), j + 1
        out.append(text[j])
        j += 1
    raise DescriptorError(i, "unterminated literal in format")


def _parse_widths(text: str, i: int, letter: str) -> tuple[EditDescriptor, int]:
    start = i
    i += 1
    width, i = _scan_int(text, i)
    if letter == "A":
        return CharEdit(width), i
    if width is None or width < 1:
        raise DescriptorError(start, f"{letter} descriptor needs a width")
    if letter == "I":
        # Iw.m: the minimum-digits suffix does not change the layout.
        if i < len(text) and text[i] == ".":
            m, j = _scan_int(text, i + 1)
            if m is None:
                raise DescriptorError(i, "malformed minimum digits")
            i = j
        return IntEdit(width), i
    if i >= len(text) or text[i] != ".":
        raise DescriptorError(start, f"{letter} descriptor needs width.frac")
    frac, i = _scan_int(text, i + 1)
    if frac is None:
        raise DescriptorError(start, f"{letter} descriptor needs width.frac")
    if frac >= width:
        raise DescriptorError(start, "fraction digits must be smaller than the width")
    if letter == "F":
        return FixedEdit(width, frac), i
    # E and D behave identically for layout purposes; Ew.dEe exponent-width
    # suffixes are accepted and ignored.
    if i < len(text) and text[i].upper() == "E":
        e, j = _scan_int(text, i + 1)
        if e is not None:
            i = j
    return ExpEdit(width, frac), i


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


def _reversion_segment(descriptors: list[EditDescriptor]) -> list[EditDescriptor]:
    # Reversion restarts at the last top-level group (with its repeat count),
    # or at the beginning when the format has no groups.
    for idx in range(len(descriptors) - 1, -1, -1):
        if isinstance(descriptors[idx], Group):
            return descriptors[idx:]
    return descriptors


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
    if item_count == 0:
        return pairs, False

    def consume(stream) -> bool:
        pending: list[EditDescriptor] = []
        for leaf in stream:
            if isinstance(leaf, _SEPARATOR_LEAVES):
                pending.append(leaf)
            elif isinstance(leaf, _DATA_LEAVES):
                pairs.append((leaf, tuple(pending)))
                pending.clear()
                if len(pairs) == item_count:
                    return True
        return False

    if consume(_iter_leaves(descriptors)):
        return pairs, False

    segment = _reversion_segment(descriptors)
    has_data = any(isinstance(leaf, _DATA_LEAVES) for leaf in _iter_leaves(segment))
    if not has_data:
        while len(pairs) < item_count:
            pairs.append((None, ()))
        return pairs, True
    while not consume(_iter_leaves(segment)):
        pass
    return pairs, True


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
