"""FORTRAN format edit descriptor parsing, expansion and rendering.

Supported descriptors: nX position skips, Iw, Fw.d, Ew.d (D is accepted and
normalized to E), Gw.d, Lw, Aw, quoted literals, Hollerith literals, slashes
and repeat groups of arbitrary nesting depth.  Control descriptors that only
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
    """A malformed or oversized format; position is the offset within the
    format text, or None when the error is not at one place in it."""

    def __init__(self, position: int | None, message: str):
        super().__init__(message if position is None else f"position {position}: {message}")
        self.position = position


@dataclass(frozen=True, slots=True)
class PositionX:
    count: int


@dataclass(frozen=True, slots=True)
class DataEdit:
    """A data edit descriptor: Iw, Fw.d, Ew.d (Dw.d reads as E), Gw.d, Lw or
    Aw.  frac is None for I, L and A; width is None for a bare A."""
    letter: str
    width: int | None = None
    frac: int | None = None


@dataclass(frozen=True, slots=True)
class LiteralText:
    text: str


@dataclass(frozen=True, slots=True)
class RecordBreak:
    pass


@dataclass(frozen=True, slots=True)
class Group:
    repeat: int
    children: tuple["EditDescriptor", ...]

    def __post_init__(self):
        if self.repeat < 1:
            raise ValueError("a group repeats at least once")


@dataclass(frozen=True, slots=True)
class Repeated:
    repeat: int
    single: "EditDescriptor"

    def __post_init__(self):
        # A count before X is the X count itself, and counts before groups
        # make Group nodes, so those shapes under Repeated would not survive
        # a canonical-text round trip.
        if isinstance(self.single, (PositionX, Group, Repeated)):
            raise ValueError("Repeated wraps only letter, literal and slash leaves")
        if self.repeat < 1:
            raise ValueError("a repeat count is at least 1")


EditDescriptor = PositionX | DataEdit | LiteralText | RecordBreak | Group | Repeated


class LayoutKind(enum.Enum):
    BLANK = "blank"
    INTEGER = "integer"
    FIXED_REAL = "fixed-real"
    EXP_REAL = "exp-real"
    GENERAL_REAL = "general-real"
    LOGICAL = "logical"
    CHARACTER = "character"
    LITERAL = "literal"


# Each data edit letter: the layout kind it makes, and the type names of the
# values it may carry (F77 13.5.9-13.5.11).
_REALS = ("REAL", "DOUBLE_PRECISION", "COMPLEX")
_LETTERS = {
    "I": (LayoutKind.INTEGER, ("INTEGER",)),
    "F": (LayoutKind.FIXED_REAL, _REALS),
    "E": (LayoutKind.EXP_REAL, _REALS),
    "G": (LayoutKind.GENERAL_REAL, _REALS),
    "L": (LayoutKind.LOGICAL, ("LOGICAL",)),
    "A": (LayoutKind.CHARACTER, ("CHARACTER",)),
}


@dataclass(frozen=True, slots=True)
class LayoutItem:
    kind: LayoutKind
    width: int
    frac: int | None
    start_column: int
    end_column: int


@dataclass(frozen=True, slots=True)
class Layout:
    items: tuple[LayoutItem, ...]
    record_width: int
    # Indices into items where a new record starts (from slash descriptors).
    record_breaks: tuple[int, ...] = ()


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
        # Iw.m, Fw.d, Ew.d, Dw.d, Gw.d, Lw, Aw: E, D and G also take an Ee
        # exponent suffix, and L and A no fraction.
        (?P<edit> (?: (?P<bare> [LlAa] ) | (?P<exp> [EeDdGg] ) | [IiFf] ) (?P<width> [0-9]* )
                  (?(bare) | (?: (?P<dot> \. ) (?P<frac> [0-9]* ) (?(exp) (?: [Ee][0-9]+ )? ) )? ) )
      | (?P<x> [Xx] )
      | (?P<open> \( )
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
        if count == 0 and kind not in ("hollerith", "other", "unterminated"):
            # F77 13.5: repeat counts and the X count are nonzero.
            what = "X count" if kind == "x" else "repeat count"
            raise DescriptorError(m.start("count"), f"{what} must be at least 1")
        if kind == "edit":
            letter, width, frac = m[kind][0].upper(), int(m["width"] or 0), m["frac"]
            if letter == "A" and not m["width"]:
                width = None
            elif width < 1:
                raise DescriptorError(m.start(kind), "A descriptor width must be at least 1"
                                      if letter == "A" else f"{letter} descriptor needs a width")
            elif letter == "I" and frac == "":
                # Iw.m: the minimum-digits suffix does not change the layout.
                raise DescriptorError(m.start("dot"), "malformed minimum digits")
            elif letter in "FEDG" and not frac:
                raise DescriptorError(m.start(kind), f"{letter} descriptor needs width.frac")
            elif letter in "FEDG" and int(frac) >= width:
                raise DescriptorError(m.start(kind), "fraction digits must be smaller than the width")
            leaf = DataEdit("E" if letter == "D" else letter, width,
                            int(frac) if letter in "FEDG" else None)
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
                ignored = "" if count is None else f"; its repeat count {count} was ignored"
                diagnostics.append(Diagnostic(
                    diag.UNSUPPORTED_DESCRIPTOR,
                    f"control descriptor {name} has no layout effect and was skipped{ignored}"))
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


# The most descriptors one layout, or the separators of one transfer, may
# unroll to; a larger format raises DescriptorError instead of exhausting
# memory.  The largest transfer of the format-heavy benchmark (seed 1) takes
# 6,630 separators.
MAX_UNROLLED = 1_000_000


def _run_of(d: EditDescriptor) -> tuple | None:
    """The one (leaf, count) run d visits, or None for a group that visits
    data leaves in more than one run.  A group without data leaves is one run
    whose leaf is a block: the tuple of its children's runs."""
    if isinstance(d, Repeated):
        return d.single, d.repeat
    if not isinstance(d, Group):
        return d, 1
    if len(d.children) == 1:
        run = _run_of(d.children[0])
        if run is not None:
            return run[0], run[1] * d.repeat
    if not any(map(_has_data, d.children)):
        return tuple(map(_run_of, d.children)), d.repeat
    return None


def _has_data(d: EditDescriptor) -> bool:
    if isinstance(d, Group):
        return any(map(_has_data, d.children))
    return isinstance(d.single if isinstance(d, Repeated) else d, DataEdit)


def _runs(descriptors):
    """Yield the (leaf, count) runs a transfer visits, in order.  Only groups
    that visit data leaves in more than one run are walked repeat by repeat,
    so a repeat count costs time only where data leaves are paired."""
    for d in descriptors:
        run = _run_of(d)
        if run is not None:
            yield run
        else:
            for _ in range(d.repeat):
                yield from _runs(d.children)


def _size(descriptors) -> int:
    """How many leaves descriptors unroll to, counted on the tree."""
    return sum(
        d.repeat * _size(d.children) if isinstance(d, Group)
        else d.repeat if isinstance(d, Repeated) else 1
        for d in descriptors)


def _count(runs, skip=()) -> int:
    """How many leaves runs unroll to, leaves of the types in skip not counted."""
    return sum(
        (_count(leaf, skip) if isinstance(leaf, tuple) else not isinstance(leaf, skip)) * count
        for leaf, count in runs)


def _unroll(runs, skip=()) -> list[EditDescriptor]:
    """The leaves runs unroll to, in order, without the types in skip."""
    leaves: list[EditDescriptor] = []
    for leaf, count in runs:
        if isinstance(leaf, tuple):
            leaves += _unroll(leaf, skip) * count
        elif not isinstance(leaf, skip):
            leaves += [leaf] * count
    return leaves


def expand(descriptors: list[EditDescriptor]) -> Layout:
    """Unroll repeat groups into a flat, column-tiled layout.

    Slash descriptors start a new record; Layout.record_breaks holds the
    index of the first item of each record after the first.  Raises
    DescriptorError when the layout would exceed MAX_UNROLLED descriptors.
    """
    if _size(descriptors) > MAX_UNROLLED:
        raise DescriptorError(None, f"the format unrolls to more than {MAX_UNROLLED} descriptors")
    items: list[LayoutItem] = []
    breaks: list[int] = []
    column = 1
    for d in _unroll(_runs(descriptors)):
        if isinstance(d, RecordBreak):
            breaks.append(len(items))
            column = 1
            continue
        frac = None
        if isinstance(d, PositionX):
            kind, width = LayoutKind.BLANK, d.count
        elif isinstance(d, DataEdit):
            # A bare A is one column wide.
            kind, width, frac = _LETTERS[d.letter][0], d.width or 1, d.frac
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
    LayoutKind.GENERAL_REAL: "real number in general form with a width of {w} and {f} significant digits",
    LayoutKind.LOGICAL: "logical value with a width of {w}",
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
    if isinstance(d, DataEdit):
        text = d.letter.lower() + ("" if d.width is None else str(d.width))
        return text if d.frac is None else f"{text}.{d.frac}"
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

def data_format_of(
    item_type: DataType,
    descriptor: DataEdit | None,
    diagnostics: list[Diagnostic] | None = None,
) -> str:
    """Canonical format attribute for one item; '*' for list-directed."""
    if descriptor is None:
        return "*"
    if not isinstance(descriptor, DataEdit):
        raise ValueError("data_format_of expects a data edit descriptor")
    text = _canonical_one(descriptor)
    if item_type.name not in _LETTERS[descriptor.letter][1] and diagnostics is not None:
        diagnostics.append(Diagnostic(
            diag.TYPE_DESCRIPTOR_MISMATCH,
            f"descriptor {text} cannot carry a value of type {item_type.name}",
        ))
    return text


def pair_items(
    descriptors: list[EditDescriptor],
    item_count: int,
) -> tuple[list[tuple[EditDescriptor | None, tuple[EditDescriptor, ...]]], bool]:
    """Positionally pair I/O items with data-carrying leaf descriptors.

    Position and literal leaves become separator entries attached to the
    following data leaf.  When items outnumber data leaves the descriptor
    list reverts to its last open group, per the standard reversion rule;
    the second return value reports whether reversion was needed.  Raises
    DescriptorError when the separators would exceed MAX_UNROLLED.
    """
    pairs: list[tuple[EditDescriptor | None, tuple[EditDescriptor, ...]]] = []
    segment, reverted = descriptors, False
    unrolled = 0  # separators handed out so far
    # One pass over the segment per loop; separators do not carry over.
    while len(pairs) < item_count:
        paired = len(pairs)
        pending: list = []  # separator runs no data leaf has taken yet
        for leaf, count in _runs(segment):
            if not isinstance(leaf, DataEdit):
                pending.append((leaf, count))
                continue
            unrolled += _count(pending, RecordBreak)
            if unrolled > MAX_UNROLLED:
                raise DescriptorError(
                    None, f"{unrolled} separators in one transfer exceed the limit of {MAX_UNROLLED}")
            take = min(count, item_count - len(pairs))
            pairs.append((leaf, tuple(_unroll(pending, RecordBreak))))
            pairs += [(leaf, ())] * (take - 1)
            pending = []
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
