"""Seeded FORTRAN corpora for the fmtderive benchmark, each with the
documents fmtderive should derive from it.

The expected documents come from what the generator wrote: the file bound to
each unit, the declared or implicit type of each item, the edit descriptors
put in each FORMAT and the DO bounds around each transfer.  Nothing here
imports or runs fmtderive.  Only constructs the README lists as supported are
generated.

    python3 bench/corpus.py --self-check [--seed N]
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("monolith", "many-files", "format-heavy")

# Relative size drift allowed between two seeds by the self-check.
SIZE_TOLERANCE = 0.03


@dataclass(frozen=True)
class ExpectedGroup:
    number: str
    resolved: int | None  # the count assumed when `number` is symbolic
    separator: str  # "explicit" or "list-directed"
    conditional: bool
    fields: tuple[tuple[str, str], ...]  # (element, format) in document order


@dataclass
class ExpectedDoc:
    source: str
    file: str
    directions: set[str] = field(default_factory=set)
    groups: list[ExpectedGroup] = field(default_factory=list)

    @property
    def direction(self) -> str:
        if self.directions == {"READ"}:
            return "input"
        if self.directions == {"WRITE"}:
            return "output"
        return "both"


@dataclass
class Corpus:
    dialect: str  # "fixed" or "free", as the CLI's --dialect takes it
    files: dict[str, str] = field(default_factory=dict)  # relative name -> text
    docs: list[ExpectedDoc] = field(default_factory=list)
    statements: int = 0

    @property
    def lines(self) -> int:
        return sum(text.count("\n") for text in self.files.values())

    def write(self, directory: Path) -> list[Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, text in self.files.items():
            path = directory / name
            path.write_text(text, encoding="ascii")
            paths.append(path)
        return paths


# ---------------------------------------------------------------------------
# Edit descriptors, kept as the trees the generator builds
# ---------------------------------------------------------------------------
#
#   ("sep", canonical, text)        nX or a literal: one <sep> in the document
#   ("data", canonical, text, kind) I, F, E/D or A; kind is "I", "R" or "A"
#   ("slash",)                      record break: no element of its own
#   ("rep", count, data_leaf)       count copies of one data leaf
#   ("group", count, children)      a parenthesised group


def render(nodes) -> str:
    return ",".join(_render_one(n) for n in nodes)


def _render_one(node) -> str:
    tag = node[0]
    if tag in ("sep", "data"):
        return node[2]
    if tag == "slash":
        return "/"
    if tag == "rep":
        return f"{node[1]}{node[2][2]}"
    inner = render(node[2])
    return f"({inner})" if node[1] == 1 else f"{node[1]}({inner})"


def _leaves(nodes):
    for node in nodes:
        tag = node[0]
        if tag == "group":
            for _ in range(node[1]):
                yield from _leaves(node[2])
        elif tag == "rep":
            for _ in range(node[1]):
                yield node[2]
        elif tag != "slash":
            yield node


def pair(nodes, count: int) -> tuple[list[tuple[tuple, tuple[str, ...]]], bool]:
    """Pair `count` items with data leaves, FORTRAN 77 section 13.3 style.

    Separators collect ahead of the next data leaf.  When the items outlast
    the format, control reverts to the last top-level group (or the start)
    and the separators left over at the end of the pass belong to no item.
    Returns the (data leaf, separators) pairs and whether reversion happened.
    """
    pairs: list[tuple[tuple, tuple[str, ...]]] = []

    def run(seq) -> bool:
        pending: list[str] = []
        for leaf in _leaves(seq):
            if leaf[0] == "sep":
                pending.append(leaf[1])
                continue
            pairs.append((leaf, tuple(pending)))
            pending = []
            if len(pairs) == count:
                return True
        return False

    if count == 0 or run(nodes):
        return pairs, False
    start = max((i for i, n in enumerate(nodes) if n[0] == "group"), default=0)
    while not run(nodes[start:]):
        pass
    return pairs, True


def _sep_x(rng: random.Random, upper: bool, count: int | None = None):
    n = count if count is not None else rng.choice((1, 1, 1, 2, 2, 3, 4))
    letter = "X" if upper else "x"
    text = letter if n == 1 and rng.random() < 0.2 else f"{n}{letter}"
    return ("sep", f"{n}x", text)


_LITERAL_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 =:-|"


def _sep_literal(rng: random.Random, hollerith_ok: bool, quote: str = "'"):
    size = rng.randint(1, 8)
    text = "".join(rng.choice(_LITERAL_CHARS) for _ in range(size))
    canonical = "'" + text.replace("'", "''") + "'"
    if hollerith_ok and rng.random() < 0.25:
        word = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(size))
        return ("sep", "'" + word + "'", f"{size}H{word}")
    if rng.random() < 0.15:
        # A doubled apostrophe: one quote inside a '...' literal, and inside a
        # "..." literal that itself sits in a '...' string (free-form inline
        # formats), the doubling that string needs.
        text = text[: size // 2] + "''" + text[size // 2:]
        canonical = "'" + text + "'"
    return ("sep", canonical, quote + text + quote)


def _data_leaf(rng: random.Random, kind: str, upper: bool):
    """A data leaf able to carry an item of the given element type."""
    case = str.upper if upper else str.lower
    if kind == "integer":
        w = rng.randint(2, 10)
        if rng.random() < 0.15:
            return ("data", f"i{w}", case(f"I{w}.{rng.randint(1, w)}"), "I")
        return ("data", f"i{w}", case(f"I{w}"), "I")
    if kind == "character":
        if rng.random() < 0.2:
            return ("data", "a", case("A"), "A")
        w = rng.randint(1, 24)
        return ("data", f"a{w}", case(f"A{w}"), "A")
    w = rng.randint(6, 18)
    d = rng.randint(0, min(8, w - 2))
    roll = rng.random()
    if roll < 0.55:
        return ("data", f"f{w}.{d}", case(f"F{w}.{d}"), "R")
    if roll < 0.75:
        return ("data", f"e{w}.{d}", case(f"E{w}.{d}"), "R")
    if roll < 0.9:
        return ("data", f"e{w}.{d}", case(f"D{w}.{d}"), "R")
    return ("data", f"e{w}.{d}", case(f"E{w}.{d}E2"), "R")


def _item_format(rng: random.Random, kinds: list[str], upper: bool, hollerith_ok: bool,
                 quote: str = "'"):
    """A format whose data leaves match the given item types one to one."""
    nodes: list = []
    i = 0
    while i < len(kinds):
        seps = []
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            if rng.random() < 0.75:
                seps.append(_sep_x(rng, upper))
            else:
                seps.append(_sep_literal(rng, hollerith_ok, quote))
        leaf = _data_leaf(rng, kinds[i], upper)
        run = 1
        while i + run < len(kinds) and kinds[i + run] == kinds[i] and run < 3:
            run += 1
        if run > 1 and rng.random() < 0.5:
            body = [*seps, leaf]
            if seps:
                nodes.append(("group", run, body))
            else:
                nodes.append(("rep", run, leaf))
            i += run
            continue
        nodes.extend(seps)
        nodes.append(leaf)
        i += 1
    if rng.random() < 0.2:
        nodes.append(_sep_x(rng, upper))
    return nodes


# ---------------------------------------------------------------------------
# Source writers
# ---------------------------------------------------------------------------


class FixedWriter:
    """Fixed-form lines: label in columns 1-5, '&' continuations in column 6,
    code in columns 7-72, statements broken after commas outside literals."""

    def __init__(self):
        self.lines: list[str] = []
        self.statements = 0

    def comment(self, text: str) -> None:
        self.lines.append(f"C     {text}")

    def stmt(self, text: str, label: int | None = None) -> None:
        self.statements += 1
        cuts = []
        quote = None
        for i, ch in enumerate(text):
            if quote is not None:
                if ch == quote:
                    quote = None
            elif ch in "'\"":
                quote = ch
            elif ch == ",":
                cuts.append(i + 1)
        start = 0
        first = True
        while True:
            if len(text) - start <= 66:
                end = len(text)
            else:
                fits = [c for c in cuts if start < c <= start + 66]
                between_items = [c for c in fits if text[c] == " "]
                end = max(between_items or fits)
            if first:
                prefix = f"{label:<5d} " if label is not None else "      "
            else:
                prefix = "     &"
            self.lines.append(prefix + text[start:end])
            if end == len(text):
                return
            start = end
            first = False

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class FreeWriter:
    def __init__(self):
        self.lines: list[str] = []
        self.statements = 0
        self.depth = 0

    def comment(self, text: str) -> None:
        self.lines.append("  " * self.depth + f"! {text}")

    def stmt(self, text: str) -> None:
        self.statements += 1
        self.lines.append("  " * self.depth + text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# Expected documents
# ---------------------------------------------------------------------------


class Expectations:
    """Collects the groups one source should produce, per data file."""

    def __init__(self, source: str):
        self.source = source
        self.docs: dict[str, ExpectedDoc] = {}

    def transfer(self, direction: str, file: str, nodes, item_types: list[str],
                 loops: list[tuple[str, int | None]], conditional: bool) -> None:
        """Record one READ/WRITE; `nodes` is None for list-directed.

        `loops` holds (symbolic trip count, trip count or None) for every DO
        around the statement.
        """
        fields: list[tuple[str, str]] = []
        if nodes is None:
            fields = [(t, "*") for t in item_types]
        else:
            pairs, _ = pair(nodes, len(item_types))
            for item_type, (leaf, seps) in zip(item_types, pairs):
                fields.extend(("sep", s) for s in seps)
                fields.append((item_type, leaf[1]))
        total = 1
        for _, trips in loops:
            total *= trips if trips is not None else 1
        if any(trips is None for _, trips in loops):
            number, resolved = "*".join(sym for sym, _ in loops), total
        else:
            number, resolved = str(total), None
        doc = self.docs.setdefault(file, ExpectedDoc(self.source, file))
        doc.directions.add(direction)
        doc.groups.append(ExpectedGroup(
            number, resolved, "list-directed" if nodes is None else "explicit",
            conditional, tuple(fields)))


def trip_count(start: int, stop: int, step: int = 1) -> int:
    """Iteration count of a DO loop, FORTRAN 77 section 11.10.3."""
    return max(0, int((stop - start + step) / step))


_DECL_TYPES = (
    ("DOUBLE PRECISION", "double"),
    ("REAL", "real"),
    ("REAL*8", "double"),
    ("INTEGER", "integer"),
    ("CHARACTER*8", "character"),
    ("CHARACTER*16", "character"),
)


def _implicit(name: str) -> str:
    return "integer" if name[0].upper() in "IJKLMN" else "real"


# ---------------------------------------------------------------------------
# monolith: one long fixed-form program with thousands of symbols
# ---------------------------------------------------------------------------


def _monolith(rng: random.Random, scale: float) -> Corpus:
    source = "monolith.f"
    corpus = Corpus("fixed")
    exp = Expectations(source)
    spec, body = FixedWriter(), FixedWriter()
    spec.comment("generated model: one block per PARAMETER/array family")
    spec.stmt("PROGRAM MONO")
    spec.stmt("INTEGER NREC")
    spec.stmt("DOUBLE PRECISION SC, XS")
    spec.stmt("PARAMETER (SC=0.5D0)")
    formats_seen: set[str] = set()

    for k in range(1, round(1200 * scale) + 1):
        s = f"{k:04d}"
        n_name, n_val = f"N{s}", rng.randint(2, 400)
        params = [f"{n_name}={n_val}"]
        nested = rng.random() < 0.25
        loops: list[tuple[str, int | None]]
        if nested:
            m_val = rng.randint(2, 6)
            params.append(f"M{s}={m_val}")
        bound, bound_val = n_name, n_val
        if not nested and rng.random() < 0.15:
            mul, add = rng.randint(2, 4), rng.randint(1, 9)
            params.append(f"L{s}={n_name}*{mul}+{add}")
            bound, bound_val = f"L{s}", n_val * mul + add
        spec.stmt(f"PARAMETER ({', '.join(params)})")

        dims = f"({n_name},M{s})" if nested else f"({n_name})"
        sub = "(I,J)" if nested else "(I)"
        arrays = []
        for letter in "ABC"[: rng.randint(1, 3)]:
            decl, kind = rng.choice(_DECL_TYPES)
            arrays.append((f"{letter}{s}", decl, kind))
        if len({a[1] for a in arrays}) == 1 and len(arrays) > 1:
            spec.stmt(f"{arrays[0][1]} " + ", ".join(f"{a[0]}{dims}" for a in arrays))
        else:
            for name, decl, _ in arrays:
                spec.stmt(f"{decl} {name}{dims}")

        has_in = rng.random() < 0.7
        defaulted = has_in and not nested and rng.random() < 0.08
        u_in, u_out = rng.randrange(10, 50), rng.randrange(50, 100)
        f_in, f_out = f"MI{s}.DAT", f"MO{s}.DAT"
        if rng.random() < 0.3:
            body.comment(f"block {k}")
        if has_in:
            body.stmt(f"OPEN({u_in}, FILE='{f_in}', STATUS='OLD')")
        if rng.random() < 0.5:
            body.stmt(f"OPEN(UNIT={u_out}, FILE='{f_out}', STATUS='NEW')")
        else:
            body.stmt(f"OPEN({u_out}, FILE='{f_out}')")
        if defaulted:
            body.stmt(f"READ({u_in},*) NREC")
            exp.transfer("READ", f_in, None, ["integer"], [], False)
            loops = [("NREC", None)]
            body.stmt(f"DO {10000 + k} I=1,NREC")
        else:
            loops = [(bound, bound_val)]
            body.stmt(f"DO {10000 + k} I=1,{bound}")
            if nested:
                loops.append((f"M{s}", m_val))
                body.stmt(f"DO {10000 + k} J=1,M{s}")

        if has_in:
            items = [("KK", _implicit("KK"))] + [(f"{a[0]}{sub}", a[2]) for a in arrays
                                                  if rng.random() < 0.7]
            body.stmt(f"READ({u_in},*) " + ", ".join(i[0] for i in items))
            exp.transfer("READ", f_in, None, [i[1] for i in items], loops, False)
        numeric = [a for a in arrays if a[2] != "character"]
        if numeric:
            body.stmt(f"XS = XS*SC + {numeric[0][0]}{sub}")
        else:
            body.stmt("XS = XS*SC + 1.0D0")

        items = [("I", _implicit("I"))]
        if nested:
            items.append(("J", _implicit("J")))
        if has_in and rng.random() < 0.5:
            items.append(("KK", _implicit("KK")))
        if rng.random() < 0.1:
            items.insert(0, ("'K='", "character"))
        items += [(f"{a[0]}{sub}", a[2]) for a in arrays]
        kinds = [i[1] if i[1] in ("integer", "character") else "real" for i in items]
        while True:
            nodes = _item_format(rng, kinds, upper=True, hollerith_ok=True)
            text = render(nodes)
            if text not in formats_seen:
                formats_seen.add(text)
                break
        conditional = rng.random() < 0.15
        write = f"WRITE({u_out},{50000 + k}) " + ", ".join(i[0] for i in items)
        if conditional:
            write = f"IF (I .GT. {rng.randint(1, 5)}) {write}"
        body.stmt(write)
        exp.transfer("WRITE", f_out, nodes, [i[1] for i in items], loops, conditional)
        body.stmt("CONTINUE", label=10000 + k)
        body.stmt(f"FORMAT({text})", label=50000 + k)
        if has_in:
            body.stmt(f"CLOSE({u_in})")
        body.stmt(f"CLOSE({u_out})")

    body.stmt("END")
    corpus.files[source] = spec.text() + body.text()
    corpus.statements = spec.statements + body.statements
    corpus.docs = list(exp.docs.values())
    return corpus


# ---------------------------------------------------------------------------
# many-files: a thousand small free-form programs
# ---------------------------------------------------------------------------

_FREE_TYPES = (
    ("real", "real"),
    ("double precision", "double"),
    ("integer", "integer"),
    ("character*8", "character"),
    ("real*8", "double"),
)


def _many_files(rng: random.Random, scale: float) -> Corpus:
    corpus = Corpus("free")
    for p in range(1, round(1000 * scale) + 1):
        name = f"p{p:04d}"
        source = f"{name}.f90"
        exp = Expectations(source)
        w = FreeWriter()
        f_in, f_out = f"mf{p:04d}.in", f"mf{p:04d}.out"
        n_val, m_val = rng.randint(3, 300), rng.randint(2, 8)
        w.comment(f"generated program {p}")
        w.stmt(f"program {name}")
        w.depth = 1
        w.stmt("implicit none")
        w.stmt(f"character*{len(f_in)} fin")
        w.stmt(f"parameter (fin='{f_in}')")
        w.stmt("integer n, m")
        w.stmt(f"parameter (n={n_val}, m={m_val})")
        w.stmt("integer i, j, k")
        arrays = []
        for letter in "xyz"[: rng.randint(2, 3)]:
            decl, kind = rng.choice(_FREE_TYPES)
            two_d = rng.random() < 0.4
            arrays.append((letter, kind, "(i,j)" if two_d else "(i)"))
            w.stmt(f"{decl} {letter}{'(n,m)' if two_d else '(n)'}")

        w.stmt("open(10, file=fin, status='old')")
        one_d = [a for a in arrays if a[2] == "(i)"]
        w.stmt("do i = 1, n")
        w.depth = 2
        items = [("k", "integer")] + [(a[0] + a[2], a[1]) for a in one_d]
        w.stmt("read(10,*) " + ", ".join(i[0] for i in items))
        exp.transfer("READ", f_in, None, [i[1] for i in items], [("N", n_val)], False)
        w.stmt(f"k = mod(k + i, {rng.randint(3, 9)})")
        w.depth = 1
        w.stmt("end do" if rng.random() < 0.7 else "enddo")
        w.stmt("close(10)")

        w.stmt(f"open(11, file='{f_out}', status='new')")
        if rng.random() < 0.4:
            w.stmt("write(11,'(a)') 'generated'")
            exp.transfer("WRITE", f_out, [("data", "a", "a", "A")], ["character"], [], False)
        w.stmt("do i = 1, n")
        w.depth = 2
        w.stmt("do j = 1, m")
        w.depth = 3
        numeric = [a for a in arrays if a[1] != "character"]
        if numeric:
            target = numeric[0][0] + numeric[0][2]
            w.stmt(f"{target} = {target} * 0.5 + {rng.randint(1, 9)}.0")
        else:
            w.stmt("k = k + j")
        conditional = rng.random() < 0.6
        if conditional:
            w.stmt(f"if (k .gt. {rng.randint(0, 9)}) then")
            w.depth = 4
        items = [("i", "integer"), ("j", "integer")] + [(a[0] + a[2], a[1]) for a in arrays]
        kinds = [i[1] if i[1] in ("integer", "character") else "real" for i in items]
        if rng.random() < 0.2:
            w.stmt("write(11,*) " + ", ".join(i[0] for i in items))
            nodes = None
        else:
            nodes = _item_format(rng, kinds, upper=False, hollerith_ok=False, quote='"')
            w.stmt(f"write(11,'({render(nodes)})') " + ", ".join(i[0] for i in items))
        exp.transfer("WRITE", f_out, nodes, [i[1] for i in items],
                     [("N", n_val), ("M", m_val)], conditional)
        if conditional:
            w.depth = 3
            w.stmt("end if")
        w.depth = 2
        w.stmt("end do")
        w.depth = 1
        w.stmt("end do")
        w.stmt("close(11)")
        nodes = [("data", "a", "a", "A"), _sep_x(rng, False), ("data", "i6", "i6", "I")]
        w.stmt(f"write(*,'({render(nodes)})') 'rows', n")
        exp.transfer("WRITE", "<stdout>", nodes, ["character", "integer"], [], False)
        w.depth = 0
        w.stmt(f"end program {name}")
        corpus.files[source] = w.text()
        corpus.statements += w.statements
        corpus.docs.extend(exp.docs.values())
    return corpus


# ---------------------------------------------------------------------------
# format-heavy: a few programs dominated by long formatted transfers
# ---------------------------------------------------------------------------

_HEAVY_ARRAYS = {
    "I": (("IA(I,{c})", "integer"), ("IB(I)", "integer")),
    "R": (("RA(I,{c})", "real"), ("DA(I,{c})", "double"), ("RB(I)", "real")),
    "A": (("CA(I)", "character"),),
}


def _heavy_format(rng: random.Random, for_read: bool):
    """Nested groups, slashes, literals and large repeat counts.

    Separator-only runs of 10**2 to 10**3 blanks sit ahead of data leaves and
    data leaves carry repeat counts up to 10**4, so pairing walks long leaf
    sequences and the documents carry long <sep> runs.
    """
    def sep():
        if for_read or rng.random() < 0.7:
            return _sep_x(rng, True)
        return _sep_literal(rng, hollerith_ok=True)

    def data():
        leaf = _data_leaf(rng, rng.choice(("integer", "real", "real", "character")), True)
        if rng.random() < 0.15:
            return ("rep", rng.choice((100, 1000, 10000)), leaf)
        return leaf

    def blank_run():
        count = rng.choice((100, 200, 500)) if rng.random() < 0.9 else 1000
        return ("group", count, [_sep_x(rng, True, 1)])

    def group(depth: int):
        children = []
        for _ in range(rng.randint(2, 4)):
            roll = rng.random()
            if roll < 0.35:
                children.append(sep())
            elif roll < 0.45 and depth < 2:
                children.append(group(depth + 1))
            elif roll < 0.5:
                children.append(("slash",))
            else:
                children.append(data())
        if rng.random() < 0.6:
            children.insert(0, blank_run())
        children.append(data())
        return ("group", rng.randint(1, 4), children)

    nodes = [sep(), data()]
    if rng.random() < 0.5:
        nodes.append(("slash",))
    if rng.random() < 0.5:
        nodes += [blank_run(), data()]
    for _ in range(rng.randint(1, 3)):
        nodes.append(group(0))
    if rng.random() < 0.4:
        nodes += [sep(), data()]
    return nodes


SEPARATORS_PER_TRANSFER = 700


def _format_heavy(rng: random.Random, scale: float) -> Corpus:
    corpus = Corpus("fixed")
    surplus = 0  # separators written beyond SEPARATORS_PER_TRANSFER per transfer
    for s in range(1, 5):
        source = f"heavy{s}.f"
        exp = Expectations(source)
        w = FixedWriter()
        nr, nc = rng.randint(5, 40), 16
        w.stmt(f"PROGRAM HEAVY{s}")
        w.stmt(f"PARAMETER (NR={nr}, NC={nc})")
        w.stmt("INTEGER IA(NR,NC), IB(NR)")
        w.stmt("REAL RA(NR,NC), RB(NR)")
        w.stmt("DOUBLE PRECISION DA(NR,NC)")
        w.stmt("CHARACTER*12 CA(NR)")
        inputs = {11: f"HV{s}IN1.DAT", 12: f"HV{s}IN2.DAT"}
        outputs = {21: f"HV{s}OUT1.DAT", 22: f"HV{s}OUT2.DAT", 23: f"HV{s}OUT3.DAT"}
        for unit, name in inputs.items():
            w.stmt(f"OPEN({unit}, FILE='{name}', STATUS='OLD')")
        for unit, name in outputs.items():
            w.stmt(f"OPEN({unit}, FILE='{name}', STATUS='NEW')")
        formats = {900 + i: _heavy_format(rng, for_read=False) for i in range(8)}
        formats.update({950 + i: _heavy_format(rng, for_read=True) for i in range(4)})
        write_labels = [lb for lb in formats if lb < 950]
        read_labels = [lb for lb in formats if lb >= 950]

        def separators(label: int, n_items: int) -> int:
            key = (label, n_items)
            if key not in sep_counts:
                sep_counts[key] = sum(len(seps) for _, seps in pair(formats[label], n_items)[0])
            return sep_counts[key]

        sep_counts: dict[tuple[int, int], int] = {}
        loop_label = 1000
        # Fixed shares of item counts, loops and IF blocks, shuffled, keep the
        # corpus size steady from seed to seed.
        transfers = round(150 * scale)
        item_counts = [5 + i % 21 for i in range(transfers)]
        rng.shuffle(item_counts)
        blocks = -(-transfers // 3)
        in_loops = [i < 0.7 * blocks for i in range(blocks)]
        conditionals = [i < 0.2 * blocks for i in range(blocks)]
        rng.shuffle(in_loops)
        rng.shuffle(conditionals)
        for in_loop, conditional in zip(in_loops, conditionals):
            loops: list[tuple[str, int | None]] = []
            if conditional:
                w.stmt("IF (NR .GT. 2) THEN")
            if in_loop:
                loop_label += 10
                loops = [("NR", nr)]
                start = rng.choice((1, 1, 2))
                if start == 2:
                    loops = [("NR-1", trip_count(2, nr))]
                    w.stmt(f"DO {loop_label} I=2,NR")
                else:
                    w.stmt(f"DO {loop_label} I=1,NR")
            for _ in range(min(len(item_counts), 3)):
                is_read = rng.random() < 0.3
                n_items = item_counts.pop()
                # Of three labels, take the one that keeps the separators
                # written so far closest to the target, so the amount of
                # work hardly changes from seed to seed.
                candidates = rng.sample(read_labels if is_read else write_labels, 3)
                label = min(candidates, key=lambda lb: abs(
                    surplus + separators(lb, n_items) - SEPARATORS_PER_TRANSFER))
                surplus += separators(label, n_items) - SEPARATORS_PER_TRANSFER
                unit = rng.choice(list(inputs if is_read else outputs))
                file = (inputs if is_read else outputs)[unit]
                pairs, _ = pair(formats[label], n_items)
                items = []
                for leaf, _seps in pairs:
                    pattern, kind = rng.choice(_HEAVY_ARRAYS[leaf[3]])
                    text = pattern.format(c=rng.randint(1, nc))
                    if not in_loop:
                        text = text.replace("(I", f"({rng.randint(1, nr)}")
                    items.append((text, kind))
                verb = "READ" if is_read else "WRITE"
                w.stmt(f"{verb}({unit},{label}) " + ", ".join(i[0] for i in items))
                exp.transfer(verb, file, formats[label], [i[1] for i in items],
                             loops, conditional)
            if in_loop:
                w.stmt("CONTINUE", label=loop_label)
            if conditional:
                w.stmt("ENDIF")
        for unit in (*inputs, *outputs):
            w.stmt(f"CLOSE({unit})")
        for label, nodes in formats.items():
            w.stmt(f"FORMAT({render(nodes)})", label=label)
        w.stmt("END")
        corpus.files[source] = w.text()
        corpus.statements += w.statements
        corpus.docs.extend(exp.docs.values())
    return corpus


_GENERATORS = {
    "monolith": _monolith,
    "many-files": _many_files,
    "format-heavy": _format_heavy,
}


def generate(workload: str, seed: int, scale: float = 1.0) -> Corpus:
    """The corpus of a workload; the same arguments give the same corpus."""
    rng = random.Random(f"{workload}/{seed}/{scale}")
    return _GENERATORS[workload](rng, scale)


def self_check(seed: int) -> list[str]:
    """Problems found: same seed not byte-identical, or sizes drifting by seed."""
    problems = []
    for workload in WORKLOADS:
        a, b = generate(workload, seed), generate(workload, seed)
        if a.files != b.files or a.docs != b.docs:
            problems.append(f"{workload}: seed {seed} gave different corpora")
        c = generate(workload, seed + 1)
        for what in ("lines", "statements"):
            x, y = getattr(a, what), getattr(c, what)
            drift = abs(x - y) / x
            status = "ok" if drift <= SIZE_TOLERANCE else "DRIFT"
            print(f"{workload:13s} {what:10s} seed {seed}: {x:7d}  seed {seed + 1}:"
                  f" {y:7d}  drift {drift:.2%} {status}")
            if drift > SIZE_TOLERANCE:
                problems.append(f"{workload}: {what} drift {drift:.2%} between seeds")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check the corpus generator.")
    parser.add_argument("--self-check", action="store_true", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    problems = self_check(args.seed)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
