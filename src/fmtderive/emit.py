"""Documentation emission: group I/O events by target file and serialize one
data-format XML document per file, plus the fmtderive command line tool."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from itertools import groupby, takewhile
from pathlib import Path

from . import diagnostics as diag
from .diagnostics import AnalysisError, Diagnostic
from .fmtengine import (
    DescriptorError, canonical_text, data_format_of, describe, expand,
    layout_table, parse_descriptors,
)
from .ioflow import IoEvent, analyze, dump_events
from .lexer import FIXED_FORM, FREE_FORM, describe_token, tokenize
from .symbols import build_tables, doc_name, dump_symbols
from .syntax import ListDirected, attach_formats, dump_ast, expr_text, parse


@dataclass(slots=True)
class DataFormatDoc:
    file_name: str
    direction: str  # input, output or both
    groups: tuple[IoEvent, ...] = ()  # the file's transfers of at least one item
    diagnostics: tuple[Diagnostic, ...] = ()


def build_docs(events: list[IoEvent]) -> list[DataFormatDoc]:
    """Fold events into one document per target file, groups in source order."""
    per_file: dict[str, list[IoEvent]] = {}
    for event in events:
        per_file.setdefault(event.binding.file_name, []).append(event)

    docs = []
    for name, file_events in per_file.items():
        directions = {e.direction for e in file_events}
        if directions == {"READ"}:
            direction = "input"
        elif directions == {"WRITE"}:
            direction = "output"
        else:
            direction = "both"

        notes: list[Diagnostic] = []
        for event in file_events:
            notes.extend(event.binding.diagnostics)
            notes.extend(event.diagnostics)
            if event.items and event.multiplicity.resolved == 0:
                notes.append(Diagnostic(
                    diag.ZERO_MULTIPLICITY,
                    f"the group from line {event.source_line} never executes",
                    event.source_line,
                ))
        groups = tuple(event for event in file_events if event.items)
        docs.append(DataFormatDoc(name, direction, groups, tuple(dict.fromkeys(notes))))
    return docs


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def serialize(doc: DataFormatDoc) -> str:
    """Render a document as well-formed XML with two-space indentation."""
    open_tag = f'<dataformat file="{_esc(doc.file_name)}" direction="{doc.direction}">'
    children: list[str] = []
    for event in doc.groups:
        mult = event.multiplicity
        if mult.defaulted:
            attrs = (f'number="{_esc(expr_text(mult.count))}"'
                     f' resolved="{mult.resolved}" resolution="default"')
        else:
            attrs = f'number="{mult.resolved}"'
        mode = "list-directed" if isinstance(event.format, ListDirected) else "explicit"
        attrs += f' separator="{mode}"'
        if mult.conditional:
            attrs += ' conditional="true"'
        children.append(f"  <group {attrs}>")
        for item in event.items:
            for sep, run in groupby(item.separators):
                line = f'    <sep format="{_esc(canonical_text([sep]))}"/>'
                children += [line] * len(list(run))
            text = _esc(data_format_of(item.data_type, item.descriptor))
            children.append(f'    <{doc_name(item.data_type)} format="{text}"/>')
        children.append("  </group>")
    for note in doc.diagnostics:
        attrs = f' kind="{_esc(note.kind)}"'
        if note.line is not None:
            attrs += f' line="{note.line}"'
        children.append(f"  <note{attrs}>{_esc(note.message)}</note>")
    if not children:
        return f"{open_tag}</dataformat>\n"
    return "\n".join([open_tag, *children, "</dataformat>"]) + "\n"


# ---------------------------------------------------------------------------
# Command line tool
# ---------------------------------------------------------------------------


def _doc_file_name(target: str) -> str:
    name = target.strip("<>").replace("/", "_").replace("\\", "_")
    return f"{name}.format.xml"


def process_source(path: str, text: str, out_dir: Path, args: argparse.Namespace) -> int:
    """Run the full pipeline on one source file and write its documents.

    args is the namespace of the parse subcommand: dialect,
    default_loop_count and the dump flags.  A document that cannot be written
    is reported on stderr and the others are still written; returns how many
    could not be.
    """
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"

    def say(text: str) -> None:
        # Characters stdout cannot encode are written as backslash escapes.
        print(text.encode(encoding, "backslashreplace").decode(encoding))

    tokens = tokenize(text, args.dialect)
    if args.dump_tokens:
        for tok in tokens:
            say(f"{tok.line}:{tok.column} {describe_token(tok)} {tok.lexeme}")
    program = parse(tokens)
    del tokens  # the flat list is most of the front end's memory; parse is its last reader
    if args.dump_ast:
        say(dump_ast(program))
    formats = attach_formats(program)
    tables = build_tables(program)
    if args.dump_symbols:
        say(dump_symbols(tables))
    events = analyze(program, tables, formats, args.default_loop_count)
    if args.dump_events:
        say(dump_events(events))

    failed = 0
    for doc in build_docs(events):
        target = out_dir / _doc_file_name(doc.file_name)
        try:
            # Non-ASCII text from a Latin-1 source becomes character references.
            target.write_text(serialize(doc), encoding="ascii", errors="xmlcharrefreplace")
        except OSError as err:
            _error(f"cannot write {target}: {err.strerror or err}", path)
            failed += 1
            continue
        say(f"{doc.file_name}: {doc.direction}, {len(doc.groups)} group(s) -> {target}")
    return failed


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmtderive",
        description="Derive data-format documentation for the files a"
                    " FORTRAN program reads and writes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def count(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must not be negative: {value}")
        return value

    p_parse = sub.add_parser("parse", help="analyze source files and emit format docs")
    p_parse.add_argument("sources", nargs="+", help="FORTRAN source files")
    p_parse.add_argument("-o", "--output-dir", default=".", help="directory for emitted docs")
    p_parse.add_argument("--dialect", choices=[FIXED_FORM, FREE_FORM], default=FIXED_FORM)
    p_parse.add_argument("--default-loop-count", type=count, default=1, metavar="N",
                         help="trip count assumed for loops with variable bounds")
    p_parse.add_argument("--dump-tokens", action="store_true")
    p_parse.add_argument("--dump-ast", action="store_true")
    p_parse.add_argument("--dump-symbols", action="store_true")
    p_parse.add_argument("--dump-events", action="store_true")

    p_desc = sub.add_parser("descriptor", help="expand one format descriptor text")
    p_desc.add_argument("text", help="descriptor list, without the outer parentheses")
    return parser


def _error(message: str, *location) -> None:
    """Print one error on stderr as `file:line:col: error: message`, with the
    location cut at its first unknown (None) part."""
    where = ":".join(str(part) for part in takewhile(lambda part: part is not None, location))
    print(f"{where}: error: {message}" if where else f"error: {message}", file=sys.stderr)


def run_cli(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 on success, 1 on analysis or write errors, 2 on usage."""
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.command == "descriptor":
        try:
            layout = expand(parse_descriptors(args.text))
        except DescriptorError as err:
            _error(err.message)
            return 1
        print(layout_table(layout))
        print(describe(layout))
        return 0

    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        _error(f"cannot create output directory: {err}")
        return 1

    status = 0
    for source in args.sources:
        try:
            text = Path(source).read_text(encoding="latin-1")
        except OSError as err:
            _error(str(err), source)
            status = 1
            continue
        try:
            if process_source(source, text, out_dir, args):
                status = 1
        except AnalysisError as err:
            _error(err.message, source, err.line, err.column)
            status = 1
    return status


def main() -> None:
    try:
        status = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone (`| head`): stop quietly.  Pointing
        # stdout at devnull keeps the exit flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
