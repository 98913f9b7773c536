"""One benchmark repetition in a fresh interpreter.

    python3 -I bench/child.py cli|trace ROOT SOURCE_LIST OUT_DIR fixed|free

ROOT is the checkout whose src/fmtderive is measured, SOURCE_LIST a file
naming one source per line.  `cli` times one fmtderive.emit.run_cli call
over every source, with the per-source summary lines discarded.  `trace`
makes the same call with emit.process_source and the stages it calls wrapped
in spans, and after each source replays its symbol, unit-binding and format
calls under spans of their own.  Either way one JSON object is printed on
stdout at the end.
"""

import os
import sys
import time


def _import_fmtderive(root: str):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    started = time.perf_counter()
    import fmtderive
    setup_s = time.perf_counter() - started
    if not os.path.abspath(fmtderive.__file__).startswith(src + os.sep):
        sys.exit(f"fmtderive was imported from {fmtderive.__file__}, not from {src}")
    return fmtderive, setup_s


def _peak_rss_mb() -> float:
    """This process's own peak resident set.  Not ru_maxrss: on Linux that
    keeps the peak of the parent whose memory the child shared until exec."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Tracer:
    """Spans kept in memory as [name, parent index, start, end] and written
    out once by the caller; the parent chain runs stage -> source -> rep."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(len(tracer.spans))
        self.record = [self.name, parent, time.perf_counter(), 0.0]
        tracer.spans.append(self.record)

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer._stack.pop()


# The functions emit.process_source calls, by the span each runs under.
STAGES = {
    "tokenize": "lexer.tokenize",
    "parse": "syntax.parse",
    "attach_formats": "syntax.attach_formats",
    "build_tables": "symbols.build_tables",
    "analyze": "ioflow.analyze",
    "build_docs": "emit.build_docs",
    "serialize": "emit.serialize",
}


def _replay(tracer, fd, seen: dict, counts: dict) -> None:
    """Repeat, under spans of their own, the calls analyze makes into symbols,
    ioflow.bind_units and fmtengine, and the fmtengine calls build_docs makes
    per item and separator, for one source; `seen` holds what its stages
    returned.  Adds the source's figures to `counts`."""
    program, formats = seen["parse"], seen["attach_formats"]
    tables, events = seen["build_tables"], seen["analyze"]
    statements = list(fd.syntax.flatten(program.statements))
    transfers = [s for s in statements if hasattr(s, "items") and hasattr(s, "format")]
    loops = [s for s in statements if isinstance(s, fd.syntax.DoStmt)]
    formatted = []
    for stmt in transfers:
        if isinstance(stmt.format, fd.syntax.Label):
            formatted.append((formats[stmt.format.value], len(stmt.items)))
        elif isinstance(stmt.format, fd.syntax.Inline):
            formatted.append((stmt.format.descriptor_text, len(stmt.items)))
    process = program.name or "<main>"
    notes: list = []

    with tracer.span("symbols.lookup"):
        for stmt in transfers:
            for item in stmt.items:
                if not item.literal:
                    fd.lookup_type(tables, item, process, notes)
        for do in loops:
            for bound in (do.start, do.stop, do.step):
                if bound is not None:
                    fd.eval_int(tables, bound)
    with tracer.span("ioflow.bind_units"):
        bindings = fd.bind_units(program, tables)
    with tracer.span("fmtengine.parse_descriptors"):
        parsed = [(fd.parse_descriptors(text, notes), n) for text, n in formatted]
    with tracer.span("fmtengine.pair_items"):
        reverted = sum(fd.fmtengine.pair_items(descriptors, n)[1] for descriptors, n in parsed)
    with tracer.span("fmtengine.canonical_text"):
        for event in events:
            for item in event.items:
                fd.data_format_of(item.data_type, item.descriptor)
                for sep in item.separators:
                    fd.canonical_text([sep])

    counts["tokens"] += len(seen["tokenize"])
    counts["statements"] += len(statements)
    counts["opaque"] += sum(isinstance(s, fd.syntax.OtherStmt) for s in statements)
    counts["bindings"] += len(bindings)
    counts["parse_calls"] += len(formatted)
    counts["distinct_formats"] += len({text for text, _ in formatted})
    counts["reverted"] += reverted
    counts["entries"] += len(tables.processes) + len(tables.variables) + len(tables.constants)
    counts["events"] += len(events)
    counts["defaulted"] += sum(e.multiplicity.defaulted for e in events)
    counts["docs"] += len(seen["build_docs"])


def _install_spans(fd, tracer: Tracer) -> dict:
    """Wrap emit.process_source and the stage functions it calls in spans, so
    that run_cli runs its own code path under the tracer.  The per-source span
    is emit.process_source; its self time is the writing of the documents.
    After each source's pipeline its captured values are replayed.  Returns
    the counts, which fill in as run_cli runs."""
    counts = dict.fromkeys((
        "tokens", "statements", "opaque", "entries", "events", "defaulted",
        "bindings", "parse_calls", "distinct_formats", "reverted", "docs", "bytes",
    ), 0)
    seen: dict = {}  # the last value each stage returned, for the current source

    def timed(attr: str, func):
        name = STAGES[attr]

        def stage(*args, **kwargs):
            with tracer.span(name):
                value = func(*args, **kwargs)
            seen[attr] = value
            if attr == "serialize":
                counts["bytes"] += len(value)
            return value
        return stage

    process_source = fd.emit.process_source

    def source(*args, **kwargs):
        seen.clear()
        with tracer.span("emit.process_source"):
            written = process_source(*args, **kwargs)
            _replay(tracer, fd, seen, counts)
        return written

    for attr in STAGES:
        setattr(fd.emit, attr, timed(attr, getattr(fd.emit, attr)))
    fd.emit.process_source = source
    return counts


def main() -> int:
    mode, root, source_list, out_dir, dialect = sys.argv[1:6]
    fd, setup_s = _import_fmtderive(root)
    import contextlib
    import json

    with open(source_list, encoding="utf-8") as f:
        sources = f.read().split("\n")
    argv = ["parse", *sources, "-o", out_dir, "--dialect", dialect]
    tracer = Tracer()
    if mode == "trace":
        counts = _install_spans(fd, tracer)
        rep = tracer.span("workload.rep")
    else:
        rep = contextlib.nullcontext()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), rep:
        started = time.perf_counter()
        status = fd.run_cli(argv)
        wall_s = time.perf_counter() - started
    result = {"status": status, "wall_s": wall_s}
    if mode == "trace":
        result.update(spans=tracer.spans, counts=counts)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
