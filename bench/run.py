"""The fmtderive benchmark.

    python3 bench/run.py --workload monolith --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root; the program measured is ./src/fmtderive.
The corpus for the workload is generated from --seed and written before
timing starts.  Each repetition is a fresh interpreter (bench/child.py), and
repetitions run one after another for --seconds: one client in a closed
loop, no threads.  A first, untimed repetition compiles the bytecode, and
its documents are checked against the corpus's expected documents
(bench/oracle.py); every later repetition must write byte-identical
documents.

--trace 0 reports the end-to-end metrics.  The speed of a shared host drifts
by a third over minutes, and it drifts alike for fmtderive and for a fixed
pure-Python reference routine (Reference), which this process times just
before it starts each child and just after the child ends.  So each run_cli
time is also scaled to a host on which that routine takes
NOMINAL_REFERENCE_S: norm_wall_s, and norm_lines_per_s from it, are what
BENCHMARK.json compares; wall_s and lines_per_s as measured are printed
beside them.  The routine never touches fmtderive, so a change to the
program moves norm_wall_s as it moves wall_s.

--trace 1 alternates an untraced CLI run with traced runs of the stages at
full and at half corpus size, and reports per-stage times and counts.  The human-readable report comes first;
the last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Work files go to .bench_work/ in the current directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oracle
from corpus import WORKLOADS, Corpus, generate

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_work")
CHILD_TIMEOUT_S = 120
NOMINAL_REFERENCE_S = 0.1  # about the reference routine's time on a 2-vCPU x86 VM

STAGES = (
    "lexer.tokenize", "syntax.parse", "syntax.attach_formats",
    "symbols.build_tables", "ioflow.analyze", "emit.build_docs",
    "emit.serialize", "emit.write",
)
REPLAYS = (
    "symbols.lookup", "ioflow.bind_units",
    "fmtengine.parse_descriptors", "fmtengine.pair_items", "fmtengine.canonical_text",
)
MODULES = ("lexer", "syntax", "symbols", "ioflow", "fmtengine", "emit")

# The end-to-end metric and workload each per-layer metric should move,
# written down before any optimisation; the traced report prints it.
_FRONT_END = "norm_wall_s on many-files and format-heavy"
_ANALYSIS = "norm_wall_s on monolith; no change on many-files or format-heavy"
_FORMATS = "norm_wall_s on format-heavy; no change on monolith"
MOVES = {
    "lexer.tokenize_s": _FRONT_END + "; peak_rss_mb on monolith",
    "lexer.tokens": _FRONT_END,
    "lexer.tokens_per_s": _FRONT_END,
    "syntax.parse_s": _FRONT_END,
    "syntax.attach_formats_s": _FRONT_END,
    "syntax.statements": _FRONT_END,
    "syntax.opaque_share": _FRONT_END,
    "symbols.build_tables_s": _ANALYSIS,
    "symbols.lookup_s": _ANALYSIS,
    "symbols.entries": _ANALYSIS,
    "ioflow.analyze_s": _ANALYSIS,
    "ioflow.bind_units_s": _ANALYSIS,
    "ioflow.events": _ANALYSIS,
    "ioflow.bindings": _ANALYSIS,
    "ioflow.defaulted_share": _ANALYSIS,
    "fmtengine.parse_descriptors_s": _FORMATS,
    "fmtengine.pair_items_s": _FORMATS,
    "fmtengine.canonical_text_s": _FORMATS,
    "fmtengine.parse_calls": _FORMATS,
    "fmtengine.distinct_share": _FORMATS,
    "fmtengine.reverted_share": _FORMATS,
    "emit.build_docs_s": "norm_wall_s on format-heavy",
    "emit.serialize_s": "norm_wall_s on format-heavy",
    "emit.write_s": "norm_wall_s on many-files",
    "emit.docs": "norm_wall_s on many-files",
    "emit.bytes": "norm_wall_s on format-heavy",
    "trace.overhead_s": "nothing: the cost of tracing itself",
    **{f"{m}.growth": "norm_lines_per_s on monolith, where a value near 2 means linear cost"
       for m in MODULES},
}


class _Node:
    __slots__ = ("next", "name", "kind")


class Reference:
    """A fixed pure-Python routine, timed in this process, which never
    imports fmtderive, so that no change to the program can alter it.  Half of
    it is string formatting, dict inserts, a sort and a join; the other half
    walks a ring of objects far larger than a CPU cache, as the cyclic garbage
    collector walks fmtderive's heap."""

    RING = 300_000
    STEPS = 150_000

    def __init__(self):
        nodes = [_Node() for _ in range(self.RING)]
        order = list(range(self.RING))
        random.Random(0).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            node = nodes[here]
            node.next, node.name, node.kind = nodes[there], f"n{here}", here % 5
        self.start = nodes[0]

    def seconds(self) -> float:
        gc.disable()  # so that the time does not depend on this process's heap
        try:
            started = time.perf_counter()
            for rounds in range(24):
                table = {}
                for i in range(2500):
                    key = "X%06d" % (i + rounds)
                    table[key] = (key.lower(), i * 3, [i, key])
                ordered = sorted(table.items(), key=lambda entry: entry[1][1] % 977)
                ",".join(key for key, _ in ordered[:1000])
            node, hits = self.start, 0
            for _ in range(self.STEPS):
                node = node.next
                hits += node.kind == 3 and node.name[-1] == "7"
            return time.perf_counter() - started
        finally:
            gc.enable()


class BenchError(Exception):
    pass


class Job:
    """One generated corpus on disk and the runs made over it.

    Every run writes to a directory of its own, and nothing is deleted until
    the measurement ends, so file-system clean-up never lands in a timed run.
    """

    def __init__(self, corpus: Corpus, directory: Path, reference: Reference):
        self.corpus = corpus
        self.directory = directory
        self.reference = reference
        self.runs = 0
        sources = [str(p) for p in corpus.write(directory / "src")]
        self.source_list = directory / "sources.txt"
        self.source_list.write_text("\n".join(sources), encoding="utf-8")

    def run(self, mode: str) -> tuple[dict, Path]:
        self.runs += 1
        out = self.directory / f"out{self.runs}"
        out.mkdir()
        cmd = [sys.executable, "-I", str(BENCH_DIR / "child.py"), mode, ".",
               str(self.source_list), str(out), self.corpus.dialect]
        before = self.reference.seconds()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{mode} run exceeded {CHILD_TIMEOUT_S}s") from err
        if proc.returncode != 0:
            raise BenchError(f"{mode} run exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["stderr"] = proc.stderr
        result["reference_s"] = (before + self.reference.seconds()) / 2
        return result, out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover."""
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, _, start, end), inner in zip(spans, covered):
        totals[name] += end - start - inner
    return totals


def stage_times(spans: list[list]) -> dict[str, float]:
    """Self time per stage.  What is left of emit.process_source once its
    stages are subtracted is the writing of the documents: emit.write."""
    times = span_self_times(spans)
    times["emit.write"] = times.pop("emit.process_source", 0.0)
    return times


def module_times(times: dict[str, float]) -> dict[str, float]:
    return {m: sum(t for name, t in times.items() if name.startswith(m + "."))
            for m in MODULES}


def _print_failures(verdict: oracle.Verdict, workload: str) -> None:
    if not verdict.failures and not verdict.wrong:
        return
    lines = [f"{doc.source}: {doc.file}: {reason}" for doc, reason in verdict.failures]
    lines += [f"wrong: {w}" for w in verdict.wrong]
    listing = WORK_DIR / f"{workload}-failures.txt"
    listing.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines[:10]:
        print(f"    {line}")
    if len(lines) > 10:
        print(f"    ... {len(lines) - 10} more; all {len(lines)} listed in {listing}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: Reference) -> tuple[dict, dict]:
    """Returns the result line's object and the figures for the summary."""
    work = WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    corpus = generate(workload, seed)
    print(f"workload {workload}, seed {seed}: {len(corpus.files)} source(s),"
          f" {corpus.lines} lines, {corpus.statements} statements,"
          f" {len(corpus.docs)} expected documents")
    try:
        full = Job(corpus, work / "full", reference)
        first, out = full.run("cli")
        if first["status"] != 0:
            print(f"  fmtderive exited {first['status']}: {first['stderr'][-500:].strip()}")
        verdict, reference = oracle.check(corpus, out), oracle.digest(out)
        deadline = time.perf_counter() + seconds
        if trace:
            metrics, reps, digests_ok, statuses, half_ok = _traced(
                workload, seed, full, deadline, reference)
        else:
            samples, digests_ok, half_ok = [], True, True
            while not samples or time.perf_counter() < deadline:
                sample, out = full.run("cli")
                digests_ok &= oracle.digest(out) == reference
                samples.append(sample)
            reps, statuses = len(samples), [s["status"] for s in samples]
            metrics = _end_to_end(corpus, samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    statuses.append(first["status"])

    fail_ratio = ratio(verdict.failed, verdict.expected)
    correct = verdict.ok and half_ok and digests_ok and not any(statuses)
    print(f"  fail_ratio        {fail_ratio:.4f}        ({verdict.failed} of"
          f" {verdict.expected} expected documents missing or different;"
          f" {verdict.failed - len(verdict.dropped)} of them lost to a name collision)")
    _print_failures(verdict, workload)
    print(f"  oracle            {'PASS' if correct else 'FAIL'}"
          f" (wrong documents: {len(verdict.wrong)}, missing or different:"
          f" {len(verdict.dropped)}, CLI errors:"
          f" {sum(1 for s in statuses if s)}, byte-identical over {reps + 1} runs:"
          f" {'yes' if digests_ok else 'NO'})")
    print(f"  digest            sha256:{reference}")
    return {
        "correct": correct,
        "attempted": verdict.expected * reps,
        "failed": verdict.failed * reps,
        "metrics": metrics,
    }, {"fail_ratio": fail_ratio, "n": reps, "digest": reference}


def _end_to_end(corpus: Corpus, samples: list[dict]) -> dict:
    norm_walls = [s["wall_s"] * NOMINAL_REFERENCE_S / s["reference_s"] for s in samples]
    series = {
        "wall_s": ("s", [s["wall_s"] for s in samples]),
        "lines_per_s": ("lines/s", [corpus.lines / s["wall_s"] for s in samples]),
        "reference_s": ("s", [s["reference_s"] for s in samples]),
        "norm_wall_s": ("s", norm_walls),
        "norm_lines_per_s": ("lines/s", [corpus.lines / w for w in norm_walls]),
        "peak_rss_mb": ("MB", [s["peak_rss_mb"] for s in samples]),
        "setup_s": ("s", [s["setup_s"] for s in samples]),
    }
    metrics = {}
    for name, (unit, values) in series.items():
        q1, median, q3 = quartiles(values)
        print(f"  {name:17s} {median:<12.6g} {unit:8s} median; q1 {q1:.6g}, q3 {q3:.6g};"
              f" n={len(values)}")
        if name not in ("wall_s", "lines_per_s", "reference_s"):
            metrics[name] = {"value": median, "unit": unit}
    return metrics


def _traced(workload: str, seed: int, full: Job, deadline: float,
            reference: str) -> tuple[dict, int, bool, list[int], bool]:
    """Per-layer metrics, traced runs made, digests consistent, CLI statuses,
    and the oracle's verdict on the half-size corpus."""
    half = Job(generate(workload, seed, 0.5), full.directory.parent / "half", full.reference)
    walls, traced_full, traced_half, statuses = [], [], [], []
    digests_ok, half_ok = True, True
    while not walls or time.perf_counter() < deadline:
        sample, _ = full.run("cli")
        statuses.append(sample["status"])
        walls.append(sample["wall_s"])
        traced, out = full.run("trace")
        digests_ok &= oracle.digest(out) == reference
        traced_full.append(stage_times(traced["spans"]))
        counts, spans = traced["counts"], traced["spans"]
        small, out = half.run("trace")
        if not traced_half:
            half_ok = oracle.check(half.corpus, out).ok
        traced_half.append(stage_times(small["spans"]))
        statuses += [traced["status"], small["status"]]

    (WORK_DIR / f"{workload}-spans.json").write_text(json.dumps(
        {"fields": ["name", "parent", "start", "end"], "spans": spans}))

    def med(name: str, runs: list[dict]) -> float:
        return statistics.median(r[name] for r in runs)

    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for name in (*STAGES, *REPLAYS):
        put(f"{name}_s", med(name, traced_full), "s")
    stage_total = statistics.median(sum(r[s] for s in STAGES) for r in traced_full)
    put("lexer.tokens", counts["tokens"], "count")
    put("lexer.tokens_per_s", counts["tokens"] / med("lexer.tokenize", traced_full), "1/s")
    put("syntax.statements", counts["statements"], "count")
    put("syntax.opaque_share", ratio(counts["opaque"], counts["statements"]), "ratio")
    put("symbols.entries", counts["entries"], "count")
    put("ioflow.events", counts["events"], "count")
    put("ioflow.bindings", counts["bindings"], "count")
    put("ioflow.defaulted_share", ratio(counts["defaulted"], counts["events"]), "ratio")
    put("fmtengine.parse_calls", counts["parse_calls"], "count")
    put("fmtengine.distinct_share",
        ratio(counts["distinct_formats"], counts["parse_calls"]), "ratio")
    put("fmtengine.reverted_share", ratio(counts["reverted"], counts["parse_calls"]), "ratio")
    put("emit.docs", counts["docs"], "count")
    put("emit.bytes", counts["bytes"], "count")
    # The traced run_cli call, replays taken out, against the untraced one.
    traced_wall = statistics.median(
        sum(t for name, t in r.items() if name not in REPLAYS) for r in traced_full)
    put("trace.overhead_s", traced_wall - statistics.median(walls), "s")
    full_modules = [module_times(r) for r in traced_full]
    half_modules = [module_times(r) for r in traced_half]
    for module in MODULES:
        put(f"{module}.growth",
            ratio(med(module, full_modules), med(module, half_modules)), "ratio")

    print(f"  traced runs: {len(traced_full)} at full size, {len(traced_half)} at half"
          f" size; untraced CLI wall_s median {statistics.median(walls):.4f} s;"
          f" traced stage total {stage_total:.4f} s")
    print("  share = share of the traced stage total; replays repeat work done inside"
          " ioflow.analyze and emit.build_docs")
    for name, entry in metrics.items():
        value = entry["value"]
        share = f"{ratio(value, stage_total):6.1%}" if entry["unit"] == "s" else ""
        print(f"  {name:30s} {value:<12.6g} {entry['unit']:6s} {share:>6s}  moves {MOVES[name]}")
    print(f"  half-size corpus: oracle {'PASS' if half_ok else 'FAIL'}")
    return metrics, len(traced_full), digests_ok, statuses, half_ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fmtderive benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/fmtderive/__init__.py").is_file():
        print("error: run from the repository root; src/fmtderive is missing",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    reference = Reference()
    results, summaries = {}, {}
    try:
        for workload in workloads:
            results[workload], summaries[workload] = measure(
                workload, args.seed, args.seconds, bool(args.trace), reference)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0 if results[args.workload]["correct"] else 1
    print(f"summary, medians over n runs: {'  '.join(workloads)}")
    for name, entry in results[workloads[0]]["metrics"].items():
        values = "  ".join(f"{results[w]['metrics'][name]['value']:.6g}" for w in workloads)
        print(f"  {name:30s} {entry['unit']:8s} {values}")
    print(f"  {'fail_ratio':30s} {'ratio':8s} "
          + "  ".join(f"{summaries[w]['fail_ratio']:.4f}" for w in workloads))
    print(f"  {'n':30s} {'runs':8s} " + "  ".join(str(summaries[w]["n"]) for w in workloads))
    print(f"  {'oracle':39s} "
          + "  ".join("PASS" if results[w]["correct"] else "FAIL" for w in workloads))
    for w in workloads:
        print(f"  digest {w}: sha256:{summaries[w]['digest']}")
    return 0 if all(r["correct"] for r in results.values()) else 1

if __name__ == "__main__":
    sys.exit(main())
