"""Non-fatal findings and the shared error base for the analysis pipeline."""

from __future__ import annotations

from dataclasses import dataclass


class AnalysisError(Exception):
    """Base for every error the pipeline can raise on bad source input.

    The message names no source position; ``line`` and ``column`` locate the
    error, and the command line tool prints them as ``file:line:col``.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """A non-fatal finding carried alongside analysis results.

    Diagnostics end up as <note> elements in the emitted documentation, so
    messages should be short, self-contained sentences.
    """

    kind: str
    message: str
    line: int | None = None


# Diagnostic kinds used across the pipeline.
IMPLICITLY_TYPED = "implicitly-typed"
TYPE_DESCRIPTOR_MISMATCH = "type-descriptor-mismatch"
DESCRIPTOR_ARITY = "descriptor-arity"
UNKNOWN_UNIT = "unknown-unit"
SYMBOLIC_FILE_NAME = "symbolic-file-name"
DEFAULT_LOOP_COUNT = "default-loop-count"
UNSUPPORTED_DESCRIPTOR = "unsupported-descriptor"
UNRESOLVED_CONSTANT = "unresolved-constant"
EMPTY_ITEM_LIST = "empty-item-list"
ZERO_MULTIPLICITY = "zero-multiplicity"
