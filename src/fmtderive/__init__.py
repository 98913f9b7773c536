"""Static analysis of FORTRAN model source that derives the data formats of
every file the program reads or writes, one XML document per file."""

from .diagnostics import AnalysisError, Diagnostic
from .emit import DataFormatDoc, build_docs, run_cli, serialize
from .fmtengine import (
    DataEdit, DescriptorError, Group, Layout, LayoutItem, LayoutKind,
    LiteralText, PositionX, RecordBreak, Repeated, canonical_text,
    data_format_of, describe, expand, parse_descriptors,
)
from .ioflow import (
    IoEvent, Multiplicity, UnitBinding, analyze, bind_units, loop_multiplicity,
)
from .lexer import FIXED_FORM, FREE_FORM, LexError, Token, TokenKind, tokenize
from .symbols import (
    DataType, SymbolTables, Unresolved, build_tables, eval_int, implicit_type,
    lookup_type,
)
from .syntax import DuplicateFormatLabel, ParseError, ProgramUnit, attach_formats, parse

__version__ = "0.1.0"
