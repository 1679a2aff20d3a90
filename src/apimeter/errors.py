"""Exception types shared across the toolkit.

Every error raised on a contract violation derives from ApimeterError so the
CLI can distinguish fatal pipeline failures (nonzero exit) from ordinary
Python bugs.
"""

from __future__ import annotations


class ApimeterError(Exception):
    """Base class for all toolkit errors."""


class NotElfError(ApimeterError):
    """File is not an ELF object (bad magic, or truncated/corrupt structure)."""


class NoDynamicSymbolsError(ApimeterError):
    """ELF object has no dynamic symbol table (static-only or stripped build)."""


class EmptyHeaderSetError(ApimeterError):
    """No header files found under the header root (wrong install prefix?)."""


class EmptyCatalogError(ApimeterError):
    """Exported symbols and header identifiers do not intersect."""


class MalformedDirectiveError(ApimeterError):
    """Unparsable line in a coverage tracefile."""

    def __init__(self, message: str, line_number: int, source: str | None = None):
        prefix = f"{source}:" if source else ""
        super().__init__(f"{prefix}line {line_number}: {message}")
        self.message = message
        self.line_number = line_number
        self.source = source


class FileSetMismatchError(ApimeterError):
    """Baseline and augmented tracefiles share no files (different builds?)."""


class MissingRootError(ApimeterError):
    """Client root directory does not exist."""


class ReportIoError(ApimeterError):
    """An artifact or report file, or its directory, could not be written; names the path."""


class MissingInputsError(ApimeterError):
    """A command requires an artifact from an earlier stage; names the file and that stage."""


class DependencyDbError(ApimeterError):
    """Dependency database violates its schema (e.g. duplicate pairs)."""


class SchemaVersionError(ApimeterError):
    """Persisted artifact carries an unsupported major schema version."""


class ConfigError(ApimeterError):
    """Run configuration is invalid or references missing paths."""


class InputFileError(ApimeterError):
    """An input file or artifact cannot be read, decoded or parsed; names the file."""
