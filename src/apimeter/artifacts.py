"""The on-disk format of every stage artifact.

Each JSON artifact carries `schema_version`; a reader accepts the same
major version only. A write replaces its target in one `os.replace` of a
sibling temporary file, so a reader never sees half an artifact and a
failed write leaves the previous one in place. There is no fsync: the
rename guards against a failed or killed writer, not against power loss.
A load maps every read, decode or shape failure to a typed error that
names the file. Every JSON input, artifact or not, is read against a table
of its fields by `checked`, whose errors name the field.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from pathlib import Path
from typing import Any, Callable, NamedTuple, TextIO, TypeVar

from .errors import ApimeterError, InputFileError, ReportIoError, SchemaVersionError

SCHEMA_VERSION = "1.0"

T = TypeVar("T")


def check_schema_version(doc: dict) -> None:
    version = str(doc.get("schema_version", ""))
    major = version.split(".", 1)[0]
    ours = SCHEMA_VERSION.split(".", 1)[0]
    if major != ours:
        raise SchemaVersionError(f"schema_version {version!r} not supported (expected {ours}.x)")


def is_count(value: Any) -> bool:
    """Whether a JSON value is a non-negative integer; a `true` is no count."""
    return type(value) is int and value >= 0


def are_strings(values: list) -> bool:
    return all(type(s) is str for s in values)


class Field(NamedTuple):  # what one key of a JSON object must hold; a table maps each key to one
    kind: type | tuple[type, ...]  # the JSON type of a given value; a JSON `true` is no number
    default: Any  # taken when the key is missing; `...` makes that an error, None lets it be null
    requirement: str  # completes "<field> must be ..."
    ok: Callable[[Any], bool] = lambda v: True  # its bounds, or the type of its items


COUNT = Field(int, ..., "a non-negative integer", is_count)  # a required count

SHOWN_CHARS = 200  # of a wrong value's repr an error shows; a longer one is cut, with its length


def _shown(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= SHOWN_CHARS else f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


def checked(doc: Any, table: dict[str, Field], where="", scope="", error: type = TypeError, strict=False) -> dict:
    """Each field of `table` in the JSON object `doc`, checked, or else its default. An error's
    message starts with `where` and names `doc` as `scope` ("" at the top level). With `strict`,
    a key that `table` lacks is an error too."""
    if type(doc) is not dict:
        raise error(f"{where}{scope} must be an object: {_shown(doc)}")
    prefix = f"{where}{scope}." if scope else where
    if strict and (unknown := sorted(doc.keys() - table.keys())):
        raise error(f"{prefix}{unknown[0]} is not a known key; known: {', '.join(table)}")
    if missing := [key for key, field in table.items() if field.default is ... and key not in doc]:
        # A nested object is shown, to find it by; the top-level one is the whole document.
        raise error(f'{where}{scope} needs "{missing[0]}": {_shown(doc)}' if scope else f"{where}{missing[0]} is missing")
    for key, (kind, default, requirement, ok) in table.items():
        value = doc.get(key, default)
        if key in doc and not (isinstance(value, kind) and isinstance(value, bool) == (kind is bool) and ok(value)
                               or value is None is default):
            raise error(f"{prefix}{key} must be {requirement}: {_shown(value)}")
    return {key: doc.get(key, field.default) for key, field in table.items()}


def write_text(path: str | Path, text: str | Callable[[TextIO], Any]) -> Path:
    """Atomically replace `path` with `text` (UTF-8), or with what `text(file)` writes to the
    open file, creating its directory."""
    out = Path(path)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as file:
            text(file) if callable(text) else file.write(text)
        os.replace(tmp, out)
    except OSError as exc:
        raise ReportIoError(f"cannot write {out}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):  # gone once replaced
            tmp.unlink()
    return out


def write_json(path: str | Path, payload: dict) -> Path:
    def dump(file: TextIO) -> None:  # streamed: json.dumps with an indent holds the whole document
        json.dump(payload, file, indent=2, sort_keys=True)
        file.write("\n")

    return write_text(path, dump)


def read_input(path: str | Path, encoding: str = "utf-8") -> str:
    """The text of an input file named on the command line or in the config.

    A character or block device raises an OSError naming it: it may never
    end (`/dev/zero`). A FIFO is read to its end, so `<(lcov ...)` works.
    """
    mode = os.stat(path).st_mode
    if stat.S_ISCHR(mode) or stat.S_ISBLK(mode):
        raise OSError(f"Is a device (mode {stat.filemode(mode)}): {os.fspath(path)!r}")
    return Path(path).read_text(encoding=encoding)


def load_json(
    path: str | Path,
    kind: str,
    parse: Callable[[Any], T],
    *,
    error: type[ApimeterError] = InputFileError,
    root: type = dict,
) -> T:
    """Read, decode and parse one JSON document of type `root`, then return
    `parse(doc)`. Unreadable, undecodable, malformed or too deeply nested
    input, or a document whose shape `parse` trips over, raises `error`
    naming the file; an unsupported schema version raises
    `SchemaVersionError` naming it."""
    try:
        doc = json.loads(read_input(path))
        if not isinstance(doc, root):
            raise TypeError(f"expected a JSON {'object' if root is dict else 'list'}, got {type(doc).__name__}")
        return parse(doc)
    except SchemaVersionError as exc:
        raise SchemaVersionError(f"cannot load {kind} {path}: {exc}") from exc
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise error(f"cannot load {kind} {path}: {type(exc).__name__}: {exc}") from exc
