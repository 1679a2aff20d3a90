"""Public-API catalog of a C library.

An API is an exported function symbol of the library's shared objects that
also occurs, as a token, somewhere in the installed headers. The header
harvest is deliberately lexical: comments and preprocessor structure are
ignored, so names visible only through macros still qualify, and the set
only ever filters symbols (an over-approximation on the header side cannot
add APIs).
"""

from __future__ import annotations

import errno
import os
import re
import stat
import sys
from collections.abc import Iterator, Mapping
from pathlib import Path
from types import MappingProxyType
from typing import Any, NamedTuple

from . import artifacts
from .artifacts import COUNT, Field, _shown, checked
from .diagnostics import SILENT, Diagnostics
from .elf import exported_text_symbols
from .errors import ConfigError, EmptyCatalogError, EmptyHeaderSetError, InputFileError

HEADER_EXTENSIONS = {".h", ".hh", ".hpp", ".hxx"}
SOURCE_EXTENSIONS = {".c", ".cc", ".cpp", ".cxx"} | HEADER_EXTENSIONS


def is_source_name(name: str) -> bool:
    """Whether `Path(name).suffix.lower()` is in SOURCE_EXTENSIONS."""
    i = name.rfind(".")
    return 0 < i < len(name) - 1 and name[i:].lower() in SOURCE_EXTENSIONS


C_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def read_text(path: str, cap_bytes: int | None = None) -> str | None:
    """The whole regular file at path as UTF-8 text, undecodable bytes
    replaced; None when it is larger than cap_bytes.

    One open, one fstat of that descriptor for the size and type, one read
    and one close. A file that cannot be opened is stat'ed by path, so one
    over the cap still reads as too large. Errors are the OSError open()
    would raise, path included (a directory gives IsADirectoryError). The
    open never blocks, and a file that is not regular (a FIFO, a device)
    raises an OSError naming it, so neither can hang the read or fill memory.
    A file that changed size since the fstat is read on to its end; with a
    cap, the read on stops after cap_bytes + 1 more bytes, and the file then
    reads as too large.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError:
        if cap_bytes is not None and os.stat(path).st_size > cap_bytes:
            return None
        raise
    try:
        info = os.fstat(fd)
        if cap_bytes is not None and info.st_size > cap_bytes:
            return None
        if not stat.S_ISREG(info.st_mode):
            if stat.S_ISDIR(info.st_mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            raise OSError(f"Not a regular file (mode {stat.filemode(info.st_mode)}): {path!r}")
        data = os.read(fd, info.st_size + 1)
        if len(data) != info.st_size:  # it changed size since the fstat: read to the end
            chunks = [data]
            left = sys.maxsize if cap_bytes is None else cap_bytes + 1
            while chunks[-1] and left:
                chunks.append(os.read(fd, min(left, 1 << 16)))
                left -= len(chunks[-1])
            if not left:
                return None
            data = b"".join(chunks)
    finally:
        os.close(fd)
    return data.decode("utf-8", errors="replace")


# One walked directory: its path relative to the root, its sorted subdirectory and other
# (file, broken link) names, and the prefix that makes their paths ("" for a root of ".").
WalkEntry = tuple[str, list[str], list[str], str]


def walk_tree(root: str | Path, diag: Diagnostics = SILENT, client: str | None = None) -> Iterator[WalkEntry]:
    """Walk root top-down, each directory before those below it, yielding WalkEntries.

    Names are sorted and subdirectories walked in that order. A directory or a symlink to
    one is listed as a subdirectory, any other entry as a file; symlinked directories are
    never descended. In a client's tree (`client` given), a directory that cannot be listed
    is left out with a `dir_unreadable` event; a walk for no client raises its OSError.
    """
    base = str(Path(root))
    stack = [(".", "" if base == "." else os.path.join(base, ""))]
    while stack:
        rel, path = stack.pop()
        sub = "" if rel == "." else rel + "/"
        dirs, files, descend = [], [], []
        try:
            with os.scandir(path or ".") as entries:
                for entry in sorted(entries, key=lambda e: e.name):
                    try:
                        is_dir = entry.is_dir()
                    except OSError:
                        is_dir = False
                    (dirs if is_dir else files).append(entry.name)
                    if is_dir and not entry.is_symlink():
                        descend.append((sub + entry.name, path + entry.name + "/"))
        except OSError as exc:
            if client is None:
                raise
            diag.emit("dir_unreadable", client=client, path=rel, error=str(exc))
            continue
        yield rel, dirs, files, path
        stack += reversed(descend)


# Defaults of the client-preparation and scan settings. They live here because
# every stage loads this module, so the CLI's configuration reads them without
# importing those stages.
DEFAULT_OVERLAP_THRESHOLD = 0.8
DEFAULT_MIN_LIB_FILES = 3
DEFAULT_FILE_CAP_BYTES = 16 * 1024 * 1024


class LibrarySpec(NamedTuple):
    """Where to find one library's build products and sources."""

    name: str
    shared_objects: tuple[str, ...]
    header_root: str
    source_roots: tuple[str, ...] = ()
    explicit_file_excludes: tuple[str, ...] = ()


class ApiSymbol(NamedTuple):
    """One public API with its entry-function location, size and coverage.

    eloc counts instrumented lines inside the entry function; covered_lines
    those executed at least once. All location/coverage fields stay None
    until coverage annotation — None means unmeasured, which is distinct
    from eloc == 0.
    """

    name: str
    defining_file: str | None = None
    entry_start: int | None = None
    entry_end: int | None = None
    eloc: int | None = None
    covered_lines: int | None = None

    @property
    def coverage_pct(self) -> float | None:
        if self.eloc is None or self.covered_lines is None or self.eloc == 0:
            return None
        return 100.0 * self.covered_lines / self.eloc


class ApiCatalog(NamedTuple):
    library: str
    apis: dict[str, ApiSymbol]
    created_at: str = ""
    provenance: Mapping[str, Any] = MappingProxyType({})  # read-only, so every default shares it

    def annotated(self) -> list[ApiSymbol]:
        return [a for a in self.apis.values() if a.eloc is not None]


def harvest_header_identifiers(header_root: str | Path) -> set[str]:
    """Every C identifier token in any header under header_root.

    Headers are read as UTF-8 with undecodable bytes replaced; comments are
    not stripped (harmless for a filter set). A header that cannot be read,
    or a directory under header_root that cannot be listed, raises
    InputFileError naming it: left out, its identifiers would silently leave
    the filter set.
    """
    root = Path(header_root)
    identifiers: set[str] = set()
    found_header = False
    try:
        # A missing root, or one that is no directory, holds no headers: EmptyHeaderSetError below.
        for _, _, files, prefix in walk_tree(root) if root.is_dir() else ():
            for path in [prefix + f for f in files if Path(f).suffix.lower() in HEADER_EXTENSIONS]:
                found_header = True
                try:
                    text = read_text(path)
                except OSError as exc:
                    raise InputFileError(f"cannot read header {path}: {exc}") from exc
                identifiers.update(C_IDENTIFIER.findall(text))
    except OSError as exc:  # from listing a directory: each read's OSError is an InputFileError by now
        raise InputFileError(f"cannot list header directory {os.path.normpath(exc.filename)}: {exc}") from exc
    if not found_header:
        raise EmptyHeaderSetError(f"no header files under {root}")
    return identifiers


def _creation_time() -> str:
    """The UTC time a catalog is stamped with, in ISO format: `SOURCE_DATE_EPOCH`
    when it is set, so a rebuild can be byte-identical, else now."""
    import datetime  # only the catalog stage stamps a time; other stages skip loading it

    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return datetime.datetime.now(datetime.timezone.utc).isoformat()
    if re.fullmatch(r"-?[0-9]{1,20}", epoch):  # 20 digits run far past datetime's last year
        try:
            return datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc).isoformat()
        except (ValueError, OverflowError, OSError):  # out of datetime's range
            pass
    raise ConfigError(f"SOURCE_DATE_EPOCH must be an integer count of seconds that a date can hold: {_shown(epoch)}")


def build_catalog(spec: LibrarySpec, diag: Diagnostics = SILENT) -> ApiCatalog:
    """Intersect exported symbols across shared objects with header tokens.

    Symbols exported by several shared objects are kept once; per-object
    attribution is dropped.
    """
    created_at = _creation_time()
    exported: set[str] = set()
    for so in spec.shared_objects:
        exported |= exported_text_symbols(so)
    header_ids = harvest_header_identifiers(spec.header_root)
    api_names = exported & header_ids
    if not api_names:
        raise EmptyCatalogError(
            f"{spec.name}: no exported symbol appears in the headers "
            f"({len(exported)} exported, {len(header_ids)} header identifiers)"
        )
    diag.emit(
        "catalog_built",
        library=spec.name,
        exported=len(exported),
        filtered_out=len(exported - api_names),
        apis=len(api_names),
    )
    return ApiCatalog(
        library=spec.name,
        apis={name: ApiSymbol(name=name) for name in sorted(api_names)},
        created_at=created_at,
        provenance={
            "shared_objects": [str(p) for p in spec.shared_objects],
            "header_root": str(spec.header_root),
        },
    )


def catalog_to_dict(catalog: ApiCatalog) -> dict:
    return {
        "schema_version": artifacts.SCHEMA_VERSION,
        "library": catalog.library,
        "created_at": catalog.created_at,
        "provenance": dict(catalog.provenance),
        "apis": [a._asdict() for _, a in sorted(catalog.apis.items())],
    }


_CATALOG = {
    "library": Field(str, ..., "a string"),
    "apis": Field(list, ..., "a list"),
    "created_at": Field(str, "", "a string"),
    "provenance": Field(dict, MappingProxyType({}), "an object"),
}
# An entry of `apis` as given, each field of which may be null or missing, and what it needs:
# a name, and every annotation field once one is set.
_API = {
    "name": Field(str, None, "a string"),
    "defining_file": Field(str, None, "a string"),
    **dict.fromkeys(ApiSymbol._fields[2:], COUNT._replace(default=None)),
}
_NEEDED = {key: f._replace(default=..., requirement=f.requirement + ", as another annotation field is set" * (key != "name"))
           for key, f in _API.items()}
# The field types of an unmeasured and of a measured ApiSymbol, for the fast check of a valid entry.
_UNMEASURED = (str,) + (type(None),) * 5
_MEASURED = (str, str, int, int, int, int)


def _checked_api(i: int, entry: Any) -> ApiSymbol:
    """Entry `i` of a catalog's `apis`, or an error naming its first bad field, taking a field set to a
    wrong value before a null one, and then a broken relation."""
    where = f"apis[{i}]"
    api = ApiSymbol(**checked(entry, _API, scope=where))
    measured = api[1:].count(None) < 5
    checked(api._asdict(), _NEEDED if measured else {"name": _NEEDED["name"]}, scope=where)
    if measured and api.entry_end < api.entry_start:
        raise TypeError(f"{where}.entry_end must be at least entry_start ({api.entry_start}): {api.entry_end}")
    if measured and api.covered_lines > api.eloc:
        raise TypeError(f"{where}.covered_lines must be at most eloc ({api.eloc}): {api.covered_lines}")
    return api


def catalog_from_dict(doc: dict) -> ApiCatalog:
    artifacts.check_schema_version(doc)
    top = checked(doc, _CATALOG)
    apis = {}
    for i, entry in enumerate(top["apis"]):
        # Every field but `name` may be missing, and then reads None.
        api = ApiSymbol._make(map(entry.get, ApiSymbol._fields)) if type(entry) is dict else _checked_api(i, entry)
        kinds = tuple(map(type, api))
        if kinds != _UNMEASURED and (kinds != _MEASURED or not (
                0 <= api.entry_start <= api.entry_end and 0 <= api.covered_lines <= api.eloc)):
            api = _checked_api(i, entry)
        if api.name in apis:
            raise TypeError(f"apis[{i}].name must be unique: {api.name!r}")
        apis[api.name] = api
    return ApiCatalog(top["library"], apis, top["created_at"], top["provenance"])


def save_catalog(catalog: ApiCatalog, path: str | Path) -> Path:
    return artifacts.write_json(path, catalog_to_dict(catalog))


def load_catalog(path: str | Path) -> ApiCatalog:
    return artifacts.load_json(path, "catalog", catalog_from_dict)
