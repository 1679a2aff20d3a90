"""Prepare client checkouts: decide which directories are not client code.

A client often embeds the library it uses, either as a declared submodule
or as a copied subtree (possibly of an older library version, so file sets
match only partially). Those paths must be excluded before usage scanning,
otherwise the library would appear to "use" itself.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from . import artifacts
from .catalog import SOURCE_EXTENSIONS, LibrarySpec
from .diagnostics import Diagnostics
from .errors import MissingRootError

DEFAULT_OVERLAP_THRESHOLD = 0.8
DEFAULT_MIN_LIB_FILES = 3

_SECTION = re.compile(r"\[\s*submodule\b[^\]]*\]")
_ANY_SECTION = re.compile(r"\[[^\]]*\]")


@dataclass(frozen=True)
class ClientRecord:
    """A client checkout plus everything scanning must skip."""

    client_id: str
    root: str
    excluded_dirs: frozenset[str]
    excluded_files: frozenset[str]
    rules: dict[str, str] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class LibraryInventory:
    """Library directories mapped to the file names they contain, recursively.

    Only directories holding at least one source or header file somewhere
    below them appear; collected names cover every file, not just sources.
    """

    dirs: dict[str, frozenset[str]]


def parse_submodule_manifest(content: str, diag: Diagnostics | None = None) -> list[str]:
    """Paths declared in a .gitmodules-style INI text, in file order."""
    paths: list[str] = []
    in_submodule = False
    section_had_path = False
    section_line = 0
    for line_number, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if _ANY_SECTION.match(line):
            if in_submodule and not section_had_path and diag:
                diag.emit("submodule_missing_path", section_line=section_line)
            in_submodule = bool(_SECTION.match(line))
            section_had_path = False
            section_line = line_number
            continue
        if not in_submodule or "=" not in line:
            continue
        key, _, value = line.partition("=")
        if key.strip() == "path" and value.strip():
            paths.append(value.strip())
            section_had_path = True
    if in_submodule and not section_had_path and diag:
        diag.emit("submodule_missing_path", section_line=section_line)
    return paths


def _collect_dir_names(root: Path) -> tuple[dict[str, set[str]], dict[str, bool]]:
    """Per directory (relative to root): all file base names below it, and
    whether any of those files is a source/header."""
    names: dict[str, set[str]] = {}
    has_source: dict[str, bool] = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        rel_dir = Path(dirpath).relative_to(root).as_posix()
        names.setdefault(rel_dir, set())
        has_source.setdefault(rel_dir, False)
        for fname in filenames:
            is_source = Path(fname).suffix.lower() in SOURCE_EXTENSIONS
            current = rel_dir
            while True:
                names.setdefault(current, set()).add(fname)
                has_source[current] = has_source.get(current, False) or is_source
                if current == ".":
                    break
                current = current.rsplit("/", 1)[0] if "/" in current else "."
    return names, has_source


def build_library_inventory(source_roots: list[str] | tuple[str, ...]) -> LibraryInventory:
    """File-name sets for every library directory that contains sources."""
    dirs: dict[str, frozenset[str]] = {}
    for root_str in source_roots:
        root = Path(root_str)
        names, has_source = _collect_dir_names(root)
        for rel, file_names in names.items():
            if not file_names or not has_source.get(rel, False):
                continue
            key = str(root) if rel == "." else f"{root}/{rel}"
            dirs[key] = frozenset(file_names)
    return LibraryInventory(dirs=dirs)


def _overlap_qualifies(
    client_names: frozenset[str] | set[str],
    inv: LibraryInventory,
    threshold: float,
    min_lib_files: int,
) -> bool:
    if not client_names:
        return False
    for lib_names in inv.dirs.values():
        if len(lib_names) < min_lib_files:
            continue
        if len(client_names & lib_names) / len(client_names) >= threshold:
            return True
    return False


def select_vendored(
    client_dir_names: dict[str, set[str] | frozenset[str]],
    inv: LibraryInventory,
    threshold: float = DEFAULT_OVERLAP_THRESHOLD,
    min_lib_files: int = DEFAULT_MIN_LIB_FILES,
) -> set[str]:
    """Vendored-copy rule on precollected name sets.

    A client directory qualifies when some library directory with at least
    min_lib_files files covers >= threshold of the client directory's file
    names. Once a directory qualifies, its subdirectories are subsumed.
    """
    excluded: set[str] = set()
    for rel in sorted(client_dir_names, key=lambda p: (0 if p == "." else p.count("/") + 1, p)):
        if any(rel == ex or rel.startswith(ex + "/") for ex in excluded if ex != "."):
            continue
        if "." in excluded and rel != ".":
            continue
        if _overlap_qualifies(client_dir_names[rel], inv, threshold, min_lib_files):
            excluded.add(rel)
    return excluded


def detect_vendored_dirs(
    client_root: str | Path,
    inv: LibraryInventory,
    threshold: float = DEFAULT_OVERLAP_THRESHOLD,
    min_lib_files: int = DEFAULT_MIN_LIB_FILES,
) -> set[str]:
    """Client directories (relative paths) holding a vendored library copy."""
    names, _ = _collect_dir_names(Path(client_root))
    return select_vendored(names, inv, threshold, min_lib_files)


def _inside_root(rel: str) -> bool:
    p = PurePosixPath(rel)
    return not p.is_absolute() and ".." not in p.parts


def prepare_client(
    client_id: str,
    root: str | Path,
    spec: LibrarySpec,
    inv: LibraryInventory,
    threshold: float = DEFAULT_OVERLAP_THRESHOLD,
    min_lib_files: int = DEFAULT_MIN_LIB_FILES,
    diag: Diagnostics | None = None,
) -> ClientRecord:
    """Compute every exclusion for one checkout.

    Submodule paths are excluded as declared (other dependencies included —
    they are not client code either); vendored copies by name overlap; and
    any file whose base name is on the library's explicit exclude list.
    """
    root_path = Path(root)
    if not root_path.is_dir():
        raise MissingRootError(f"client root does not exist: {root_path}")

    rules: dict[str, str] = {}
    excluded_dirs: set[str] = set()

    manifest = root_path / ".gitmodules"
    if manifest.is_file():
        for sub in parse_submodule_manifest(manifest.read_text(errors="replace"), diag):
            rel = PurePosixPath(sub).as_posix().rstrip("/")
            if not _inside_root(rel):
                if diag:
                    diag.emit("submodule_outside_root", client=client_id, path=sub)
                continue
            excluded_dirs.add(rel)
            rules[rel] = "submodule"

    for rel in detect_vendored_dirs(root_path, inv, threshold, min_lib_files):
        if rel not in excluded_dirs:
            excluded_dirs.add(rel)
            rules[rel] = "overlap"

    excluded_files: set[str] = set()
    if spec.explicit_file_excludes:
        wanted = set(spec.explicit_file_excludes)
        for dirpath, _dirnames, filenames in os.walk(root_path):
            rel_dir = Path(dirpath).relative_to(root_path).as_posix()
            for fname in sorted(filenames):
                if fname in wanted:
                    rel = fname if rel_dir == "." else f"{rel_dir}/{fname}"
                    excluded_files.add(rel)
                    rules[rel] = "explicit"

    if diag:
        diag.emit(
            "client_prepared",
            client=client_id,
            excluded_dirs=len(excluded_dirs),
            excluded_files=len(excluded_files),
        )
    return ClientRecord(
        client_id=client_id,
        root=str(root_path),
        excluded_dirs=frozenset(excluded_dirs),
        excluded_files=frozenset(excluded_files),
        rules=rules,
    )


def prep_report_dict(rec: ClientRecord) -> dict:
    return {
        "schema_version": artifacts.SCHEMA_VERSION,
        "client": rec.client_id,
        "excluded_dirs": [
            {"path": p, "rule": rec.rules.get(p, "overlap")} for p in sorted(rec.excluded_dirs)
        ],
        "excluded_files": [
            {"path": p, "rule": rec.rules.get(p, "explicit")} for p in sorted(rec.excluded_files)
        ],
    }
