"""Prepare client checkouts: decide which directories are not client code.

A client often embeds the library it uses, either as a declared submodule
or as a copied subtree (possibly of an older library version, so file sets
match only partially). Those paths must be excluded before usage scanning,
otherwise the library would appear to "use" itself.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from itertools import chain
from pathlib import Path, PurePosixPath
from typing import NamedTuple

from . import artifacts
from .catalog import (DEFAULT_MIN_LIB_FILES, DEFAULT_OVERLAP_THRESHOLD, LibrarySpec, WalkEntry, is_source_name,
                      read_text, walk_tree)
from .diagnostics import SILENT, Diagnostics
from .errors import InputFileError, MissingRootError

_SECTION = re.compile(r"\[\s*submodule\b[^\]]*\]")
_ANY_SECTION = re.compile(r"\[[^\]]*\]")


class ClientRecord(NamedTuple):
    """A client checkout, everything scanning must skip, and the walk that found it."""

    client_id: str
    root: str
    excluded_dirs: dict[str, str]  # path -> rule, "submodule" or "overlap"
    excluded_files: frozenset[str]  # explicit excludes
    listing: list[WalkEntry]  # prepare_client's walk, reused by the scan; never saved


class LibraryInventory:
    """Library directories mapped to the file names they contain, recursively.

    Only directories holding at least one source or header file somewhere
    below them appear; collected names cover every file, not just sources.
    """

    def __init__(self, dirs: dict[str, frozenset[str]]):
        self.dirs = dirs
        self._postings: dict[int, dict[str, list[int]]] = {}  # per min_files

    def postings(self, min_files: int) -> dict[str, list[int]]:
        """File name -> ids of the directories with at least min_files names."""
        if min_files not in self._postings:
            index = self._postings[min_files] = {}
            for i, names in enumerate(self.dirs.values()):
                for name in names if len(names) >= min_files else ():
                    index.setdefault(name, []).append(i)
        return self._postings[min_files]


def parse_submodule_manifest(content: str, diag: Diagnostics = SILENT) -> list[str]:
    """Paths declared in a .gitmodules-style INI text, in file order."""
    paths: list[str] = []
    in_submodule = False
    section_had_path = False
    section_line = 0
    for line_number, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if _ANY_SECTION.match(line):
            if in_submodule and not section_had_path:
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
    if in_submodule and not section_had_path:
        diag.emit("submodule_missing_path", section_line=section_line)
    return paths


def _dir_names(listing: list[WalkEntry]) -> dict[str, set[str]]:
    """Per listed directory: the names of all files below it, recursively."""
    names: dict[str, set[str]] = {}
    for rel, dirs, files, _ in reversed(listing):  # every directory after its subdirectories
        below = names[rel] = set(files)
        sub = "" if rel == "." else rel + "/"
        for d in dirs:
            below.update(names.get(sub + d, ()))
    return names


def build_library_inventory(source_roots: list[str] | tuple[str, ...]) -> LibraryInventory:
    """File-name sets for every library directory that contains sources.

    A root that is not a directory raises MissingRootError, and a directory
    under it that cannot be listed InputFileError: read as an empty tree, or
    as a smaller one, a root would let the library's vendored copies count as
    client uses.
    """
    dirs: dict[str, frozenset[str]] = {}
    for root_str in source_roots:
        root = Path(root_str)
        if not root.is_dir():
            raise MissingRootError(f"library source root is missing or not a directory: {root}")
        try:
            listing = list(walk_tree(root))
        except OSError as exc:
            raise InputFileError(f"cannot list library directory {os.path.normpath(exc.filename)}: {exc}") from exc
        for rel, names in _dir_names(listing).items():
            if any(map(is_source_name, names)):
                dirs[str(root) if rel == "." else f"{root}/{rel}"] = frozenset(names)
    return LibraryInventory(dirs=dirs)


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
    if not any(len(names) >= min_lib_files for names in inv.dirs.values()):
        return set()
    postings = inv.postings(min_lib_files)
    excluded: set[str] = set()
    for rel in sorted(client_dir_names, key=lambda p: (0 if p == "." else p.count("/") + 1, p)):
        if "." in excluded or any(rel == ex or rel.startswith(ex + "/") for ex in excluded):
            continue
        names = client_dir_names[rel]
        hits = Counter(chain.from_iterable(map(postings.__getitem__, postings.keys() & names)))
        if names and max(hits.values(), default=0) / len(names) >= threshold:
            excluded.add(rel)
    return excluded


def prepare_client(
    client_id: str,
    root: str | Path,
    spec: LibrarySpec,
    inv: LibraryInventory,
    threshold: float = DEFAULT_OVERLAP_THRESHOLD,
    min_lib_files: int = DEFAULT_MIN_LIB_FILES,
    diag: Diagnostics = SILENT,
) -> ClientRecord:
    """Compute every exclusion for one checkout.

    Submodule paths are excluded as declared (other dependencies included —
    they are not client code either); vendored copies by name overlap; and
    any file whose base name is on the library's explicit exclude list.
    """
    root_path = Path(root)
    if not root_path.is_dir():
        raise MissingRootError(f"client root does not exist: {root_path}")

    excluded_dirs: dict[str, str] = {}

    manifest = root_path / ".gitmodules"
    if manifest.is_file():
        try:
            declared = read_text(str(manifest))
        except OSError as exc:  # then the client is prepared without submodule rules
            declared = ""
            diag.emit("file_unreadable", client=client_id, path=".gitmodules", error=str(exc))
        for sub in parse_submodule_manifest(declared, diag):
            rel = PurePosixPath(sub).as_posix()  # drops "./" and trailing "/"
            if rel == "." or rel.startswith("/") or ".." in rel.split("/"):  # the root, "/" and all above it
                diag.emit("submodule_outside_root", client=client_id, path=sub)
                continue
            excluded_dirs[rel] = "submodule"

    listing = list(walk_tree(root_path, diag, client_id))
    for rel in select_vendored(_dir_names(listing), inv, threshold, min_lib_files):
        excluded_dirs.setdefault(rel, "overlap")

    wanted = set(spec.explicit_file_excludes)
    excluded_files = frozenset(fname if rel_dir == "." else f"{rel_dir}/{fname}"
                               for rel_dir, _, files, _ in listing for fname in wanted.intersection(files))

    diag.emit("client_prepared", client=client_id, excluded_dirs=len(excluded_dirs),
              excluded_files=len(excluded_files))
    return ClientRecord(client_id=client_id, root=str(root_path), excluded_dirs=excluded_dirs,
                        excluded_files=excluded_files, listing=listing)


def prep_report_dict(rec: ClientRecord) -> dict:
    return {
        "schema_version": artifacts.SCHEMA_VERSION,
        "client": rec.client_id,
        "excluded_dirs": [{"path": p, "rule": rec.excluded_dirs[p]} for p in sorted(rec.excluded_dirs)],
        "excluded_files": [{"path": p, "rule": "explicit"} for p in sorted(rec.excluded_files)],
    }
