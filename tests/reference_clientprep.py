"""Frozen client preparation and source walk: the reference for the one-walk code.

This is `apimeter.clientprep`'s walk and vendored-copy selection, and
`apimeter.scan.iter_client_sources`, as they were before each client came
to be walked once with `os.scandir` and vendored copies came to be found
through posting lists. Each client tree was walked three times through
`os.walk` and `pathlib`, and every client directory was intersected with
every library directory. It is kept only so the differential tests can
check the rewrite against it; nothing outside `tests/` imports it.
"""

from __future__ import annotations

import os
from pathlib import Path, PurePosixPath
from typing import Iterator

from apimeter.catalog import SOURCE_EXTENSIONS, LibrarySpec
from apimeter.clientprep import (
    DEFAULT_MIN_LIB_FILES,
    DEFAULT_OVERLAP_THRESHOLD,
    ClientRecord,
    LibraryInventory,
    parse_submodule_manifest,
)
from apimeter.diagnostics import Diagnostics
from apimeter.errors import MissingRootError
from apimeter.scan import ScanOptions


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
    """Vendored-copy rule on precollected name sets."""
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
    """Compute every exclusion for one checkout."""
    root_path = Path(root)
    if not root_path.is_dir():
        raise MissingRootError(f"client root does not exist: {root_path}")

    excluded_dirs: dict[str, str] = {}  # path -> rule

    manifest = root_path / ".gitmodules"
    if manifest.is_file():
        for sub in parse_submodule_manifest(manifest.read_text(errors="replace"), diag):
            if not _inside_root(sub):  # the declared path, so "/" is outside too
                if diag:
                    diag.emit("submodule_outside_root", client=client_id, path=sub)
                continue
            excluded_dirs[PurePosixPath(sub).as_posix().rstrip("/")] = "submodule"

    for rel in detect_vendored_dirs(root_path, inv, threshold, min_lib_files):
        if rel not in excluded_dirs:
            excluded_dirs[rel] = "overlap"

    excluded_files: set[str] = set()
    if spec.explicit_file_excludes:
        wanted = set(spec.explicit_file_excludes)
        for dirpath, _dirnames, filenames in os.walk(root_path):
            rel_dir = Path(dirpath).relative_to(root_path).as_posix()
            for fname in sorted(filenames):
                if fname in wanted:
                    rel = fname if rel_dir == "." else f"{rel_dir}/{fname}"
                    excluded_files.add(rel)

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
        excluded_dirs=excluded_dirs,
        excluded_files=frozenset(excluded_files),
        listing=None,  # iter_client_sources here walks the tree itself
    )


def iter_client_sources(
    rec: ClientRecord,
    options: ScanOptions = ScanOptions(),
    diag: Diagnostics | None = None,
) -> Iterator[tuple[str, str]]:
    """Walk a prepared checkout, yielding scannable (relative path, text)."""
    root = Path(rec.root)
    skip_dirs = set(rec.excluded_dirs)
    if "." in skip_dirs:
        return
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = Path(dirpath).relative_to(root).as_posix()
        dirnames.sort()
        kept = []
        for d in dirnames:
            rel = d if rel_dir == "." else f"{rel_dir}/{d}"
            if rel in skip_dirs:
                if diag:
                    diag.emit("dir_excluded", client=rec.client_id, path=rel)
            else:
                kept.append(d)
        dirnames[:] = kept
        for fname in sorted(filenames):
            if Path(fname).suffix.lower() not in SOURCE_EXTENSIONS:
                continue
            rel = fname if rel_dir == "." else f"{rel_dir}/{fname}"
            if rel in rec.excluded_files:
                if diag:
                    diag.emit("file_excluded", client=rec.client_id, path=rel)
                continue
            full = Path(dirpath) / fname
            try:
                if full.stat().st_size > options.file_cap_bytes:
                    if diag:
                        diag.emit("file_too_large", client=rec.client_id, path=rel)
                    continue
                text = full.read_bytes().decode("utf-8", errors="replace")
            except OSError as exc:
                if diag:
                    diag.emit("file_unreadable", client=rec.client_id, path=rel, error=str(exc))
                continue
            yield rel, text
