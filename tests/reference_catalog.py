"""Frozen header harvest: the reference for the harvest through `walk_tree`.

This is `apimeter.catalog.harvest_header_identifiers` as it was while it
listed the header tree with `os.walk`, subdirectories in the filesystem's
listing order, and an `onerror` that took a missing or non-directory
directory as empty. It is kept only so the differential tests can check the
rewrite against it; nothing outside `tests/` imports it.
"""

from __future__ import annotations

import os
from pathlib import Path

from apimeter.catalog import C_IDENTIFIER, HEADER_EXTENSIONS, read_text
from apimeter.errors import EmptyHeaderSetError, InputFileError


def harvest_header_identifiers(header_root: str | Path) -> set[str]:
    root = Path(header_root)
    identifiers: set[str] = set()
    found_header = False

    def unlistable(exc: OSError) -> None:
        if not isinstance(exc, (FileNotFoundError, NotADirectoryError)):
            raise InputFileError(f"cannot list header directory {exc.filename}: {exc}") from exc

    for dirpath, _dirnames, filenames in os.walk(root, onerror=unlistable):
        for fname in sorted(filenames):
            if Path(fname).suffix.lower() not in HEADER_EXTENSIONS:
                continue
            found_header = True
            path = os.path.join(dirpath, fname)
            try:
                text = read_text(path)
            except OSError as exc:
                raise InputFileError(f"cannot read header {path}: {exc}") from exc
            identifiers.update(C_IDENTIFIER.findall(text))
    if not found_header:
        raise EmptyHeaderSetError(f"no header files under {root}")
    return identifiers
