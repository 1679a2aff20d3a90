"""The header harvest against the frozen reference.

Hypothesis builds a header tree on disk, and `harvest_header_identifiers`
must give the identifier set, or the error class, that
`reference_catalog` gives. The trees hold nested and sibling directories,
empty subdirectories, a symlinked directory leading out of the tree, a link
cycle `loop -> ..`, a directory named `x.h`, a `.h` dotfile, `.H` and
`.Hpp` suffixes, non-header files, undecodable bytes and a broken header
link; the root is named absolutely, relatively and as `.`. Fixed cases
cover a tree with no headers, a missing root and a root that is a file.
"""

import contextlib
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_catalog as ref
from apimeter import catalog
from apimeter.errors import ApimeterError, EmptyHeaderSetError

_DIRS = ["", "a", "a/b", "a/b/c", "b", "x.h", "deep/er/still"]
_NAMES = ["api.h", "more.hh", "c.hpp", "d.hxx", "UP.H", "mixed.Hpp", ".h", "impl.c", "README", "h.h.txt", "foo.",
          "Makefile"]
_TEXTS = [b"int lk_open(void);\n", b"#define LK_MAX 4\nvoid lk_close(int fd); /* lk_note */\n", b"",
          b"\xff\xfe lk_bytes(\xc3;\n", b"typedef struct lk lk_t;\n"]


@st.composite
def trees(draw):
    return {
        "files": draw(st.dictionaries(st.tuples(st.sampled_from(_DIRS), st.sampled_from(_NAMES)),
                                      st.sampled_from(_TEXTS), max_size=10)),
        "empty": draw(st.sets(st.sampled_from(["empty", "a/none", "z/deep/er"]), max_size=2)),
        "symlink_dir": draw(st.sampled_from([None, "", "a", "x.h"])),
        "loop": draw(st.sampled_from([None, "", "a/b"])),
        "broken_link": draw(st.sampled_from([None, "gone.h", "a/gone.hpp", "b/gone.txt"])),
        "root": draw(st.sampled_from(["absolute", "relative", "dot"])),
    }


def _materialise(tree: dict, base: Path) -> Path:
    root = base / "root"
    root.mkdir()
    for (rel, name), data in tree["files"].items():
        (root / rel).mkdir(parents=True, exist_ok=True)
        (root / rel / name).write_bytes(data)
    for rel in tree["empty"]:
        (root / rel).mkdir(parents=True, exist_ok=True)
    outside = base / "outside"
    outside.mkdir()
    (outside / "secret.h").write_text("int lk_outside_only;\n")
    for key, name, target in (("symlink_dir", "linked", outside), ("loop", "loop", Path(".."))):
        if tree[key] is not None:
            (root / tree[key]).mkdir(parents=True, exist_ok=True)
            (root / tree[key] / name).symlink_to(target, target_is_directory=True)
    if tree["broken_link"] is not None:
        link = root / tree["broken_link"]
        link.parent.mkdir(parents=True, exist_ok=True)
        link.symlink_to(base / "no-such-target")
    return root


@contextlib.contextmanager
def _cwd(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _outcome(harvest, root) -> set[str] | type:
    try:
        return harvest(root)
    except ApimeterError as exc:
        return type(exc)


def _same_outcome(root, cwd: Path) -> set[str] | type:
    with _cwd(cwd):
        want = _outcome(ref.harvest_header_identifiers, root)
        assert _outcome(catalog.harvest_header_identifiers, root) == want
    return want


@settings(max_examples=150, deadline=None)
@given(tree=trees())
def test_harvest_matches_reference(tree):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        root = _materialise(tree, base)
        named, cwd = {"absolute": (str(root), base), "relative": ("root", base), "dot": (".", root)}[tree["root"]]
        got = _same_outcome(named, cwd)
        if isinstance(got, set):
            assert "lk_outside_only" not in got


@pytest.mark.parametrize("case", ["no_headers", "empty", "missing", "file", "header_file", "dangling_root",
                                  "linked_root", "trailing_slash"])
def test_harvest_root_cases_match_reference(tmp_path, case):
    root = tmp_path / "root"
    if case in ("no_headers", "empty", "linked_root", "trailing_slash"):
        root.mkdir()
    if case in ("no_headers", "linked_root", "trailing_slash"):
        (root / "impl.c").write_text("int lk_open(void);\n")
        (root / "sub").mkdir()
        (root / "sub" / "README").write_text("lk_close\n")
    if case in ("linked_root", "trailing_slash"):
        (root / "sub" / "api.h").write_text("int lk_open(void);\n")
    if case == "file":
        root.write_text("int lk_open(void);\n")
    if case == "header_file":
        root = tmp_path / "only.h"
        root.write_text("int lk_open(void);\n")
    if case == "dangling_root":
        root.symlink_to(tmp_path / "nowhere")
    if case == "linked_root":
        (tmp_path / "link").symlink_to(root, target_is_directory=True)
        root = tmp_path / "link"
    named = f"{root}/" if case == "trailing_slash" else root
    want = {"int", "lk_open", "void"} if case in ("linked_root", "trailing_slash") else EmptyHeaderSetError
    assert _same_outcome(named, tmp_path) == want
