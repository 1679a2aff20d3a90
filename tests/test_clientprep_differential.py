"""Client preparation and the source walk against the frozen reference.

Hypothesis builds a library tree and a client tree on disk, then every step
the CLI runs is compared with `reference_clientprep`: the library inventory,
each `ClientRecord` with its rules and events, the `(relative path, text)`
sequence `iter_client_sources` yields from a prepared record, and the full
event list of preparing and scanning one
client, order included. The trees hold `.gitmodules` submodules (some
pointing outside the root), vendored copies nested in one another at, just
above and just below the overlap threshold, explicitly excluded files inside
excluded directories, empty directories and directories of non-source files,
uppercase, dotfile and trailing-dot names, a symlinked directory and a
broken file symlink. Fixed cases check the file read itself: a file at the
size cap and one byte over, an empty file, invalid UTF-8, a directory listed
as a file, a file over the cap that cannot be opened, and a file without
read permission.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_clientprep as ref
from apimeter import clientprep, scan
from apimeter.catalog import LibrarySpec
from apimeter.clientprep import ClientRecord, LibraryInventory
from apimeter.diagnostics import Diagnostics
from conftest import client_record, refuse_open

EXPLICIT = "amalg.c"
APIS = ("lk_open", "lk_close")

# Library directories and their files; sizes 2..6 straddle min_lib_files.
_LIB_NAMES = [f"lk{i}.c" for i in range(8)] + ["lk.h", "lk_int.H", "Makefile", "NOTES"]
_LIB_DIRS = ["", "src", "src/core", "src/util", "include", "docs"]
_CLIENT_DIRS = ["", "src", "src/sub", "deps", "deps/x", "vendor", "vendor/lk", "vendor/lk/src", "third_party",
                "docs", "empty"]
_CLIENT_NAMES = ["main.c", "app.C", "util.H", "x.cpp", "y.cc", "z.cxx", ".c", "foo.", "..c", "README", "notes.txt",
                 "data.bin", EXPLICIT, "lk0.c", "lk1.c", "lk.h"]
_TEXTS = ["int x;\n", "void f(void) { lk_open(0); }\n", "/* open\n lk_close(1);", "lk_open (1); // c\n",
          "const char *s = \"lk_close(2)\";\n", ""]
_SUBMODULES = ["deps/x", "third_party/", "./vendor/lk/src", "../outside", "/abs", "/", "a/../b", "missing/dir",
               "src/sub"]


@st.composite
def trees(draw):
    lib = draw(st.dictionaries(st.sampled_from(_LIB_DIRS), st.sets(st.sampled_from(_LIB_NAMES), max_size=6),
                               min_size=1, max_size=5))
    files = draw(st.dictionaries(
        st.tuples(st.sampled_from(_CLIENT_DIRS), st.sampled_from(_CLIENT_NAMES)), st.sampled_from(_TEXTS),
        max_size=12))
    # Vendored copies: a library directory's names, one dropped or not, plus
    # 0-2 client-only names, so the overlap lands at, above or below 0.8.
    copies = draw(st.lists(st.tuples(st.sampled_from(_CLIENT_DIRS), st.sampled_from(sorted(lib)),
                                     st.integers(0, 1), st.integers(0, 2)), max_size=3))
    for target, lib_dir, drop, extras in copies:
        for name in sorted(lib[lib_dir])[drop:]:
            files[(target, name)] = "int v;\n"
        for i in range(extras):
            files[(target, f"own{i}.c")] = "lk_open(3);\n"
    return {
        "lib": lib,
        "files": files,
        "empty": draw(st.sets(st.sampled_from(["empty", "src/none", "docs/deep/er"]), max_size=2)),
        "submodules": draw(st.lists(st.sampled_from(_SUBMODULES), max_size=3)),
        "symlink_dir": draw(st.sampled_from([None, "", "src", "vendor"])),
        "broken_link": draw(st.sampled_from([None, "dangling.c", "src/gone.h"])),
    }


def _materialise(tree: dict, base: Path) -> tuple[Path, Path]:
    lib_root, client = base / "lib", base / "client"
    for rel, names in tree["lib"].items():
        (lib_root / rel).mkdir(parents=True, exist_ok=True)
        for name in names:
            (lib_root / rel / name).write_text("int l;\n")
    client.mkdir()
    for (rel, name), text in tree["files"].items():
        (client / rel).mkdir(parents=True, exist_ok=True)
        (client / rel / name).write_text(text)
    for rel in tree["empty"]:
        (client / rel).mkdir(parents=True, exist_ok=True)
    if tree["submodules"]:
        (client / ".gitmodules").write_text(
            "".join(f'[submodule "m{i}"]\n\tpath = {p}\n' for i, p in enumerate(tree["submodules"])))
    if tree["symlink_dir"] is not None:
        (client / tree["symlink_dir"]).mkdir(parents=True, exist_ok=True)
        (client / tree["symlink_dir"] / "linked").symlink_to(lib_root, target_is_directory=True)
    if tree["broken_link"] is not None:
        link = client / tree["broken_link"]
        link.parent.mkdir(parents=True, exist_ok=True)
        link.symlink_to(base / "no-such-target")
    return lib_root, client


def _spec(lib_root: Path) -> LibrarySpec:
    return LibrarySpec(name="lk", shared_objects=("unused.so",), header_root=str(lib_root),
                       source_roots=(str(lib_root),), explicit_file_excludes=(EXPLICIT,))


def _prepare(mod, client, spec, inv, threshold, min_files):
    diag = Diagnostics()
    rec = mod.prepare_client("c1", client, spec, inv, threshold, min_files, diag)
    return rec, diag.events


def _walk(iter_sources, rec, options):
    diag = Diagnostics()
    return list(iter_sources(rec, options, diag)), diag.events


def _scan(mod_prepare, iter_sources, client, spec, inv, threshold, min_files, options):
    """Every event of preparing then scanning one client, as the CLI does."""
    diag = Diagnostics()
    rec = mod_prepare("c1", client, spec, inv, threshold, min_files, diag)
    uses, sites = scan.scan_sources(iter_sources(rec, options, diag), frozenset(APIS), options, diag)
    return uses, sites, diag.events


@settings(max_examples=150, deadline=None)
@given(
    tree=trees(),
    threshold=st.sampled_from([0.8, 0.75, 0.5, 1.0]),
    min_files=st.sampled_from([1, 3, 4]),
    cap=st.sampled_from([scan.DEFAULT_FILE_CAP_BYTES, 10]),
)
def test_prepare_and_walk_match_reference(tree, threshold, min_files, cap):
    with tempfile.TemporaryDirectory() as tmp:
        lib_root, client = _materialise(tree, Path(tmp))
        spec = _spec(lib_root)
        options = scan.ScanOptions(file_cap_bytes=cap, collect_sites=True)

        want_inv = ref.build_library_inventory([str(lib_root)])
        got_inv = clientprep.build_library_inventory([str(lib_root)])
        assert got_inv.dirs == want_inv.dirs

        want_rec, want_events = _prepare(ref, client, spec, want_inv, threshold, min_files)
        got_rec, got_events = _prepare(clientprep, client, spec, got_inv, threshold, min_files)
        assert got_rec._replace(listing=None) == want_rec  # the reference keeps no listing
        assert got_events == want_events

        want_walk = _walk(ref.iter_client_sources, want_rec, options)
        assert _walk(scan.iter_client_sources, got_rec, options) == want_walk

        want = _scan(ref.prepare_client, ref.iter_client_sources, client, spec, want_inv, threshold, min_files,
                     options)
        got = _scan(clientprep.prepare_client, scan.iter_client_sources, client, spec, got_inv, threshold,
                    min_files, options)
        assert got == want


@pytest.mark.parametrize("relative_root", [False, True])
def test_broken_symlink_error_text_matches_reference(tmp_path, monkeypatch, relative_root):
    (tmp_path / "ok.c").write_text("int x;\n")
    (tmp_path / "gone.c").symlink_to(tmp_path / "nowhere")
    os.mkdir(tmp_path / "sub")
    (tmp_path / "sub" / "gone.h").symlink_to("nowhere")
    if relative_root:
        monkeypatch.chdir(tmp_path)
    rec = client_record("." if relative_root else tmp_path, client_id="c1")
    want = _walk(ref.iter_client_sources, rec, scan.ScanOptions())
    assert [e["event"] for e in want[1]] == ["file_unreadable", "file_unreadable"]
    assert _walk(scan.iter_client_sources, rec, scan.ScanOptions()) == want


def _listed_as_files(monkeypatch, rec: ClientRecord) -> None:
    """Make the reference walk see the record's hand-built listing, as the rewrite does."""
    walk = [(path.rstrip("/") or ".", list(dirs), list(files)) for _, dirs, files, path in rec.listing]
    monkeypatch.setattr(ref, "os", type("os", (), {"walk": staticmethod(lambda root: iter(walk))}))


CAP = 10


@pytest.mark.parametrize("case, events", [
    ("at_cap", []), ("over_cap", ["file_too_large"]), ("empty", []), ("invalid_utf8", []),
    ("directory", ["file_unreadable"]), ("directory_over_cap", ["file_too_large"]),
    ("over_cap_unopenable", ["file_too_large"]),
])
def test_read_path_matches_reference(tmp_path, monkeypatch, case, events):
    files = {"at_cap": b"x" * CAP, "over_cap": b"x" * (CAP + 1), "empty": b"",
             "invalid_utf8": b"\xff(\xc3\n\xe2\x82", "over_cap_unopenable": b"lk_open(1);\n"}
    if case in files:
        (tmp_path / f"{case}.c").write_bytes(files[case])
    (tmp_path / "ok.c").write_text("f(0);\n")
    cap = scan.DEFAULT_FILE_CAP_BYTES if case == "directory" else CAP
    rec = client_record(tmp_path, client_id="c1")
    if case.startswith("directory"):
        (tmp_path / "x.c").mkdir()
        rec = rec._replace(listing=[(".", [], ["ok.c", "x.c"], f"{tmp_path}/")])
        _listed_as_files(monkeypatch, rec)
    if case == "over_cap_unopenable":
        refuse_open(monkeypatch, f"{case}.c")
    options = scan.ScanOptions(file_cap_bytes=cap)
    want = _walk(ref.iter_client_sources, rec, options)
    assert [e["event"] for e in want[1]] == events
    assert _walk(scan.iter_client_sources, rec, options) == want


@pytest.mark.skipif(os.geteuid() == 0, reason="root opens a file whatever its permission bits")
@pytest.mark.parametrize("size, event", [(CAP, "file_unreadable"), (CAP + 1, "file_too_large")])
def test_permission_denied_matches_reference(tmp_path, size, event):
    locked = tmp_path / "locked.c"
    locked.write_bytes(b"x" * size)
    locked.chmod(0)
    rec = client_record(tmp_path, client_id="c1")
    options = scan.ScanOptions(file_cap_bytes=CAP)
    want = _walk(ref.iter_client_sources, rec, options)
    assert [e["event"] for e in want[1]] == [event]
    assert _walk(scan.iter_client_sources, rec, options) == want


_names = st.sets(st.sampled_from([f"f{i}.c" for i in range(10)]), max_size=10)


@settings(max_examples=300, deadline=None)
@given(
    client=st.dictionaries(st.sampled_from([".", "a", "b", "a/x", "a/x/y", "b/z", "c"]), _names, max_size=7),
    lib=st.dictionaries(st.sampled_from([f"lib/d{i}" for i in range(8)]), _names, max_size=8),
    threshold=st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.6, 2 / 3, 0.7, 0.75, 0.8, 0.9, 1.0, 1.5]),
                        st.floats(min_value=0.0, max_value=1.0)),
    min_files=st.integers(0, 5),
)
def test_posting_list_selection_equals_brute_force(client, lib, threshold, min_files):
    inv = LibraryInventory(dirs={k: frozenset(v) for k, v in lib.items()})
    want = ref.select_vendored(client, inv, threshold, min_files)
    assert clientprep.select_vendored(client, inv, threshold, min_files) == want
