import pytest
from hypothesis import given
from hypothesis import strategies as st

from apimeter.catalog import LibrarySpec
from apimeter.clientprep import (
    LibraryInventory,
    build_library_inventory,
    parse_submodule_manifest,
    prep_report_dict,
    prepare_client,
    select_vendored,
)
from apimeter.diagnostics import Diagnostics
from apimeter.errors import MissingRootError
from conftest import GOLDEN


def test_manifest_single_submodule():
    content = '[submodule "zlib"]\n\tpath = third_party/zlib\n\turl = x\n'
    assert parse_submodule_manifest(content) == ["third_party/zlib"]


def test_manifest_empty():
    assert parse_submodule_manifest("") == []


def test_manifest_skips_section_without_path():
    content = (
        '[submodule "a"]\n\turl = x\n'
        '[submodule "b"]\n\tpath = deps/b\n\turl = y\n'
    )
    diag = Diagnostics()
    assert parse_submodule_manifest(content, diag) == ["deps/b"]
    assert diag.count("submodule_missing_path") == 1


def test_manifest_ignores_paths_outside_submodule_sections():
    content = '[core]\n\tpath = not/a/submodule\n[submodule "a"]\n\tpath = deps/a\n'
    assert parse_submodule_manifest(content) == ["deps/a"]


def test_inventory_collects_recursively(tmp_path):
    (tmp_path / "src" / "util").mkdir(parents=True)
    (tmp_path / "src" / "a.c").write_text("int a;")
    (tmp_path / "src" / "b.c").write_text("int b;")
    (tmp_path / "src" / "c.h").write_text("int c;")
    (tmp_path / "src" / "util" / "u.c").write_text("int u;")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "README").write_text("docs only")
    inv = build_library_inventory([str(tmp_path)])
    assert inv.dirs[f"{tmp_path}/src"] == frozenset({"a.c", "b.c", "c.h", "u.c"})
    assert inv.dirs[f"{tmp_path}/src/util"] == frozenset({"u.c"})
    assert str(tmp_path) in inv.dirs
    assert f"{tmp_path}/docs" not in inv.dirs


def _inv(*names: str) -> LibraryInventory:
    return LibraryInventory(dirs={"lib/src": frozenset(names)})


def test_overlap_below_threshold_not_excluded():
    client = {".": {"a.c", "b.c", "c.h", "extra.c"}, "v": {"a.c", "b.c", "c.h", "extra.c"}}
    assert select_vendored(client, _inv("a.c", "b.c", "c.h", "d.c")) == set()


def test_overlap_at_threshold_excluded():
    names = {"a.c", "b.c", "c.h", "d.c", "extra.c"}
    client = {".": set(), "v": names}
    assert select_vendored(client, _inv("a.c", "b.c", "c.h", "d.c")) == {"v"}


def test_small_library_dir_never_matches():
    client = {"v": {"a.c", "b.c"}}
    assert select_vendored(client, _inv("a.c", "b.c")) == set()


def test_qualifying_dir_subsumes_subdirectories():
    lib = _inv("a.c", "b.c", "c.c")
    client = {"v": {"a.c", "b.c", "c.c"}, "v/sub": {"a.c", "b.c", "c.c"}}
    assert select_vendored(client, lib) == {"v"}


def test_empty_client_dir_never_excluded():
    assert select_vendored({"v": set()}, _inv("a.c", "b.c", "c.c")) == set()


def _golden_spec_local(so="unused.so"):
    return LibrarySpec(
        name="tinykv",
        shared_objects=(so,),
        header_root=str(GOLDEN / "install" / "include"),
        source_roots=(str(GOLDEN / "libsrc"),),
        explicit_file_excludes=("tinykv_amalg.c",),
    )


def test_detect_on_golden_beta():
    inv = build_library_inventory([str(GOLDEN / "libsrc")])
    rec = prepare_client("beta", GOLDEN / "clients" / "beta", _golden_spec_local(), inv)
    assert rec.excluded_dirs == {"vendor/tinykv": "overlap"}


def test_detect_on_golden_gamma_75_pct_stays():
    inv = build_library_inventory([str(GOLDEN / "libsrc")])
    rec = prepare_client("gamma", GOLDEN / "clients" / "gamma", _golden_spec_local(), inv)
    assert rec.excluded_dirs == {}


def test_prepare_client_missing_root(tmp_path):
    inv = build_library_inventory([str(GOLDEN / "libsrc")])
    with pytest.raises(MissingRootError):
        prepare_client("ghost", tmp_path / "nope", _golden_spec_local(), inv)


def test_prepare_alpha_excludes_submodule():
    inv = build_library_inventory([str(GOLDEN / "libsrc")])
    rec = prepare_client("alpha", GOLDEN / "clients" / "alpha", _golden_spec_local(), inv)
    assert rec.excluded_dirs == {"third_party/tinykv": "submodule"}
    assert rec.excluded_files == frozenset()


def test_prepare_beta_excludes_vendored_copy():
    inv = build_library_inventory([str(GOLDEN / "libsrc")])
    rec = prepare_client("beta", GOLDEN / "clients" / "beta", _golden_spec_local(), inv)
    assert rec.excluded_dirs == {"vendor/tinykv": "overlap"}


def test_prepare_gamma_explicit_file_only():
    inv = build_library_inventory([str(GOLDEN / "libsrc")])
    rec = prepare_client("gamma", GOLDEN / "clients" / "gamma", _golden_spec_local(), inv)
    assert rec.excluded_dirs == {}
    assert rec.excluded_files == frozenset({"src/tinykv_amalg.c"})
    assert prep_report_dict(rec)["excluded_files"] == [{"path": "src/tinykv_amalg.c", "rule": "explicit"}]


@pytest.mark.parametrize("declared, excluded", [
    ("/", {}), ("//", {}), ("/abs/", {}),
    ("third_party/", {"third_party": "submodule"}), ("./vendor/lk/src", {"vendor/lk/src": "submodule"}),
])
def test_declared_submodule_path(tmp_path, declared, excluded):
    (tmp_path / ".gitmodules").write_text(f'[submodule "m"]\n\tpath = {declared}\n')
    diag = Diagnostics()
    rec = prepare_client("c", tmp_path, _golden_spec_local(), LibraryInventory(dirs={}), diag=diag)
    assert rec.excluded_dirs == excluded
    outside = [] if excluded else [{"event": "submodule_outside_root", "client": "c", "path": declared}]
    assert [e for e in diag.events if e["event"] == "submodule_outside_root"] == outside


def test_submodule_naming_an_explicit_file_keeps_both_rules(tmp_path):
    (tmp_path / "tinykv_amalg.c").write_text("int x;\n")
    (tmp_path / ".gitmodules").write_text('[submodule "m"]\n\tpath = tinykv_amalg.c\n')
    rec = prepare_client("c", tmp_path, _golden_spec_local(), LibraryInventory(dirs={}))
    report = prep_report_dict(rec)
    assert report["excluded_dirs"] == [{"path": "tinykv_amalg.c", "rule": "submodule"}]
    assert report["excluded_files"] == [{"path": "tinykv_amalg.c", "rule": "explicit"}]


def test_pristine_client_no_exclusions(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "app.c").write_text("int main(void) { return 0; }\n")
    inv = build_library_inventory([str(GOLDEN / "libsrc")])
    rec = prepare_client("clean", tmp_path, _golden_spec_local(), inv)
    assert rec.excluded_dirs == {}
    assert rec.excluded_files == frozenset()


def test_prepare_is_deterministic():
    inv = build_library_inventory([str(GOLDEN / "libsrc")])
    a = prepare_client("beta", GOLDEN / "clients" / "beta", _golden_spec_local(), inv)
    b = prepare_client("beta", GOLDEN / "clients" / "beta", _golden_spec_local(), inv)
    assert a == b


# --- properties ---------------------------------------------------------------

_names = st.sets(st.sampled_from([f"f{i}.c" for i in range(12)]), max_size=12)


@given(
    client=st.dictionaries(st.sampled_from(["a", "b", "a/x", "c"]), _names, max_size=4),
    lib=_names,
    t1=st.floats(min_value=0.05, max_value=1.0),
    t2=st.floats(min_value=0.05, max_value=1.0),
)
def test_threshold_monotonicity(client, lib, t1, t2):
    lo, hi = sorted([t1, t2])
    inv = LibraryInventory(dirs={"lib": frozenset(lib)})
    at_hi = select_vendored(client, inv, threshold=hi)
    at_lo = select_vendored(client, inv, threshold=lo)
    # raising the threshold never excludes more: every dir excluded at hi has
    # an ancestor (or itself) excluded at lo
    for d in at_hi:
        assert any(d == e or d.startswith(e + "/") or e == "." for e in at_lo)


@given(lib=_names)
def test_identical_dir_always_excluded_when_large_enough(lib):
    inv = LibraryInventory(dirs={"lib": frozenset(lib)})
    client = {"copy": set(lib)}
    excluded = select_vendored(client, inv, threshold=1.0)
    if len(lib) >= 3:
        assert excluded == {"copy"}
    else:
        assert excluded == set()


@given(
    client=st.dictionaries(st.sampled_from(["a", "b", "c"]), _names, max_size=3),
    lib=st.sets(st.sampled_from([f"f{i}.c" for i in range(12)]), max_size=2),
)
def test_min_lib_files_rule(client, lib):
    # library dirs with fewer than three files can never cause an exclusion
    inv = LibraryInventory(dirs={"lib": frozenset(lib)})
    assert select_vendored(client, inv) == set()
