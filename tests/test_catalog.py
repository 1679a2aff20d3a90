import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import elfsynth
from apimeter.catalog import (
    ApiCatalog,
    ApiSymbol,
    LibrarySpec,
    build_catalog,
    harvest_header_identifiers,
    load_catalog,
    read_text,
    save_catalog,
)
from apimeter.errors import EmptyCatalogError, EmptyHeaderSetError, InputFileError, SchemaVersionError


def test_harvest_tokenizes_declaration(tmp_path):
    (tmp_path / "kv.h").write_text("int mdb_env_create(MDB_env **env);\n")
    ids = harvest_header_identifiers(tmp_path)
    assert {"int", "mdb_env_create", "MDB_env", "env"} <= ids


def test_harvest_empty_directory(tmp_path):
    with pytest.raises(EmptyHeaderSetError):
        harvest_header_identifiers(tmp_path)


def test_harvest_sees_macro_bodies(tmp_path):
    (tmp_path / "kv.h").write_text("#define WRAP(h) tk_stat((h))\n")
    assert "tk_stat" in harvest_header_identifiers(tmp_path)


def test_harvest_is_token_based_not_substring(tmp_path):
    (tmp_path / "kv.h").write_text("int mdb_open(void);\n")
    ids = harvest_header_identifiers(tmp_path)
    assert "mdb_open" in ids
    assert "open" not in ids


def test_harvest_recurses_and_accepts_all_header_suffixes(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.h").write_text("int from_h;\n")
    (tmp_path / "sub" / "b.hpp").write_text("int from_hpp;\n")
    (tmp_path / "sub" / "c.hxx").write_text("int from_hxx;\n")
    (tmp_path / "sub" / "d.hh").write_text("int from_hh;\n")
    (tmp_path / "ignored.c").write_text("int from_c;\n")
    ids = harvest_header_identifiers(tmp_path)
    assert {"from_h", "from_hpp", "from_hxx", "from_hh"} <= ids
    assert "from_c" not in ids


def test_harvest_of_unreadable_header_names_it(tmp_path):
    (tmp_path / "a.h").write_text("int a;\n")
    (tmp_path / "b.h").symlink_to(tmp_path / "gone.h")
    with pytest.raises(InputFileError, match=f"cannot read header {tmp_path / 'b.h'}: .*No such file"):
        harvest_header_identifiers(tmp_path)


@pytest.mark.parametrize("listing", ["as_listed", "reversed"])
def test_harvest_names_the_same_header_whatever_the_listing_order(tmp_path, monkeypatch, listing):
    for rel in ("a/a.h", "b/b.h"):
        (tmp_path / rel).parent.mkdir()
        (tmp_path / rel).symlink_to(tmp_path / "gone.h")
    if listing == "reversed":
        real_scandir = os.scandir

        class ReversedScandir:
            """os.scandir, listing in reverse name order."""

            def __init__(self, path="."):
                with real_scandir(path) as entries:
                    self.entries = iter(sorted(entries, key=lambda e: e.name, reverse=True))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def __iter__(self):
                return self

            def __next__(self):
                return next(self.entries)

        monkeypatch.setattr(os, "scandir", ReversedScandir)
    with pytest.raises(InputFileError, match=f"cannot read header {tmp_path / 'a' / 'a.h'}: "):
        harvest_header_identifiers(tmp_path)


@pytest.mark.parametrize("reported", [-5, 5])
def test_read_text_reads_to_the_end_whatever_fstat_reported(tmp_path, monkeypatch, reported):
    # A file that grew or shrank between the fstat and the read is still read whole.
    path = tmp_path / "a.c"
    path.write_bytes(b"x" * 70000 + b"\xff")
    real_fstat = os.fstat

    def fstat(fd):
        info = list(real_fstat(fd))
        info[6] += reported
        return os.stat_result(info)

    monkeypatch.setattr(os, "fstat", fstat)
    assert read_text(str(path)) == "x" * 70000 + "\ufffd"
    assert read_text(str(path), 70001 + reported) == "x" * 70000 + "\ufffd"
    assert read_text(str(path), 70000 + reported) is None


def test_read_text_stops_reading_on_past_the_cap(tmp_path, monkeypatch):
    # A file that grew after the fstat is read on to its end, but for at most the cap and one byte more.
    path = tmp_path / "a.c"
    path.write_bytes(b"x" * 300)
    real_fstat = os.fstat

    def fstat(fd):
        info = list(real_fstat(fd))
        info[6] = 10
        return os.stat_result(info)

    monkeypatch.setattr(os, "fstat", fstat)
    assert read_text(str(path), 289) == "x" * 300
    assert read_text(str(path), 288) is None
    assert read_text(str(path)) == "x" * 300


def _spec(tmp_path, so_names, header_text, name="lib"):
    so = elfsynth.write_shared_object(
        tmp_path / f"{name}.so", [elfsynth.function(n) for n in so_names]
    )
    hdr_root = tmp_path / f"{name}_include"
    hdr_root.mkdir(exist_ok=True)
    (hdr_root / "api.h").write_text(header_text)
    return LibrarySpec(name=name, shared_objects=(str(so),), header_root=str(hdr_root))


def test_build_catalog_intersects(tmp_path):
    spec = _spec(tmp_path, ["f", "g", "internal_helper"], "void f(void);\nvoid g(void);\n")
    catalog = build_catalog(spec)
    assert catalog.names() == {"f", "g"}


def test_build_catalog_unions_shared_objects(tmp_path):
    so1 = elfsynth.write_shared_object(tmp_path / "a.so", [elfsynth.function("f")])
    so2 = elfsynth.write_shared_object(
        tmp_path / "b.so", [elfsynth.function("f"), elfsynth.function("g")]
    )
    hdr = tmp_path / "include"
    hdr.mkdir()
    (hdr / "api.h").write_text("void f(void);\nvoid g(void);\n")
    spec = LibrarySpec(name="lib", shared_objects=(str(so1), str(so2)), header_root=str(hdr))
    catalog = build_catalog(spec)
    assert catalog.names() == {"f", "g"}
    assert len(catalog.apis) == 2


def test_build_catalog_five_exported_four_declared(tmp_path):
    exported = ["fa", "fb", "fc", "fd", "fe"]
    headers = "void fa(void);\nvoid fb(void);\nvoid fc(void);\nvoid fd(void);\n"
    spec = _spec(tmp_path, exported, headers)
    assert len(build_catalog(spec).apis) == 4


def test_build_catalog_empty_intersection(tmp_path):
    spec = _spec(tmp_path, ["f"], "void g(void);\n")
    with pytest.raises(EmptyCatalogError):
        build_catalog(spec)


def test_catalog_rebuild_is_idempotent(tmp_path):
    spec = _spec(tmp_path, ["f", "g"], "void f(void);\nvoid g(void);\n")
    assert build_catalog(spec).names() == build_catalog(spec).names()


def test_catalog_round_trip_and_schema(tmp_path, golden_catalog):
    path = tmp_path / "catalog.json"
    save_catalog(golden_catalog, path)
    loaded = load_catalog(path)
    assert loaded.names() == golden_catalog.names()
    assert loaded.library == golden_catalog.library

    doc = json.loads(path.read_text())
    doc["schema_version"] = "2.0"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaVersionError):
        load_catalog(path)


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[: len(text) // 2],
        lambda text: "not json",
        lambda text: "",
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "apis"}),
        lambda text: json.dumps({**json.loads(text), "apis": [{"eloc": 3}]}),
        lambda text: json.dumps({**json.loads(text), "apis": ["tk_open"]}),
        lambda text: json.dumps([json.loads(text)]),
    ],
    ids=["truncated", "not_json", "empty", "no_apis", "api_without_name", "api_not_object", "list"],
)
def test_load_catalog_damaged_file_names_it(tmp_path, golden_catalog, damage):
    path = tmp_path / "catalog.json"
    save_catalog(golden_catalog, path)
    path.write_text(damage(path.read_text()))
    with pytest.raises(InputFileError, match=f"cannot load catalog {path}"):
        load_catalog(path)


@given(
    entries=st.dictionaries(
        st.from_regex(r"[a-z_][a-z0-9_]{0,10}", fullmatch=True),
        st.one_of(
            st.none(),
            st.tuples(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500)),
        ),
        max_size=10,
    )
)
def test_catalog_round_trip_property(tmp_path_factory, entries):
    apis = {}
    for name, cov in entries.items():
        if cov is None:
            apis[name] = ApiSymbol(name=name)
        else:
            eloc, covered = cov
            apis[name] = ApiSymbol(
                name=name,
                defining_file="src/x.c",
                entry_start=1,
                entry_end=1 + eloc,
                eloc=eloc,
                covered_lines=min(covered, eloc),
            )
    catalog = ApiCatalog(library="lib", apis=apis, created_at="t", provenance={"k": "v"})
    path = tmp_path_factory.mktemp("rt") / "catalog.json"
    save_catalog(catalog, path)
    assert load_catalog(path) == catalog


def test_golden_catalog_filters_internal_symbols(golden_catalog):
    assert golden_catalog.names() == {
        "tk_open",
        "tk_close",
        "tk_put",
        "tk_get",
        "tk_delete",
        "tk_stat",
    }
    # exported but not in headers, local, and data symbols all dropped
    assert "tk_internal_bump" not in golden_catalog.names()
    assert "tk_hash_mix" not in golden_catalog.names()
    assert "tk_format_version" not in golden_catalog.names()
