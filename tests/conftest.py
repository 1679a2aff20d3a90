import json
import os
from pathlib import Path

import pytest

import elfsynth
from apimeter.catalog import ApiCatalog, LibrarySpec, build_catalog, walk_tree
from apimeter.clientprep import ClientRecord
from apimeter.diagnostics import SILENT
from apimeter.scan import ScanOptions, scan_sources

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

GOLDEN_APIS = ["tk_open", "tk_close", "tk_put", "tk_get", "tk_delete", "tk_stat"]


def synth_golden_so(path: Path) -> Path:
    """The golden library's shared object: 6 APIs plus symbols that must be
    filtered out (internal export, local helper, data object)."""
    return elfsynth.write_shared_object(
        path,
        [elfsynth.function(n) for n in GOLDEN_APIS]
        + [
            elfsynth.function("tk_internal_bump"),
            elfsynth.local_function("tk_hash_mix"),
            elfsynth.data_object("tk_format_version"),
        ],
    )


@pytest.fixture(scope="session")
def golden_so(tmp_path_factory) -> Path:
    return synth_golden_so(tmp_path_factory.mktemp("golden_lib") / "libtinykv.so")


@pytest.fixture(scope="session")
def golden_spec(golden_so) -> LibrarySpec:
    return LibrarySpec(
        name="tinykv",
        shared_objects=(str(golden_so),),
        header_root=str(GOLDEN / "install" / "include"),
        source_roots=(str(GOLDEN / "libsrc"),),
        explicit_file_excludes=("tinykv_amalg.c",),
    )


@pytest.fixture(scope="session")
def golden_catalog(golden_spec) -> ApiCatalog:
    return build_catalog(golden_spec)


@pytest.fixture(scope="session")
def oracle() -> dict:
    return json.loads((GOLDEN / "oracle.json").read_text())


def make_catalog(names, library="lib") -> ApiCatalog:
    from apimeter.catalog import ApiSymbol

    return ApiCatalog(library=library, apis={n: ApiSymbol(name=n) for n in names})


def client_record(root, excluded_dirs=None, excluded_files=(), client_id="c") -> ClientRecord:
    """A record of the checkout at `root` with these exclusions (path -> rule, and paths),
    listed now as `prepare_client` lists it; build the tree first."""
    return ClientRecord(client_id, str(root), dict(excluded_dirs or {}), frozenset(excluded_files),
                        list(walk_tree(root, SILENT, client_id)))


def call_lines(source: str, api: str, loose: bool = False, paper_faithful: bool = False) -> list[int]:
    """Line of each call of `api` in one file's text, as the scanner's site listing reports it."""
    options = ScanOptions(loose_call_match=loose, paper_faithful=paper_faithful, collect_sites=True)
    _, sites = scan_sources([("f.c", source)], {api}, options)
    return [site.line for site in sites]


def refuse_open(monkeypatch, name: str) -> None:
    """os.open of `name` fails as on a file without read permission, which even root then cannot open."""
    real_open = os.open

    def refusing(path, *args, **kwargs):
        if os.path.basename(path) == name:
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", refusing)
