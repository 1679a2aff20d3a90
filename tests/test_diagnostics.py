import inspect
import io
import json
import os

import pytest

from apimeter import catalog, clientprep, coverage, reports, scan
from apimeter.clientprep import build_library_inventory
from apimeter.diagnostics import SILENT, Diagnostics
from conftest import GOLDEN, client_record, make_catalog, refuse_open


def test_streaming_sink_writes_each_event_and_keeps_none():
    stream = io.StringIO()
    diag = Diagnostics(stream)
    diag.emit("client_prepared", client="a")
    diag.emit("file_excluded", path="b/c.c", rule="explicit")
    assert diag.events == []
    assert [json.loads(line) for line in stream.getvalue().splitlines()] == [
        {"event": "client_prepared", "client": "a"},
        {"event": "file_excluded", "path": "b/c.c", "rule": "explicit"},
    ]


def test_silent_sink_drops_every_event_and_a_sink_without_stream_collects():
    SILENT.emit("client_prepared", client="a")
    assert (SILENT.events, SILENT.count("client_prepared")) == ([], 0)
    diag = Diagnostics()
    diag.emit("client_prepared", client="a")
    assert diag.events == [{"event": "client_prepared", "client": "a"}]


SINK_TAKERS = [
    catalog.walk_tree,
    catalog.build_catalog,
    clientprep.parse_submodule_manifest,
    clientprep.prepare_client,
    coverage.parse_tracefile,
    coverage._parse_lines,
    coverage.annotate_catalog_coverage,
    coverage.coverage_delta,
    reports.emit_reports,
    scan.blank_comments_and_strings,
    scan.scan_sources,
    scan.iter_client_sources,
    scan.scan_client,
]


@pytest.mark.parametrize("function", SINK_TAKERS, ids=lambda f: f.__name__)
def test_library_sink_defaults_to_silent(function):
    assert inspect.signature(function).parameters["diag"].default is SILENT


# Each case: inputs that make one library function emit, as (call, expected events). The call takes
# the sink as its only argument, or none. The inputs and events are those of the tests that first
# checked each event, where one exists.


def _walk(tmp_path, monkeypatch, **_):
    (tmp_path / "a").mkdir()
    (tmp_path / "b.c").write_text("int b;\n")
    real_scandir = os.scandir

    def scandir(path="."):  # listing `a` fails as without read permission; root could list it
        if os.path.abspath(path) == str(tmp_path / "a"):
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    error = f"[Errno 13] Permission denied: '{tmp_path / 'a'}/'"
    return (lambda *d: list(catalog.walk_tree(tmp_path, *d, client="c")),
            [{"event": "dir_unreadable", "client": "c", "path": "a", "error": error}])


def _catalog(golden_spec, **_):
    return (lambda *d: catalog.build_catalog(golden_spec, *d).apis,
            [{"event": "catalog_built", "library": "tinykv", "exported": 7, "filtered_out": 1, "apis": 6}])


def _manifest(**_):
    content = '[submodule "a"]\n\turl = x\n[submodule "b"]\n\tpath = deps/b\n\turl = y\n[submodule "c"]\n'
    return (lambda *d: clientprep.parse_submodule_manifest(content, *d),
            [{"event": "submodule_missing_path", "section_line": 1},
             {"event": "submodule_missing_path", "section_line": 6}])


def _prepare(tmp_path, golden_spec, **_):
    inv = build_library_inventory([str(GOLDEN / "libsrc")])
    (tmp_path / "up").mkdir()
    (tmp_path / "up" / ".gitmodules").write_text('[submodule "a"]\n\turl = x\n[submodule "b"]\n\tpath = ../out\n')
    alpha = GOLDEN / "clients" / "alpha"

    def run(*d):
        sink = {"diag": d[0]} if d else {}
        up = clientprep.prepare_client("up", tmp_path / "up", golden_spec, inv, **sink)
        with pytest.MonkeyPatch.context() as mp:
            refuse_open(mp, ".gitmodules")
            return up, clientprep.prepare_client("alpha", alpha, golden_spec, inv, **sink)

    error = f"[Errno 13] Permission denied: '{alpha / '.gitmodules'}'"
    return run, [
        {"event": "submodule_missing_path", "section_line": 1},
        {"event": "submodule_outside_root", "client": "up", "path": "../out"},
        {"event": "client_prepared", "client": "up", "excluded_dirs": 0, "excluded_files": 0},
        {"event": "file_unreadable", "client": "alpha", "path": ".gitmodules", "error": error},
        {"event": "client_prepared", "client": "alpha", "excluded_dirs": 0, "excluded_files": 0},
    ]


_UNKNOWN = "SF:a.c\nVERSION:9\nDA:1,1\nend_of_record"


def _parse(**_):
    return (lambda *d: coverage.parse_tracefile(_UNKNOWN, *d),
            [{"event": "unknown_directive", "directive": "VERSION", "line": 2}])


def _parse_lines(**_):
    def run(*d):
        records: dict = {}
        coverage._parse_lines(_UNKNOWN, 5, records, *d)
        return records

    return run, [{"event": "unknown_directive", "directive": "VERSION", "line": 6}]


def _annotate(**_):
    tf = coverage.parse_tracefile(
        "SF:a.c\nFN:1,2,f\nDA:1,1\nDA:2,1\nend_of_record\n"
        "SF:b.c\nFN:1,5,f\nDA:1,0\nDA:2,0\nDA:3,0\nDA:4,0\nend_of_record"
    )
    return (lambda *d: coverage.annotate_catalog_coverage(make_catalog(["f"]), tf, *d),
            [{"event": "ambiguous_function", "api": "f", "chosen": "b.c", "others": ["a.c"]}])


def _delta(golden_catalog, **_):
    base, aug = (coverage.parse_tracefile((GOLDEN / f"tracefile_{run}.info").read_text())
                 for run in ("library", "augmented"))
    delta = json.loads((GOLDEN / "expected_coverage" / "improvement_tinykv.json").read_text())
    return (lambda *d: coverage.coverage_delta(base, aug, golden_catalog, *d),
            [{"event": "coverage_delta", "extra_pct": delta["extra_total_coverage_pct"],
              "newly": len(delta["newly_covered_apis"]), "improved": len(delta["improved_apis"])}])


def _reports(tmp_path, **_):
    evaluation = {"c1": {mode: {"precision": 1.0, "recall": 0.5} for mode in ("distinct", "total")}}
    paths = [tmp_path / "report_eval.json", tmp_path / "report_eval.csv"]
    return (lambda *d: reports.emit_reports(tmp_path, *d, evaluation=evaluation),
            [{"event": "report_written", "path": str(p)} for p in paths])


_OPEN_COMMENT = "a();\n/* oops\nb();"


def _blank(**_):
    return (lambda *d: scan.blank_comments_and_strings(_OPEN_COMMENT, *d),
            [{"event": "unterminated_block_comment", "at_line": 2}])


def _sources(**_):
    return (lambda *d: scan.scan_sources([("f.c", _OPEN_COMMENT)], {"a", "b"}, scan.ScanOptions(), *d),
            [{"event": "unterminated_block_comment", "at_line": 2}])


def _client_tree(tmp_path, monkeypatch):
    """A checkout whose walk meets every scan-side skip, its record and options, and the skip events."""
    (tmp_path / "sub").mkdir()
    for rel, text in (("a.c", "a();\n/* oops\n"), ("big.c", "tk_open(0, 0);\n" * 10), ("skip.c", "b();\n"),
                      ("sub/x.c", "c();\n"), ("locked.c", "d();\n")):
        (tmp_path / rel).write_text(text)
    refuse_open(monkeypatch, "locked.c")
    rec = client_record(tmp_path, {"sub": "overlap"}, {"skip.c"})
    error = f"[Errno 13] Permission denied: '{tmp_path / 'locked.c'}'"
    return rec, scan.ScanOptions(file_cap_bytes=20), [
        {"event": "dir_excluded", "client": "c", "path": "sub"},
        {"event": "file_too_large", "client": "c", "path": "big.c"},
        {"event": "file_unreadable", "client": "c", "path": "locked.c", "error": error},
        {"event": "file_excluded", "client": "c", "path": "skip.c"},
    ]


def _iter_sources(tmp_path, monkeypatch, **_):
    rec, options, events = _client_tree(tmp_path, monkeypatch)
    return lambda *d: list(scan.iter_client_sources(rec, options, *d)), events


def _scan_client(tmp_path, monkeypatch, golden_catalog, **_):
    rec, options, events = _client_tree(tmp_path, monkeypatch)
    events.insert(1, {"event": "unterminated_block_comment", "at_line": 2})  # a.c is lexed as it is read
    return lambda *d: scan.scan_client(rec, golden_catalog, options, *d), events


CASES = {
    "walk_tree": _walk,
    "build_catalog": _catalog,
    "parse_submodule_manifest": _manifest,
    "prepare_client": _prepare,
    "parse_tracefile": _parse,
    "_parse_lines": _parse_lines,
    "annotate_catalog_coverage": _annotate,
    "coverage_delta": _delta,
    "emit_reports": _reports,
    "blank_comments_and_strings": _blank,
    "scan_sources": _sources,
    "iter_client_sources": _iter_sources,
    "scan_client": _scan_client,
}


def test_every_sink_taker_has_a_case():
    assert sorted(CASES) == sorted(f.__name__ for f in SINK_TAKERS)


@pytest.mark.parametrize("name", CASES)
def test_no_sink_is_silent_and_a_collecting_sink_gets_every_event(
    name, tmp_path, golden_spec, golden_catalog, monkeypatch
):
    call, expected = CASES[name](
        tmp_path=tmp_path, golden_spec=golden_spec, golden_catalog=golden_catalog, monkeypatch=monkeypatch
    )
    silent_result = call()
    assert SILENT.events == []
    diag = Diagnostics()
    assert call(diag) == silent_result
    assert diag.events == expected
