import contextlib
import errno
import json
import os
import re
import signal
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apimeter import cli
from apimeter.cli import load_dependency_db, main
import apimeter
from apimeter.errors import DependencyDbError, InputFileError
from conftest import GOLDEN, synth_golden_so


@pytest.fixture()
def workspace(tmp_path):
    """Config + output dir wired to the committed golden corpus."""
    so = synth_golden_so(tmp_path / "libtinykv.so")
    out = tmp_path / "out"
    config = {
        "schema_version": "1.0",
        "libraries": [
            {
                "name": "tinykv",
                "shared_objects": [str(so)],
                "header_root": str(GOLDEN / "install" / "include"),
                "source_roots": [str(GOLDEN / "libsrc")],
                "explicit_file_excludes": ["tinykv_amalg.c"],
            }
        ],
        "dependency_db": str(GOLDEN / "depdb.json"),
        "clients_root": str(GOLDEN / "clients"),
        "output_dir": str(out),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path, out


def test_catalog_command(workspace, capsys):
    cfg, out = workspace
    assert main(["catalog", "--config", str(cfg)]) == 0
    doc = json.loads((out / "catalog_tinykv.json").read_text())
    assert [a["name"] for a in doc["apis"]] == [
        "tk_close",
        "tk_delete",
        "tk_get",
        "tk_open",
        "tk_put",
        "tk_stat",
    ]
    assert "6 APIs" in capsys.readouterr().out


def test_catalog_rerun_identical_modulo_timestamp(workspace):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    first = json.loads((out / "catalog_tinykv.json").read_text())
    main(["catalog", "--config", str(cfg)])
    second = json.loads((out / "catalog_tinykv.json").read_text())
    first.pop("created_at")
    second.pop("created_at")
    assert first == second


def test_catalog_of_undersized_symbol_entries_names_the_object(workspace, capsys):
    # The .dynsym moved to end of file with 1-byte entries: its last records
    # would be read past the end.
    cfg, out = workspace
    so = Path(json.loads(cfg.read_text())["libraries"][0]["shared_objects"][0])
    data = bytearray(so.read_bytes())
    dynsym = int.from_bytes(data[0x28:0x30], "little") + 3 * 64
    size = int.from_bytes(data[dynsym + 32 : dynsym + 40], "little")
    data[dynsym + 24 : dynsym + 32] = (len(data) - size).to_bytes(8, "little")
    data[dynsym + 56 : dynsym + 64] = (1).to_bytes(8, "little")
    so.write_bytes(bytes(data))
    assert main(["catalog", "--config", str(cfg)]) == 1
    assert f"error: {so}: symbol table entry size 1 is below 24 bytes" in capsys.readouterr().err
    assert not (out / "catalog_tinykv.json").exists()


def test_catalog_of_unreadable_header_names_it(workspace, tmp_path, capsys):
    cfg, out = workspace
    headers = tmp_path / "include"
    headers.mkdir()
    (headers / "tinykv.h").write_bytes((GOLDEN / "install" / "include" / "tinykv.h").read_bytes())
    (headers / "dangling.h").symlink_to(tmp_path / "nowhere.h")
    doc = json.loads(cfg.read_text())
    doc["libraries"][0]["header_root"] = str(headers)
    cfg.write_text(json.dumps(doc))
    assert main(["catalog", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert '"error": "InputFileError"' in err
    assert f"error: cannot read header {headers / 'dangling.h'}: [Errno 2] No such file or directory" in err
    assert not (out / "catalog_tinykv.json").exists()


def test_catalog_missing_shared_object(tmp_path, capsys):
    config = {
        "libraries": [
            {
                "name": "ghost",
                "shared_objects": [str(tmp_path / "missing.so")],
                "header_root": str(GOLDEN / "install" / "include"),
            }
        ],
        "output_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert main(["catalog", "--config", str(cfg)]) == 1
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_catalog_shared_object_not_a_regular_file(tmp_path, kind):
    so = tmp_path / "libghost.so"
    so.mkdir() if kind == "directory" else os.mkfifo(so)
    config = {
        "libraries": [{"name": "ghost", "shared_objects": [str(so)], "header_root": str(GOLDEN / "install" / "include")}],
        "output_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    # In a child with a timeout: a stage that opened the FIFO would block.
    src = str(Path(apimeter.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "apimeter", "catalog", "--config", str(cfg)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    mode = stat.filemode(so.stat().st_mode)
    assert f"error: ghost: shared object is not a regular file (mode {mode}): {so}\n" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_catalog_shared_object_path_with_nul_byte(tmp_path, capsys):
    config = {
        "libraries": [{"name": "ghost", "shared_objects": ["lib\0.so"], "header_root": str(GOLDEN / "install" / "include")}],
        "output_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert main(["catalog", "--config", str(cfg)]) == 1
    so = tmp_path / "lib\0.so"  # relative paths resolve against the config's directory
    assert f"error: ghost: cannot stat shared object {so}: embedded null byte\n" in capsys.readouterr().err


def test_scan_requires_catalog(workspace, capsys):
    cfg, out = workspace
    assert main(["scan", "--config", str(cfg), "--library", "tinykv"]) == 1
    assert f"missing {out / 'catalog_tinykv.json'} (run `catalog` first)" in capsys.readouterr().err


def test_scan_writes_per_client_and_corpus(workspace, oracle):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    assert main(["scan", "--config", str(cfg), "--library", "tinykv"]) == 0
    for client in ("alpha", "beta", "gamma"):
        usage = json.loads((out / f"usage_tinykv_{client}.json").read_text())
        assert usage["uses"] == oracle["clients"][client]["uses"]
        prep = json.loads((out / f"prep_tinykv_{client}.json").read_text())
        expected_dirs = oracle["clients"][client]["excluded_dirs"]
        assert {e["path"]: e["rule"] for e in prep["excluded_dirs"]} == expected_dirs
    corpus = json.loads((out / "usage_tinykv_corpus.json").read_text())
    assert corpus["api_client_counts"] == oracle["corpus"]["api_client_counts"]
    assert corpus["api_total_uses"] == oracle["corpus"]["api_total_uses"]
    assert corpus["skipped_clients"] == []


def test_scan_records_missing_clients_as_skips(workspace, tmp_path):
    cfg, out = workspace
    db = tmp_path / "db.json"
    entries = json.loads((GOLDEN / "depdb.json").read_text())
    entries.append({"client": "phantom", "source": "x", "library": "tinykv"})
    db.write_text(json.dumps(entries))
    doc = json.loads(cfg.read_text())
    doc["dependency_db"] = str(db)
    cfg.write_text(json.dumps(doc))

    main(["catalog", "--config", str(cfg)])
    assert main(["scan", "--config", str(cfg), "--library", "tinykv"]) == 0
    corpus = json.loads((out / "usage_tinykv_corpus.json").read_text())
    assert corpus["skipped_clients"] == ["phantom"]
    assert len(corpus["clients"]) == 3


def test_scan_parallel_jobs_match_serial(workspace):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    main(["scan", "--config", str(cfg), "--library", "tinykv"])
    serial = (out / "usage_tinykv_corpus.json").read_text()
    main(["scan", "--config", str(cfg), "--library", "tinykv", "--jobs", "2"])
    assert (out / "usage_tinykv_corpus.json").read_text() == serial


def test_scan_diagnostics_reach_stderr_same_for_jobs(workspace, capsys):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    capsys.readouterr()
    main(["scan", "--config", str(cfg), "--library", "tinykv"])
    serial = capsys.readouterr().err
    events = [json.loads(line)["event"] for line in serial.splitlines()]
    assert events.count("client_prepared") == 3
    assert events.count("dir_excluded") == 2
    assert events.count("file_excluded") == 1
    main(["scan", "--config", str(cfg), "--library", "tinykv", "--jobs", "2"])
    assert capsys.readouterr().err == serial


def test_scan_reports_unreadable_dir_same_for_jobs(workspace, capsys, monkeypatch):
    # Root can list a chmod 000 directory, so listing one is made to fail;
    # `--jobs` workers are forked, so they inherit the patched os.scandir.
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    real_scandir = os.scandir

    def scandir(path="."):
        if os.fspath(path).rstrip("/").endswith("clients/gamma/src"):
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    capsys.readouterr()
    main(["scan", "--config", str(cfg), "--library", "tinykv"])
    serial = capsys.readouterr().err
    events = [json.loads(line) for line in serial.splitlines()]
    unreadable = [e for e in events if e["event"] == "dir_unreadable"]
    assert [(e["client"], e["path"]) for e in unreadable] == [("gamma", "src")]
    assert "Permission denied" in unreadable[0]["error"]
    # The unlisted directory's explicit exclude is neither found nor reported.
    assert not any(e["event"] == "file_excluded" for e in events)
    main(["scan", "--config", str(cfg), "--library", "tinykv", "--jobs", "2"])
    assert capsys.readouterr().err == serial


@pytest.mark.parametrize("flags", [["--sites", "--loose-call-match"], ["--sites", "--paper-faithful"]],
                         ids=["loose", "paper_faithful"])
def test_scan_jobs_parity_sites_loose(workspace, capsys, flags):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    argv = ["scan", "--config", str(cfg), "--library", "tinykv", *flags]

    def run(extra: list[str]) -> tuple[dict[str, bytes], str]:
        capsys.readouterr()
        assert main(argv + extra) == 0
        artifacts = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        return artifacts, capsys.readouterr().err

    serial = run([])
    assert any(name.endswith(".sites.txt") for name in serial[0])
    assert run(["--jobs", "2"]) == serial


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_scan_rejects_non_positive_jobs(workspace, capsys, jobs):
    cfg, _ = workspace
    assert main(["scan", "--config", str(cfg), "--library", "tinykv", "--jobs", jobs]) == 1
    assert f"--jobs must be >= 1: {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("cap", [0, -5, 1.5, "16M", True])
def test_config_rejects_bad_file_cap(workspace, capsys, cap):
    cfg, _ = workspace
    doc = json.loads(cfg.read_text())
    doc["thresholds"] = {"file_cap_bytes": cap}
    cfg.write_text(json.dumps(doc))
    assert main(["scan", "--config", str(cfg), "--library", "tinykv"]) == 1
    assert f"file_cap_bytes must be a positive integer: {cap!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"thresholds": {"overlap": "0.5"}},
        {"thresholds": {"overlap": True}},
        {"thresholds": {"min_lib_files": "3"}},
        {"thresholds": {"min_lib_files": True}},
        {"thresholds": ["overlap", 0.5]},
        [{"libraries": []}],
    ],
    ids=["overlap_str", "overlap_bool", "min_lib_files_str", "min_lib_files_bool", "thresholds_list", "list"],
)
def test_config_rejects_mistyped_values(tmp_path, capsys, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main(["catalog", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"config {cfg}" in err
    assert "ConfigError" in err


def _lib(doc: dict) -> dict:
    return doc["libraries"][0]


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: _lib(d).update(explicit_file_excludes="tinykv_amalg.c"), "libraries[0].explicit_file_excludes"),
        (lambda d: _lib(d).update(source_root=_lib(d).pop("source_roots")), "libraries[0].source_root"),
        (lambda d: _lib(d).update(shared_objects=_lib(d)["shared_objects"][0]), "libraries[0].shared_objects"),
        (lambda d: d.update(output_dir=None), "output_dir"),
        # Relative, so that no one-character root resolves to `/`.
        (lambda d: _lib(d).update(source_roots="libsrc"), "libraries[0].source_roots"),
        (lambda d: d.update(libraries="x"), "libraries"),
        (lambda d: _lib(d).update(name=5), "libraries[0].name"),
        (lambda d: _lib(d).update(explicit_file_excludes=["tinykv_amalg.c", 5]), "libraries[0].explicit_file_excludes"),
        (lambda d: d.update(thresholds={"overlap_ratio": 0.5}), "thresholds.overlap_ratio"),
    ],
    ids=["excludes_str", "source_root_typo", "shared_objects_str", "output_dir_null", "source_roots_str",
         "libraries_str", "name_int", "excludes_item_int", "thresholds_unknown"],
)
def test_config_rejects_wrong_unknown_fields(workspace, edit, field):
    cfg, out = workspace
    doc = json.loads(cfg.read_text())
    edit(doc)
    cfg.write_text(json.dumps(doc))
    src = str(Path(apimeter.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "apimeter", "catalog", "--config", str(cfg)],
        env=env, cwd=cfg.parent, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "ConfigError" in proc.stderr
    assert f"error: config {cfg}: {field}" in proc.stderr
    assert not out.exists() or not any(out.rglob("*"))


def test_readme_config_example_and_field_reference_match_the_schema(tmp_path):
    from apimeter.cli import FIELDS, load_config

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    cfg = tmp_path / "run.json"
    cfg.write_text(example)
    config = load_config(cfg)
    doc = json.loads(example)
    lib = doc["libraries"][0]
    [spec] = config.library_specs
    assert spec.name == lib["name"]
    assert spec.shared_objects == tuple(str(tmp_path / p) for p in lib["shared_objects"])
    assert spec.explicit_file_excludes == tuple(lib["explicit_file_excludes"])
    assert config.output_dir == str(tmp_path / doc["output_dir"])
    assert config.dependency_db == str(tmp_path / doc["dependency_db"])
    assert config.overlap_threshold == doc["thresholds"]["overlap"]
    assert config.file_cap_bytes == doc["thresholds"]["file_cap_bytes"]
    # The field reference below the example lists every config key the schema has, and no other.
    reference = re.search(r"^Config fields .*?\n\n(.*?)\n\n", readme, re.M | re.S).group(1)
    documented = set(re.findall(r"^\| `([\w.\[\]]+)` \|", reference, re.M))
    labels = {"": "", "thresholds": "thresholds.", "flags": "flags.", "library": "libraries[]."}
    assert documented == {labels[obj] + key for obj, key in FIELDS if obj in labels}


def test_catalog_into_unwritable_output_names_it(workspace, tmp_path, capsys):
    cfg, _ = workspace
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    assert main(["catalog", "--config", str(cfg), "--output", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {blocker / 'catalog_tinykv.json'}" in err
    assert "ReportIoError" in err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_scan_rejects_non_positive_min_lib_files(workspace, capsys, value):
    cfg, _ = workspace
    main(["catalog", "--config", str(cfg)])
    assert main(["scan", "--config", str(cfg), "--library", "tinykv", "--min-lib-files", value]) == 1
    assert f"--min-lib-files must be >= 1: {value}" in capsys.readouterr().err


def _modules_loaded_by(*commands: list[str]) -> set[str]:
    """The modules in `sys.modules` at the end of one fresh process that
    imports the CLI and runs each command in turn, every one succeeding."""
    src = str(Path(apimeter.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import json, sys\n"
        "from apimeter.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "print(' '.join(sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(commands)], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.splitlines()[-1].split())


def _modules_after_importing_cli() -> set[str]:
    return _modules_loaded_by()


def test_import_leaves_process_pool_unloaded():
    assert "concurrent.futures.process" not in _modules_after_importing_cli()


def test_parallel_scan_loads_no_process_pool(workspace):
    # `--jobs` workers are forked by the stage itself.
    cfg, _ = workspace
    assert main(["catalog", "--config", str(cfg)]) == 0
    loaded = _modules_loaded_by(["scan", "--config", str(cfg), "--library", "tinykv", "--jobs", "2"])
    assert "apimeter.scan" in loaded
    assert loaded & {"concurrent.futures", "multiprocessing"} == set()


def test_scan_sites_listing(workspace):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    main(["scan", "--config", str(cfg), "--library", "tinykv", "--sites"])
    listing = (out / "usage_tinykv_alpha.sites.txt").read_text().splitlines()
    assert "src/main.c:7:tk_open" in listing
    assert len(listing) == 7
    assert "sites" not in json.loads((out / "usage_tinykv_alpha.json").read_text())


def _every_command(cfg: Path, out: Path) -> list[list[str]]:
    trace = str(GOLDEN / "tracefile_library.info")
    results = out / "eval_results.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({"schema_version": "1.0", "clients": {"alpha": {"tk_open": 1}}}))
    library = ["--config", str(cfg), "--library", "tinykv"]
    return [
        ["catalog", "--config", str(cfg)],
        ["scan", *library, "--sites"],
        ["coverage", *library, trace, "--baseline", trace, "--augmented", trace],
        ["report", *library],
        ["eval", "--tool", str(results), "--oracle", str(results), "--output", str(out / "eval")],
    ]


def test_runtime_package_is_what_the_cli_imports(workspace):
    # A module no stage imports (a fixture generator, a test-only helper) belongs in tests/.
    package = Path(apimeter.__file__).resolve().parent
    modules = {f"apimeter.{p.stem}" for p in package.glob("*.py") if p.stem not in ("__init__", "__main__")}
    assert modules - _modules_loaded_by(*_every_command(*workspace)) == set()


def test_catalog_process_loads_no_later_stage(workspace):
    cfg, _ = workspace
    loaded = _modules_loaded_by(["catalog", "--config", str(cfg)])
    assert "apimeter.catalog" in loaded
    later = {"apimeter.scan", "apimeter.clientprep", "apimeter.coverage", "apimeter.metrics", "apimeter.reports"}
    assert loaded & later == set()


def test_coverage_process_loads_no_scan_or_report_module(workspace):
    cfg, _ = workspace
    assert main(["catalog", "--config", str(cfg)]) == 0
    trace = str(GOLDEN / "tracefile_library.info")
    library = ["--config", str(cfg), "--library", "tinykv"]
    loaded = _modules_loaded_by(
        ["coverage", *library, trace], ["coverage", *library, "--baseline", trace, "--augmented", trace]
    )
    assert "apimeter.coverage" in loaded
    others = {"apimeter.scan", "apimeter.clientprep", "apimeter.metrics", "apimeter.reports", "statistics"}
    assert loaded & others == set()


def test_stage_processes_load_no_dataclasses(workspace):
    # `dataclasses` imports `inspect` (and with it `ast`, `dis` and `tokenize`): a large
    # share of a stage process's start-up.
    cfg, out = workspace
    assert main(["catalog", "--config", str(cfg)]) == 0
    trace = str(GOLDEN / "tracefile_library.info")
    library = ["--config", str(cfg), "--library", "tinykv"]
    evaluation = ["--tool", str(GOLDEN / "eval_tool.json"), "--oracle", str(GOLDEN / "eval_oracle.json")]
    for commands in (  # in pipeline order, so each stage finds the artifacts it reads
        [["catalog", "--config", str(cfg)]],
        [["scan", *library]],
        [["scan", *library, "--jobs", "2", "--sites"]],
        [["coverage", *library, trace], ["coverage", *library, "--baseline", trace, "--augmented", trace]],
        [["report", *library]],
        [["eval", "--output", str(out / "eval"), *evaluation]],
    ):
        assert _modules_loaded_by(*commands) & {"dataclasses", "inspect"} == set(), commands


def test_eval_process_loads_no_scan_or_coverage_module(workspace):
    _, out = workspace
    results = out / "eval_results.json"
    results.parent.mkdir(parents=True)
    results.write_text(json.dumps({"schema_version": "1.0", "clients": {"alpha": {"tk_open": 1}}}))
    loaded = _modules_loaded_by(["eval", "--tool", str(results), "--oracle", str(results), "--output", str(out)])
    assert "apimeter.reports" in loaded
    assert loaded & {"apimeter.scan", "apimeter.clientprep", "apimeter.coverage", "statistics"} == set()


def test_report_without_improvement_loads_no_coverage_module(workspace):
    cfg, out = workspace
    library = ["--config", str(cfg), "--library", "tinykv"]
    assert main(["catalog", "--config", str(cfg)]) == 0
    assert main(["scan", *library]) == 0
    loaded = _modules_loaded_by(["report", *library])
    assert "apimeter.reports" in loaded
    assert "apimeter.coverage" not in loaded
    # Nor with an improvement artifact to read: it is a plain JSON object.
    trace = str(GOLDEN / "tracefile_library.info")
    assert main(["coverage", *library, "--baseline", trace, "--augmented", trace]) == 0
    assert (out / "improvement_tinykv.json").is_file()
    loaded = _modules_loaded_by(["report", *library])
    assert "apimeter.reports" in loaded
    assert "apimeter.coverage" not in loaded


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError in the block, instead of hanging, once it has run `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_scan_jobs_capped_at_client_count(workspace, monkeypatch):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    assert main(["scan", "--config", str(cfg), "--library", "tinykv"]) == 0
    serial = (out / "usage_tinykv_corpus.json").read_bytes()
    real_fork = os.fork
    workers = []

    def fork():
        pid = real_fork()
        if pid:
            workers.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    started = []
    for jobs in ("64", "2"):
        workers.clear()
        assert main(["scan", "--config", str(cfg), "--library", "tinykv", "--jobs", jobs]) == 0
        started.append(len(workers))
        assert (out / "usage_tinykv_corpus.json").read_bytes() == serial
    assert started == [3, 2]
    _assert_no_child_left()


def _scan_failing_on(monkeypatch, client: str, fail) -> None:
    """Make `_scan_one` call `fail()` instead of scanning `client`; forked workers inherit the patch."""
    real = cli._scan_one

    def scan_one(entry, root):
        if entry.client == client:
            fail()
        return real(entry, root)

    monkeypatch.setattr(cli, "_scan_one", scan_one)


def test_scan_error_in_worker_matches_serial(workspace, capsys, monkeypatch):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])

    def fail():
        raise InputFileError("cannot read beta's sources")

    _scan_failing_on(monkeypatch, "beta", fail)
    runs = []
    for jobs in ("1", "2"):
        (out / jobs).mkdir()
        (out / jobs / "catalog_tinykv.json").write_bytes((out / "catalog_tinykv.json").read_bytes())
        capsys.readouterr()
        with _deadline(60):
            status = main(["scan", "--config", str(cfg), "--library", "tinykv", "--output", str(out / jobs), "--jobs", jobs])
        runs.append((status, capsys.readouterr().err))
        assert (out / jobs / "usage_tinykv_alpha.json").is_file()
        assert not (out / jobs / "usage_tinykv_beta.json").exists()
    assert runs[1] == runs[0]
    status, err = runs[0]
    assert status == 1
    assert '"client": "alpha", "event": "client_prepared"' in err
    assert "error: cannot read beta's sources" in err
    _assert_no_child_left()


@pytest.mark.parametrize("how", ["exit", "kill"])
def test_scan_worker_death_names_the_client(workspace, capsys, monkeypatch, how):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    _scan_failing_on(monkeypatch, "beta", lambda: os._exit(3) if how == "exit" else os.kill(os.getpid(), signal.SIGKILL))
    capsys.readouterr()
    with _deadline(60):
        assert main(["scan", "--config", str(cfg), "--library", "tinykv", "--jobs", "2"]) == 1
    err = capsys.readouterr().err
    ending = "exit status 3" if how == "exit" else "killed by signal 9"
    assert f"error: scan worker for client 'beta' ended without its result ({ending})" in err
    assert "Traceback" not in err
    assert (out / "usage_tinykv_alpha.json").is_file()
    _assert_no_child_left()


def test_scan_worker_that_cannot_start_is_an_error(workspace, capsys, monkeypatch):
    cfg, _ = workspace
    main(["catalog", "--config", str(cfg)])
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    capsys.readouterr()
    with _deadline(60):
        assert main(["scan", "--config", str(cfg), "--library", "tinykv", "--jobs", "2"]) == 1
    assert "error: cannot start scan worker 2 of 2: [Errno 11] Resource temporarily unavailable" in capsys.readouterr().err
    _assert_no_child_left()


def test_scan_interrupted_leaves_no_worker(workspace, monkeypatch):
    cfg, _ = workspace
    main(["catalog", "--config", str(cfg)])

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.artifacts, "write_json", interrupt)  # the first client's artifact, in this process
    with pytest.raises(KeyboardInterrupt):
        main(["scan", "--config", str(cfg), "--library", "tinykv", "--jobs", "2"])
    _assert_no_child_left()


def test_coverage_command_annotates(workspace, oracle):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    assert (
        main(
            [
                "coverage",
                "--config",
                str(cfg),
                "--library",
                "tinykv",
                str(GOLDEN / "tracefile_library.info"),
            ]
        )
        == 0
    )
    doc = json.loads((out / "catalog_tinykv.json").read_text())
    by_name = {a["name"]: a for a in doc["apis"]}
    for name, expected in oracle["coverage"].items():
        assert by_name[name]["eloc"] == expected["eloc"]
        assert by_name[name]["covered_lines"] == expected["covered"]
    assert by_name["tk_stat"]["eloc"] is None


def test_coverage_median_flag(workspace, tmp_path):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    runs = []
    for i, covered in enumerate((2, 8, 5)):
        body = "\n".join(f"DA:{n},{1 if n <= covered else 0}" for n in range(1, 11))
        p = tmp_path / f"run{i}.info"
        p.write_text("SF:/build/tinykv/src/tk_open.c\nFN:1,10,tk_open\n" + body + "\nend_of_record\n")
        runs.append(str(p))
    assert main(["coverage", "--config", str(cfg), "--library", "tinykv", "--median", *runs]) == 0
    doc = json.loads((out / "catalog_tinykv.json").read_text())
    tk_open = next(a for a in doc["apis"] if a["name"] == "tk_open")
    assert tk_open["covered_lines"] == 5  # the median run, not the merge


def test_coverage_baseline_augmented_writes_improvement(workspace, tmp_path, capsys):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    capsys.readouterr()
    base = tmp_path / "base.info"
    base.write_text(
        "SF:/b/tk_open.c\nFN:1,4,tk_open\nDA:1,0\nDA:2,0\nDA:3,0\nend_of_record\n"
    )
    aug = tmp_path / "aug.info"
    aug.write_text(
        "SF:/b/tk_open.c\nFN:1,4,tk_open\nDA:1,1\nDA:2,1\nDA:3,0\nend_of_record\n"
    )
    assert (
        main(
            [
                "coverage",
                "--config",
                str(cfg),
                "--library",
                "tinykv",
                "--baseline",
                str(base),
                "--augmented",
                str(aug),
            ]
        )
        == 0
    )
    doc = json.loads((out / "improvement_tinykv.json").read_text())
    assert doc["newly_covered_apis"] == ["tk_open"]
    assert doc["new_api_lines_covered"] == 2
    assert capsys.readouterr().out == "tinykv: +66.7pp total coverage, 1 newly covered, 0 improved\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["coverage", "--library", "tinykv", str(GOLDEN / "tracefile_library.info")],
        ["report", "--library", "tinykv"],
    ],
    ids=["coverage", "report"],
)
def test_stage_without_catalog_names_it(workspace, capsys, argv):
    cfg, out = workspace
    assert main([*argv, "--config", str(cfg)]) == 1
    assert f"missing {out / 'catalog_tinykv.json'} (run `catalog` first)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, artifact, kind",
    [
        (["scan"], "catalog_tinykv.json", "catalog"),
        (["report"], "improvement_tinykv.json", "improvement report"),
    ],
    ids=["catalog", "improvement"],
)
def test_directory_at_artifact_path_is_refused_by_name(workspace, capsys, argv, artifact, kind):
    cfg, out = workspace
    _run_to_report(cfg)
    path = out / artifact
    path.unlink()
    path.mkdir()
    capsys.readouterr()
    assert main([*argv, "--config", str(cfg), "--library", "tinykv"]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot load {kind} {path}: IsADirectoryError" in err
    assert "missing" not in err


@pytest.mark.parametrize(
    "command",
    [["catalog"], ["coverage", "--library", "x"], ["report", "--library", "x"], ["eval", "--tool", "t", "--oracle", "o"]],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize(
    "option", [["--jobs", "2"], ["--paper-faithful"], ["--loose-call-match"], ["--overlap-threshold", "0.5"],
               ["--min-lib-files", "2"]], ids=lambda argv: argv[0]
)
def test_scan_only_options_are_refused_elsewhere(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, *option])
    assert exc.value.code == 2
    # `coverage` takes the value after the option as a tracefile, so only the option is unrecognized there.
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err


def test_report_requires_scan_artifacts(workspace, capsys):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    assert main(["report", "--config", str(cfg), "--library", "tinykv"]) == 1
    assert f"missing {out / 'usage_tinykv_corpus.json'} (run `scan` first)" in capsys.readouterr().err


def test_report_full_pipeline(workspace, oracle):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    main(["scan", "--config", str(cfg), "--library", "tinykv"])
    main(
        [
            "coverage",
            "--config",
            str(cfg),
            "--library",
            "tinykv",
            str(GOLDEN / "tracefile_library.info"),
        ]
    )
    assert main(["report", "--config", str(cfg), "--library", "tinykv"]) == 0
    rep_dir = out / "reports" / "tinykv"
    unused = json.loads((rep_dir / "report_unused.json").read_text())
    assert unused["rows"][0]["unused_names"] == oracle["corpus"]["unused"]
    assert unused["rows"][0]["unused_pct"] == 17
    buckets = json.loads((rep_dir / "report_cov_buckets.json").read_text())
    assert buckets["unmeasured"] == 1


def test_report_bundle_matches_golden_files(workspace):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    main(["scan", "--config", str(cfg), "--library", "tinykv"])
    main(
        [
            "coverage",
            "--config",
            str(cfg),
            "--library",
            "tinykv",
            str(GOLDEN / "tracefile_library.info"),
        ]
    )
    library = ["--config", str(cfg), "--library", "tinykv"]
    pair = ["--baseline", str(GOLDEN / "tracefile_library.info"), "--augmented", str(GOLDEN / "tracefile_augmented.info")]
    assert main(["coverage", *library, *pair]) == 0
    main(["report", "--config", str(cfg), "--library", "tinykv"])
    expected_dir = GOLDEN / "expected_reports"
    produced_dir = out / "reports" / "tinykv"
    evaluation = ["--tool", str(GOLDEN / "eval_tool.json"), "--oracle", str(GOLDEN / "eval_oracle.json")]
    assert main(["eval", "--output", str(produced_dir), *evaluation]) == 0
    expected = sorted(p.name for p in expected_dir.iterdir())
    assert sorted(p.name for p in produced_dir.iterdir()) == expected
    for name in expected:
        assert (produced_dir / name).read_bytes() == (expected_dir / name).read_bytes(), name
    improvement = "improvement_tinykv.json"
    assert (out / improvement).read_bytes() == (GOLDEN / "expected_coverage" / improvement).read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("sites", [False, True])
def test_scan_artifacts_match_golden_files(workspace, sites, jobs):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    flags = ["--sites"] if sites else []
    assert main(["scan", "--config", str(cfg), "--library", "tinykv", "--jobs", jobs, *flags]) == 0
    expected_dir = GOLDEN / "expected_scan"
    expected = sorted(p.name for p in expected_dir.iterdir() if sites or not p.name.endswith(".sites.txt"))
    assert sorted(p.name for p in out.glob("*") if p.name.startswith(("prep_", "usage_"))) == expected
    for name in expected:
        assert (out / name).read_bytes() == (expected_dir / name).read_bytes(), name


def test_eval_identity_all_ones(tmp_path):
    results = {"schema_version": "1.0", "clients": {"c1": {"a": 3, "b": 1}}}
    tool = tmp_path / "tool.json"
    tool.write_text(json.dumps(results))
    oracle_p = tmp_path / "oracle.json"
    oracle_p.write_text(json.dumps(results))
    out = tmp_path / "out"
    assert main(["eval", "--tool", str(tool), "--oracle", str(oracle_p), "--output", str(out)]) == 0
    doc = json.loads((out / "report_eval.json").read_text())
    client = doc["clients"][0]
    assert client["distinct"]["precision"] == 1.0
    assert client["total"]["recall"] == 1.0


def test_eval_disjoint_clients_warns_and_emits_empty(tmp_path, capsys):
    tool = tmp_path / "tool.json"
    tool.write_text(json.dumps({"schema_version": "1.0", "clients": {"a": {"f": 1}}}))
    oracle_p = tmp_path / "oracle.json"
    oracle_p.write_text(json.dumps({"schema_version": "1.0", "clients": {"b": {"f": 1}}}))
    out = tmp_path / "out"
    assert main(["eval", "--tool", str(tool), "--oracle", str(oracle_p), "--output", str(out)]) == 0
    assert "intersection" in capsys.readouterr().err
    doc = json.loads((out / "report_eval.json").read_text())
    assert doc["clients"] == []


@pytest.mark.parametrize("side", ["tool", "oracle"])
@pytest.mark.parametrize(
    "counts, problem",
    [
        ({"a": "1"}, "API 'a': count must be a non-negative integer: '1'"),
        ({"a": -3}, "API 'a': count must be a non-negative integer: -3"),
        ({"a": True}, "API 'a': count must be a non-negative integer: True"),
        ({"a": 1.0}, "API 'a': count must be a non-negative integer: 1.0"),
        ([["a", 1]], "must be an object of API counts: [['a', 1]]"),
    ],
    ids=["string", "negative", "bool", "float", "pairs"],
)
def test_eval_rejects_bad_counts_naming_file_client_and_api(tmp_path, side, counts, problem):
    paths = {name: tmp_path / f"{name}.json" for name in ("tool", "oracle")}
    for name, path in paths.items():
        clients = {"c1": counts if name == side else {"a": 1}}
        path.write_text(json.dumps({"schema_version": "1.0", "clients": clients}))
    out = tmp_path / "out"
    src = str(Path(apimeter.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "apimeter", "eval", "--tool", str(paths["tool"]), "--oracle", str(paths["oracle"]),
         "--output", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "InputFileError" in proc.stderr
    assert f"error: cannot load evaluation results {paths[side]}: client 'c1'" in proc.stderr
    assert problem in proc.stderr
    assert not (out / "report_eval.json").exists()


@pytest.mark.parametrize(
    "doc, problem",
    [
        ({"schema_version": "1.0", "clients": []}, "clients must be an object: []"),
        ({"schema_version": "1.0", "clients": None}, "clients must be an object: None"),
        ({"schema_version": "1.0"}, "clients is missing"),
    ],
    ids=["list", "null", "missing"],
)
def test_eval_rejects_clients_that_are_no_object_naming_file_and_field(tmp_path, capsys, doc, problem):
    tool = tmp_path / "tool.json"
    tool.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["eval", "--tool", str(tool), "--oracle", str(GOLDEN / "eval_oracle.json"), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot load evaluation results {tool}: {problem}\n" in err
    assert "InputFileError" in err
    assert not (out / "report_eval.json").exists()


def test_eval_uacme_row_shape(tmp_path):
    # 47 shared + 3 tool-only distinct APIs -> P 0.94, R 1.00
    oracle_counts = {f"s{i}": 1 for i in range(47)}
    tool_counts = dict(oracle_counts, e1=1, e2=1, e3=1)
    tool = tmp_path / "tool.json"
    tool.write_text(json.dumps({"schema_version": "1.0", "clients": {"uacme_like": tool_counts}}))
    oracle_p = tmp_path / "oracle.json"
    oracle_p.write_text(json.dumps({"schema_version": "1.0", "clients": {"uacme_like": oracle_counts}}))
    out = tmp_path / "out"
    main(["eval", "--tool", str(tool), "--oracle", str(oracle_p), "--output", str(out)])
    doc = json.loads((out / "report_eval.json").read_text())
    distinct = doc["clients"][0]["distinct"]
    assert round(distinct["precision"], 2) == 0.94
    assert distinct["recall"] == 1.0


def test_scan_paper_faithful_drops_comment_sharing_lines(workspace):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    main(["scan", "--config", str(cfg), "--library", "tinykv", "--paper-faithful"])
    usage = json.loads((out / "usage_tinykv_alpha.json").read_text())
    # one tk_close call shares its line with a comment and is lost
    assert usage["uses"]["tk_close"] == 1


def test_scan_loose_call_match_counts_wide_gaps(workspace):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    main(["scan", "--config", str(cfg), "--library", "tinykv", "--loose-call-match"])
    usage = json.loads((out / "usage_tinykv_gamma.json").read_text())
    # the two-space call in gamma qualifies under loose matching
    assert usage["uses"]["tk_delete"] == 1


def test_scan_overlap_threshold_flag(workspace):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    main(["scan", "--config", str(cfg), "--library", "tinykv", "--overlap-threshold", "0.7"])
    prep = json.loads((out / "prep_tinykv_gamma.json").read_text())
    # at 0.7 the 75%-overlap directory is now treated as vendored
    assert {e["path"] for e in prep["excluded_dirs"]} == {"almost_vendor"}


def test_coverage_tcov_exclude_prefix(workspace, tmp_path):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    trace = tmp_path / "with_tests.info"
    trace.write_text(
        "SF:/build/tinykv/src/tk_open.c\nFN:1,3,tk_open\nDA:1,1\nDA:2,1\nend_of_record\n"
        "SF:/build/tinykv/tests/t.c\nDA:1,0\nDA:2,0\nend_of_record\n"
    )
    assert (
        main(
            [
                "coverage",
                "--config",
                str(cfg),
                "--library",
                "tinykv",
                "--tcov-exclude",
                "/build/tinykv/tests/",
                str(trace),
            ]
        )
        == 0
    )
    doc = json.loads((out / "catalog_tinykv.json").read_text())
    tk_open = next(a for a in doc["apis"] if a["name"] == "tk_open")
    assert tk_open["eloc"] == 2


def test_coverage_parse_error_has_file_and_line(workspace, tmp_path, capsys):
    cfg, _ = workspace
    main(["catalog", "--config", str(cfg)])
    bad = tmp_path / "bad.info"
    bad.write_text("SF:a.c\nDA:nonsense\nend_of_record\n")
    assert main(["coverage", "--config", str(cfg), "--library", "tinykv", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.info" in err and "line 2" in err


def test_coverage_accepts_byte_order_mark(workspace, tmp_path):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    plain = GOLDEN / "tracefile_library.info"
    args = ["coverage", "--config", str(cfg), "--library", "tinykv"]
    assert main([*args, str(plain)]) == 0
    want = (out / "catalog_tinykv.json").read_bytes()
    marked = tmp_path / "bom.info"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main([*args, str(marked)]) == 0
    assert (out / "catalog_tinykv.json").read_bytes() == want


@pytest.mark.parametrize("line", [1, 3])
def test_coverage_byte_order_mark_past_the_start_is_an_error(workspace, tmp_path, capsys, line):
    cfg, _ = workspace
    main(["catalog", "--config", str(cfg)])
    lines = (GOLDEN / "tracefile_library.info").read_text().splitlines(keepends=True)
    lines[line - 1] = "\ufeff" + lines[line - 1]
    marked = tmp_path / "bom.info"
    marked.write_text("".join(lines), encoding="utf-8-sig")  # plus a leading mark
    capsys.readouterr()
    assert main(["coverage", "--config", str(cfg), "--library", "tinykv", str(marked)]) == 1
    err = capsys.readouterr().err
    assert "MalformedDirectiveError" in err
    assert f"bom.info:line {line}: unrecognized line: '\\ufeff" in err


def _bad_tracefile(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "missing.info"
    if kind == "directory":
        path = tmp_path / "dir.info"
        path.mkdir()
        return path
    path = tmp_path / "latin1.info"
    path.write_bytes(b"SF:caf\xe9.c\nDA:1,1\nend_of_record\n")
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("role", ["positional", "--baseline", "--augmented"])
def test_coverage_unreadable_tracefile_names_it(workspace, tmp_path, capsys, kind, role):
    cfg, _ = workspace
    main(["catalog", "--config", str(cfg)])
    bad = str(_bad_tracefile(tmp_path, kind))
    good = str(GOLDEN / "tracefile_library.info")
    args = ["coverage", "--config", str(cfg), "--library", "tinykv"]
    if role == "positional":
        args.append(bad)
    else:
        paths = {"--baseline": good, "--augmented": good, role: bad}
        args += ["--baseline", paths["--baseline"], "--augmented", paths["--augmented"]]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"error: cannot read tracefile {bad}" in err
    assert "InputFileError" in err


def test_coverage_of_tracefiles_sharing_no_file_names_both(workspace, tmp_path, capsys):
    cfg, _ = workspace
    main(["catalog", "--config", str(cfg)])
    baseline = str(GOLDEN / "tracefile_library.info")
    other = tmp_path / "other.info"
    other.write_text("SF:/elsewhere/tk_open.c\nDA:3,1\nend_of_record\n")
    capsys.readouterr()
    args = ["coverage", "--config", str(cfg), "--library", "tinykv", "--baseline", baseline, "--augmented", str(other)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert (f"error: baseline and augmented tracefiles share no files; coverage is from different builds: "
            f"baseline {baseline}, augmented {other}\n") in err
    assert "FileSetMismatchError" in err


def test_coverage_on_truncated_catalog_names_it(workspace, capsys):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    catalog = out / "catalog_tinykv.json"
    catalog.write_text(catalog.read_text()[:100])
    capsys.readouterr()
    good = str(GOLDEN / "tracefile_library.info")
    assert main(["coverage", "--config", str(cfg), "--library", "tinykv", good]) == 1
    assert f"error: cannot load catalog {catalog}: JSONDecodeError" in capsys.readouterr().err


def _truncate(path: Path) -> None:
    path.write_text(path.read_text()[:50])


def _drop_key(key: str):
    def damage(path: Path) -> None:
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))

    return damage


def _run_to_report(cfg: Path) -> None:
    main(["catalog", "--config", str(cfg)])
    main(["scan", "--config", str(cfg), "--library", "tinykv"])
    trace = str(GOLDEN / "tracefile_library.info")
    main(["coverage", "--config", str(cfg), "--library", "tinykv", "--baseline", trace, "--augmented", trace])


@pytest.mark.parametrize(
    "stage, artifact, kind, damage",
    [
        ("report", "usage_tinykv_corpus.json", "usage corpus", _truncate),
        ("report", "usage_tinykv_corpus.json", "usage corpus", _drop_key("clients")),
        ("report", "improvement_tinykv.json", "improvement report", _truncate),
        ("report", "improvement_tinykv.json", "improvement report", _drop_key("extra_total_coverage_pct")),
        ("eval", "tool.json", "evaluation results", Path.unlink),
        ("eval", "tool.json", "evaluation results", _truncate),
        ("eval", "tool.json", "evaluation results", _drop_key("clients")),
        ("eval", "oracle.json", "evaluation results", Path.unlink),
        ("eval", "oracle.json", "evaluation results", _truncate),
        ("eval", "oracle.json", "evaluation results", _drop_key("clients")),
    ],
    ids=[
        "corpus_truncated",
        "corpus_keyless",
        "improvement_truncated",
        "improvement_keyless",
        "tool_missing",
        "tool_truncated",
        "tool_keyless",
        "oracle_missing",
        "oracle_truncated",
        "oracle_keyless",
    ],
)
def test_damaged_stage_artifact_names_it(workspace, tmp_path, capsys, stage, artifact, kind, damage):
    cfg, out = workspace
    if stage == "report":
        _run_to_report(cfg)
        path = out / artifact
        args = ["report", "--config", str(cfg), "--library", "tinykv"]
    else:
        results = {"schema_version": "1.0", "clients": {"c1": {"a": 3, "b": 1, "c": 7}}}
        for name in ("tool.json", "oracle.json"):
            (tmp_path / name).write_text(json.dumps(results))
        path = tmp_path / artifact
        args = ["eval", "--tool", str(tmp_path / "tool.json"), "--oracle", str(tmp_path / "oracle.json"),
                "--output", str(out)]
    damage(path)
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"error: cannot load {kind} {path}" in err
    assert "InputFileError" in err


@pytest.mark.parametrize(
    "artifact, kind, edit, problem",
    [
        ("catalog_tinykv.json", "catalog", lambda doc: doc["apis"][0].update(eloc="5"),
         "apis[0].eloc must be a non-negative integer: '5'"),
        ("catalog_tinykv.json", "catalog", lambda doc: doc["apis"][0].update(covered_lines=None),
         "apis[0].covered_lines must be a non-negative integer, as another annotation field is set: None"),
        ("usage_tinykv_corpus.json", "usage corpus", lambda doc: doc.update(catalog_size="6"),
         "catalog_size must be a non-negative integer: '6'"),
        ("usage_tinykv_corpus.json", "usage corpus", lambda doc: doc["clients"][0]["uses"].update(tk_open=True),
         "clients[0].uses must be an object of non-negative integers: {"),
        ("improvement_tinykv.json", "improvement report", lambda doc: doc.update(newly_covered_apis=3),
         "newly_covered_apis must be a list of strings: 3"),
        ("improvement_tinykv.json", "improvement report", lambda doc: doc.update(extra_total_coverage_pct="3.5"),
         "extra_total_coverage_pct must be a number: '3.5'"),
        ("catalog_tinykv.json", "catalog", lambda doc: doc["apis"][0].update(eloc=4, covered_lines=11),
         "apis[0].covered_lines must be at most eloc (4): 11"),
        ("catalog_tinykv.json", "catalog", lambda doc: doc["apis"][0].update(entry_start=9, entry_end=2),
         "apis[0].entry_end must be at least entry_start (9): 2"),
        ("usage_tinykv_corpus.json", "usage corpus", lambda doc: doc["clients"].append(doc["clients"][0]),
         "clients[3].client must be unique: 'alpha'"),
        ("catalog_tinykv.json", "catalog", lambda doc: doc["apis"].append(doc["apis"][0]),
         "apis[6].name must be unique: 'tk_close'"),
        ("catalog_tinykv.json", "catalog", lambda doc: doc.pop("library"), "library is missing"),
        # The wrong value is shown cut, so the error stays short however much the field holds.
        ("catalog_tinykv.json", "catalog", lambda doc: doc.update(apis={f"api_{i}": doc["apis"][0] for i in range(2000)}),
         "apis must be a list: {'api_0': {"),
    ],
    ids=["eloc_string", "covered_lines_null", "catalog_size_string", "use_count_true", "newly_count",
         "extra_pct_string", "covered_above_eloc", "end_before_start", "duplicate_client", "duplicate_api",
         "library_missing", "apis_object_of_2000"],
)
def test_report_on_wrong_typed_artifact_field_names_file_and_field(workspace, capsys, artifact, kind, edit, problem):
    cfg, out = workspace
    _run_to_report(cfg)
    main(["coverage", "--config", str(cfg), "--library", "tinykv", str(GOLDEN / "tracefile_library.info")])
    path = out / artifact
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--library", "tinykv"]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot load {kind} {path}: TypeError: " in err
    assert problem in err
    assert "InputFileError" in err
    assert len(err.encode()) < 2000
    assert not (out / "reports").exists()


@pytest.mark.parametrize("stage", ["config", "eval"])
def test_deeply_nested_json_names_the_file(workspace, tmp_path, capsys, stage):
    cfg, out = workspace
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    if stage == "config":
        args, kind, error = ["catalog", "--config", str(deep)], "config", "ConfigError"
    else:
        args = ["eval", "--tool", str(deep), "--oracle", str(GOLDEN / "eval_oracle.json"), "--output", str(out)]
        kind, error = "evaluation results", "InputFileError"
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"error: cannot load {kind} {deep}: RecursionError: " in err
    assert error in err
    assert not out.exists()


def test_stage_reruns_are_byte_identical(workspace):
    cfg, out = workspace
    main(["catalog", "--config", str(cfg)])
    trace = str(GOLDEN / "tracefile_library.info")
    stages = [
        ["scan", "--config", str(cfg), "--library", "tinykv", "--sites"],
        ["coverage", "--config", str(cfg), "--library", "tinykv", trace],
        ["coverage", "--config", str(cfg), "--library", "tinykv", "--baseline", trace, "--augmented", trace],
        ["report", "--config", str(cfg), "--library", "tinykv"],
    ]

    def run_all() -> dict[str, bytes]:
        for argv in stages:
            assert main(argv) == 0
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    first = run_all()
    assert run_all() == first
    assert not [name for name in first if Path(name).name.startswith(".")]


def test_report_reads_corpus_clients_not_its_stored_counts(workspace):
    """`report` recomputes the corpus counts from `clients`; the stored ones are never read."""
    cfg, out = workspace
    _run_to_report(cfg)
    report = ["report", "--config", str(cfg), "--library", "tinykv"]
    assert main(report) == 0
    reports = out / "reports" / "tinykv"
    before = {p.name: p.read_bytes() for p in reports.iterdir()}
    corpus = out / "usage_tinykv_corpus.json"
    doc = json.loads(corpus.read_text())
    doc.update(api_client_counts={"tk_open": 99, "nowhere": 1}, api_total_uses={}, clients_without_uses=["alpha"])
    corpus.write_text(json.dumps(doc))
    assert main(report) == 0
    assert {p.name: p.read_bytes() for p in reports.iterdir()} == before


def test_report_on_empty_corpus_is_valid(workspace, tmp_path):
    cfg, out = workspace
    db = tmp_path / "empty_db.json"
    db.write_text("[]")
    doc = json.loads(cfg.read_text())
    doc["dependency_db"] = str(db)
    cfg.write_text(json.dumps(doc))

    main(["catalog", "--config", str(cfg)])
    main(["scan", "--config", str(cfg), "--library", "tinykv"])
    assert main(["report", "--config", str(cfg), "--library", "tinykv"]) == 0
    unused = json.loads((out / "reports" / "tinykv" / "report_unused.json").read_text())
    assert unused["rows"][0]["unused"] == 6
    assert not (out / "reports" / "tinykv" / "report_utilisation.json").exists()


def test_dependency_db_rejects_duplicates(tmp_path):
    db = tmp_path / "db.json"
    db.write_text(
        json.dumps(
            [
                {"client": "a", "source": "s", "library": "l"},
                {"client": "a", "source": "s2", "library": "l"},
            ]
        )
    )
    with pytest.raises(DependencyDbError):
        load_dependency_db(db)


def test_dependency_db_rejects_clients_sharing_an_artifact_name(workspace, tmp_path, capsys):
    cfg, out = workspace
    db = tmp_path / "db.json"
    db.write_text(json.dumps([{"client": c, "library": "tinykv"} for c in ("alpha", "x/y", "x_y")]))
    doc = json.loads(cfg.read_text())
    doc["dependency_db"] = str(db)
    cfg.write_text(json.dumps(doc))
    main(["catalog", "--config", str(cfg)])
    assert main(["scan", "--config", str(cfg), "--library", "tinykv"]) == 1
    assert "clients 'x/y' and 'x_y' of 'tinykv' share the artifact name 'x_y'" in capsys.readouterr().err
    assert not (out / "usage_tinykv_corpus.json").exists()


def test_config_rejects_libraries_sharing_an_artifact_name(workspace, capsys):
    cfg, out = workspace
    doc = json.loads(cfg.read_text())
    lib = doc["libraries"][0]
    doc["libraries"] = [{**lib, "name": "x/y"}, {**lib, "name": "x_y"}]
    cfg.write_text(json.dumps(doc))
    assert main(["catalog", "--config", str(cfg)]) == 1
    assert f"config {cfg}: libraries 'x/y' and 'x_y' share the artifact name 'x_y'" in capsys.readouterr().err
    assert not out.exists()


def test_dependency_db_allows_one_slug_across_libraries(tmp_path):
    db = tmp_path / "db.json"
    db.write_text(json.dumps([{"client": "x/y", "library": "a"}, {"client": "x_y", "library": "b"}]))
    assert [e.client for e in load_dependency_db(db)] == ["x/y", "x_y"]


@pytest.mark.parametrize(
    "doc",
    [
        [{"source": "s", "library": "l"}],
        [{"client": "a", "source": "s"}],
        [{"client": "a", "library": "l"}, "b"],
        {"client": "a", "library": "l"},
        "clients",
    ],
)
def test_dependency_db_rejects_malformed_entries(tmp_path, doc):
    db = tmp_path / "db.json"
    db.write_text(json.dumps(doc))
    with pytest.raises(DependencyDbError, match=f"dependency db {db}"):
        load_dependency_db(db)


def test_scan_with_malformed_dependency_db_exits_1(workspace, tmp_path, capsys):
    cfg, _ = workspace
    db = tmp_path / "db.json"
    db.write_text(json.dumps([{"library": "tinykv"}]))
    doc = json.loads(cfg.read_text())
    doc["dependency_db"] = str(db)
    cfg.write_text(json.dumps(doc))
    main(["catalog", "--config", str(cfg)])
    assert main(["scan", "--config", str(cfg), "--library", "tinykv"]) == 1
    assert f"dependency db {db}: entry 0 needs" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("client", 5), ("library", ["tinykv"]), ("client", None)])
def test_dependency_db_rejects_non_string_fields(workspace, tmp_path, capsys, field, value):
    entry = {"client": "alpha", "source": "s", "library": "tinykv", field: value}
    db = tmp_path / "db.json"
    db.write_text(json.dumps([entry]))
    with pytest.raises(DependencyDbError, match=f"dependency db {db}: entry 0"):
        load_dependency_db(db)
    cfg, _ = workspace
    doc = json.loads(cfg.read_text())
    doc["dependency_db"] = str(db)
    cfg.write_text(json.dumps(doc))
    main(["catalog", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["scan", "--config", str(cfg), "--library", "tinykv"]) == 1
    err = capsys.readouterr().err
    assert f"error: dependency db {db}: entry 0" in err
    assert "DependencyDbError" in err


@pytest.mark.parametrize("flag", ["paper_faithful", "loose_call_match"])
@pytest.mark.parametrize("value", ["no", "false", "true", 0, 1, None, []])
def test_config_rejects_non_boolean_flags(workspace, capsys, flag, value):
    cfg, _ = workspace
    doc = json.loads(cfg.read_text())
    doc["flags"] = {flag: value}
    cfg.write_text(json.dumps(doc))
    assert main(["catalog", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"error: config {cfg}: flags.{flag} must be true or false: {value!r}" in err
    assert "ConfigError" in err


@pytest.mark.parametrize("value", [True, False])
def test_config_accepts_boolean_flags(workspace, value):
    from apimeter.cli import load_config

    cfg, _ = workspace
    doc = json.loads(cfg.read_text())
    doc["flags"] = {"paper_faithful": value, "loose_call_match": value}
    cfg.write_text(json.dumps(doc))
    config = load_config(cfg)
    assert config.paper_faithful is value
    assert config.loose_call_match is value


@pytest.mark.parametrize(
    "stage, artifact, kind",
    [
        ("coverage", "catalog_tinykv.json", "catalog"),
        ("report", "usage_tinykv_corpus.json", "usage corpus"),
        ("report", "improvement_tinykv.json", "improvement report"),
    ],
)
def test_unsupported_schema_version_names_the_file(workspace, capsys, stage, artifact, kind):
    cfg, out = workspace
    _run_to_report(cfg)
    path = out / artifact
    doc = json.loads(path.read_text())
    doc["schema_version"] = "2.0"
    path.write_text(json.dumps(doc))
    args = [stage, "--config", str(cfg), "--library", "tinykv"]
    if stage == "coverage":
        args.append(str(GOLDEN / "tracefile_library.info"))
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"error: cannot load {kind} {path}: schema_version '2.0' not supported (expected 1.x)" in err
    assert "SchemaVersionError" in err


@pytest.mark.parametrize("version", ["2.0", "0.9", ""])
def test_config_of_unsupported_schema_version_names_the_file(workspace, capsys, version):
    cfg, out = workspace
    doc = json.loads(cfg.read_text())
    doc["schema_version"] = version
    cfg.write_text(json.dumps(doc))
    assert main(["catalog", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot load config {cfg}: schema_version {version!r} not supported (expected 1.x)" in err
    assert "SchemaVersionError" in err
    assert not out.exists()


@pytest.mark.parametrize("version", ["1.7", None])
def test_config_of_supported_or_no_schema_version_runs(workspace, version):
    cfg, out = workspace
    doc = json.loads(cfg.read_text())
    if version is None:
        del doc["schema_version"]
    else:
        doc["schema_version"] = version
    cfg.write_text(json.dumps(doc))
    assert main(["catalog", "--config", str(cfg)]) == 0
    assert (out / "catalog_tinykv.json").is_file()


def test_missing_library_source_root_is_fatal(workspace):
    # Read as an empty tree, the root would leave beta's vendor/tinykv in the scan.
    cfg, out = workspace
    assert main(["catalog", "--config", str(cfg)]) == 0
    doc = json.loads(cfg.read_text())
    missing = cfg.parent / "no_such_libsrc"
    _lib(doc)["source_roots"] = [str(GOLDEN / "libsrc"), str(missing)]
    cfg.write_text(json.dumps(doc))
    src = str(Path(apimeter.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "apimeter", "scan", "--config", str(cfg), "--library", "tinykv"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "MissingRootError" in proc.stderr
    assert f"error: library source root is missing or not a directory: {missing}" in proc.stderr
    assert not (out / "usage_tinykv_corpus.json").exists()


def test_unknown_library_is_fatal(workspace, capsys):
    cfg, _ = workspace
    assert main(["catalog", "--config", str(cfg), "--library", "nope"]) == 1
    assert "not in configuration" in capsys.readouterr().err


@given(
    client_uses=st.dictionaries(
        st.from_regex(r"c[a-z0-9]{1,6}", fullmatch=True),
        st.dictionaries(
            st.sampled_from(["f1", "f2", "f3"]), st.integers(min_value=1, max_value=9), max_size=3
        ),
        max_size=4,
    )
)
def test_corpus_artifact_round_trip(client_uses):
    from apimeter.cli import corpus_dict, corpus_from_dict
    from apimeter.scan import UsageReport, aggregate_reports

    reports = [
        UsageReport(client_id=c, library="lib", uses=uses, catalog_size=3)
        for c, uses in client_uses.items()
    ]
    agg = aggregate_reports("lib", 3, reports)
    restored = corpus_from_dict(corpus_dict(agg, skipped=[]))
    assert restored.api_client_counts == agg.api_client_counts
    assert restored.api_total_uses == agg.api_total_uses
    assert restored.clients_without_uses == agg.clients_without_uses
    assert [r.uses for r in restored.reports] == [r.uses for r in agg.reports]
    assert [r.utilisation_pct for r in restored.reports] == [
        r.utilisation_pct for r in agg.reports
    ]
