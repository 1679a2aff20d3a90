"""Input trees that must neither hang a stage, exhaust its memory, nor
silently shrink the library side: FIFOs and devices among client sources and
headers, devices and FIFOs named as a tracefile, config or dependency
database, an unreadable `.gitmodules`, and library-side directories that
cannot be listed.

A FIFO or device read through an unguarded path blocks or reads without end,
so those cases run the CLI in a child process with a timeout and an
address-space limit: a fault then fails the test instead of the suite.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import apimeter
from apimeter.catalog import harvest_header_identifiers
from apimeter.cli import main
from apimeter.clientprep import build_library_inventory, prepare_client
from apimeter.diagnostics import Diagnostics
from apimeter.errors import InputFileError
from conftest import GOLDEN, refuse_open, synth_golden_so

ADDRESS_SPACE = 256 << 20


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _run(*argv: str) -> subprocess.CompletedProcess:
    """`python -m apimeter argv` in a child with a 60 s timeout and a 256 MiB address space."""
    src = str(Path(apimeter.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "apimeter", *argv], env=env, capture_output=True, text=True,
                          timeout=60, preexec_fn=_limit_address_space)


def _events(stderr: str) -> list[dict]:
    return [json.loads(line) for line in stderr.splitlines() if line.startswith("{")]


@pytest.fixture()
def tree(tmp_path):
    """A config over copies of the golden clients and headers, which a test may add files to."""
    clients = tmp_path / "clients"
    headers = tmp_path / "include"
    shutil.copytree(GOLDEN / "clients", clients, symlinks=True)
    shutil.copytree(GOLDEN / "install" / "include", headers)
    config = {
        "schema_version": "1.0",
        "libraries": [
            {
                "name": "tinykv",
                "shared_objects": [str(synth_golden_so(tmp_path / "libtinykv.so"))],
                "header_root": str(headers),
                "source_roots": [str(GOLDEN / "libsrc")],
                "explicit_file_excludes": ["tinykv_amalg.c"],
            }
        ],
        "dependency_db": str(GOLDEN / "depdb.json"),
        "clients_root": str(clients),
        "output_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return cfg, tmp_path


def _special(path: Path, kind: str) -> None:
    if kind == "fifo":
        os.mkfifo(path)
    else:
        path.symlink_to("/dev/zero")


def test_scan_skips_fifo_and_device_sources(tree):
    cfg, tmp = tree
    _special(tmp / "clients" / "alpha" / "src" / "fifo.c", "fifo")
    _special(tmp / "clients" / "alpha" / "src" / "zero.c", "zero")
    assert _run("catalog", "--config", str(cfg)).returncode == 0
    proc = _run("scan", "--config", str(cfg), "--library", "tinykv")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    skipped = [e for e in _events(proc.stderr) if e["event"] == "file_unreadable"]
    assert [(e["client"], e["path"]) for e in skipped] == [("alpha", "src/fifo.c"), ("alpha", "src/zero.c")]
    assert "Not a regular file (mode p" in skipped[0]["error"]
    assert "Not a regular file (mode c" in skipped[1]["error"]
    # Every other count is the golden corpus's.
    for expected in (GOLDEN / "expected_scan").glob("*.json"):
        assert (tmp / "out" / expected.name).read_bytes() == expected.read_bytes(), expected.name


@pytest.mark.parametrize("kind", ["fifo", "zero"])
def test_catalog_refuses_fifo_or_device_header(tree, kind):
    cfg, tmp = tree
    header = tmp / "include" / f"{kind}.h"
    _special(header, kind)
    proc = _run("catalog", "--config", str(cfg))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"error: cannot read header {header}: Not a regular file" in proc.stderr
    assert not (tmp / "out" / "catalog_tinykv.json").exists()


@pytest.mark.parametrize("named_as", ["tracefile", "config", "dependency_db"])
def test_device_named_as_an_input_is_refused(tree, named_as):
    cfg, tmp = tree
    assert _run("catalog", "--config", str(cfg)).returncode == 0
    if named_as == "tracefile":
        proc = _run("coverage", "--config", str(cfg), "--library", "tinykv", "/dev/zero")
    elif named_as == "config":
        proc = _run("report", "--config", "/dev/zero", "--library", "tinykv")
    else:
        doc = json.loads(cfg.read_text())
        cfg.write_text(json.dumps({**doc, "dependency_db": "/dev/zero"}))
        proc = _run("scan", "--config", str(cfg), "--library", "tinykv")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "/dev/zero: " in proc.stderr and "Is a device (mode c" in proc.stderr


def test_coverage_reads_a_fifo_tracefile_as_the_regular_file(tree):
    cfg, tmp = tree
    trace = GOLDEN / "tracefile_library.info"
    assert _run("catalog", "--config", str(cfg)).returncode == 0
    catalog = tmp / "out" / "catalog_tinykv.json"
    fresh = catalog.read_bytes()
    regular = _run("coverage", "--config", str(cfg), "--library", "tinykv", str(trace))
    assert regular.returncode == 0, regular.stderr
    annotated = catalog.read_bytes()
    catalog.write_bytes(fresh)
    fifo = tmp / "trace.info"
    os.mkfifo(fifo)
    writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', str(trace), str(fifo)])
    try:
        piped = _run("coverage", "--config", str(cfg), "--library", "tinykv", str(fifo))
    finally:
        writer.kill()
        writer.wait()
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, regular.stdout, regular.stderr)
    assert catalog.read_bytes() == annotated != fresh


def test_unreadable_gitmodules_is_an_event(golden_spec, monkeypatch):
    inv = build_library_inventory([str(GOLDEN / "libsrc")])
    root = GOLDEN / "clients" / "alpha"
    assert prepare_client("alpha", root, golden_spec, inv).excluded_dirs == {"third_party/tinykv": "submodule"}
    refuse_open(monkeypatch, ".gitmodules")
    diag = Diagnostics()
    rec = prepare_client("alpha", root, golden_spec, inv, diag=diag)
    assert "submodule" not in rec.excluded_dirs.values()
    assert diag.events[0] == {
        "event": "file_unreadable",
        "client": "alpha",
        "path": ".gitmodules",
        "error": f"[Errno 13] Permission denied: '{root / '.gitmodules'}'",
    }


def _refuse_listing(monkeypatch, directory: Path) -> None:
    """Listing `directory` fails as on one without read permission, which even root then cannot list."""
    real_scandir = os.scandir

    def scandir(path="."):
        if os.path.abspath(path) == str(directory):
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)


def _header_tree(tmp_path: Path) -> Path:
    (tmp_path / "sub").mkdir(parents=True)
    (tmp_path / "a.h").write_text("int x;\n")
    (tmp_path / "sub" / "b.h").write_text("int tk_open(void);\n")
    return tmp_path / "sub"


def _library_tree(tmp_path: Path) -> Path:
    for rel in ("src/a.c", "src/b.c", "src/c.c", "include/a.h"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("int x;\n")
    return tmp_path / "src"


def test_unlistable_header_directory_names_it(tmp_path, monkeypatch):
    sub = _header_tree(tmp_path)
    _refuse_listing(monkeypatch, sub)
    with pytest.raises(InputFileError, match=f"cannot list header directory {sub}: .*Permission denied"):
        harvest_header_identifiers(tmp_path)


def test_unlistable_library_directory_names_it(tmp_path, monkeypatch):
    src = _library_tree(tmp_path)
    assert set(build_library_inventory([str(tmp_path)]).dirs) == {str(tmp_path), str(src), str(tmp_path / "include")}
    _refuse_listing(monkeypatch, src)
    with pytest.raises(InputFileError, match=f"cannot list library directory {src}: .*Permission denied"):
        build_library_inventory([str(tmp_path)])


@pytest.mark.skipif(os.geteuid() == 0, reason="root lists a directory whatever its permission bits")
def test_chmod_0_library_side_directories_name_them(tmp_path):
    sub = _header_tree(tmp_path / "headers")
    src = _library_tree(tmp_path / "libsrc")
    for locked in (sub, src):
        locked.chmod(0)
    try:
        with pytest.raises(InputFileError, match=f"cannot list header directory {sub}"):
            harvest_header_identifiers(tmp_path / "headers")
        with pytest.raises(InputFileError, match=f"cannot list library directory {src}"):
            build_library_inventory([str(tmp_path / "libsrc")])
    finally:
        for locked in (sub, src):
            locked.chmod(0o755)


def test_stages_with_unlistable_library_side_directory_exit_1(tree, monkeypatch, capsys):
    cfg, tmp = tree
    (tmp / "include" / "sub").mkdir()
    _refuse_listing(monkeypatch, tmp / "include" / "sub")
    assert main(["catalog", "--config", str(cfg)]) == 1
    assert f"error: cannot list header directory {tmp / 'include' / 'sub'}: " in capsys.readouterr().err
    monkeypatch.undo()
    assert main(["catalog", "--config", str(cfg)]) == 0
    _refuse_listing(monkeypatch, GOLDEN / "libsrc" / "src")
    capsys.readouterr()
    assert main(["scan", "--config", str(cfg), "--library", "tinykv"]) == 1
    assert f"error: cannot list library directory {GOLDEN / 'libsrc' / 'src'}: " in capsys.readouterr().err
    assert not (tmp / "out" / "usage_tinykv_corpus.json").exists()
