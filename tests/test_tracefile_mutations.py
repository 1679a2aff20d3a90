"""The coverage stage on mutated tracefiles, end to end through `cli.main`.

Each example deletes, duplicates or replaces one line of a golden tracefile,
then runs three forms of `coverage` over a copy of the golden pipeline's
outputs: one tracefile, `--median` over two copies of it, and
`--baseline/--augmented`. A stage may fail only with an ApimeterError, which
`main` turns into exit 1 and an error line naming a tracefile. A stage that
succeeds must write the same bytes, and print the same output, when rerun.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apimeter.cli import main
from conftest import GOLDEN, synth_golden_so

TRACEFILES = sorted(GOLDEN.glob("*.info"))

# Each replaces one line; CR stands for the replaced line itself with a CR line end.
CR = object()
REPLACEMENTS = [
    "DA:0,1",
    "DA:1,-1",
    "FN:1,",
    "SF:",
    "end_of_record",
    f"DA:{10**20},1",  # 21 digits
    CR,
    "VER:2",
]


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    """A config, and the catalog and scan stages' outputs over the golden corpus."""
    root = tmp_path_factory.mktemp("golden_outputs")
    so = synth_golden_so(root / "libtinykv.so")
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
        "output_dir": str(root / "out"),
    }
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["catalog", "--config", str(cfg)]) == 0
        assert main(["scan", "--config", str(cfg), "--library", "tinykv", "--sites"]) == 0
    return cfg, root / "out"


def _run(argv: list[str], out: Path) -> tuple[int, str, str, dict[str, bytes]]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(argv)
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return status, stdout.getvalue(), stderr.getvalue(), files


def _mutate(lines: list[str], index: int, op) -> list[str]:
    if op == "delete":
        return lines[:index] + lines[index + 1 :]
    if op == "duplicate":
        return lines[: index + 1] + lines[index:]
    new = lines[index].rstrip("\n") + "\r\n" if op is CR else op + "\n"
    return lines[:index] + [new] + lines[index + 1 :]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    source=st.sampled_from(TRACEFILES),
    position=st.floats(min_value=0, max_value=1, exclude_max=True),
    op=st.sampled_from(["delete", "duplicate", *REPLACEMENTS]),
)
def test_coverage_stage_on_a_mutated_tracefile(golden_outputs, source, position, op):
    cfg, golden_out = golden_outputs
    lines = source.read_text().splitlines(keepends=True)
    mutated = "".join(_mutate(lines, int(position * len(lines)), op))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "out"
        shutil.copytree(golden_out, out)
        trace, copy = work / "run1.info", work / "run2.info"
        trace.write_text(mutated, newline="")
        copy.write_text(mutated, newline="")
        other = str(next(p for p in TRACEFILES if p != source))
        stage = ["coverage", "--config", str(cfg), "--output", str(out), "--library", "tinykv"]
        forms = [
            [str(trace)],
            ["--median", str(trace), str(copy)],
            ["--baseline", str(trace), "--augmented", other],
        ]
        for form in forms:
            first = _run(stage + form, out)
            status, _, err, _ = first
            assert status in (0, 1)
            assert "Traceback" not in err
            if status == 1:
                message = err.splitlines()[-1]
                assert message.startswith("error: ")
                assert any(name in message for name in form if name.endswith(".info")), message
            else:
                assert _run(stage + form, out) == first
