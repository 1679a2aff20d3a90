"""Tests of the benchmark itself, on its small inputs (a few seconds each).

    python -m pytest bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
import workloads  # noqa: E402


def run_small(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), "--small", *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_small_run_passes_every_check_but_the_known_faults():
    res = last_json(run_small("--trace", "0"))
    assert res["correct"] is True
    # Warm-up plus one timed round per workload; coverage_ingest and
    # vendored_trees each fail one known-fault check per round.
    assert res["failed"] == 4
    names = {e["name"] for e in SPEC["end_to_end"]}
    for workload in workloads.WORKLOADS:
        got = {k.split("/", 1)[1]: v for k, v in res["metrics"].items() if k.startswith(workload + "/")}
        assert set(got) == names
        assert all(v["value"] > 0 for v in got.values())


def test_small_traced_run_reports_every_per_layer_metric():
    res = last_json(run_small("--trace", "1"))
    assert res["correct"] is True
    names = {e["name"] for e in SPEC["per_layer"]}
    for workload in workloads.WORKLOADS:
        got = {k.split("/", 1)[1] for k in res["metrics"] if k.startswith(workload + "/")}
        assert got == names
    assert res["metrics"]["vendored_trees/scan.sites"]["value"] > 0
    assert res["metrics"]["coverage_ingest/coverage.delta_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_small("--workload", "field_scan", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_checks_reject_a_wrong_model(tmp_path):
    plan = workloads.generate("field_scan", 3, tmp_path / "w", small=True)
    out = tmp_path / "out"
    workloads.run_round(plan, ROOT, out)
    state = {"plan": plan}
    workloads.check_scan_uses(out, state)
    victim = next(iter(plan.clients.values()))
    api = next(iter(victim.uses))
    victim.uses[api] += 1
    with pytest.raises(AssertionError):
        workloads.check_scan_uses(out, state)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.generate("vendored_trees", 5, tmp_path / "a", small=True)
    b = workloads.generate("vendored_trees", 5, tmp_path / "b", small=True)
    c = workloads.generate("vendored_trees", 6, tmp_path / "c", small=True)
    assert a.sizes == b.sizes
    assert [m.sites for m in a.clients.values()] == [m.sites for m in b.clients.values()]
    assert [m.sites for m in a.clients.values()] != [m.sites for m in c.clients.values()]


def test_fixed_coverage_file_does_not_depend_on_the_seed():
    files = [gen.gen_coverage_layout(random.Random(s), [f"a{i}" for i in range(40)],
                                     [f"a{i}" for i in range(8)], 3, 6, 8, 1)[0] for s in (1, 2)]
    assert files[0] == files[1]
