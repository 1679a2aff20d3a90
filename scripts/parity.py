#!/usr/bin/env python3
"""Run the benchmark workloads' stages from two `src` trees and name the first difference.

Each workload's inputs are generated once, with `bench/workloads.generate`. Each
side then runs every stage of the workload's plan as `python -m apimeter` from
its `src` tree, into the same output path (stdout and events name paths), with
SOURCE_DATE_EPOCH=1700000000 and PYTHONDONTWRITEBYTECODE=1. After each stage the
exit status, stdout, stderr and every file under the output path are compared.
Exits 0 when every stage of every workload matches; otherwise 1, naming the first
stage and the first exit status, stdout, stderr or artifact that differs.

    python3 scripts/parity.py --a ../parent/src --b src      # another checkout against this one
    python3 scripts/parity.py --a src --b src --small --jobs-a 1 --jobs-b 2
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # the benchmark's modules are only read
sys.path.insert(0, str(REPO / "bench"))

import workloads  # noqa: E402

ENV = {"SOURCE_DATE_EPOCH": "1700000000", "PYTHONDONTWRITEBYTECODE": "1"}


@dataclasses.dataclass
class StageResult:
    label: str
    status: int
    stdout: bytes
    stderr: bytes
    artifacts: dict[str, str]  # path under the output directory -> sha256


def run_side(src: Path, plan: workloads.Plan, out: Path, jobs: int | None) -> list[StageResult]:
    """Run every stage of `plan` from `src` into a fresh `out`; `jobs`, if given, is the scan stage's --jobs."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), **ENV)
    results = []
    for i, stage in enumerate(plan.stages, 1):
        if stage.kind == "scan" and jobs is not None:
            stage = dataclasses.replace(stage, jobs=jobs)
        proc = subprocess.run([sys.executable, "-m", "apimeter", *stage.argv(plan.config, out)], cwd=out.parent,
                              env=env, capture_output=True, timeout=workloads.STAGE_TIMEOUT_S)
        artifacts = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.rglob("*")) if p.is_file()}
        results.append(StageResult(f"stage {i} ({stage.kind})", proc.returncode, proc.stdout, proc.stderr, artifacts))
    return results


def first_difference(a: list[StageResult], b: list[StageResult]) -> str | None:
    for x, y in zip(a, b):
        if x.status != y.status:
            return f"{x.label}: exit status {x.status} against {y.status}"
        for stream in ("stdout", "stderr"):
            if getattr(x, stream) != getattr(y, stream):
                return f"{x.label}: {stream} differs"
        for name in sorted(x.artifacts.keys() | y.artifacts.keys()):
            if name not in y.artifacts:
                return f"{x.label}: artifact {name} written by A only"
            if name not in x.artifacts:
                return f"{x.label}: artifact {name} written by B only"
            if x.artifacts[name] != y.artifacts[name]:
                return f"{x.label}: artifact {name} differs"
    return None


def _src_tree(value: str) -> Path:
    path = Path(value).resolve()
    if not (path / "apimeter" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"{value} holds no apimeter package")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=_src_tree, required=True, help="side A's src directory")
    parser.add_argument("--b", type=_src_tree, required=True, help="side B's src directory")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--small", action="store_true", help="the benchmark's small input sizes")
    parser.add_argument("--jobs-a", type=int, help="side A's scan --jobs (default: the workload's own)")
    parser.add_argument("--jobs-b", type=int, help="side B's scan --jobs (default: the workload's own)")
    args = parser.parse_args()

    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="apimeter_parity_") as tmp:
            plan = workloads.generate(workload, args.seed, Path(tmp), args.small)
            out = Path(tmp) / "out"
            a = run_side(args.a, plan, out, args.jobs_a)
            b = run_side(args.b, plan, out, args.jobs_b)
        difference = first_difference(a, b)
        if difference:
            print(f"{workload}: {difference}")
            return 1
        print(f"{workload}: {len(a)} stages match ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
