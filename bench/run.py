#!/usr/bin/env python3
"""apimeter pipeline benchmark.

Generates seeded synthetic inputs for one workload, then runs whole rounds
of the real `apimeter` CLI stages as child processes for --seconds seconds,
checking every artifact against the generator's model. Prints the
end-to-end metrics (--trace 0) or the per-layer metrics of a separate traced
in-process run (--trace 1); the last line of stdout is one JSON object.

    python3 bench/run.py --workload field_scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --small                 # every workload, tiny inputs
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import workloads  # noqa: E402


def per_round(rounds: list[workloads.Round], plan: workloads.Plan, calibrated: bool) -> dict[str, list[float]]:
    """Each end-to-end figure, one value per round; times scaled to the
    nominal machine speed when `calibrated`."""
    figures: dict[str, list[float]] = defaultdict(list)
    for r in rounds:
        k = r.scale if calibrated else 1.0
        by_kind: dict[str, float] = {}
        for s in r.stages:
            by_kind[s.kind] = by_kind.get(s.kind, 0.0) + s.seconds * k
        figures["setup_s"].append(by_kind["catalog"])
        figures["pipeline_s"].append(sum(by_kind.values()))
        figures["scan_lines_per_s"].append(plan.sizes["scanned_lines"] / by_kind["scan"])
        figures["coverage_records_per_s"].append(plan.sizes["coverage_records"] / by_kind["coverage"])
        figures["peak_rss_mb"].append(max(s.max_rss_kb for s in r.stages) / 1024.0)
    return figures


def streamed_events(r: workloads.Round) -> int:
    count = 0
    for s in r.stages:
        for line in s.stderr.splitlines():
            if line.startswith("{") and '"event"' in line:
                count += 1
    return count


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "processor": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    bench_out = ROOT / ".bench_out"
    bench_out.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{name}-s{seed}-p{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        plan = workloads.generate(name, seed, work, small)
        generate_s = time.perf_counter() - started
        out = work / "out"
        # The first round warms the file cache and bytecode cache; its
        # operations count, its times do not.
        warm = workloads.run_round(plan, ROOT, out)
        rounds: list[workloads.Round] = []
        started = time.perf_counter()
        while not rounds or (not small and time.perf_counter() - started < seconds):
            rounds.append(workloads.run_round(plan, ROOT, out))
        every = [warm, *rounds]
        samples = per_round(rounds, plan, calibrated=True)
        wall = per_round(rounds, plan, calibrated=False)
        problems = sorted({p for r in every for p in r.unexpected_failures()})
        result = {
            "workload": name,
            "seed": seed,
            "machine": machine(),
            "inputs": plan.sizes,
            "generate_s": generate_s,
            "rounds": len(rounds),
            "attempted": sum(r.attempted for r in every),
            "failed": sum(r.failed for r in every),
            "checks": {k: ("pass" if v is None else f"FAIL: {v}") for k, v in rounds[-1].checks.items()},
            "known_faults": {k: v for k, v in workloads.KNOWN_FAULTS.items() if k in rounds[-1].checks},
            "end_to_end": {k: statistics.median(v) for k, v in samples.items()},
            "wall_clock": {k: statistics.median(v) for k, v in wall.items()},
            "per_round": samples,
            "per_round_wall_clock": wall,
            "calibration_s": [r.calibration_s for r in rounds],
            "stage_seconds": [[s.kind, s.seconds] for s in rounds[-1].stages],
        }
        if trace:
            import spans

            layers, traced_problems, rec = spans.traced(plan, work, streamed_events(rounds[-1]))
            problems += traced_problems
            result["per_layer"] = layers
            origin = rec.spans[0][1] if rec.spans else 0.0
            trace_doc = {
                "workload": name,
                "seed": seed,
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[n, round(s - origin, 7), round(e - origin, 7), p] for n, s, e, p in rec.spans],
                "counts": dict(rec.counts),
            }
            (bench_out / f"trace_{name}_seed{seed}.json").write_text(json.dumps(trace_doc))
        result["problems"] = problems
        result["correct"] = not problems
        (bench_out / f"BENCH_{name}_seed{seed}.json").write_text(json.dumps(result, indent=2) + "\n")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to run timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced in-process run")
    parser.add_argument("--small", action="store_true", help="tiny inputs and one timed round")
    args = parser.parse_args()
    # Turn SIGTERM into an exit, so stage processes are killed and inputs removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "apimeter" / "__init__.py").is_file():
        print(f"error: no apimeter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.small) for n in names]

    metrics: dict[str, dict] = {}
    for res in results:
        figures = res["per_layer"] if args.trace else res["end_to_end"]
        if set(figures) != set(units):
            raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(figures) ^ set(units))}")
        prefix = "" if len(results) == 1 else f"{res['workload']}/"
        for key, value in figures.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
        failing = [k for k, v in res["checks"].items() if v != "pass"]
        print(f"# {res['workload']} seed={res['seed']} rounds={res['rounds']} "
              f"attempted={res['attempted']} failed={res['failed']} failing_checks={failing}")
        for problem in res["problems"]:
            print(f"#   unexpected: {problem}")
        for key, value in figures.items():
            raw = "" if args.trace else f"  (wall clock {res['wall_clock'][key]:.6g})"
            print(f"#   {key} = {value:.6g} {units[key]}{raw}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
