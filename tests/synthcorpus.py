"""Synthetic client corpora for tests.

Generates C-looking sources with a known mix of genuine calls, commented
calls and string decoys, so scan throughput and correctness can be measured
on arbitrarily large trees without shipping one.
"""

from __future__ import annotations

import random
from pathlib import Path


def api_names(count: int) -> list[str]:
    return [f"api_fn_{i:03d}" for i in range(count)]


def generate_source(rng: random.Random, apis: list[str], lines: int) -> tuple[str, dict[str, int]]:
    """One synthetic file plus the per-API genuine-call counts it contains."""
    out: list[str] = []
    truth: dict[str, int] = {}
    for _ in range(lines):
        roll = rng.random()
        api = rng.choice(apis)
        if roll < 0.25:
            out.append(f"    rc = {api}(ctx, {rng.randrange(100)});")
            truth[api] = truth.get(api, 0) + 1
        elif roll < 0.35:
            out.append(f"    // {api}(ctx); disabled")
        elif roll < 0.45:
            out.append(f'    log("{api}(", rc);')
        elif roll < 0.55:
            out.append(f"    int local_{rng.randrange(10_000)} = {rng.randrange(50)};")
        elif roll < 0.65:
            out.append(f"    helper_{rng.randrange(500)}(rc); /* plumbing */")
        elif roll < 0.75:
            out.append(f"    my_{api}(ctx);")
        else:
            out.append(f"    if (rc != {rng.randrange(8)}) {{ rc = 0; }}")
    return "\n".join(out) + "\n", truth


def generate_client_tree(
    root: Path,
    apis: list[str],
    n_files: int,
    lines_per_file: int,
    seed: int = 0,
) -> dict[str, int]:
    """Write a client checkout under root; returns total genuine calls per API."""
    rng = random.Random(seed)
    truth: dict[str, int] = {}
    src = root / "src"
    src.mkdir(parents=True, exist_ok=True)
    for i in range(n_files):
        text, file_truth = generate_source(rng, apis, lines_per_file)
        (src / f"gen_{i:04d}.c").write_text(f"int run_{i}(void *ctx) {{\n{text}}}\n")
        for api, count in file_truth.items():
            truth[api] = truth.get(api, 0) + count
    return truth
