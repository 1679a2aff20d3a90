#!/usr/bin/env python3
"""End-to-end pipeline demo on the bundled golden corpus.

Synthesizes the fixture library's shared object, writes a run configuration,
then drives every CLI stage: catalog -> scan -> coverage (one tracefile, then a
baseline/augmented pair) -> report -> eval. Outputs land in --output (default:
./golden_out); the report bundle, `report_eval` included, in its reports/tinykv.
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))  # the fixture ELF writer lives beside the tests

from apimeter.cli import main as cli_main
from elfsynth import GOLDEN_SYMBOLS, write_shared_object

GOLDEN = REPO / "tests" / "fixtures" / "golden"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="golden_out")
    args = parser.parse_args()

    out = Path(args.output).resolve()
    out.mkdir(parents=True, exist_ok=True)

    so = write_shared_object(out / "libtinykv.so", GOLDEN_SYMBOLS)

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
    cfg = out / "config.json"
    cfg.write_text(json.dumps(config, indent=2))

    stages = [
        ["catalog", "--config", str(cfg)],
        ["scan", "--config", str(cfg), "--library", "tinykv", "--sites"],
        ["coverage", "--config", str(cfg), "--library", "tinykv", str(GOLDEN / "tracefile_library.info")],
        [
            "coverage", "--config", str(cfg), "--library", "tinykv",
            "--baseline", str(GOLDEN / "tracefile_library.info"),
            "--augmented", str(GOLDEN / "tracefile_augmented.info"),
        ],
        ["report", "--config", str(cfg), "--library", "tinykv"],
        [
            "eval", "--output", str(out / "reports" / "tinykv"),
            "--tool", str(GOLDEN / "eval_tool.json"), "--oracle", str(GOLDEN / "eval_oracle.json"),
        ],
    ]
    for argv in stages:
        print(f"$ apimeter {' '.join(argv)}")
        rc = cli_main(argv)
        if rc != 0:
            return rc

    print(f"\nartifacts under {out}")
    for path in sorted(out.rglob("*.json")):
        print(f"  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
