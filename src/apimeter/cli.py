"""Pipeline orchestration: catalog, scan, coverage, report, eval.

Each stage persists its artifact and any later stage reruns from persisted
artifacts alone. Skips and warnings never change the exit status; only
fatal errors do.

Each stage runs as its own process, so a command imports the stage modules
it needs when it starts; at module scope this file loads only what every
stage shares (artifacts, catalog, diagnostics, errors). The body of `scan`
lives in `scanstage`, which only that command imports.
"""

from __future__ import annotations

import argparse
import atexit
import os
import re
import stat
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, NoReturn

from . import artifacts
from .artifacts import COUNT, Field, are_strings, checked
from .catalog import (
    DEFAULT_FILE_CAP_BYTES,
    DEFAULT_MIN_LIB_FILES,
    DEFAULT_OVERLAP_THRESHOLD,
    LibrarySpec,
    build_catalog,
    load_catalog,
    save_catalog,
)
from .diagnostics import Diagnostics
from .errors import (
    ApimeterError,
    ConfigError,
    DependencyDbError,
    FileSetMismatchError,
    InputFileError,
    MalformedDirectiveError,
    MissingInputsError,
)

if TYPE_CHECKING:
    from .scan import ScanOptions


class DependencyEntry(NamedTuple):
    client: str
    library: str


def _stays_below_root(client: str) -> bool:
    """Whether `clients_root / client` names a directory below the root, and neither the root nor one outside it."""
    return client != "" and not Path(client).is_absolute() and {".", ".."}.isdisjoint(client.split("/"))


# (object, key) -> Field for every key of a config file (top level "", `thresholds`, `flags`, each of `libraries`),
# of a dependency-DB entry, and of `--jobs`, which no file sets. The command-line overrides reuse these rows.
FIELDS: dict[tuple[str, str], Field] = {
    ("", "schema_version"): Field(str, None, "a string"),
    ("", "libraries"): Field(list, (), "a list"),
    ("", "dependency_db"): Field(str, None, "a string"),
    ("", "clients_root"): Field(str, None, "a string"),
    ("", "output_dir"): Field(str, "out", "a string"),
    ("", "thresholds"): Field(dict, {}, "an object"),
    ("", "flags"): Field(dict, {}, "an object"),
    ("thresholds", "overlap"): Field((int, float), DEFAULT_OVERLAP_THRESHOLD, "a number in (0, 1]", lambda v: 0 < v <= 1),
    ("thresholds", "min_lib_files"): Field(int, DEFAULT_MIN_LIB_FILES, ">= 1", lambda v: v >= 1),
    ("thresholds", "file_cap_bytes"): Field(int, DEFAULT_FILE_CAP_BYTES, "a positive integer", lambda v: v >= 1),
    ("flags", "paper_faithful"): Field(bool, False, "true or false"),
    ("flags", "loose_call_match"): Field(bool, False, "true or false"),
    ("library", "name"): Field(str, ..., "a string"),
    ("library", "shared_objects"): Field(list, ..., "a non-empty list of strings", lambda v: v != [] and are_strings(v)),
    ("library", "header_root"): Field(str, ..., "a string"),
    ("library", "source_roots"): Field(list, (), "a list of strings", are_strings),
    ("library", "explicit_file_excludes"): Field(list, (), "a list of strings", are_strings),
    ("dependency", "client"): Field(str, ..., "a non-empty relative path with no . or .. component", _stays_below_root),
    ("dependency", "library"): Field(str, ..., "a string"),
    ("dependency", "source"): Field(str, None, "a string"),  # where the client comes from; not read
    ("command line", "jobs"): Field(int, 1, ">= 1", lambda v: v >= 1),
}


def _fields(obj: str) -> dict[str, Field]:
    """The table of the object `obj` in FIELDS."""
    return {key: field for (o, key), field in FIELDS.items() if o == obj}


class RunConfig(NamedTuple):
    library_specs: list[LibrarySpec]
    dependency_db: str | None
    clients_root: str | None
    output_dir: str
    overlap_threshold: float
    min_lib_files: int
    file_cap_bytes: int
    paper_faithful: bool
    loose_call_match: bool
    jobs: int

    def spec_for(self, library: str) -> LibrarySpec:
        for spec in self.library_specs:
            if spec.name == library:
                return spec
        raise ConfigError(f"library {library!r} not in configuration")

    def scan_options(self, collect_sites: bool = False) -> ScanOptions:
        from .scan import ScanOptions

        return ScanOptions(
            paper_faithful=self.paper_faithful,
            loose_call_match=self.loose_call_match,
            file_cap_bytes=self.file_cap_bytes,
            collect_sites=collect_sites,
        )


def _run_config(doc: dict, cfg_path: Path) -> RunConfig:
    """The run config in `doc`, read from `cfg_path`; relative paths resolve against its directory."""
    where = f"config {cfg_path}: "

    def resolve(p: str | None) -> str | None:
        return None if p is None else str(cfg_path.parent / p)  # an absolute `p` replaces the base

    top = checked(doc, _fields(""), where, error=ConfigError, strict=True)
    if top["schema_version"] is not None:  # a config may leave it out
        artifacts.check_schema_version(top)
    specs = []
    names: dict[str, str] = {}  # slug -> library
    for i, lib in enumerate(top["libraries"]):
        lib = checked(lib, _fields("library"), where, f"libraries[{i}]", ConfigError, strict=True)
        # Per-library artifacts are named by slug, so two libraries sharing one would overwrite each other.
        slug = _slug(lib["name"])
        if slug in names:
            raise ConfigError(f"{where}libraries {names[slug]!r} and {lib['name']!r} share the artifact name {slug!r}")
        names[slug] = lib["name"]
        specs.append(
            LibrarySpec(
                name=lib["name"],
                shared_objects=tuple(map(resolve, lib["shared_objects"])),
                header_root=resolve(lib["header_root"]),
                source_roots=tuple(map(resolve, lib["source_roots"])),
                explicit_file_excludes=tuple(lib["explicit_file_excludes"]),
            )
        )
    thresholds = checked(top["thresholds"], _fields("thresholds"), where, "thresholds", ConfigError, strict=True)
    return RunConfig(
        library_specs=specs,
        **{key: resolve(top[key]) for key in ("dependency_db", "clients_root", "output_dir")},
        overlap_threshold=thresholds.pop("overlap"),
        **thresholds,  # min_lib_files, file_cap_bytes
        **checked(top["flags"], _fields("flags"), where, "flags", ConfigError, strict=True),
        jobs=FIELDS["command line", "jobs"].default,
    )


def load_config(path: str | Path) -> RunConfig:
    cfg_path = Path(path)
    return artifacts.load_json(cfg_path, "config", lambda doc: _run_config(doc, cfg_path), error=ConfigError)


def load_dependency_db(path: str | Path) -> list[DependencyEntry]:
    def parse(doc: list) -> list[DependencyEntry]:
        entries = []
        seen: dict[tuple[str, str], str] = {}  # (library, client slug) -> client
        for i, item in enumerate(doc):
            # Records often come from other tools, so keys the table does not list are ignored.
            fields = checked(item, _fields("dependency"), f"dependency db {path}: ", f"entry {i}", DependencyDbError)
            entry = DependencyEntry(client=fields["client"], library=fields["library"])
            # Per-client artifacts are named by slug, so two clients sharing one would overwrite each other.
            key = (entry.library, _slug(entry.client))
            if key in seen:
                other = seen[key]
                problem = (
                    f"duplicate (client, library) pair: {(entry.client, entry.library)}"
                    if other == entry.client
                    else f"clients {other!r} and {entry.client!r} of {entry.library!r}"
                    f" share the artifact name {key[1]!r}"
                )
                raise DependencyDbError(f"dependency db {path}: {problem}")
            seen[key] = entry.client
            entries.append(entry)
        return entries

    return artifacts.load_json(path, "dependency db", parse, error=DependencyDbError, root=list)


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def catalog_path(config: RunConfig, library: str) -> Path:
    return Path(config.output_dir) / f"catalog_{_slug(library)}.json"


def corpus_path(config: RunConfig, library: str) -> Path:
    return Path(config.output_dir) / f"usage_{_slug(library)}_corpus.json"


def improvement_path(config: RunConfig, library: str) -> Path:
    return Path(config.output_dir) / f"improvement_{_slug(library)}.json"


def reports_dir(config: RunConfig, library: str) -> Path:
    return Path(config.output_dir) / "reports" / _slug(library)


def _stage_input(path: Path, stage: str) -> Path:
    """`path`, which the `stage` command writes; an error naming both if it is missing.
    Anything else there, a directory say, is left for the loader to refuse by name."""
    if not path.exists():
        raise MissingInputsError(f"missing {path} (run `{stage}` first)")
    return path


_IMPROVEMENT = {
    "extra_total_coverage_pct": Field((int, float), ..., "a number"),
    **dict.fromkeys(("newly_covered_apis", "improved_apis"), Field(list, ..., "a list of strings", are_strings)),
    "new_api_lines_covered": COUNT,
}


def improvement_from_dict(doc: dict) -> dict:
    """The improvement report in the artifact `doc`: the four fields `coverage_delta` returns."""
    artifacts.check_schema_version(doc)
    return checked(doc, _IMPROVEMENT)


# --- subcommands ---------------------------------------------------------------


def cmd_catalog(config: RunConfig, args: argparse.Namespace, diag: Diagnostics) -> int:
    specs = [config.spec_for(args.library)] if args.library else config.library_specs
    if not specs:
        raise ConfigError("no libraries configured")
    for spec in specs:
        for so in spec.shared_objects:
            # stat, not open: opening a FIFO would block.
            try:
                mode = os.stat(so).st_mode
            except (FileNotFoundError, NotADirectoryError):
                raise ConfigError(f"{spec.name}: shared object missing: {so}") from None
            except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
                raise ConfigError(f"{spec.name}: cannot stat shared object {so}: {exc}") from exc
            if not stat.S_ISREG(mode):
                raise ConfigError(f"{spec.name}: shared object is not a regular file (mode {stat.filemode(mode)}): {so}")
        catalog = build_catalog(spec, diag)
        out = catalog_path(config, spec.name)
        save_catalog(catalog, out)
        print(f"{spec.name}: {len(catalog.apis)} APIs -> {out}")
    return 0


def cmd_scan(config: RunConfig, args: argparse.Namespace, diag: Diagnostics) -> int:
    from .scanstage import run_scan

    return run_scan(config, args, diag)


def cmd_coverage(config: RunConfig, args: argparse.Namespace, diag: Diagnostics) -> int:
    from . import coverage

    library, baseline, augmented = args.library, args.baseline, args.augmented
    # Refuse bad arguments before any artifact is read or written.
    if (baseline is None) != (augmented is None):
        raise ConfigError("--baseline and --augmented must be given together")
    if not args.tracefiles and baseline is None:
        raise ConfigError("coverage needs tracefiles, or --baseline/--augmented")
    catalog = load_catalog(_stage_input(catalog_path(config, library), "catalog"))

    def parse_path(p: str) -> coverage.Tracefile:
        try:
            # A leading byte-order mark is dropped; one anywhere else stays a parse error.
            text = artifacts.read_input(p, "utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFileError(f"cannot read tracefile {p}: {exc}") from exc
        try:
            tf = coverage.parse_tracefile(text, diag)
        except MalformedDirectiveError as exc:
            raise MalformedDirectiveError(exc.message, exc.line_number, source=p) from exc
        return coverage.filter_tracefile(tf, args.tcov_exclude)

    if args.tracefiles:
        runs = [parse_path(p) for p in args.tracefiles]
        chosen = coverage.select_median_run(runs) if args.median else coverage.merge_tracefiles(runs)
        annotated = coverage.annotate_catalog_coverage(catalog, chosen, diag)
        save_catalog(annotated, catalog_path(config, library))
        measured = len(annotated.annotated())
        print(f"{library}: coverage annotated for {measured}/{len(annotated.apis)} APIs")
        catalog = annotated

    if baseline is not None:
        try:
            delta = coverage.coverage_delta(parse_path(baseline), parse_path(augmented), catalog, diag)
        except FileSetMismatchError as exc:
            raise FileSetMismatchError(f"{exc}: baseline {baseline}, augmented {augmented}") from exc
        artifacts.write_json(
            improvement_path(config, library),
            {"schema_version": artifacts.SCHEMA_VERSION, "library": library, **delta},
        )
        print(
            f"{library}: +{delta['extra_total_coverage_pct']:.1f}pp total coverage, "
            f"{len(delta['newly_covered_apis'])} newly covered, {len(delta['improved_apis'])} improved"
        )
    return 0


def cmd_report(config: RunConfig, args: argparse.Namespace, diag: Diagnostics) -> int:
    from . import metrics, reports
    from .usage import corpus_from_dict

    library = args.library
    cat_path = _stage_input(catalog_path(config, library), "catalog")
    agg_path = _stage_input(corpus_path(config, library), "scan")
    catalog = load_catalog(cat_path)
    agg = artifacts.load_json(agg_path, "usage corpus", corpus_from_dict)

    improvement = None
    imp_path = improvement_path(config, library)
    if imp_path.exists():
        improvement = (library, artifacts.load_json(imp_path, "improvement report", improvement_from_dict))

    written = reports.emit_reports(
        reports_dir(config, library),
        diag=diag,
        unused=[metrics.unused_apis(agg, catalog)],
        utilisation=metrics.client_utilisation_distribution(agg),
        uses=metrics.use_distribution(agg),
        cov_buckets=metrics.coverage_buckets(catalog),
        size_rows=metrics.size_buckets(catalog),
        not_tested=metrics.used_not_tested(agg, catalog),
        improvement=improvement,
    )
    print(f"{library}: {len(written)} report files in {reports_dir(config, library)}")
    return 0


_EVAL = {"clients": Field(dict, ..., "an object")}
_API_COUNTS = Field(dict, ..., "an object of API counts")


def _eval_results(doc: dict, path: str) -> dict[str, dict[str, int]]:
    """The per-client API counts in `doc`, read from `path`."""
    artifacts.check_schema_version(doc)
    where = f"cannot load evaluation results {path}: "
    clients = checked(doc, _EVAL, where, error=InputFileError)["clients"]
    for client, counts in clients.items():
        who = f"client {client!r}"
        checked({who: counts}, {who: _API_COUNTS}, where, error=InputFileError)
        for api, count in counts.items():
            # A JSON `true` is no count, and a negative one would turn up as a negative tp or recall.
            checked({"count": count}, {"count": COUNT}, f"{where}{who}, API {api!r}: ", error=InputFileError)
    return clients


def cmd_eval(config: RunConfig, args: argparse.Namespace, diag: Diagnostics) -> int:
    from . import metrics, reports

    tool = artifacts.load_json(args.tool, "evaluation results", lambda doc: _eval_results(doc, args.tool))
    oracle = artifacts.load_json(args.oracle, "evaluation results", lambda doc: _eval_results(doc, args.oracle))
    shared = sorted(set(tool) & set(oracle))
    if set(tool) != set(oracle):
        diag.emit(
            "client_set_mismatch",
            tool_only=sorted(set(tool) - set(oracle)),
            oracle_only=sorted(set(oracle) - set(tool)),
        )
        print("warning: tool/oracle client sets differ; evaluating the intersection", file=sys.stderr)
    per_client = {c: metrics.precision_recall(tool[c], oracle[c]) for c in shared}
    written = reports.emit_reports(Path(config.output_dir), evaluation=per_client, diag=diag)
    print(f"evaluated {len(shared)} clients -> {written[0]}")
    return 0


# --- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="run configuration JSON")
    shared.add_argument("--output", help="override the configured output directory")

    parser = argparse.ArgumentParser(
        prog="apimeter",
        description="API catalogs, client usage scanning, and coverage divergence for C libraries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", parents=[shared], help="build API catalogs from shared objects and headers")
    p.add_argument("--library", help="only this library (default: all configured)")
    p.set_defaults(run=cmd_catalog)

    p = sub.add_parser("scan", parents=[shared], help="scan all clients of a library for API uses")
    p.add_argument("--library", required=True)
    p.add_argument("--sites", action="store_true", help="also record file:line:api use sites")
    p.add_argument("--jobs", type=int, help="worker processes for scanning (at most one per client)")
    p.add_argument(
        "--paper-faithful",
        action="store_true",
        help="line-regex comment exclusion (drops calls sharing a line with a comment)",
    )
    p.add_argument(
        "--loose-call-match",
        action="store_true",
        help="allow arbitrary whitespace between API name and '('",
    )
    p.add_argument("--overlap-threshold", type=float, help="vendored-dir name-overlap ratio")
    p.add_argument("--min-lib-files", type=int, help="library dirs smaller than this never match")
    p.set_defaults(run=cmd_scan)

    p = sub.add_parser("coverage", parents=[shared], help="annotate the catalog from LCOV tracefiles")
    p.add_argument("--library", required=True)
    p.add_argument("tracefiles", nargs="*", help="LCOV tracefiles (merged unless --median)")
    p.add_argument("--median", action="store_true", help="pick the median-coverage run instead of merging")
    p.add_argument("--baseline", help="baseline tracefile for the improvement report")
    p.add_argument("--augmented", help="augmented tracefile for the improvement report")
    p.add_argument(
        "--tcov-exclude",
        action="append",
        default=[],
        metavar="PREFIX",
        help="drop instrumented files under this path prefix from coverage totals (repeatable)",
    )
    p.set_defaults(run=cmd_coverage)

    p = sub.add_parser("report", parents=[shared], help="emit the full report bundle")
    p.add_argument("--library", required=True)
    p.set_defaults(run=cmd_report)

    p = sub.add_parser("eval", parents=[shared], help="precision/recall of tool results against an oracle")
    p.add_argument("--tool", required=True, help="JSON results from the scanner")
    p.add_argument("--oracle", required=True, help="JSON results from the oracle")
    p.set_defaults(run=cmd_eval)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # Without a config file every field takes its default, relative to the working directory.
    # `--jobs`, the two thresholds and the two flags are `scan`'s alone; other subcommands lack them.
    config = load_config(args.config) if args.config else _run_config({}, Path())
    overrides = {"output_dir": args.output} if args.output else {}
    for dest, field in (
        ("jobs", FIELDS["command line", "jobs"]),
        ("overlap_threshold", FIELDS["thresholds", "overlap"]),
        ("min_lib_files", FIELDS["thresholds", "min_lib_files"]),
    ):
        if getattr(args, dest, None) is not None:
            flag = "--" + dest.replace("_", "-")
            overrides[dest] = checked({flag: getattr(args, dest)}, {flag: field}, error=ConfigError)[flag]
    return config._replace(
        **overrides,
        paper_faithful=config.paper_faithful or getattr(args, "paper_faithful", False),
        loose_call_match=config.loose_call_match or getattr(args, "loose_call_match", False),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    diag = Diagnostics(sys.stderr)
    try:
        return args.run(_config_from_args(args), args, diag)
    except ApimeterError as exc:
        diag.emit("fatal", error=type(exc).__name__, message=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The process entry (`python -m apimeter`, the `apimeter` script): `main()`, then the atexit
    callbacks and a flush of stdout and stderr, then the exit without interpreter teardown, since
    every artifact is closed by then. An exception out of `main()` (`SystemExit` for a usage error
    or `--help` among them), or a flush that fails, leaves through the interpreter instead."""
    code = main()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except Exception:  # say a closed pipe: the interpreter reports it and sets the status
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
