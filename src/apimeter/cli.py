"""Pipeline orchestration: catalog, scan, coverage, report, eval.

Each stage persists its artifact and any later stage reruns from persisted
artifacts alone. Skips and warnings never change the exit status; only
fatal errors do.

Each stage runs as its own process, so a command imports the stage modules
it needs when it starts; at module scope this file loads only what every
stage shares (artifacts, catalog, diagnostics, errors).
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import sys
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, NamedTuple

from . import artifacts
from .artifacts import Field, are_strings, checked, is_count
from .catalog import (
    DEFAULT_FILE_CAP_BYTES,
    DEFAULT_MIN_LIB_FILES,
    DEFAULT_OVERLAP_THRESHOLD,
    LibrarySpec,
    build_catalog,
    load_catalog,
    save_catalog,
)
from .diagnostics import Diagnostics, stderr_diagnostics
from .errors import (
    ApimeterError,
    ConfigError,
    DependencyDbError,
    FileSetMismatchError,
    InputFileError,
    MalformedDirectiveError,
    MissingInputsError,
    ScanWorkerError,
)

if TYPE_CHECKING:
    from .scan import CorpusAggregate, ScanOptions, UsageReport


class DependencyEntry(NamedTuple):
    client: str
    library: str


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
    ("dependency", "client"): Field(str, ..., "a string"),
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


def usage_report_dict(report: UsageReport) -> dict:
    return {
        "schema_version": artifacts.SCHEMA_VERSION,
        "client": report.client_id,
        "library": report.library,
        "uses": dict(sorted(report.uses.items())),
        "distinct": report.distinct_count,
        "utilisation_pct": report.utilisation_pct,
        "catalog_size": report.catalog_size,
    }


def corpus_dict(agg: CorpusAggregate, skipped: list[str]) -> dict:
    return {
        "schema_version": artifacts.SCHEMA_VERSION,
        "library": agg.library,
        "catalog_size": agg.catalog_size,
        "clients": [usage_report_dict(r) for r in agg.reports],
        "api_client_counts": dict(sorted(agg.api_client_counts.items())),
        "api_total_uses": dict(sorted(agg.api_total_uses.items())),
        "clients_without_uses": sorted(agg.clients_without_uses),
        "skipped_clients": sorted(skipped),
    }


_COUNT = Field(int, ..., "a non-negative integer", is_count)
_CORPUS = {"library": Field(str, ..., "a string"), "catalog_size": _COUNT, "clients": Field(list, ..., "a list")}
# Each of a corpus's `clients`; its `catalog_size` defaults to the corpus's.
_CLIENT = {
    "client": Field(str, ..., "a string"),
    "uses": Field(dict, ..., "an object of non-negative integers", lambda v: all(map(is_count, v.values()))),
}


def corpus_from_dict(doc: dict) -> CorpusAggregate:
    from .scan import UsageReport, aggregate_reports

    artifacts.check_schema_version(doc)
    top = checked(doc, _CORPUS)
    client_fields = {**_CLIENT, "catalog_size": _COUNT._replace(default=top["catalog_size"])}
    by_client: dict[str, UsageReport] = {}
    for i, c in enumerate(top["clients"]):
        c = checked(c, client_fields, scope=f"clients[{i}]")
        # Counted twice, a client would raise its APIs' client counts past the number of clients.
        if c["client"] in by_client:
            raise TypeError(f"clients[{i}].client must be unique: {c['client']!r}")
        by_client[c["client"]] = UsageReport(
            client_id=c["client"], library=top["library"], uses=dict(c["uses"]), catalog_size=c["catalog_size"]
        )
    return aggregate_reports(top["library"], top["catalog_size"], list(by_client.values()))


_IMPROVEMENT = {
    "extra_total_coverage_pct": Field((int, float), ..., "a number"),
    **dict.fromkeys(("newly_covered_apis", "improved_apis"), Field(list, ..., "a list of strings", are_strings)),
    "new_api_lines_covered": _COUNT,
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


# What every client of one `scan` run shares (spec, inventory, catalog,
# config, collect_sites). `_init_worker` sets it once, in the stage's own
# process, before any `--jobs` worker is forked; each worker inherits it. So
# each client needs just its (entry, root).
_worker_context: tuple = ()


def _init_worker(*context) -> None:
    global _worker_context
    _worker_context = context


def _scan_one(entry: DependencyEntry, root: Path) -> tuple[dict, UsageReport, list[dict]]:
    """Prepare and scan one client: its prep artifact, usage report and
    diagnostics as events, which the caller replays in client order,
    whichever process ran it."""
    from . import clientprep, scan  # loaded by cmd_scan before any worker starts

    spec, inv, catalog, config, collect_sites = _worker_context
    diag = Diagnostics()
    rec = clientprep.prepare_client(
        entry.client,
        root,
        spec,
        inv,
        threshold=config.overlap_threshold,
        min_lib_files=config.min_lib_files,
        diag=diag,
    )
    report = scan.scan_client(rec, catalog, config.scan_options(collect_sites), diag)
    return clientprep.prep_report_dict(rec), report, diag.events


def _send_results(jobs: list[tuple[DependencyEntry, Path]], write_fd: int) -> None:
    """In a forked worker: scan `jobs` in order and write each `_scan_one` result, or the
    exception it raised, to `write_fd` as a length-prefixed pickle. An exception is the last."""
    import pickle

    with os.fdopen(write_fd, "wb") as out:
        for entry, root in jobs:
            try:
                result = (True, _scan_one(entry, root))
            except Exception as exc:
                result = (False, exc)
            blob = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            out.write(len(blob).to_bytes(8, "little"))
            out.write(blob)
            out.flush()
            if not result[0]:
                return


def _scan_in_workers(
    jobs: list[tuple[DependencyEntry, Path]], workers: int, keep: Callable[..., UsageReport]
) -> list[UsageReport]:
    """`keep(*result)` for each client's `_scan_one` result, in client order, scanned by
    `workers` processes forked here. Worker w scans clients w, w + workers, ... and sends
    each result down its own pipe; it blocks while the pipe is full, so this process holds
    at most one result per worker. A worker's exception is raised at its client's turn.
    Every worker is killed and reaped on the way out, whatever the way. Forking is safe
    because the stage starts no thread."""
    import pickle
    import signal

    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe)
    try:
        for w in range(workers):
            try:
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
            except OSError as exc:
                raise ScanWorkerError(f"cannot start scan worker {w + 1} of {workers}: {exc}") from exc
            if pid == 0:  # the worker: it never returns from here
                status = 1
                try:
                    os.close(read_fd)
                    for _, pipe in children:
                        pipe.close()
                    _send_results(jobs[w::workers], write_fd)
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, os.fdopen(read_fd, "rb")))
            os.close(write_fd)
        usage = []
        for i, (entry, _) in enumerate(jobs):
            pid, pipe = children[i % workers]
            size = int.from_bytes(pipe.read(8), "little")
            blob = pipe.read(size)
            if not blob or len(blob) < size:
                _, status = os.waitpid(pid, 0)
                children.remove((pid, pipe))
                pipe.close()
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise ScanWorkerError(f"scan worker for client {entry.client!r} ended without its result ({how})")
            ok, value = pickle.loads(blob)
            if not ok:
                raise value
            usage.append(keep(*value))
        return usage
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # a worker that has exited stays a zombie until reaped
            os.waitpid(pid, 0)


def cmd_scan(config: RunConfig, args: argparse.Namespace, diag: Diagnostics) -> int:
    from . import clientprep, scan

    library = args.library
    if config.dependency_db is None or config.clients_root is None:
        raise ConfigError("scan requires dependency_db and clients_root in the configuration")
    catalog = load_catalog(_stage_input(catalog_path(config, library), "catalog"))
    spec = config.spec_for(library)
    inv = clientprep.build_library_inventory(spec.source_roots)
    entries = [e for e in load_dependency_db(config.dependency_db) if e.library == library]

    jobs: list[tuple[DependencyEntry, Path]] = []
    skipped: list[str] = []
    clients_root = Path(config.clients_root)
    for entry in sorted(entries, key=lambda e: e.client):
        root = clients_root / entry.client
        if root.is_dir():
            jobs.append((entry, root))
        else:
            skipped.append(entry.client)
            diag.emit("client_missing", client=entry.client, expected=str(root))

    out_dir = Path(config.output_dir)

    def keep(prep: dict, report: UsageReport, events: list[dict]) -> UsageReport:
        """Replay one client's events and write its artifacts as its result arrives. Returns the
        report without its sites, which is all the corpus needs."""
        for event in events:
            diag.emit(**event)
        stem = f"{_slug(library)}_{_slug(report.client_id)}"
        artifacts.write_json(out_dir / f"prep_{stem}.json", prep)
        artifacts.write_json(out_dir / f"usage_{stem}.json", usage_report_dict(report))
        if report.sites is not None:
            listing = "".join(f"{s.file}:{s.line}:{s.api}\n" for s in report.sites)
            artifacts.write_text(out_dir / f"usage_{stem}.sites.txt", listing)
        return report._replace(sites=None)

    _init_worker(spec, inv, catalog, config, args.sites)
    # Every worker is forked at once with a fixed share of the clients, so never more than there are clients.
    workers = min(config.jobs, len(jobs))
    if workers > 1:
        usage = _scan_in_workers(jobs, workers, keep)
    else:
        usage = [keep(*_scan_one(entry, root)) for entry, root in jobs]

    agg = scan.aggregate_reports(library, len(catalog.apis), usage)
    artifacts.write_json(corpus_path(config, library), corpus_dict(agg, skipped))
    print(
        f"{library}: scanned {len(usage)} clients"
        + (f", skipped {len(skipped)}" if skipped else "")
        + f" -> {corpus_path(config, library)}"
    )
    return 0


def cmd_coverage(config: RunConfig, args: argparse.Namespace, diag: Diagnostics) -> int:
    from . import coverage

    library, baseline, augmented = args.library, args.baseline, args.augmented
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

    if baseline is not None or augmented is not None:
        if baseline is None or augmented is None:
            raise ConfigError("--baseline and --augmented must be given together")
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
    elif not args.tracefiles:
        raise ConfigError("coverage needs tracefiles, or --baseline/--augmented")
    return 0


def cmd_report(config: RunConfig, args: argparse.Namespace, diag: Diagnostics) -> int:
    from . import metrics, reports

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
            checked({"count": count}, {"count": _COUNT}, f"{where}{who}, API {api!r}: ", error=InputFileError)
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
    diag = stderr_diagnostics()
    try:
        return args.run(_config_from_args(args), args, diag)
    except ApimeterError as exc:
        diag.emit("fatal", error=type(exc).__name__, message=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
