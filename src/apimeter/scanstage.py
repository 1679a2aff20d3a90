"""The `scan` command: prepare and scan every client of one library,
serially or in forked worker processes, and write the usage artifacts.

Only the `scan` stage imports this module, so no other stage process
compiles the worker pool.
"""

from __future__ import annotations

import argparse
import functools
import os
from pathlib import Path
from typing import BinaryIO, Callable

from . import artifacts, clientprep, scan
from .catalog import load_catalog
from .cli import DependencyEntry, RunConfig, _slug, _stage_input, catalog_path, corpus_path, load_dependency_db
from .diagnostics import Diagnostics
from .errors import ConfigError, ScanWorkerError
from .usage import UsageReport, aggregate_reports, corpus_dict, usage_report_dict


def _scan_one(context: tuple, entry: DependencyEntry, root: Path) -> tuple[dict, UsageReport, list[dict]]:
    """Prepare and scan one client: its prep artifact, usage report and
    diagnostics as events, which the caller replays in client order,
    whichever process ran it. `context` is what every client of the run
    shares: (spec, inventory, catalog, config, collect_sites)."""
    spec, inv, catalog, config, collect_sites = context
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


def _scan_in_workers(
    scan_one: Callable[..., tuple],
    jobs: list[tuple[DependencyEntry, Path]],
    workers: int,
    keep: Callable[..., tuple[UsageReport, dict]],
) -> list[tuple[UsageReport, dict]]:
    """`keep(*result)` for each client's `scan_one` result, in client order, scanned by
    `workers` processes forked here. Worker w scans clients w, w + workers, ... and pickles
    each result, or the exception that ends its share, down its own pipe; it blocks while
    the pipe is full, so this process holds at most one result per worker. A worker's
    exception is raised at its client's turn.
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
                    with os.fdopen(write_fd, "wb") as out:
                        for entry, root in jobs[w::workers]:
                            try:
                                result = (True, scan_one(entry, root))
                            except Exception as exc:
                                result = (False, exc)
                            pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
                            out.flush()
                            if not result[0]:
                                break
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, os.fdopen(read_fd, "rb")))
            os.close(write_fd)
        usage = []
        for i, (entry, _) in enumerate(jobs):
            pid, pipe = children[i % workers]
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                _, status = os.waitpid(pid, 0)
                children.remove((pid, pipe))
                pipe.close()
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise ScanWorkerError(f"scan worker for client {entry.client!r} ended without its result ({how})") from None
            if not ok:
                raise value
            usage.append(keep(*value))
        return usage
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # a worker that has exited stays a zombie until reaped
            os.waitpid(pid, 0)


def run_scan(config: RunConfig, args: argparse.Namespace, diag: Diagnostics) -> int:
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

    def keep(prep: dict, report: UsageReport, events: list[dict]) -> tuple[UsageReport, dict]:
        """Replay one client's events and write its artifacts as its result arrives. Returns the
        report without its sites and its usage dict, which is all the corpus needs."""
        for event in events:
            diag.emit(**event)
        stem = f"{_slug(library)}_{_slug(report.client_id)}"
        usage = usage_report_dict(report)
        artifacts.write_json(out_dir / f"prep_{stem}.json", prep)
        artifacts.write_json(out_dir / f"usage_{stem}.json", usage)
        if report.sites is not None:
            listing = "".join(f"{file}:{line}:{api}\n" for file, line, api in report.sites)
            artifacts.write_text(out_dir / f"usage_{stem}.sites.txt", listing)
        return report._replace(sites=None), usage

    scan_one = functools.partial(_scan_one, (spec, inv, catalog, config, args.sites))
    # Every worker is forked at once with a fixed share of the clients, so never more than there are clients.
    workers = min(config.jobs, len(jobs))
    if workers > 1:
        kept = _scan_in_workers(scan_one, jobs, workers, keep)
    else:
        kept = [keep(*scan_one(entry, root)) for entry, root in jobs]

    # Both in client order, as the jobs are: the corpus's clients are its reports' usage dicts.
    agg = aggregate_reports(library, len(catalog.apis), [report for report, _ in kept])
    artifacts.write_json(corpus_path(config, library), corpus_dict(agg, [usage for _, usage in kept], skipped))
    print(
        f"{library}: scanned {len(kept)} clients"
        + (f", skipped {len(skipped)}" if skipped else "")
        + f" -> {corpus_path(config, library)}"
    )
    return 0
