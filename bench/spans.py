"""Span recorder and the traced in-process run behind the per-layer metrics.

The traced run calls the public functions of each apimeter module in the
order the CLI calls them, with a span around each call. Three inner steps
are reached by wrapping module attributes for the length of the run, since
the CLI never calls them itself: the ELF read and header harvest inside
`build_catalog`, and the file reads and lexing inside `scan_client`. The
read wrapper drains `iter_client_sources` before `scan_sources` starts, so
read and scan time separate. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
from collections import defaultdict
from pathlib import Path

from apimeter import catalog as catalog_mod
from apimeter import cli, clientprep, coverage, metrics, reports, scan
from apimeter.diagnostics import Diagnostics

LAYERS = ("catalog", "clientprep", "scan", "coverage", "metrics", "reports")
SPANS = ("catalog", "catalog.elf", "catalog.headers", "clientprep.inventory", "clientprep.prepare",
         "scan.client", "scan.read", "scan.sources", "scan.lex", "scan.aggregate", "coverage.parse",
         "coverage.merge", "coverage.median", "coverage.annotate", "coverage.delta", "metrics.tables",
         "reports.emit")
COUNTS = ("catalog.symbols", "catalog.header_bytes", "catalog.apis", "clientprep.dirs",
          "clientprep.lib_dirs", "clientprep.excluded_dirs", "clientprep.excluded_files", "scan.files",
          "scan.bytes", "scan.uses", "scan.sites", "coverage.records", "coverage.functions",
          "coverage.files", "reports.files", "reports.bytes", "cli.artifact_bytes",
          "diagnostics.emitted", "diagnostics.streamed")


class Recorder:
    """Spans as [name, start, end, parent index] plus named counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def summary(self) -> dict[str, float]:
        """Per span name: total time `<name>_s` and self time `<name>.self_s`
        (duration minus the part its child spans cover); per layer: busy
        time `<layer>.busy_s`, the spans with no ancestor in that layer."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}_s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = 0.0
        busy: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.self_s"] += (end - start) - child[idx]
            layer = name.split(".")[0]
            if parent is None or self.spans[parent][0].split(".")[0] != layer:
                busy[layer] += end - start
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        return out


class _Untraced:
    """Stands in for a Recorder when timing the same calls without spans."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, n: int) -> None:
        pass


def _wrap(rec: Recorder, name: str, fn, after=None, drain: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
            if drain:
                result = list(result)
        if after:
            after(result, *args)
        return result

    return wrapper


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Wrap the inner steps at the module attribute their caller looks up.
    An attribute a later version of apimeter no longer has is skipped."""

    def header_bytes(_ids, root):
        rec.count("catalog.header_bytes", sum(p.stat().st_size for p in Path(root).rglob("*.h")))

    def read_counts(files, *_):
        rec.count("scan.files", len(files))
        rec.count("scan.bytes", sum(len(text) for _, text in files))

    targets = [
        (catalog_mod, "exported_text_symbols", "catalog.elf",
         lambda syms, *_: rec.count("catalog.symbols", len(syms)), False),
        (catalog_mod, "harvest_header_identifiers", "catalog.headers", header_bytes, False),
        (scan, "iter_client_sources", "scan.read", read_counts, True),
        (scan, "scan_sources", "scan.sources", None, False),
        (scan, "strip_comments", "scan.lex", None, False),
        (scan, "mask_string_literals", "scan.lex", None, False),
        (scan, "strip_comment_lines", "scan.lex", None, False),
    ]
    saved = []
    try:
        for module, attr, name, after, drain in targets:
            original = getattr(module, attr, None)
            if original is not None:
                saved.append((module, attr, original))
                setattr(module, attr, _wrap(rec, name, original, after, drain))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def layer_run(plan, out: Path, rec) -> dict:
    """Every stage of the plan as direct library calls, spans around each.

    Returns the per-client uses and the catalog names, so the caller can
    check them against the model."""
    library = plan.lib.name
    config = cli.load_config(plan.config)
    spec = config.spec_for(library)
    diag = Diagnostics()
    cat = agg = improvement = None
    uses: dict[str, dict[str, int]] = {}

    def parse(path: str):
        text = Path(path).read_text()
        with rec.span("coverage.parse"):
            tf = coverage.parse_tracefile(text, diag)
        rec.count("coverage.records", sum(1 for ln in text.splitlines() if ln.startswith(("DA:", "FN:"))))
        rec.count("coverage.functions", sum(len(fc.functions) for fc in tf.records))
        rec.count("coverage.files", len(tf.records))
        return tf

    for stage in plan.stages:
        if stage.kind == "catalog":
            with rec.span("catalog"):
                cat = catalog_mod.build_catalog(spec, diag)
            rec.count("catalog.apis", len(cat.apis))
        elif stage.kind == "scan":
            options = config.scan_options(stage.sites)
            with rec.span("clientprep.inventory"):
                inv = clientprep.build_library_inventory(spec.source_roots)
            rec.count("clientprep.lib_dirs", len(inv.dirs))
            entries = [e for e in cli.load_dependency_db(config.dependency_db) if e.library == library]
            results = []
            for entry in sorted(entries, key=lambda e: e.client):
                root = Path(config.clients_root) / entry.client
                if not root.is_dir():
                    continue
                with rec.span("clientprep.prepare"):
                    record = clientprep.prepare_client(entry.client, root, spec, inv,
                                                       threshold=config.overlap_threshold,
                                                       min_lib_files=config.min_lib_files, diag=diag)
                with rec.span("scan.client"):
                    report = scan.scan_client(record, cat, options, diag)
                results.append(report)
                uses[entry.client] = report.uses
                rec.count("clientprep.dirs", plan.clients[entry.client].dirs)
                rec.count("clientprep.excluded_dirs", len(record.excluded_dirs))
                rec.count("clientprep.excluded_files", len(record.excluded_files))
                rec.count("scan.uses", report.total_uses)
                rec.count("scan.sites", len(report.sites or ()))
            with rec.span("scan.aggregate"):
                agg = scan.aggregate_reports(library, len(cat.apis), results)
        elif stage.kind == "coverage":
            if stage.tracefiles:
                runs = [parse(p) for p in stage.tracefiles]
                if stage.median:
                    with rec.span("coverage.median"):
                        chosen = coverage.select_median_run(runs)
                else:
                    with rec.span("coverage.merge"):
                        chosen = coverage.merge_tracefiles(runs)
                with rec.span("coverage.annotate"):
                    cat = coverage.annotate_catalog_coverage(cat, chosen, diag)
            if stage.baseline:
                base, aug = parse(stage.baseline), parse(stage.augmented)
                with rec.span("coverage.delta"):
                    improvement = (library, coverage.coverage_delta(base, aug, cat, diag))
        elif stage.kind == "report":
            with rec.span("metrics.tables"):
                tables = dict(
                    unused=[metrics.unused_apis(agg, cat)],
                    utilisation=metrics.client_utilisation_distribution(agg) if agg.reports else None,
                    uses=metrics.use_distribution(agg),
                    cov_buckets=metrics.coverage_buckets(cat),
                    size_rows=metrics.size_buckets(cat),
                    not_tested=metrics.used_not_tested(agg, cat),
                )
            with rec.span("reports.emit"):
                written = reports.emit_reports(out / "reports", **tables, improvement=improvement, diag=diag)
            rec.count("reports.files", len(written))
            rec.count("reports.bytes", sum(p.stat().st_size for p in written))
    rec.count("diagnostics.emitted", len(diag.events))
    return {"uses": uses, "catalog": sorted(cat.apis)}


def cli_run(plan, out: Path) -> dict[str, float]:
    """Each stage as an in-process `main([...])`, timed per stage kind."""
    times: dict[str, float] = defaultdict(float)
    for stage in plan.stages:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            rc = cli.main(stage.argv(plan.config, out))
            times[stage.kind] += time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"in-process {stage.kind} stage exited {rc}")
    return times


def traced(plan, work: Path, streamed: int) -> tuple[dict[str, float], list[str], Recorder]:
    """An untraced and a traced layer run, then the CLI run in process.

    Returns the per-layer metrics, any disagreement with the model, and the
    traced run's recorder."""
    start = time.perf_counter()
    layer_run(plan, work / "untraced", _Untraced())
    untraced_s = time.perf_counter() - start
    rec = Recorder()
    start = time.perf_counter()
    with instrumented(rec):
        got = layer_run(plan, work / "traced", rec)
    traced_s = time.perf_counter() - start

    problems = []
    if got["catalog"] != plan.lib.apis:
        problems.append("traced run: catalog differs from the model")
    for cid, model in plan.clients.items():
        if got["uses"].get(cid) != model.uses:
            problems.append(f"traced run: {cid} uses differ from the model")

    stage_s = cli_run(plan, work / "cli")
    m = rec.summary()
    m["cli.scan_stage_s"] = stage_s["scan"]
    m["cli.coverage_stage_s"] = stage_s["coverage"]
    # Stage time not spent in the layer calls: orchestration, pool and artifact writes.
    m["cli.scan_other_s"] = stage_s["scan"] - sum(
        m[k] for k in ("clientprep.inventory_s", "clientprep.prepare_s", "scan.client_s", "scan.aggregate_s"))
    m["cli.coverage_other_s"] = stage_s["coverage"] - sum(
        m[k] for k in ("coverage.parse_s", "coverage.merge_s", "coverage.median_s", "coverage.annotate_s",
                       "coverage.delta_s"))
    rec.count("cli.artifact_bytes", sum(p.stat().st_size for p in (work / "cli").rglob("*") if p.is_file()))
    rec.count("diagnostics.streamed", streamed)
    for name in COUNTS:
        m[name] = rec.counts.get(name, 0)
    emitted = rec.counts.get("diagnostics.emitted", 0)
    m["diagnostics.reach_share"] = streamed / emitted if emitted else 0.0
    m["trace.untraced_s"] = untraced_s
    m["trace.traced_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.spans"] = len(rec.spans)
    return m, problems, rec
