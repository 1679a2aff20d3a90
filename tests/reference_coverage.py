"""Frozen LCOV parser and attribution: the reference for `apimeter.coverage`.

This is the coverage module as it was before its parser, function-record
merge and site choice were rewritten to run in linear time. It is kept only
so the differential tests can check the rewrite against it; nothing outside
`tests/` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from apimeter.catalog import ApiCatalog, ApiSymbol
from apimeter.diagnostics import Diagnostics
from apimeter.errors import FileSetMismatchError, MalformedDirectiveError

# Counts are only ever compared with zero; saturate rather than grow without bound.
MAX_COUNT = 2**63 - 1

# Summary/branch directives: recognized, carry nothing we use.
_IGNORED = ("TN:", "FNF:", "FNH:", "LF:", "LH:", "BRDA:", "BRF:", "BRH:", "FNL:", "FNA:")


@dataclass
class FunctionRecord:
    name: str
    start: int
    end: int | None = None


@dataclass
class FileCoverage:
    path: str
    functions: list[FunctionRecord] = field(default_factory=list)
    line_counts: dict[int, int] = field(default_factory=dict)

    def add_count(self, line: int, count: int) -> None:
        self.line_counts[line] = min(self.line_counts.get(line, 0) + count, MAX_COUNT)

    def add_function(self, name: str, start: int, end: int | None) -> None:
        for fn in self.functions:
            if fn.name == name and fn.start == start:
                if fn.end is None:
                    fn.end = end
                elif end is not None:
                    fn.end = max(fn.end, end)
                return
        self.functions.append(FunctionRecord(name, start, end))


@dataclass
class Tracefile:
    records: list[FileCoverage] = field(default_factory=list)

    def by_path(self) -> dict[str, FileCoverage]:
        return {fc.path: fc for fc in self.records}

    def total_lines(self) -> int:
        return sum(len(fc.line_counts) for fc in self.records)

    def covered_lines(self) -> int:
        return sum(1 for fc in self.records for c in fc.line_counts.values() if c > 0)

    def overall_coverage_pct(self) -> float:
        total = self.total_lines()
        if total == 0:
            return 0.0
        return 100.0 * self.covered_lines() / total


@dataclass
class ImprovementReport:
    """What a second test run adds on top of a baseline."""

    extra_total_coverage_pct: float
    newly_covered_apis: list[str]
    improved_apis: list[str]
    new_api_lines_covered: int


def _positive_int(text: str, what: str, line_number: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise MalformedDirectiveError(f"{what} is not an integer: {text!r}", line_number) from None
    if value < 1:
        raise MalformedDirectiveError(f"{what} must be >= 1: {value}", line_number)
    return value


def parse_tracefile(content: str, diag: Diagnostics | None = None) -> Tracefile:
    """Parse an LCOV tracefile.

    Repeated SF blocks for one path are merged (summed counts), keeping file
    paths unique within the result. Unknown directives are skipped with a
    diagnostic; anything unparsable raises MalformedDirectiveError.
    """
    records: dict[str, FileCoverage] = {}
    current: FileCoverage | None = None

    for line_number, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "end_of_record":
            current = None
            continue
        if line.startswith("SF:"):
            path = line[3:].strip()
            if not path:
                raise MalformedDirectiveError("SF with empty path", line_number)
            current = records.setdefault(path, FileCoverage(path=path))
            continue
        if line.startswith(_IGNORED):
            continue
        if line.startswith("FN:"):
            if current is None:
                raise MalformedDirectiveError("FN outside an SF record", line_number)
            parts = line[3:].split(",")
            if len(parts) == 2:
                start = _positive_int(parts[0], "FN start line", line_number)
                end: int | None = None
                name = parts[1]
            elif len(parts) == 3:
                start = _positive_int(parts[0], "FN start line", line_number)
                end = _positive_int(parts[1], "FN end line", line_number)
                name = parts[2]
            else:
                raise MalformedDirectiveError(f"FN expects start[,end],name: {line!r}", line_number)
            if not name:
                raise MalformedDirectiveError("FN with empty function name", line_number)
            current.add_function(name, start, end)
            continue
        if line.startswith("FNDA:"):
            if current is None:
                raise MalformedDirectiveError("FNDA outside an SF record", line_number)
            if "," not in line[5:]:
                raise MalformedDirectiveError(f"FNDA expects count,name: {line!r}", line_number)
            continue
        if line.startswith("DA:"):
            if current is None:
                raise MalformedDirectiveError("DA outside an SF record", line_number)
            parts = line[3:].split(",")
            if len(parts) < 2:
                raise MalformedDirectiveError(f"DA expects line,count: {line!r}", line_number)
            lineno = _positive_int(parts[0], "DA line", line_number)
            try:
                count = int(parts[1])
            except ValueError:
                raise MalformedDirectiveError(f"DA count is not an integer: {parts[1]!r}", line_number) from None
            if count < 0:
                raise MalformedDirectiveError(f"DA count must be >= 0: {count}", line_number)
            current.add_count(lineno, count)
            continue
        head, sep, _ = line.partition(":")
        if sep and head.isupper() and head.isalnum():
            if diag:
                diag.emit("unknown_directive", directive=head, line=line_number)
            continue
        raise MalformedDirectiveError(f"unrecognized line: {line!r}", line_number)

    return Tracefile(records=[records[p] for p in records])


def function_extents(tf: Tracefile) -> dict[str, dict[str, tuple[int, int]]]:
    """Entry-function line extents per file.

    Explicit end lines are trusted as declared. Without one, a function runs
    to the line before the next function, or to the file's last instrumented
    line for the final function — an over-approximation, but the best a
    coverage dump alone can know.
    """
    extents: dict[str, dict[str, tuple[int, int]]] = {}
    for fc in tf.records:
        per_file: dict[str, tuple[int, int]] = {}
        ordered = sorted(fc.functions, key=lambda f: f.start)
        max_da = max(fc.line_counts) if fc.line_counts else 0
        for i, fn in enumerate(ordered):
            if fn.end is not None:
                end = fn.end
            elif i + 1 < len(ordered):
                end = ordered[i + 1].start - 1
            else:
                end = max(max_da, fn.start)
            per_file[fn.name] = (fn.start, max(end, fn.start))
        extents[fc.path] = per_file
    return extents


def _extent_counts(fc: FileCoverage, start: int, end: int) -> tuple[int, int]:
    eloc = 0
    covered = 0
    for line, count in fc.line_counts.items():
        if start <= line <= end:
            eloc += 1
            if count > 0:
                covered += 1
    return eloc, covered


def annotate_catalog_coverage(
    catalog: ApiCatalog, tf: Tracefile, diag: Diagnostics | None = None
) -> ApiCatalog:
    """Attach per-API location, ELOC and covered-line counts from a tracefile.

    APIs without a matching function stay unannotated (unmeasured, not 0%).
    A name defined in several files resolves to the largest-ELOC definition,
    with a warning diagnostic.
    """
    extents = function_extents(tf)
    by_path = tf.by_path()

    candidates: dict[str, list[tuple[str, int, int]]] = {}
    for path, per_file in extents.items():
        for name, (start, end) in per_file.items():
            if name in catalog.apis:
                candidates.setdefault(name, []).append((path, start, end))

    # Start from bare symbols: a rerun must not keep a previous run's annotation.
    annotated = ApiCatalog(
        library=catalog.library,
        apis={name: ApiSymbol(name=name) for name in catalog.apis},
        created_at=catalog.created_at,
        provenance=dict(catalog.provenance),
    )
    for name, sites in candidates.items():
        measured = [
            (path, start, end, *_extent_counts(by_path[path], start, end))
            for path, start, end in sites
        ]
        # Largest ELOC wins; path breaks ties for determinism.
        measured.sort(key=lambda m: (-m[3], m[0]))
        if len(measured) > 1 and diag:
            diag.emit(
                "ambiguous_function",
                api=name,
                chosen=measured[0][0],
                others=[m[0] for m in measured[1:]],
            )
        path, start, end, eloc, covered = measured[0]
        annotated.apis[name] = ApiSymbol(name, path, start, end, eloc, covered)
    return annotated


def filter_tracefile(tf: Tracefile, exclude_prefixes: list[str]) -> Tracefile:
    """Drop records whose path starts with any prefix.

    Overall coverage is an over-approximation when test or auxiliary files
    were instrumented alongside the library; callers who can identify them
    by path prefix can carve them out of the totals.
    """
    if not exclude_prefixes:
        return tf
    kept = [fc for fc in tf.records if not any(fc.path.startswith(p) for p in exclude_prefixes)]
    return Tracefile(records=kept)


def merge_tracefiles(tracefiles: list[Tracefile]) -> Tracefile:
    """Union files, sum per-line counts, union function records."""
    merged: dict[str, FileCoverage] = {}
    for tf in tracefiles:
        for fc in tf.records:
            target = merged.setdefault(fc.path, FileCoverage(path=fc.path))
            for line, count in fc.line_counts.items():
                target.add_count(line, count)
            for fn in fc.functions:
                target.add_function(fn.name, fn.start, fn.end)
    return Tracefile(records=[merged[p] for p in merged])


def select_median_run(runs: list[Tracefile]) -> Tracefile:
    """The run whose overall coverage is the median (lower median for even n)."""
    if not runs:
        raise ValueError("select_median_run needs at least one tracefile")
    ranked = sorted(range(len(runs)), key=lambda i: runs[i].overall_coverage_pct())
    return runs[ranked[(len(runs) - 1) // 2]]


def coverage_delta(
    baseline: Tracefile,
    augmented: Tracefile,
    catalog: ApiCatalog,
    diag: Diagnostics | None = None,
) -> ImprovementReport:
    """Classify every catalog API by what the augmented run adds.

    Both runs are compared over the union of their instrumented lines and a
    single set of function extents (from the merged view), so runs whose
    line universes differ slightly still compare line-for-line.
    """
    base_paths = {fc.path for fc in baseline.records}
    aug_paths = {fc.path for fc in augmented.records}
    if base_paths and aug_paths and not base_paths & aug_paths:
        raise FileSetMismatchError(
            "baseline and augmented tracefiles share no files; coverage is from different builds"
        )

    universe = merge_tracefiles([baseline, augmented])
    extents = function_extents(universe)
    base_by_path = baseline.by_path()
    aug_by_path = augmented.by_path()

    def covered_in(run_files: dict[str, FileCoverage], path: str, line: int) -> bool:
        fc = run_files.get(path)
        return fc is not None and fc.line_counts.get(line, 0) > 0

    total_universe = universe.total_lines()

    def overall(run_files: dict[str, FileCoverage]) -> float:
        if total_universe == 0:
            return 0.0
        covered = sum(
            1
            for fc in universe.records
            for line in fc.line_counts
            if covered_in(run_files, fc.path, line)
        )
        return 100.0 * covered / total_universe

    universe_by_path = universe.by_path()
    newly: list[str] = []
    improved: list[str] = []
    new_api_lines = 0
    for name in sorted(catalog.apis):
        sites = [(path, se[0], se[1]) for path, per in extents.items() if (se := per.get(name))]
        if not sites:
            continue
        measured = [
            (path, start, end, *_extent_counts(universe_by_path[path], start, end))
            for path, start, end in sites
        ]
        measured.sort(key=lambda m: (-m[3], m[0]))
        path, start, end, _eloc, _cov = measured[0]
        extent_lines = [
            line for line in universe_by_path[path].line_counts if start <= line <= end
        ]
        base_cov = sum(1 for line in extent_lines if covered_in(base_by_path, path, line))
        aug_cov = sum(1 for line in extent_lines if covered_in(aug_by_path, path, line))
        new_api_lines += sum(
            1
            for line in extent_lines
            if covered_in(aug_by_path, path, line) and not covered_in(base_by_path, path, line)
        )
        if base_cov == 0 and aug_cov > 0:
            newly.append(name)
        elif base_cov > 0 and aug_cov > base_cov:
            improved.append(name)

    report = ImprovementReport(
        extra_total_coverage_pct=overall(aug_by_path) - overall(base_by_path),
        newly_covered_apis=newly,
        improved_apis=improved,
        new_api_lines_covered=new_api_lines,
    )
    if diag:
        diag.emit(
            "coverage_delta",
            extra_pct=report.extra_total_coverage_pct,
            newly=len(newly),
            improved=len(improved),
        )
    return report
