"""Line-coverage ingestion and per-API attribution.

Parses LCOV-style tracefiles, derives entry-function extents, and attributes
instrumented lines (ELOC) and executed lines to catalog APIs. ELOC is always
the instrumented-line count reported by the coverage run, never raw source
lines, so an API's size reflects the build that was actually measured.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from collections.abc import Container, Iterable, Sequence
from operator import countOf
from typing import NamedTuple

from .catalog import ApiCatalog, ApiSymbol, with_annotation
from .diagnostics import Diagnostics
from .errors import FileSetMismatchError, MalformedDirectiveError

# Counts are only ever compared with zero; saturate rather than grow without bound.
MAX_COUNT = 2**63 - 1

# Summary/branch directives: recognized, carry nothing we use.
_IGNORED = ("TN:", "FNF:", "FNH:", "LF:", "LH:", "BRDA:", "BRF:", "BRH:", "FNL:", "FNA:")


def _hit_lines(counts: dict[int, int]) -> int:
    """Lines with a count above zero. Parse and merge never store a negative
    count, so this is every line but the zeros, counted in C."""
    return len(counts) - countOf(counts.values(), 0)


class FileCoverage(NamedTuple):
    """One instrumented file. Parse and merge fill its two dicts in place:
    `functions` maps each (name, start) to its end line or None, in the order
    first seen."""

    path: str
    functions: dict[tuple[str, int], int | None]
    line_counts: dict[int, int]


class Tracefile(NamedTuple):
    records: Sequence[FileCoverage] = ()

    def by_path(self) -> dict[str, FileCoverage]:
        return {fc.path: fc for fc in self.records}

    def total_lines(self) -> int:
        return sum(len(fc.line_counts) for fc in self.records)

    def covered_lines(self) -> int:
        return sum(_hit_lines(fc.line_counts) for fc in self.records)

    def overall_coverage_pct(self) -> float:
        total = self.total_lines()
        if total == 0:
            return 0.0
        return 100.0 * self.covered_lines() / total


def _int_field(text: str, what: str, line_number: int, minimum: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        raise MalformedDirectiveError(f"{what} is not an integer: {text!r}", line_number) from None
    if value < minimum:
        raise MalformedDirectiveError(f"{what} must be >= {minimum}: {value}", line_number)
    return value


def _add_function(functions: dict[tuple[str, int], int | None], key: tuple[str, int], end: int | None) -> None:
    """Record a function once per (name, start); repeats widen its end line."""
    known = functions.setdefault(key, end)
    if end is not None and (known is None or end > known):
        functions[key] = end


# The patterns below are compiled on first use (re keeps them cached), so stage
# processes that never parse a tracefile do not pay for compiling them.

# Any line boundary str.splitlines honours besides "\n": a text holding one is
# parsed line by line throughout.
_ODD_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

# One well-formed record, validated in a single match. Lines carry no padding;
# a numeric field is ASCII digits with no sign, underscore or leading zero, and
# at most 18 digits, so int() accepts it and no single count reaches MAX_COUNT.
_NUM = "[1-9][0-9]{0,17}"
_IGNORED_LINE = "(?:" + "|".join(d[:-1] for d in _IGNORED) + r"):(?:[^\n]*\S)?"
_FN_LINE = rf"FN:{_NUM},(?:{_NUM},)?[^,\n]*[^,\s]"
_FNDA_LINE = r"FNDA:[^,\n]*,(?:[^\n]*\S)?"
_DA_LINE = rf"DA:{_NUM},(?:0|{_NUM})(?:,(?:[^\n]*\S)?)?\n"
_BODY = rf"(?:(?:{_FN_LINE}|{_FNDA_LINE}|{_IGNORED_LINE})?\n)*"
_RECORD = (
    rf"(?:(?:{_IGNORED_LINE})?\n)*"  # blank, TN and other ignored lines
    rf"SF:(?P<path>\S(?:[^\n]*\S)?)\n{_BODY}"
    rf"(?:(?P<da>(?:{_DA_LINE})+){_BODY})?"  # one contiguous run of DA lines
    r"end_of_record(?:\n|\Z)"
)
# Within a record _RECORD accepted, every FN line and its fields.
_FN_FIELDS = r"\nFN:([0-9]+),(?:([0-9]+),)?([^\n]*)"
_DA_CHECKSUM = r"(?m)^(DA:[0-9]+,[0-9]+),[^\n]*"
_END_OF_RECORD = "\nend_of_record\n"


def parse_tracefile(content: str, diag: Diagnostics | None = None) -> Tracefile:
    """Parse an LCOV tracefile.

    Repeated SF blocks for one path are merged (summed counts), keeping file
    paths unique within the result. Unknown directives are skipped with a
    diagnostic; anything unparsable raises MalformedDirectiveError.

    Well-formed records are taken whole; any other span goes through the
    line-by-line parser from its true line number, so results, events and
    errors are those of a line-by-line parse of the whole text.
    """
    records: dict[str, FileCoverage] = {}
    # `in` returns at once for a character too wide for the text's storage, so
    # ASCII text is searched only for the one-byte breaks.
    if any(c in content for c in _ODD_BREAKS):
        _parse_lines(content, 1, records, diag)
        return Tracefile(records=list(records.values()))

    record = re.compile(_RECORD)
    pos, line_number, size = 0, 1, len(content)
    while pos < size:
        match = record.match(content, pos)
        if match is None:
            end = content.find(_END_OF_RECORD, pos)
            end = size if end < 0 else end + len(_END_OF_RECORD)
            _parse_lines(content[pos:end], line_number, records, diag)
        else:
            end = match.end()
            _add_record(content, match, records)
        line_number += content.count("\n", pos, end)
        pos = end
    return Tracefile(records=list(records.values()))


def _add_counts(counts: dict[int, int], pairs: Iterable[tuple[int, int]]) -> None:
    """Add (line, count) pairs to `counts`, summing repeats and saturating at MAX_COUNT."""
    for line, count in pairs:
        if line in counts:
            count += counts[line]
        counts[line] = count if count < MAX_COUNT else MAX_COUNT


def _add_record(content: str, match: re.Match[str], records: dict[str, FileCoverage]) -> None:
    """Merge one record that _RECORD accepted.

    Functions are added one by one, widening a repeated one's end line. A
    file's first counts are taken in one step if the record repeats no line;
    other counts are summed in line by line. No field reaches MAX_COUNT, so
    only a sum can saturate.
    """
    path, run = match.group("path", "da")
    fc = records.get(path)
    if fc is None:
        fc = records[path] = FileCoverage(path, {}, {})
    for start, end, name in re.compile(_FN_FIELDS).findall(content, match.start(), match.end()):
        _add_function(fc.functions, (name, int(start)), int(end) if end else None)
    if run is None:
        return
    if run.count(",") != run.count("\n"):
        run = re.sub(_DA_CHECKSUM, r"\1", run)
    # The C JSON decoder turns the whole run into ints: line, count, line, count, ...
    values = json.loads("[" + run[3:-1].replace("\nDA:", ",") + "]")
    if not fc.line_counts:
        pairs = iter(values)
        counts = dict(zip(pairs, pairs))
        if 2 * len(counts) == len(values):
            fc.line_counts.update(counts)
            return
    _add_counts(fc.line_counts, zip(values[::2], values[1::2]))


def _parse_lines(
    text: str,
    first_line: int,
    records: dict[str, FileCoverage],
    diag: Diagnostics | None,
) -> None:
    """Parse `text` line by line into `records`; its first line is `first_line`."""
    current: FileCoverage | None = None
    counts: dict[int, int] | None = None

    for line_number, raw in enumerate(text.splitlines(), start=first_line):
        line = raw.strip()
        # DA lines are most of any tracefile: test them first, add inline.
        if line.startswith("DA:"):
            if counts is None:
                raise MalformedDirectiveError("DA outside an SF record", line_number)
            parts = line[3:].split(",")
            try:
                lineno = int(parts[0])
                count = int(parts[1])
            except (ValueError, IndexError):
                lineno = count = 0
            if lineno < 1 or count < 0:
                # Raise the error for the first bad field.
                if len(parts) < 2:
                    raise MalformedDirectiveError(f"DA expects line,count: {line!r}", line_number)
                _int_field(parts[0], "DA line", line_number)
                _int_field(parts[1], "DA count", line_number, minimum=0)
            if lineno in counts:
                count += counts[lineno]
            counts[lineno] = count if count < MAX_COUNT else MAX_COUNT
            continue
        if not line:
            continue
        if line == "end_of_record":
            current = counts = None
            continue
        if line.startswith("SF:"):
            path = line[3:].strip()
            if not path:
                raise MalformedDirectiveError("SF with empty path", line_number)
            current = records.setdefault(path, FileCoverage(path, {}, {}))
            counts = current.line_counts
            continue
        if line.startswith(_IGNORED):
            continue
        if line.startswith("FN:"):
            if current is None:
                raise MalformedDirectiveError("FN outside an SF record", line_number)
            parts = line[3:].split(",")
            if len(parts) not in (2, 3):
                raise MalformedDirectiveError(f"FN expects start[,end],name: {line!r}", line_number)
            start = _int_field(parts[0], "FN start line", line_number)
            end = _int_field(parts[1], "FN end line", line_number) if len(parts) == 3 else None
            name = parts[-1]
            if not name:
                raise MalformedDirectiveError("FN with empty function name", line_number)
            _add_function(current.functions, (name, start), end)
            continue
        if line.startswith("FNDA:"):
            if current is None:
                raise MalformedDirectiveError("FNDA outside an SF record", line_number)
            if "," not in line[5:]:
                raise MalformedDirectiveError(f"FNDA expects count,name: {line!r}", line_number)
            continue
        head, sep, _ = line.partition(":")
        if sep and head.isupper() and head.isalnum():
            if diag:
                diag.emit("unknown_directive", directive=head, line=line_number)
            continue
        raise MalformedDirectiveError(f"unrecognized line: {line!r}", line_number)


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
        ordered = sorted(fc.functions.items(), key=lambda item: item[0][1])
        max_da = max(fc.line_counts) if fc.line_counts else 0
        for i, ((name, start), end) in enumerate(ordered):
            if end is None and i + 1 < len(ordered):
                end = ordered[i + 1][0][1] - 1
            elif end is None:
                end = max(max_da, start)
            per_file[name] = (start, max(end, start))
        extents[fc.path] = per_file
    return extents


_Site = tuple[str, int, int, int, int]  # path, start, end, eloc, covered


def _choose_sites(
    tf: Tracefile, names: Container[str]
) -> tuple[dict[str, list[_Site]], dict[str, list[int]]]:
    """Every site of each API in `names` that `tf` defines, best first.

    Largest ELOC wins; path breaks ties for determinism. Each file's lines
    are sorted once and every extent is measured by bisecting them; those
    sorted instrumented lines come back too, keyed by path.
    """
    by_path = tf.by_path()
    sites: dict[str, list[_Site]] = {}
    sorted_lines: dict[str, list[int]] = {}
    for path, per_file in function_extents(tf).items():
        counts = by_path[path].line_counts
        lines = sorted_lines[path] = sorted(counts)
        covered = [line for line in lines if counts[line] > 0]
        for name, (start, end) in per_file.items():
            if name not in names:
                continue
            eloc = bisect_right(lines, end) - bisect_left(lines, start)
            hit = bisect_right(covered, end) - bisect_left(covered, start)
            sites.setdefault(name, []).append((path, start, end, eloc, hit))
    for measured in sites.values():
        measured.sort(key=lambda m: (-m[3], m[0]))
    return sites, sorted_lines


def annotate_catalog_coverage(
    catalog: ApiCatalog, tf: Tracefile, diag: Diagnostics | None = None
) -> ApiCatalog:
    """Attach per-API location, ELOC and covered-line counts from a tracefile.

    APIs without a matching function stay unannotated (unmeasured, not 0%).
    A name defined in several files resolves to the largest-ELOC definition,
    with a warning diagnostic.
    """
    sites, _ = _choose_sites(tf, catalog.apis)
    # Start from bare symbols: a rerun must not keep a previous run's annotation.
    annotated = ApiCatalog(
        library=catalog.library,
        apis={name: ApiSymbol(name) for name in catalog.apis},
        created_at=catalog.created_at,
        provenance=dict(catalog.provenance),
    )
    for name, measured in sites.items():
        if len(measured) > 1 and diag:
            diag.emit(
                "ambiguous_function",
                api=name,
                chosen=measured[0][0],
                others=[m[0] for m in measured[1:]],
            )
        annotated.apis[name] = with_annotation(annotated.apis[name], *measured[0])
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
    """Union files, sum per-line counts, union function records.

    parse_tracefile already merges repeated paths and functions and saturates
    sums, so a file's first copy is taken as it is, and one tracefile comes
    back itself: the result then aliases the input.
    """
    if len(tracefiles) == 1:
        return tracefiles[0]
    merged: dict[str, FileCoverage] = {}
    for tf in tracefiles:
        for fc in tf.records:
            target = merged.get(fc.path)
            if target is None:  # a file's first copy has nothing to sum or widen
                merged[fc.path] = FileCoverage(fc.path, dict(fc.functions), dict(fc.line_counts))
                continue
            _add_counts(target.line_counts, fc.line_counts.items())
            for key, end in fc.functions.items():
                _add_function(target.functions, key, end)
    return Tracefile(records=list(merged.values()))


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
) -> dict:
    """Classify every catalog API by what the augmented run adds: the
    improvement report, as its artifact holds it.

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
    base_counts = {fc.path: fc.line_counts for fc in baseline.records}
    aug_counts = {fc.path: fc.line_counts for fc in augmented.records}
    total_universe = universe.total_lines()

    def overall(run_counts: dict[str, dict[int, int]]) -> float:
        # Every line of either run is in the universe, so count the run's own hits.
        hits = sum(_hit_lines(counts) for counts in run_counts.values())
        return 100.0 * hits / total_universe if total_universe else 0.0

    sites, sorted_lines = _choose_sites(universe, catalog.apis)
    newly: list[str] = []
    improved: list[str] = []
    new_api_lines = 0
    for name in sorted(sites):
        path, start, _end, eloc, _covered = sites[name][0]
        lines = sorted_lines[path]
        lo = bisect_left(lines, start)
        base = base_counts.get(path, {})
        aug = aug_counts.get(path, {})
        base_cov = aug_cov = 0
        for line in lines[lo : lo + eloc]:
            in_base = base.get(line, 0) > 0
            in_aug = aug.get(line, 0) > 0
            base_cov += in_base
            aug_cov += in_aug
            new_api_lines += in_aug and not in_base
        if base_cov == 0 and aug_cov > 0:
            newly.append(name)
        elif base_cov > 0 and aug_cov > base_cov:
            improved.append(name)

    extra_pct = overall(aug_counts) - overall(base_counts)
    if diag:
        diag.emit("coverage_delta", extra_pct=extra_pct, newly=len(newly), improved=len(improved))
    return {
        "extra_total_coverage_pct": extra_pct,
        "newly_covered_apis": newly,
        "improved_apis": improved,
        "new_api_lines_covered": new_api_lines,
    }
