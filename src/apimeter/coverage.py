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
from itertools import compress
from typing import NamedTuple

from .catalog import ApiCatalog, ApiSymbol
from .diagnostics import SILENT, Diagnostics
from .errors import FileSetMismatchError, MalformedDirectiveError

# Summary/branch directives: recognized, carry nothing we use.
_IGNORED = ("TN:", "FNF:", "FNH:", "LF:", "LH:", "BRDA:", "BRF:", "BRH:", "FNL:", "FNA:")


class FileCoverage(NamedTuple):
    """One instrumented file. `functions` maps each (name, start) to its end
    line or None, in the order first seen. `lines` are the instrumented lines
    and `hit_lines` those with a count above zero, each sorted, no repeats: as
    tuples, which the garbage collector stops tracking once it sees only ints."""

    path: str
    functions: dict[tuple[str, int], int | None]
    lines: tuple[int, ...]
    hit_lines: tuple[int, ...]


class Tracefile(NamedTuple):
    records: Sequence[FileCoverage] = ()

    def by_path(self) -> dict[str, FileCoverage]:
        return {fc.path: fc for fc in self.records}

    def total_lines(self) -> int:
        return sum(len(fc.lines) for fc in self.records)

    def covered_lines(self) -> int:
        return sum(len(fc.hit_lines) for fc in self.records)

    def overall_coverage_pct(self) -> float:
        total = self.total_lines()
        return 100.0 * self.covered_lines() / total if total else 0.0


def _between(lines: Sequence[int], start: int, end: int) -> int:
    """How many of the sorted `lines` lie in [start, end]."""
    return bisect_right(lines, end) - bisect_left(lines, start)


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
# at most 18 digits. Any other line goes through the line-by-line parser, which
# gives the exact error for a field int() refuses.
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


def parse_tracefile(content: str, diag: Diagnostics = SILENT) -> Tracefile:
    """Parse an LCOV tracefile.

    Repeated SF blocks for one path are merged, keeping file paths unique
    within the result: a line is hit if any of its DA lines has a count above
    zero. Unknown directives are skipped with a diagnostic; anything
    unparsable raises MalformedDirectiveError.

    Well-formed records are taken whole; any other span goes through the
    line-by-line parser from its true line number, so results, events and
    errors are those of a line-by-line parse of the whole text.
    """
    records: dict[str, FileCoverage] = {}
    record = re.compile(_RECORD)
    pos, line_number, size = 0, 1, len(content)
    # `in` returns at once for a character too wide for the text's storage, so
    # ASCII text is searched only for the one-byte breaks.
    if any(c in content for c in _ODD_BREAKS):
        _parse_lines(content, 1, records, diag)
        pos = size
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
    return _finished(records)


def _sorted(lines: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(lines)))


def _finished(records: dict[str, FileCoverage]) -> Tracefile:
    """`records` as a Tracefile. Each file's lines and hit lines were appended to lists as
    they came: here each list is sorted once, repeats dropped."""
    return Tracefile([fc._replace(lines=_sorted(fc.lines), hit_lines=_sorted(fc.hit_lines)) for fc in records.values()])


def _add_record(content: str, match: re.Match[str], records: dict[str, FileCoverage]) -> None:
    """Merge one record that _RECORD accepted: its functions one by one,
    widening a repeated one's end line, then its DA run's lines and hit lines."""
    path, run = match.group("path", "da")
    fc = records.get(path)
    if fc is None:
        fc = records[path] = FileCoverage(path, {}, [], [])
    for start, end, name in re.compile(_FN_FIELDS).findall(content, match.start(), match.end()):
        _add_function(fc.functions, (name, int(start)), int(end) if end else None)
    if run is None:
        return
    if run.count(",") != run.count("\n"):
        run = re.sub(_DA_CHECKSUM, r"\1", run)
    # The C JSON decoder turns the whole run into ints: line, count, line, count, ...
    values = json.loads("[" + run[3:-1].replace("\nDA:", ",") + "]")
    lines = values[::2]
    fc.lines.extend(lines)
    fc.hit_lines.extend(compress(lines, values[1::2]))


def _parse_lines(
    text: str,
    first_line: int,
    records: dict[str, FileCoverage],
    diag: Diagnostics = SILENT,
) -> None:
    """Parse `text` line by line into `records`; its first line is `first_line`."""
    current: FileCoverage | None = None

    for line_number, raw in enumerate(text.splitlines(), start=first_line):
        line = raw.strip()
        # DA lines are most of any tracefile: test them first, add inline.
        if line.startswith("DA:"):
            if current is None:
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
            current.lines.append(lineno)
            if count:
                current.hit_lines.append(lineno)
            continue
        if not line:
            continue
        if line == "end_of_record":
            current = None
            continue
        if line.startswith("SF:"):
            path = line[3:].strip()
            if not path:
                raise MalformedDirectiveError("SF with empty path", line_number)
            current = records.setdefault(path, FileCoverage(path, {}, [], []))
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
        max_da = fc.lines[-1] if fc.lines else 0
        for i, ((name, start), end) in enumerate(ordered):
            if end is None and i + 1 < len(ordered):
                end = ordered[i + 1][0][1] - 1
            elif end is None:
                end = max(max_da, start)
            per_file[name] = (start, max(end, start))
        extents[fc.path] = per_file
    return extents


_Site = tuple[str, int, int, int, int]  # path, start, end, eloc, covered


def _choose_sites(tf: Tracefile, names: Container[str]) -> dict[str, list[_Site]]:
    """Every site of each API in `names` that `tf` defines, best first.

    Largest ELOC wins; path breaks ties for determinism. Each extent is
    measured by bisecting the file's sorted lines.
    """
    by_path = tf.by_path()
    sites: dict[str, list[_Site]] = {}
    for path, per_file in function_extents(tf).items():
        fc = by_path[path]
        for name, (start, end) in per_file.items():
            if name not in names:
                continue
            eloc, hit = _between(fc.lines, start, end), _between(fc.hit_lines, start, end)
            sites.setdefault(name, []).append((path, start, end, eloc, hit))
    for measured in sites.values():
        measured.sort(key=lambda m: (-m[3], m[0]))
    return sites


def annotate_catalog_coverage(catalog: ApiCatalog, tf: Tracefile, diag: Diagnostics = SILENT) -> ApiCatalog:
    """Attach per-API location, ELOC and covered-line counts from a tracefile.

    APIs without a matching function stay unannotated (unmeasured, not 0%).
    A name defined in several files resolves to the largest-ELOC definition,
    with a warning diagnostic.
    """
    sites = _choose_sites(tf, catalog.apis)
    # Start from bare symbols: a rerun must not keep a previous run's annotation.
    annotated = ApiCatalog(
        library=catalog.library,
        apis={name: ApiSymbol(name) for name in catalog.apis},
        created_at=catalog.created_at,
        provenance=dict(catalog.provenance),
    )
    for name, measured in sites.items():
        if len(measured) > 1:
            diag.emit(
                "ambiguous_function",
                api=name,
                chosen=measured[0][0],
                others=[m[0] for m in measured[1:]],
            )
        annotated.apis[name] = ApiSymbol(name, *measured[0])
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
    """Union files, and per file its lines, hit lines and function records, the
    way parse_tracefile merges a path's repeated records. One tracefile comes back itself.
    """
    if len(tracefiles) == 1:
        return tracefiles[0]
    merged: dict[str, FileCoverage] = {}
    for tf in tracefiles:
        for fc in tf.records:
            target = merged.setdefault(fc.path, FileCoverage(fc.path, {}, [], []))
            for key, end in fc.functions.items():
                _add_function(target.functions, key, end)
            target.lines.extend(fc.lines)
            target.hit_lines.extend(fc.hit_lines)
    return _finished(merged)


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
    diag: Diagnostics = SILENT,
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
    total_universe = universe.total_lines()

    def overall(run: Tracefile) -> float:
        # Every line of either run is in the universe, so count the run's own hits.
        return 100.0 * run.covered_lines() / total_universe if total_universe else 0.0

    base_hits = {fc.path: fc.hit_lines for fc in baseline.records}
    aug_hits = {fc.path: fc.hit_lines for fc in augmented.records}
    # Per file, the lines hit in both runs: an API's new lines are its augmented hits less these.
    both = {path: _sorted(set(hits).intersection(aug_hits.get(path, ()))) for path, hits in base_hits.items()}
    sites = _choose_sites(universe, catalog.apis)
    newly: list[str] = []
    improved: list[str] = []
    new_api_lines = 0
    for name in sorted(sites):
        path, start, end, _eloc, _covered = sites[name][0]
        base_cov = _between(base_hits.get(path, ()), start, end)
        aug_cov = _between(aug_hits.get(path, ()), start, end)
        new_api_lines += aug_cov - _between(both.get(path, ()), start, end)
        if base_cov == 0 and aug_cov > 0:
            newly.append(name)
        elif base_cov > 0 and aug_cov > base_cov:
            improved.append(name)

    extra_pct = overall(augmented) - overall(baseline)
    diag.emit("coverage_delta", extra_pct=extra_pct, newly=len(newly), improved=len(improved))
    return {
        "extra_total_coverage_pct": extra_pct,
        "newly_covered_apis": newly,
        "improved_apis": improved,
        "new_api_lines_covered": new_api_lines,
    }
