"""Report bundle emission: one JSON document per table plus CSV plot data.

File names are stable and reruns on identical inputs are byte-identical
(sorted keys, no timestamps). Table percentages are integers; the CSV plot
series keep full precision.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from . import artifacts
from .diagnostics import Diagnostics
from .metrics import (
    CoverageBucketReport,
    EvalCounts,
    PrecisionRecall,
    SizeBucketRow,
    UnusedApisRow,
    UseDistributionRow,
    UsedNotTestedRow,
    UtilisationSummary,
)

if TYPE_CHECKING:
    from .coverage import ImprovementReport

COV_BUCKET_BOUNDS = {"under_50": "[0,50)", "from_50_to_80": "[50,80)", "over_80": "[80,100]"}
EVAL_MODES = ("distinct", "total")


def _fields(items) -> list[dict]:
    """Each dataclass row as {field: value}; report keys are the field names.
    Shallow on purpose: `dataclasses.asdict` deep-copies every value."""
    return [vars(item) for item in items]


def _utilisation_rows(summary: UtilisationSummary) -> list[dict]:
    return [{"client": c, "utilisation_pct": pct} for c, pct in summary.per_client]


def _eval_json(counts: EvalCounts, pr: PrecisionRecall) -> dict:
    return {"tp": counts.tp, "fp": counts.fp, "fn": counts.fn, "precision": pr.precision, "recall": pr.recall}


def _eval_row(client: str, results: dict[str, tuple[EvalCounts, PrecisionRecall]]) -> dict:
    row: dict = {"client": client}
    for mode in EVAL_MODES:
        pr = results[mode][1]
        for metric, value in (("precision", pr.precision), ("recall", pr.recall)):
            row[f"{metric}_{mode}"] = None if value is None else round(value, 2)
    return row


# One entry per report, in bundle order: (report name, `emit_reports` keyword,
# JSON payload of the keyword's value, CSV header, CSV rows of the value as
# dicts; each CSV column reads the row key named in the header).
REPORTS = (
    (
        "report_unused",
        "unused",
        lambda rows: {"rows": _fields(rows)},
        ["library", "total", "unused", "unused_pct"],
        _fields,
    ),
    (
        "report_utilisation",
        "utilisation",
        lambda s: {
            "library": s.library,
            "clients": _utilisation_rows(s),
            "summary": {"min": s.minimum, "q1": s.q1, "median": s.median, "q3": s.q3, "max": s.maximum},
        },
        ["client", "utilisation_pct"],
        _utilisation_rows,
    ),
    (
        "report_use_distribution",
        "uses",
        lambda rows: {"rows": _fields(rows)},
        ["api", "client_count", "total_uses"],
        _fields,
    ),
    (
        "report_cov_buckets",
        "cov_buckets",
        lambda report: {"bucket_bounds": COV_BUCKET_BOUNDS, "rows": _fields(report.rows), "unmeasured": report.unmeasured},
        ["library", "bucket", "api_count"],
        lambda report: _fields(report.rows),
    ),
    (
        "report_size_buckets",
        "size_rows",
        lambda rows: {"rows": _fields(rows)},
        ["library", "bucket", "api_count", "combined_coverage_pct", "fully_covered_count"],
        _fields,
    ),
    (
        "report_used_not_tested",
        "not_tested",
        vars,
        ["library", "api_count", "pct_of_catalog", "used_unmeasured"],
        lambda row: [vars(row)],
    ),
    (
        "report_improvement",
        "improvement",
        lambda imp: {"library": imp[0], **vars(imp[1])},
        ["library", "extra_total_coverage_pct", "newly_covered", "improved", "new_api_lines_covered"],
        lambda imp: [
            {
                "library": imp[0],
                "extra_total_coverage_pct": imp[1].extra_total_coverage_pct,
                "newly_covered": len(imp[1].newly_covered_apis),
                "improved": len(imp[1].improved_apis),
                "new_api_lines_covered": imp[1].new_api_lines_covered,
            }
        ],
    ),
    (
        "report_eval",
        "evaluation",
        lambda per_client: {
            "clients": [
                {"client": c, **{m: _eval_json(*per_client[c][m]) for m in EVAL_MODES}}
                for c in sorted(per_client)
            ]
        },
        ["client", "precision_distinct", "recall_distinct", "precision_total", "recall_total"],
        lambda per_client: [_eval_row(c, per_client[c]) for c in sorted(per_client)],
    ),
)


def _csv(header: list[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    lines += [",".join("" if row[h] is None else str(row[h]) for h in header) for row in rows]
    return "\n".join(lines) + "\n"


def _announce(path: Path, diag: Diagnostics | None) -> Path:
    if diag:
        diag.emit("report_written", path=str(path))
    return path


def emit_reports(
    directory: str | Path,
    *,
    unused: list[UnusedApisRow] | None = None,
    utilisation: UtilisationSummary | None = None,
    uses: list[UseDistributionRow] | None = None,
    cov_buckets: CoverageBucketReport | None = None,
    size_rows: list[SizeBucketRow] | None = None,
    not_tested: UsedNotTestedRow | None = None,
    improvement: tuple[str, ImprovementReport] | None = None,
    evaluation: dict[str, dict[str, tuple[EvalCounts, PrecisionRecall]]] | None = None,
    diag: Diagnostics | None = None,
) -> list[Path]:
    """Write every report whose inputs were computed; returns written paths."""
    inputs = dict(
        unused=unused,
        utilisation=utilisation,
        uses=uses,
        cov_buckets=cov_buckets,
        size_rows=size_rows,
        not_tested=not_tested,
        improvement=improvement,
        evaluation=evaluation,
    )
    out = Path(directory)
    written: list[Path] = []
    for name, key, payload, header, rows in REPORTS:
        value = inputs[key]
        if value is None:
            continue
        doc = {"schema_version": artifacts.SCHEMA_VERSION, **payload(value)}
        written.append(_announce(artifacts.write_json(out / f"{name}.json", doc), diag))
        written.append(_announce(artifacts.write_text(out / f"{name}.csv", _csv(header, rows(value))), diag))
    return written
