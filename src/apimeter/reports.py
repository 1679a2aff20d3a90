"""Report bundle emission: one JSON document per table plus CSV plot data.

File names are stable and reruns on identical inputs are byte-identical
(sorted keys, no timestamps). Table percentages are integers; the CSV plot
series keep full precision.
"""

from __future__ import annotations

from pathlib import Path

from . import artifacts
from .diagnostics import SILENT, Diagnostics

def _eval_row(client: str, modes: dict[str, dict]) -> dict:
    row: dict = {"client": client}
    for mode, result in modes.items():
        for metric in ("precision", "recall"):
            value = result[metric]
            row[f"{metric}_{mode}"] = None if value is None else round(value, 2)
    return row


# One entry per report, in bundle order: (report name, `emit_reports` keyword,
# JSON payload of the keyword's value, CSV header, CSV rows of the value;
# each CSV column reads the row key named in the header). The values are the
# tables `metrics` computes, already keyed as the reports write them.
REPORTS = (
    (
        "report_unused",
        "unused",
        lambda rows: {"rows": rows},
        ["library", "total", "unused", "unused_pct"],
        list,
    ),
    (
        "report_utilisation",
        "utilisation",
        dict,
        ["client", "utilisation_pct"],
        lambda summary: summary["clients"],
    ),
    (
        "report_use_distribution",
        "uses",
        lambda rows: {"rows": rows},
        ["api", "client_count", "total_uses"],
        list,
    ),
    (
        "report_cov_buckets",
        "cov_buckets",
        dict,
        ["library", "bucket", "api_count"],
        lambda report: report["rows"],
    ),
    (
        "report_size_buckets",
        "size_rows",
        lambda rows: {"rows": rows},
        ["library", "bucket", "api_count", "combined_coverage_pct", "fully_covered_count"],
        list,
    ),
    (
        "report_used_not_tested",
        "not_tested",
        dict,
        ["library", "api_count", "pct_of_catalog", "used_unmeasured"],
        lambda row: [row],
    ),
    (
        "report_improvement",
        "improvement",
        lambda imp: {"library": imp[0], **imp[1]},
        ["library", "extra_total_coverage_pct", "newly_covered", "improved", "new_api_lines_covered"],
        lambda imp: [
            {
                "library": imp[0],
                "extra_total_coverage_pct": imp[1]["extra_total_coverage_pct"],
                "newly_covered": len(imp[1]["newly_covered_apis"]),
                "improved": len(imp[1]["improved_apis"]),
                "new_api_lines_covered": imp[1]["new_api_lines_covered"],
            }
        ],
    ),
    (
        "report_eval",
        "evaluation",
        lambda per_client: {"clients": [{"client": c, **per_client[c]} for c in sorted(per_client)]},
        ["client", "precision_distinct", "recall_distinct", "precision_total", "recall_total"],
        lambda per_client: [_eval_row(c, per_client[c]) for c in sorted(per_client)],
    ),
)


def _csv_field(value: object) -> str:
    """`value` as one CSV field: as it is, or, if it holds a `,`, `"`, CR or LF, quoted with each `"`
    doubled (RFC 4180), so that a client or library name cannot split or end its row."""
    text = "" if value is None else str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv(header: list[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_csv_field(row[h]) for h in header) for row in rows]
    return "\n".join(lines) + "\n"


def emit_reports(directory: str | Path, diag: Diagnostics = SILENT, **tables) -> list[Path]:
    """Write the report of each table given by its REPORTS keyword and not None; returns the written
    paths. A keyword that REPORTS does not list raises TypeError, as for any function."""
    if unknown := tables.keys() - {key for _, key, *_ in REPORTS}:
        raise TypeError(f"emit_reports() got an unexpected keyword argument {min(unknown)!r}")
    out = Path(directory)
    written: list[Path] = []
    for name, key, payload, header, rows in REPORTS:
        value = tables.get(key)
        if value is None:
            continue
        doc = {"schema_version": artifacts.SCHEMA_VERSION, **payload(value)}
        written.append(artifacts.write_json(out / f"{name}.json", doc))
        diag.emit("report_written", path=str(written[-1]))
        written.append(artifacts.write_text(out / f"{name}.csv", _csv(header, rows(value))))
        diag.emit("report_written", path=str(written[-1]))
    return written
