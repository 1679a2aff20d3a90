import csv
import json

import pytest

from apimeter.catalog import ApiCatalog
from apimeter.metrics import (
    client_utilisation_distribution,
    coverage_buckets,
    precision_recall,
    size_buckets,
    unused_apis,
    use_distribution,
    used_not_tested,
)
from apimeter.reports import emit_reports
from apimeter.scan import UsageReport, aggregate_reports
from conftest import make_catalog

EXPECTED_JSON = {
    "report_unused.json",
    "report_utilisation.json",
    "report_use_distribution.json",
    "report_cov_buckets.json",
    "report_size_buckets.json",
    "report_used_not_tested.json",
    "report_improvement.json",
}


def _full_inputs(catalog: ApiCatalog):
    reports = [
        UsageReport(client_id="c1", library=catalog.library, uses={"a": 2}, catalog_size=len(catalog.apis)),
        UsageReport(client_id="c2", library=catalog.library, uses={"a": 1, "b": 4}, catalog_size=len(catalog.apis)),
    ]
    agg = aggregate_reports(catalog.library, len(catalog.apis), reports)
    return dict(
        unused=[unused_apis(agg, catalog)],
        utilisation=client_utilisation_distribution(agg),
        uses=use_distribution(agg),
        cov_buckets=coverage_buckets(catalog),
        size_rows=size_buckets(catalog),
        not_tested=used_not_tested(agg, catalog),
        improvement=(
            catalog.library,
            {"extra_total_coverage_pct": 1.5, "newly_covered_apis": ["a"], "improved_apis": ["b"],
             "new_api_lines_covered": 7},
        ),
    )


def test_full_bundle_inventory(tmp_path):
    catalog = make_catalog(["a", "b", "c"])
    written = emit_reports(tmp_path, **_full_inputs(catalog))
    names = {p.name for p in written}
    assert EXPECTED_JSON <= names
    assert {n.replace(".json", ".csv") for n in EXPECTED_JSON} <= names
    assert len([n for n in names if n.endswith(".json")]) == 7


def test_rerun_is_byte_identical(tmp_path):
    catalog = make_catalog(["a", "b", "c"])
    first = tmp_path / "one"
    second = tmp_path / "two"
    emit_reports(first, **_full_inputs(catalog))
    emit_reports(second, **_full_inputs(catalog))
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes()


def test_empty_aggregate_emits_valid_zero_row_bundle(tmp_path):
    catalog = make_catalog(["a", "b"])
    agg = aggregate_reports(catalog.library, len(catalog.apis), [])
    written = emit_reports(
        tmp_path,
        unused=[unused_apis(agg, catalog)],
        uses=use_distribution(agg),
        cov_buckets=coverage_buckets(catalog),
        size_rows=size_buckets(catalog),
        not_tested=used_not_tested(agg, catalog),
    )
    unused_doc = json.loads((tmp_path / "report_unused.json").read_text())
    assert unused_doc["rows"][0]["unused"] == 2
    dist_doc = json.loads((tmp_path / "report_use_distribution.json").read_text())
    assert dist_doc["rows"] == []
    for path in written:
        if path.suffix == ".json":
            assert "schema_version" in json.loads(path.read_text())


def test_eval_report_round_trips_precision_recall(tmp_path):
    per_client = {"cl": precision_recall({"a": 1}, {"a": 1, "b": 2})}
    emit_reports(tmp_path, evaluation=per_client)
    doc = json.loads((tmp_path / "report_eval.json").read_text())
    distinct = doc["clients"][0]["distinct"]
    assert distinct["tp"] == 1
    assert distinct["fn"] == 1
    csv_text = (tmp_path / "report_eval.csv").read_text()
    assert csv_text.splitlines()[0] == "client,precision_distinct,recall_distinct,precision_total,recall_total"


def test_percentages_recompute_from_counts(tmp_path):
    catalog = make_catalog([f"x{i}" for i in range(56)])
    reports = [
        UsageReport(client_id="c", library="lib", uses={f"x{i}": 1 for i in range(46)}, catalog_size=56)
    ]
    agg = aggregate_reports("lib", 56, reports)
    emit_reports(tmp_path, unused=[unused_apis(agg, catalog)])
    doc = json.loads((tmp_path / "report_unused.json").read_text())
    row = doc["rows"][0]
    recomputed = 100.0 * row["unused"] / row["total"]
    assert abs(recomputed - row["unused_pct"]) <= 0.5


def test_unknown_table_keyword_raises_type_error_naming_it(tmp_path):
    with pytest.raises(TypeError, match="unexpected keyword argument 'usage'"):
        emit_reports(tmp_path, usage=[])
    assert not any(tmp_path.iterdir())


def test_csv_fields_holding_separators_quotes_or_newlines_round_trip(tmp_path):
    clients = ["a,b", 'q"x', "line\nbreak", "cr\rlf", "plain"]
    catalog = make_catalog(["a", "b", "c"], library='lib,"1"')
    reports = [
        UsageReport(client_id=c, library=catalog.library, uses={"a": i % 3, "b": 1}, catalog_size=3)
        for i, c in enumerate(clients)
    ]
    agg = aggregate_reports(catalog.library, len(catalog.apis), reports)
    per_client = {c: precision_recall({"a": 1, "b": i}, {"a": 2}) for i, c in enumerate(clients)}
    emit_reports(tmp_path, unused=[unused_apis(agg, catalog)], utilisation=client_utilisation_distribution(agg),
                 evaluation=per_client)
    for name, json_rows, columns in [
        ("report_unused", lambda doc: doc["rows"], lambda r: [r["library"], r["total"], r["unused"], r["unused_pct"]]),
        ("report_utilisation", lambda doc: doc["clients"], lambda r: [r["client"], r["utilisation_pct"]]),
        ("report_eval", lambda doc: doc["clients"],
         lambda r: [r["client"]] + ["" if r[m][k] is None else round(r[m][k], 2)
                                    for m in ("distinct", "total") for k in ("precision", "recall")]),
    ]:
        with open(tmp_path / f"{name}.csv", newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        assert all(len(row) == len(header) for row in rows)
        expected = [[str(v) for v in columns(r)] for r in json_rows(json.loads((tmp_path / f"{name}.json").read_text()))]
        assert rows == expected
