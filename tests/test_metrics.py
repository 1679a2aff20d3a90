import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apimeter.catalog import ApiCatalog, ApiSymbol
from apimeter.metrics import (
    BUCKET_50_TO_80,
    BUCKET_LARGE,
    BUCKET_OVER_80,
    BUCKET_SMALL,
    BUCKET_UNDER_50,
    client_utilisation_distribution,
    coverage_buckets,
    precision_recall,
    round_pct,
    size_buckets,
    unused_apis,
    use_distribution,
    used_not_tested,
)
from apimeter.scan import UsageReport, aggregate_reports
from conftest import make_catalog


def _aggregate(catalog, client_uses: dict[str, dict[str, int]]):
    reports = [
        UsageReport(client_id=c, library=catalog.library, uses=uses, catalog_size=len(catalog.apis))
        for c, uses in client_uses.items()
    ]
    return aggregate_reports(catalog.library, len(catalog.apis), reports)


def _annotated_catalog(entries: dict[str, tuple[int, int] | None], library="lib") -> ApiCatalog:
    apis = {}
    for name, cov in entries.items():
        if cov is None:
            apis[name] = ApiSymbol(name=name)
        else:
            eloc, covered = cov
            apis[name] = ApiSymbol(
                name=name, defining_file="a.c", entry_start=1, entry_end=1 + eloc,
                eloc=eloc, covered_lines=covered,
            )
    return ApiCatalog(library=library, apis=apis)


def _synthetic_unused_row(total: int, unused: int, library: str):
    catalog = make_catalog([f"api_{i}" for i in range(total)], library=library)
    used = {f"api_{i}": 1 for i in range(unused, total)}
    agg = _aggregate(catalog, {"c0": used})
    return unused_apis(agg, catalog)


@pytest.mark.parametrize(
    "total,unused,pct",
    [(56, 10, 18), (983, 603, 61), (49, 0, 0)],
)
def test_unused_apis_published_rows(total, unused, pct):
    row = _synthetic_unused_row(total, unused, f"lib{total}")
    assert (row["total"], row["unused"], row["unused_pct"]) == (total, unused, pct)


def test_unused_apis_empty_corpus_counts_everything():
    catalog = make_catalog(["a", "b", "c"])
    agg = _aggregate(catalog, {})
    row = unused_apis(agg, catalog)
    assert row["unused"] == row["total"] == 3
    assert row["unused_pct"] == 100


def test_table_identity_total_is_used_plus_unused():
    row = _synthetic_unused_row(56, 10, "lib")
    assert row["total"] == row["unused"] + (row["total"] - len(row["unused_names"]))


def test_utilisation_full_use_is_100():
    catalog = make_catalog([f"a{i}" for i in range(269)])
    agg = _aggregate(catalog, {"c": {f"a{i}": 1 for i in range(269)}})
    summary = client_utilisation_distribution(agg)
    assert summary["clients"][0]["utilisation_pct"] == 100.0


def test_utilisation_zero_use_client():
    catalog = make_catalog(["a", "b"])
    agg = _aggregate(catalog, {"c": {}})
    assert client_utilisation_distribution(agg)["clients"][0]["utilisation_pct"] == 0.0


def test_utilisation_median_of_three():
    catalog = make_catalog([f"a{i}" for i in range(10)])
    agg = _aggregate(
        catalog,
        {
            "c1": {"a0": 1},
            "c2": {"a0": 1, "a1": 1},
            "c3": {"a0": 1, "a1": 1, "a2": 1},
        },
    )
    summary = client_utilisation_distribution(agg)
    assert summary["summary"]["median"] == 20.0
    assert summary["summary"]["min"] == 10.0
    assert summary["summary"]["max"] == 30.0


def test_utilisation_empty_corpus_is_none():
    catalog = make_catalog(["a"])
    assert client_utilisation_distribution(_aggregate(catalog, {})) is None


@given(
    st.integers(min_value=1, max_value=400).flatmap(
        lambda size: st.tuples(st.just(size), st.lists(st.integers(0, size), min_size=2, max_size=60))
    )
)
def test_utilisation_quartiles_match_statistics(drawn):
    # The quartiles are computed without `statistics`, by its own inclusive-method arithmetic:
    # they must equal its results exactly, ties and small catalogs (many ties) included.
    size, distinct = drawn
    reports = [
        UsageReport(client_id=f"c{i}", library="lib", uses={f"a{k}": 1 for k in range(d)}, catalog_size=size)
        for i, d in enumerate(distinct)
    ]
    summary = client_utilisation_distribution(aggregate_reports("lib", size, reports))["summary"]
    values = sorted(100.0 * d / size for d in distinct)
    assert [summary["q1"], summary["median"], summary["q3"]] == statistics.quantiles(values, n=4, method="inclusive")


def test_use_distribution_only_used_apis():
    catalog = make_catalog(["a", "b", "c"])
    agg = _aggregate(catalog, {"c1": {"a": 1}, "c2": {"a": 2}})
    rows = use_distribution(agg)
    assert [(r["api"], r["client_count"], r["total_uses"]) for r in rows] == [("a", 2, 3)]


def test_use_distribution_single_use():
    catalog = make_catalog(["a"])
    agg = _aggregate(catalog, {"c1": {"a": 1}})
    rows = use_distribution(agg)
    assert (rows[0]["client_count"], rows[0]["total_uses"]) == (1, 1)


def test_coverage_bucket_boundaries():
    catalog = _annotated_catalog(
        {
            "low": (1000, 499),   # 49.9%
            "mid": (10, 5),       # 50%
            "high": (10, 8),      # 80%
        }
    )
    report = coverage_buckets(catalog)
    by_bucket = {r["bucket"]: r["api_count"] for r in report["rows"]}
    assert by_bucket == {BUCKET_UNDER_50: 1, BUCKET_50_TO_80: 1, BUCKET_OVER_80: 1}
    assert report["unmeasured"] == 0


def test_coverage_buckets_name_each_bucket_with_its_bounds_in_row_order():
    report = coverage_buckets(_annotated_catalog({"a": (4, 1)}))
    assert report["bucket_bounds"] == {BUCKET_UNDER_50: "[0,50)", BUCKET_50_TO_80: "[50,80)", BUCKET_OVER_80: "[80,100]"}
    assert [r["bucket"] for r in report["rows"]] == list(report["bucket_bounds"])


def test_coverage_buckets_all_full():
    catalog = _annotated_catalog({"a": (4, 4), "b": (7, 7)})
    report = coverage_buckets(catalog)
    assert {r["bucket"]: r["api_count"] for r in report["rows"]}[BUCKET_OVER_80] == 2


def test_coverage_buckets_unannotated_catalog():
    catalog = _annotated_catalog({"a": None, "b": None})
    report = coverage_buckets(catalog)
    assert all(r["api_count"] == 0 for r in report["rows"])
    assert report["unmeasured"] == 2


def test_size_buckets_arithmetic():
    catalog = _annotated_catalog({"a": (10, 5), "b": (10, 10)})
    rows = {r["bucket"]: r for r in size_buckets(catalog)}
    small = rows[BUCKET_SMALL]
    assert small["api_count"] == 2
    assert small["combined_coverage_pct"] == 75.0
    assert small["fully_covered_count"] == 1
    assert rows[BUCKET_LARGE]["api_count"] == 0
    assert rows[BUCKET_LARGE]["combined_coverage_pct"] is None


def test_size_buckets_fully_covered_ratio_matches_published_footer():
    # 6,738 of 13,787 small APIs fully covered; printed as 48.8%.
    total_small, fully = 13787, 6738
    entries = {}
    for i in range(total_small):
        entries[f"s{i}"] = (10, 10) if i < fully else (10, 4)
    catalog = _annotated_catalog(entries)
    small = {r["bucket"]: r for r in size_buckets(catalog)}[BUCKET_SMALL]
    assert small["api_count"] == total_small
    assert small["fully_covered_count"] == fully
    assert 100.0 * small["fully_covered_count"] / small["api_count"] == pytest.approx(48.8, abs=0.1)


def test_size_buckets_boundary_at_20_eloc():
    catalog = _annotated_catalog({"edge": (20, 0), "over": (21, 0)})
    rows = {r["bucket"]: r for r in size_buckets(catalog)}
    assert rows[BUCKET_SMALL]["api_count"] == 1
    assert rows[BUCKET_LARGE]["api_count"] == 1


def test_used_not_tested_published_row():
    # 51 used-but-untested of 78 -> 65%
    entries = {}
    uses = {}
    for i in range(78):
        name = f"v{i}"
        if i < 51:
            entries[name] = (5, 0)
            uses[name] = 1
        else:
            entries[name] = (5, 5)
            uses[name] = 1
    catalog = _annotated_catalog(entries)
    agg = _aggregate(catalog, {"c": uses})
    row = used_not_tested(agg, catalog)
    assert (row["api_count"], row["pct_of_catalog"]) == (51, 65)


def test_used_not_tested_all_covered():
    catalog = _annotated_catalog({"a": (5, 3), "b": (5, 5)})
    agg = _aggregate(catalog, {"c": {"a": 1, "b": 1}})
    row = used_not_tested(agg, catalog)
    assert (row["api_count"], row["pct_of_catalog"]) == (0, 0)


def test_used_not_tested_separates_unmeasured():
    catalog = _annotated_catalog({"zero": (5, 0), "unmeasured": None, "unused": (5, 0)})
    agg = _aggregate(catalog, {"c": {"zero": 1, "unmeasured": 1}})
    row = used_not_tested(agg, catalog)
    assert row["apis"] == ("zero",)
    assert row["used_unmeasured"] == 1


def test_used_not_tested_disjoint_from_unused():
    catalog = _annotated_catalog({"used0": (5, 0), "never": (5, 0)})
    agg = _aggregate(catalog, {"c": {"used0": 2}})
    untested = set(used_not_tested(agg, catalog)["apis"])
    unused = set(unused_apis(agg, catalog)["unused_names"])
    assert untested == {"used0"}
    assert unused == {"never"}
    assert not untested & unused


def test_precision_recall_identity():
    counts = {"a": 3, "b": 1}
    result = precision_recall(counts, dict(counts))
    for mode in ("distinct", "total"):
        assert result[mode]["precision"] == 1.0
        assert result[mode]["recall"] == 1.0


def test_precision_recall_16_of_15_shape():
    oracle = {f"a{i}": 1 for i in range(15)}
    tool = dict(oracle, extra=1)
    result = precision_recall(tool, oracle)["distinct"]
    assert (result["tp"], result["fp"], result["fn"]) == (15, 1, 0)
    assert result["precision"] == pytest.approx(0.9375)
    assert result["recall"] == 1.0


def test_precision_recall_lighttpd_row_shape():
    # tp=62, fp=37, fn=1 -> P 0.63, R 0.98 after 2-decimal rounding
    oracle = {f"s{i}": 1 for i in range(62)} | {"only_oracle": 1}
    tool = {f"s{i}": 1 for i in range(62)} | {f"fp{i}": 1 for i in range(37)}
    result = precision_recall(tool, oracle)["distinct"]
    assert (result["tp"], result["fp"], result["fn"]) == (62, 37, 1)
    assert round(result["precision"], 2) == 0.63
    assert round(result["recall"], 2) == 0.98


def test_precision_recall_total_mode_min_surplus_deficit():
    tool = {"a": 5, "b": 1}
    oracle = {"a": 3, "c": 2}
    result = precision_recall(tool, oracle)["total"]
    assert (result["tp"], result["fp"], result["fn"]) == (3, 3, 2)


def test_precision_recall_zero_denominators_absent():
    result = precision_recall({}, {})
    for mode in ("distinct", "total"):
        assert result[mode]["precision"] is None
        assert result[mode]["recall"] is None


def test_round_pct_half_away_from_zero():
    assert round_pct(17.5) == 18
    assert round_pct(17.49) == 17
    assert round_pct(0.0) == 0
    assert round_pct(-2.5) == -3


# --- properties ---------------------------------------------------------------

_count_maps = st.dictionaries(
    st.sampled_from([f"api{i}" for i in range(8)]),
    st.integers(min_value=0, max_value=9),
    max_size=8,
)


@given(_count_maps, _count_maps)
def test_swapping_tool_and_oracle_swaps_fp_fn(tool, oracle):
    forward = precision_recall(tool, oracle)
    backward = precision_recall(oracle, tool)
    for mode in ("distinct", "total"):
        f, b = forward[mode], backward[mode]
        assert (f["fp"], f["fn"]) == (b["fn"], b["fp"])
        assert f["precision"] == b["recall"]
        assert f["recall"] == b["precision"]


@given(_count_maps, _count_maps)
def test_total_mode_sum_identities(tool, oracle):
    result = precision_recall(tool, oracle)["total"]
    assert result["tp"] + result["fp"] == sum(tool.values())
    assert result["tp"] + result["fn"] == sum(oracle.values())


@st.composite
def _random_catalogs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    entries = {}
    for i in range(n):
        annotated = draw(st.booleans())
        if annotated:
            eloc = draw(st.integers(min_value=0, max_value=40))
            covered = draw(st.integers(min_value=0, max_value=eloc)) if eloc else 0
            entries[f"f{i}"] = (eloc, covered)
        else:
            entries[f"f{i}"] = None
    return _annotated_catalog(entries)


@given(_random_catalogs())
def test_coverage_buckets_partition_catalog(catalog):
    report = coverage_buckets(catalog)
    measured = sum(r["api_count"] for r in report["rows"])
    assert measured + report["unmeasured"] == len(catalog.apis)


@given(_random_catalogs())
def test_size_buckets_partition_annotated(catalog):
    rows = size_buckets(catalog)
    assert sum(r["api_count"] for r in rows) == len(catalog.annotated())
