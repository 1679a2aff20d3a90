"""Acceptance gate: one test per criterion, exact tolerances, printed verdicts.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion alongside the pytest verdicts.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apimeter.clientprep import LibraryInventory, build_library_inventory, prepare_client, select_vendored
from apimeter.coverage import annotate_catalog_coverage, coverage_delta, merge_tracefiles, parse_tracefile
from apimeter.metrics import coverage_buckets, precision_recall, size_buckets, unused_apis
from apimeter.scan import ScanOptions, UsageReport, aggregate_reports, blank_comments_and_strings, scan_client, scan_sources
from synthcorpus import api_names, generate_client_tree
from conftest import GOLDEN, call_lines, client_record, make_catalog

HUNDRED_CASES = settings(max_examples=100, deadline=None)


def _ok(line: str) -> None:
    print(f"[acceptance] {line}: PASS")


# --- criterion: golden-corpus exactness ----------------------------------------


def test_golden_corpus_exactness(golden_spec, golden_catalog, oracle):
    started = time.monotonic()
    inv = build_library_inventory(golden_spec.source_roots)

    for client, expected in oracle["clients"].items():
        rec = prepare_client(client, GOLDEN / "clients" / client, golden_spec, inv)
        assert rec.excluded_dirs == expected["excluded_dirs"]
        assert {f: "explicit" for f in rec.excluded_files} == expected["excluded_files"]

        report = scan_client(rec, golden_catalog)
        assert report.uses == expected["uses"]
        assert report.distinct_count == expected["distinct"]
        assert report.utilisation_pct == expected["utilisation_pct"]

    recs = [
        prepare_client(c, GOLDEN / "clients" / c, golden_spec, inv)
        for c in sorted(oracle["clients"])
    ]
    reports = [scan_client(r, golden_catalog) for r in recs]
    agg = aggregate_reports("tinykv", len(golden_catalog.apis), reports)
    assert agg.api_client_counts == oracle["corpus"]["api_client_counts"]
    assert agg.api_total_uses == oracle["corpus"]["api_total_uses"]
    assert sorted(
        n for n in golden_catalog.apis if agg.api_client_counts.get(n, 0) == 0
    ) == oracle["corpus"]["unused"]

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _ok(f"golden corpus exact match, {elapsed:.2f}s")


# --- criterion: published unused-API table rows ---------------------------------


@pytest.mark.parametrize("total,unused,pct", [(56, 10, 18), (983, 603, 61), (49, 0, 0)])
def test_unused_api_rows_reproduce_published_numbers(total, unused, pct):
    catalog = make_catalog([f"api_{i}" for i in range(total)])
    report = UsageReport(
        client_id="corpus",
        library="lib",
        uses={f"api_{i}": 1 for i in range(unused, total)},
        catalog_size=total,
    )
    agg = aggregate_reports("lib", total, [report])
    row = unused_apis(agg, catalog)
    assert (row["total"], row["unused"], row["unused_pct"]) == (total, unused, pct)
    _ok(f"unused row ({total}, {unused}) -> {pct}%")


# --- criterion: precision/recall formula reproduction ----------------------------


def test_precision_recall_reproduces_published_row():
    oracle = {f"s{i}": 1 for i in range(62)} | {"oracle_only": 1}
    tool = {f"s{i}": 1 for i in range(62)} | {f"fp{i}": 1 for i in range(37)}
    result = precision_recall(tool, oracle)["distinct"]
    assert (result["tp"], result["fp"], result["fn"]) == (62, 37, 1)
    assert round(result["precision"], 2) == 0.63
    assert round(result["recall"], 2) == 0.98
    _ok("P/R row: tp=62 fp=37 fn=1 -> 0.63/0.98")


def test_precision_recall_identity_is_perfect():
    counts = {"a": 4, "b": 2, "c": 1}
    result = precision_recall(counts, dict(counts))
    for mode in ("distinct", "total"):
        assert round(result[mode]["precision"], 2) == 1.00
        assert round(result[mode]["recall"], 2) == 1.00
    _ok("P/R identity: 1.00/1.00 in both modes")


# --- criterion: coverage attribution exactness -----------------------------------


def test_coverage_attribution_matches_hand_counts(golden_catalog, oracle):
    tf = parse_tracefile((GOLDEN / "tracefile_library.info").read_text())
    annotated = annotate_catalog_coverage(golden_catalog, tf)
    for name, expected in oracle["coverage"].items():
        api = annotated.apis[name]
        assert api.defining_file == expected["file"]
        assert (api.entry_start, api.entry_end) == (expected["entry_start"], expected["entry_end"])
        assert (api.eloc, api.covered_lines) == (expected["eloc"], expected["covered"])
    assert annotated.apis["tk_stat"].eloc is None  # absent from the tracefile

    doubled = merge_tracefiles([tf, tf])
    for fc in doubled.records:
        original = tf.by_path()[fc.path]
        assert (fc.lines, fc.hit_lines) == (original.lines, original.hit_lines)
    re_annotated = annotate_catalog_coverage(golden_catalog, doubled)
    for name in oracle["coverage"]:
        assert re_annotated.apis[name].coverage_pct == annotated.apis[name].coverage_pct
        assert re_annotated.apis[name].eloc == annotated.apis[name].eloc

    delta = coverage_delta(tf, tf, annotated)
    assert delta["extra_total_coverage_pct"] == 0.0
    assert delta["newly_covered_apis"] == [] and delta["improved_apis"] == []
    assert delta["new_api_lines_covered"] == 0
    _ok("coverage attribution exact; self-merge stable; delta(x,x) zero")


# --- criterion: improvement-report shape ------------------------------------------


def _delta_fixture() -> tuple[str, str]:
    # 9 entry functions of 20 instrumented lines each: four newly covered,
    # four improved, one unchanged.
    def block(covered_per_fn: list[int]) -> str:
        lines = ["SF:/build/lib/src/core.c"]
        for idx in range(9):
            start = idx * 20 + 1
            lines.append(f"FN:{start},{start + 19},f{idx + 1}")
        for idx, covered in enumerate(covered_per_fn):
            start = idx * 20 + 1
            for offset in range(20):
                lines.append(f"DA:{start + offset},{1 if offset < covered else 0}")
        lines.append("end_of_record")
        return "\n".join(lines)

    baseline = block([0, 0, 0, 0, 5, 5, 5, 5, 8])
    augmented = block([12, 12, 12, 12, 15, 15, 15, 15, 8])
    return baseline, augmented


def test_improvement_report_shape():
    baseline_text, augmented_text = _delta_fixture()
    catalog = make_catalog([f"f{i}" for i in range(1, 10)])
    report = coverage_delta(
        parse_tracefile(baseline_text), parse_tracefile(augmented_text), catalog
    )
    assert report["newly_covered_apis"] == ["f1", "f2", "f3", "f4"]
    assert report["improved_apis"] == ["f5", "f6", "f7", "f8"]
    assert report["extra_total_coverage_pct"] > 0.0
    assert report["new_api_lines_covered"] == 4 * 12 + 4 * 10
    assert not set(report["newly_covered_apis"]) & set(report["improved_apis"])
    _ok(
        f"improvement report: 4 newly + 4 improved, +{report['extra_total_coverage_pct']:.1f}pp"
    )


# --- criterion: property suites (>= 100 randomized cases each) --------------------

_fragments = st.lists(
    st.sampled_from(
        [
            "tk_open(x)",
            "// line\n",
            "/* block */",
            "/* open\n",
            '"a // string"',
            "'c'",
            "\\",
            "\n",
            "word ",
            'R"(raw)"',
            "*/",
            '"unterminated',
        ]
    ),
    max_size=10,
)


@HUNDRED_CASES
@given(_fragments)
def test_property_strip_comments_preserves_line_count(fragments):
    src = "".join(fragments)
    assert blank_comments_and_strings(src).count("\n") == src.count("\n")


@HUNDRED_CASES
@given(
    api=st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True),
    decorations=st.lists(
        st.tuples(
            st.from_regex(r"[a-z_][a-z0-9_]{0,4}", fullmatch=True),
            st.from_regex(r"[a-z0-9_]{1,4}", fullmatch=True),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_property_superstring_identifiers_never_match(api, decorations):
    lines = [f"{prefix}{api}{suffix}();" for prefix, suffix in decorations]
    assert call_lines("\n".join(lines), api) == []


_API_SET = frozenset({"tk_open", "tk_close", "tk_put"})


@st.composite
def _client_files(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    files = []
    for i in range(n):
        calls = draw(st.lists(st.sampled_from(sorted(_API_SET)), max_size=5))
        files.append((f"f{i}.c", "\n".join(f"{api}({j});" for j, api in enumerate(calls))))
    return files


@HUNDRED_CASES
@given(_client_files(), st.randoms())
def test_property_scan_order_independent_and_additive(files, rng):
    uses, _ = scan_sources(files, _API_SET)
    shuffled = list(files)
    rng.shuffle(shuffled)
    again, _ = scan_sources(shuffled, _API_SET)
    assert uses == again

    per_file = [scan_sources([f], _API_SET)[0] for f in files]
    summed: dict[str, int] = {}
    for partial in per_file:
        for api, count in partial.items():
            summed[api] = summed.get(api, 0) + count
    assert summed == uses


_name_sets = st.sets(st.sampled_from([f"f{i}.c" for i in range(10)]), max_size=10)


@HUNDRED_CASES
@given(
    client=st.dictionaries(st.sampled_from(["a", "b", "a/x"]), _name_sets, max_size=3),
    lib=_name_sets,
    t1=st.floats(min_value=0.05, max_value=1.0),
    t2=st.floats(min_value=0.05, max_value=1.0),
)
def test_property_vendored_threshold_monotone_and_min_files(client, lib, t1, t2):
    lo, hi = sorted([t1, t2])
    inv = LibraryInventory(dirs={"lib": frozenset(lib)})
    at_lo = select_vendored(client, inv, threshold=lo)
    for d in select_vendored(client, inv, threshold=hi):
        assert any(d == e or d.startswith(e + "/") or e == "." for e in at_lo)
    if len(lib) < 3:
        assert select_vendored(client, inv, threshold=lo) == set()


@st.composite
def _catalogs(draw):
    from apimeter.catalog import ApiCatalog, ApiSymbol

    n = draw(st.integers(min_value=0, max_value=10))
    apis = {}
    for i in range(n):
        if draw(st.booleans()):
            eloc = draw(st.integers(min_value=0, max_value=30))
            covered = draw(st.integers(min_value=0, max_value=eloc)) if eloc else 0
            apis[f"f{i}"] = ApiSymbol(f"f{i}", "a.c", 1, 1 + eloc, eloc, covered)
        else:
            apis[f"f{i}"] = ApiSymbol(f"f{i}")
    return ApiCatalog(library="lib", apis=apis)


@HUNDRED_CASES
@given(_catalogs())
def test_property_bucket_partitions_sum_to_catalog(catalog):
    cov = coverage_buckets(catalog)
    assert sum(r["api_count"] for r in cov["rows"]) + cov["unmeasured"] == len(catalog.apis)
    assert sum(r["api_count"] for r in size_buckets(catalog)) == len(catalog.annotated())


_count_maps = st.dictionaries(
    st.sampled_from([f"api{i}" for i in range(8)]),
    st.integers(min_value=0, max_value=9),
    max_size=8,
)


@HUNDRED_CASES
@given(_count_maps, _count_maps)
def test_property_swap_symmetry(tool, oracle):
    forward = precision_recall(tool, oracle)
    backward = precision_recall(oracle, tool)
    for mode in ("distinct", "total"):
        f, b = forward[mode], backward[mode]
        assert (f["fp"], f["fn"]) == (b["fn"], b["fp"])
        assert f["precision"] == b["recall"] and f["recall"] == b["precision"]


@HUNDRED_CASES
@given(_count_maps, _count_maps)
def test_property_total_mode_identities(tool, oracle):
    result = precision_recall(tool, oracle)["total"]
    assert result["tp"] + result["fp"] == sum(tool.values())
    assert result["tp"] + result["fn"] == sum(oracle.values())


def test_property_suites_marker():
    _ok("property suites: 7 families x >=100 randomized cases")


# --- criterion: throughput sanity --------------------------------------------------


def test_throughput_100k_lines_200_apis(tmp_path):
    apis = api_names(200)
    catalog = make_catalog(apis)
    truth = generate_client_tree(tmp_path, apis, n_files=200, lines_per_file=500, seed=7)

    started = time.monotonic()
    rec = client_record(tmp_path, client_id="bench")  # the walk is timed, as prepare_client's is in a stage
    report = scan_client(rec, catalog, ScanOptions())
    elapsed = time.monotonic() - started

    assert report.uses == truth  # generator doubles as an independent oracle
    assert elapsed < 30.0
    _ok(f"throughput: 100k lines x 200 APIs scanned in {elapsed:.2f}s")
