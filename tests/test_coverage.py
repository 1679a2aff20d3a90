import pytest
from hypothesis import given
from hypothesis import strategies as st

from apimeter.coverage import (
    Tracefile,
    annotate_catalog_coverage,
    coverage_delta,
    function_extents,
    merge_tracefiles,
    parse_tracefile,
    select_median_run,
)
from apimeter.diagnostics import Diagnostics
from apimeter.errors import FileSetMismatchError, MalformedDirectiveError
from conftest import GOLDEN, make_catalog


def test_parse_basic_block():
    tf = parse_tracefile("SF:a.c\nFN:3,f\nDA:3,1\nDA:4,0\nend_of_record")
    assert len(tf.records) == 1
    fc = tf.records[0]
    assert fc.path == "a.c"
    assert list(fc.functions.items()) == [(("f", 3), None)]
    assert (fc.lines, fc.hit_lines) == ((3, 4), (3,))


def test_parse_fn_with_end_line():
    tf = parse_tracefile("SF:a.c\nFN:3,9,f\nend_of_record")
    assert tf.records[0].functions["f", 3] == 9


def test_parse_empty_input():
    assert parse_tracefile("").records == []


def test_parse_da_checksum_variant():
    tf = parse_tracefile("SF:a.c\nDA:3,2,abcdef\nend_of_record")
    assert (tf.records[0].lines, tf.records[0].hit_lines) == ((3,), (3,))


def test_parse_unknown_directive_is_skipped_with_diagnostic():
    diag = Diagnostics()
    tf = parse_tracefile("SF:a.c\nVERSION:9\nDA:1,1\nend_of_record", diag)
    assert (tf.records[0].lines, tf.records[0].hit_lines) == ((1,), (1,))
    assert diag.count("unknown_directive") == 1


@pytest.mark.parametrize(
    "content",
    [
        "DA:1,1",  # outside SF
        "SF:a.c\nDA:x,1",
        "SF:a.c\nDA:1",
        "SF:a.c\nDA:0,1",
        "SF:a.c\nDA:1,-2",
        "SF:a.c\nFN:zero,f",
        "SF:a.c\nFN:1,2,3,f",
        "garbage line",
    ],
)
def test_parse_malformed(content):
    with pytest.raises(MalformedDirectiveError):
        parse_tracefile(content)


def test_malformed_reports_line_number():
    with pytest.raises(MalformedDirectiveError) as err:
        parse_tracefile("SF:a.c\nDA:1,1\nDA:bogus\nend_of_record")
    assert err.value.line_number == 3


def test_repeated_sf_blocks_merge():
    tf = parse_tracefile(
        "SF:a.c\nDA:1,1\nend_of_record\nSF:a.c\nDA:1,2\nDA:3,0\nend_of_record"
    )
    assert len(tf.records) == 1
    assert (tf.records[0].lines, tf.records[0].hit_lines) == ((1, 3), (1,))


def test_extents_next_function_heuristic():
    tf = parse_tracefile("SF:a.c\nFN:3,f\nFN:10,g\nDA:3,1\nDA:20,1\nend_of_record")
    assert function_extents(tf)["a.c"] == {"f": (3, 9), "g": (10, 20)}


def test_extents_explicit_end():
    tf = parse_tracefile("SF:a.c\nFN:5,12,f\nDA:5,1\nend_of_record")
    assert function_extents(tf)["a.c"]["f"] == (5, 12)


def test_extents_overlapping_explicit_kept_as_declared():
    tf = parse_tracefile("SF:a.c\nFN:3,11,f\nFN:10,20,g\nend_of_record")
    assert function_extents(tf)["a.c"] == {"f": (3, 11), "g": (10, 20)}


def test_annotate_direct_count():
    tf = parse_tracefile("SF:a.c\nFN:3,4,f\nDA:3,1\nDA:4,0\nend_of_record")
    catalog = annotate_catalog_coverage(make_catalog(["f", "h"]), tf)
    f = catalog.apis["f"]
    assert (f.eloc, f.covered_lines, f.coverage_pct) == (2, 1, 50.0)
    h = catalog.apis["h"]
    assert h.eloc is None and h.covered_lines is None and h.coverage_pct is None


def test_annotate_ambiguous_function_resolved_by_largest_eloc():
    tf = parse_tracefile(
        "SF:a.c\nFN:1,2,f\nDA:1,1\nDA:2,1\nend_of_record\n"
        "SF:b.c\nFN:1,5,f\nDA:1,0\nDA:2,0\nDA:3,0\nDA:4,0\nend_of_record"
    )
    diag = Diagnostics()
    catalog = annotate_catalog_coverage(make_catalog(["f"]), tf, diag)
    assert catalog.apis["f"].defining_file == "b.c"
    assert catalog.apis["f"].eloc == 4
    assert diag.count("ambiguous_function") == 1


def test_annotate_does_not_mutate_input(golden_catalog):
    tf = parse_tracefile((GOLDEN / "tracefile_library.info").read_text())
    annotate_catalog_coverage(golden_catalog, tf)
    assert all(a.eloc is None for a in golden_catalog.apis.values())


def test_reannotate_clears_apis_absent_from_new_tracefile():
    first = parse_tracefile("SF:a.c\nFN:3,4,f\nFN:6,7,g\nDA:3,1\nDA:4,0\nDA:6,1\nend_of_record")
    second = parse_tracefile("SF:a.c\nFN:3,4,f\nDA:3,1\nDA:4,1\nend_of_record")
    once = annotate_catalog_coverage(make_catalog(["f", "g"]), first)
    assert once.apis["g"].eloc == 1
    again = annotate_catalog_coverage(once, second)
    g = again.apis["g"]
    assert (g.defining_file, g.entry_start, g.entry_end, g.eloc, g.covered_lines) == (None,) * 5
    assert (again.apis["f"].eloc, again.apis["f"].covered_lines) == (2, 2)


def test_merge_unions_lines():
    a = parse_tracefile("SF:x.c\nDA:3,1\nend_of_record")
    b = parse_tracefile("SF:x.c\nDA:3,0\nDA:4,2\nend_of_record")
    merged = merge_tracefiles([a, b])
    assert (merged.records[0].lines, merged.records[0].hit_lines) == ((3, 4), (3, 4))


def test_merge_explicit_extent_wins():
    a = parse_tracefile("SF:x.c\nFN:3,f\nend_of_record")
    b = parse_tracefile("SF:x.c\nFN:3,9,f\nend_of_record")
    merged = merge_tracefiles([a, b])
    assert merged.records[0].functions["f", 3] == 9


def test_merge_with_empty_is_identity():
    a = parse_tracefile("SF:x.c\nFN:1,f\nDA:1,5\nend_of_record")
    merged = merge_tracefiles([a, Tracefile()])
    fc = merged.by_path()["x.c"]
    assert (fc.lines, fc.hit_lines) == ((1,), (1,))


def test_merge_of_one_run_is_that_run():
    a = parse_tracefile("SF:x.c\nFN:1,f\nDA:1,5\nend_of_record\nSF:x.c\nFN:1,4,f\nDA:1,2\nend_of_record")
    assert merge_tracefiles([a]) is a


def test_merge_disjoint_files_concatenates():
    a = parse_tracefile("SF:x.c\nDA:1,1\nend_of_record")
    b = parse_tracefile("SF:y.c\nDA:2,2\nend_of_record")
    assert {fc.path for fc in merge_tracefiles([a, b]).records} == {"x.c", "y.c"}


def test_filter_tracefile_by_prefix():
    tf = parse_tracefile(
        "SF:/lib/src/a.c\nDA:1,1\nend_of_record\nSF:/lib/tests/t.c\nDA:1,1\nend_of_record"
    )
    from apimeter.coverage import filter_tracefile

    kept = filter_tracefile(tf, ["/lib/tests/"])
    assert [fc.path for fc in kept.records] == ["/lib/src/a.c"]
    assert filter_tracefile(tf, []) is tf


def _run_with_coverage(covered: int, total: int = 1000) -> Tracefile:
    lines = [f"DA:{i},{1 if i <= covered else 0}" for i in range(1, total + 1)]
    return parse_tracefile("SF:run.c\n" + "\n".join(lines) + "\nend_of_record")


def test_median_of_three():
    runs = [_run_with_coverage(367), _run_with_coverage(932), _run_with_coverage(517)]
    assert select_median_run(runs) is runs[2]


def test_median_of_nine_nondeterministic_suite():
    # Nine-run selection over the coverage spread of a nondeterministic
    # test suite: 36.7 40.7 51.5 51.7 53.2 78.6 89.9 93.1 93.2 -> 53.2.
    pcts = [367, 932, 931, 407, 517, 786, 515, 532, 899]
    runs = [_run_with_coverage(p) for p in pcts]
    chosen = select_median_run(runs)
    assert chosen is runs[pcts.index(532)]
    assert chosen.overall_coverage_pct() == pytest.approx(53.2)


def test_median_single_run():
    run = _run_with_coverage(100)
    assert select_median_run([run]) is run


def test_median_even_takes_lower():
    runs = [_run_with_coverage(400), _run_with_coverage(600)]
    assert select_median_run(runs) is runs[0]


def test_delta_identity_is_zero_report(golden_catalog):
    tf = parse_tracefile((GOLDEN / "tracefile_library.info").read_text())
    report = coverage_delta(tf, tf, golden_catalog)
    assert report["extra_total_coverage_pct"] == 0.0
    assert report["newly_covered_apis"] == []
    assert report["improved_apis"] == []
    assert report["new_api_lines_covered"] == 0


def test_delta_from_empty_baseline_counts_api_lines():
    aug = parse_tracefile("SF:a.c\nFN:1,4,f\nDA:1,1\nDA:2,1\nDA:3,1\nDA:9,1\nend_of_record")
    report = coverage_delta(Tracefile(), aug, make_catalog(["f"]))
    assert report["new_api_lines_covered"] == 3
    assert report["newly_covered_apis"] == ["f"]


def test_delta_file_set_mismatch():
    a = parse_tracefile("SF:a.c\nDA:1,1\nend_of_record")
    b = parse_tracefile("SF:b.c\nDA:1,1\nend_of_record")
    with pytest.raises(FileSetMismatchError):
        coverage_delta(a, b, make_catalog(["f"]))


def test_delta_classifies_new_improved_unchanged():
    base = parse_tracefile(
        "SF:a.c\nFN:1,3,fnew\nFN:10,13,fimp\nFN:20,23,fsame\n"
        "DA:1,0\nDA:2,0\nDA:10,1\nDA:11,0\nDA:20,1\nDA:21,1\nend_of_record"
    )
    aug = parse_tracefile(
        "SF:a.c\nFN:1,3,fnew\nFN:10,13,fimp\nFN:20,23,fsame\n"
        "DA:1,1\nDA:2,0\nDA:10,1\nDA:11,5\nDA:20,1\nDA:21,1\nend_of_record"
    )
    report = coverage_delta(base, aug, make_catalog(["fnew", "fimp", "fsame"]))
    assert report["newly_covered_apis"] == ["fnew"]
    assert report["improved_apis"] == ["fimp"]
    assert report["new_api_lines_covered"] == 2
    assert report["extra_total_coverage_pct"] == pytest.approx(100.0 * 2 / 6)


# --- properties ---------------------------------------------------------------

_line_counts = st.dictionaries(
    st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=3), max_size=12
)


@st.composite
def tracefiles(draw):
    n_files = draw(st.integers(min_value=0, max_value=3))
    records = []
    for idx in range(n_files):
        counts = draw(_line_counts)
        starts = draw(st.lists(st.integers(min_value=1, max_value=40), unique=True, max_size=3))
        body = [f"DA:{line},{c}" for line, c in counts.items()]
        body += [f"FN:{s},fn_{idx}_{s}" for s in sorted(starts)]
        records.append(f"SF:file_{idx}.c\n" + "\n".join(sorted(body)) + "\nend_of_record")
    return parse_tracefile("\n".join(records))


def _line_sets(tf):
    return {fc.path: (fc.lines, fc.hit_lines) for fc in tf.records}


@given(tracefiles(), tracefiles())
def test_merge_commutative(a, b):
    ab = merge_tracefiles([a, b])
    ba = merge_tracefiles([b, a])
    assert _line_sets(ab) == _line_sets(ba)


@given(tracefiles(), tracefiles(), tracefiles())
def test_merge_associative(a, b, c):
    left = merge_tracefiles([merge_tracefiles([a, b]), c])
    right = merge_tracefiles([a, merge_tracefiles([b, c])])
    assert _line_sets(left) == _line_sets(right)


@given(tracefiles())
def test_delta_self_is_always_zero(tf):
    catalog = make_catalog([name for fc in tf.records for name, _ in fc.functions] or ["f"])
    report = coverage_delta(tf, tf, catalog)
    assert report["extra_total_coverage_pct"] == 0.0
    assert not report["newly_covered_apis"]
    assert not report["improved_apis"]
    assert report["new_api_lines_covered"] == 0


@given(tracefiles(), tracefiles())
def test_delta_against_merged_superset_is_monotone(base, extra):
    augmented = merge_tracefiles([base, extra])
    catalog = make_catalog(
        [name for fc in augmented.records for name, _ in fc.functions] or ["f"]
    )
    report = coverage_delta(base, augmented, catalog)
    assert report["extra_total_coverage_pct"] >= 0.0
    assert report["new_api_lines_covered"] >= 0
    # dual direction: nothing may look improved when the superset is the baseline
    reverse = coverage_delta(augmented, base, catalog)
    assert reverse["extra_total_coverage_pct"] == -report["extra_total_coverage_pct"]
    assert reverse["newly_covered_apis"] == []
    assert reverse["improved_apis"] == []
    assert reverse["new_api_lines_covered"] == 0


@given(tracefiles())
def test_annotated_eloc_bounded_by_total_da_lines(tf):
    # Heuristic extents are disjoint per file, so per-API ELOC sums cannot
    # exceed the tracefile's instrumented line count.
    catalog = make_catalog([name for fc in tf.records for name, _ in fc.functions] or ["f"])
    annotated = annotate_catalog_coverage(catalog, tf)
    elocs = [a.eloc for a in annotated.apis.values() if a.eloc is not None]
    assert sum(elocs) <= tf.total_lines()
    for a in annotated.apis.values():
        if a.eloc is not None:
            assert 0 <= a.covered_lines <= a.eloc
