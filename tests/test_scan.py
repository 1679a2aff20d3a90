import pytest
from hypothesis import given
from hypothesis import strategies as st

from apimeter.clientprep import ClientRecord, build_library_inventory, prepare_client
from apimeter.diagnostics import Diagnostics
from apimeter.scan import (
    ScanOptions,
    aggregate_reports,
    blank_comments_and_strings,
    scan_client,
    scan_sources,
    strip_comment_lines,
)
from conftest import GOLDEN, call_lines, client_record


def test_strip_line_comment_preserves_columns():
    assert blank_comments_and_strings("f(); // call") == "f();        "


def test_strip_block_comment_preserves_columns():
    assert blank_comments_and_strings("/* f() */ g();") == "          g();"


def test_strip_protects_string_contents():
    literal = '"// not a comment"'
    assert blank_comments_and_strings(f"s = {literal}; f();") == f"s = {' ' * len(literal)}; f();"


def test_strip_multiline_block():
    src = "a();\n/* one\ntwo\nthree */\nb();"
    out = blank_comments_and_strings(src)
    assert out.splitlines() == ["a();", "      ", "   ", "        ", "b();"]
    assert len(out) == len(src)


def test_strip_unterminated_block_blanks_to_eof():
    diag = Diagnostics()
    out = blank_comments_and_strings("a();\n/* oops\nb();", diag)
    assert out.splitlines() == ["a();", "       ", "    "]
    assert diag.count("unterminated_block_comment") == 1


def test_strip_line_comment_continuation():
    out = blank_comments_and_strings("// first \\\nstill comment\nf();")
    assert out.splitlines() == ["          ", "             ", "f();"]


def test_find_simple_call():
    assert call_lines("mdb_env_create(&env);", "mdb_env_create") == [1]


def test_find_rejects_superstring_identifier():
    assert call_lines("my_mdb_env_create(&env);", "mdb_env_create") == []


def test_find_excludes_string_literal():
    assert call_lines('printf("mdb_env_create(");', "mdb_env_create") == []


def test_find_counts_macro_definition_use():
    assert call_lines("#define OPEN(e) mdb_env_open(e)", "mdb_env_open") == [1]


def test_find_single_whitespace_gap_only():
    assert call_lines("tk_stat (h);", "tk_stat") == [1]
    assert call_lines("tk_stat  (h);", "tk_stat") == []
    assert call_lines("tk_stat\n(h);", "tk_stat") == []


def test_find_loose_mode_spans_whitespace():
    assert call_lines("tk_stat  (h);", "tk_stat", loose=True) == [1]
    assert call_lines("tk_stat\n   (h);", "tk_stat", loose=True) == [1]


def test_find_ignores_function_pointer_mention():
    assert call_lines("cb = tk_close;", "tk_close") == []


def test_find_masks_char_and_raw_string_literals():
    assert call_lines("c = 'x'; s = R\"(tk_put(1))\";", "tk_put") == []


def test_find_counts_multiple_uses_on_one_line():
    assert call_lines("f(g(), f(1));", "f") == [1, 1]


def test_digit_separators_do_not_break_matching():
    assert call_lines("int x = 1'000'000; tk_open(db);", "tk_open") == [1]


def test_escaped_quotes_inside_string():
    assert call_lines('printf("say \\"tk_open(\\""); tk_open(db);', "tk_open") == [1]


def test_lone_quote_recovers_at_newline():
    src = "char *s = \"unterminated\ntk_open(db);"
    assert call_lines(src, "tk_open") == [2]


def test_paper_faithful_drops_commented_call_lines():
    src = "tk_close(db); // flush\ntk_close(db);\n"
    assert call_lines(src, "tk_close") == [1, 2]
    assert call_lines(src, "tk_close", paper_faithful=True) == [2]


def _golden_record(client: str) -> ClientRecord:
    from apimeter.catalog import LibrarySpec

    spec = LibrarySpec(
        name="tinykv",
        shared_objects=("unused.so",),
        header_root=str(GOLDEN / "install" / "include"),
        source_roots=(str(GOLDEN / "libsrc"),),
        explicit_file_excludes=("tinykv_amalg.c",),
    )
    inv = build_library_inventory([str(GOLDEN / "libsrc")])
    return prepare_client(client, GOLDEN / "clients" / client, spec, inv)


def test_scan_alpha_matches_hand_counts(golden_catalog, oracle):
    report = scan_client(_golden_record("alpha"), golden_catalog)
    expected = oracle["clients"]["alpha"]
    assert report.uses == expected["uses"]
    assert report.distinct_count == expected["distinct"]
    assert report.total_uses == 7
    assert report.utilisation_pct == expected["utilisation_pct"]


@pytest.mark.parametrize("client", ["alpha", "beta", "gamma"])
def test_scan_golden_clients(client, golden_catalog, oracle):
    report = scan_client(_golden_record(client), golden_catalog)
    expected = oracle["clients"][client]
    assert report.uses == expected["uses"]
    assert report.distinct_count == expected["distinct"]
    assert report.utilisation_pct == expected["utilisation_pct"]


def test_scan_empty_client(tmp_path, golden_catalog):
    rec = client_record(tmp_path, client_id="empty")
    report = scan_client(rec, golden_catalog)
    assert report.uses == {}
    assert report.distinct_count == 0
    assert report.utilisation_pct == 0.0


def test_scan_uses_only_in_excluded_dir_count_zero(tmp_path, golden_catalog):
    vend = tmp_path / "vendored"
    vend.mkdir()
    (vend / "lib.c").write_text("int f(void) { return tk_open(0, 0); }\n")
    rec = client_record(tmp_path, {"vendored": "overlap"}, client_id="shell")
    assert scan_client(rec, golden_catalog).uses == {}


def test_exclusion_soundness_removes_exact_contribution(tmp_path, golden_catalog):
    (tmp_path / "keep.c").write_text("void a(void) { tk_open(0, 0); tk_put(0, 0, 0); }\n")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "more.c").write_text("void b(void) { tk_open(0, 0); }\n")
    everything = client_record(tmp_path)
    pruned = client_record(tmp_path, {"sub": "overlap"})
    full = scan_client(everything, golden_catalog).uses
    partial = scan_client(pruned, golden_catalog).uses
    assert full == {"tk_open": 2, "tk_put": 1}
    assert partial == {"tk_open": 1, "tk_put": 1}


def test_file_cap_skips_oversized_files(tmp_path, golden_catalog):
    big = tmp_path / "big.c"
    big.write_text("tk_open(0, 0);\n" * 10)
    diag = Diagnostics()
    rec = client_record(tmp_path)
    report = scan_client(rec, golden_catalog, ScanOptions(file_cap_bytes=10), diag)
    assert report.uses == {}
    assert diag.count("file_too_large") == 1


def test_non_source_extensions_ignored(tmp_path, golden_catalog):
    (tmp_path / "notes.txt").write_text("tk_open(0, 0);")
    (tmp_path / "prog.py").write_text("tk_open(0, 0)")
    rec = client_record(tmp_path)
    assert scan_client(rec, golden_catalog).uses == {}


def test_scanned_clients_aggregate_and_flag_silent_clients(tmp_path, golden_catalog):
    used = tmp_path / "used"
    used.mkdir()
    (used / "a.c").write_text("void a(void) { tk_open(0, 0); }\n")
    silent = tmp_path / "silent"
    silent.mkdir()
    (silent / "b.c").write_text("int x;\n")
    recs = [
        client_record(used, client_id="used"),
        client_record(silent, client_id="silent"),
    ]
    reports = [scan_client(rec, golden_catalog) for rec in recs]
    agg = aggregate_reports(golden_catalog.library, len(golden_catalog.apis), reports)
    assert agg.api_client_counts == {"tk_open": 1}
    assert agg.api_total_uses == {"tk_open": 1}
    assert agg.clients_without_uses == ["silent"]


def test_sites_listing(tmp_path, golden_catalog):
    (tmp_path / "a.c").write_text("void f(void) {\n    tk_open(0, 0);\n}\n")
    rec = client_record(tmp_path)
    report = scan_client(rec, golden_catalog, ScanOptions(collect_sites=True))
    assert [(s.file, s.line, s.api) for s in report.sites] == [("a.c", 2, "tk_open")]


# --- properties ---------------------------------------------------------------

_fragments = st.lists(
    st.sampled_from(
        [
            "tk_open(x)",
            "// comment\n",
            "/* block */",
            "/* open\n",
            '"a // string"',
            "'c'",
            "\\",
            "\n",
            "ident ",
            'R"(raw)"',
            "*/",
            "int x = 1;\n",
            '"unterminated',
        ]
    ),
    max_size=12,
)


@given(_fragments)
def test_strip_comments_preserves_line_count(fragments):
    src = "".join(fragments)
    assert blank_comments_and_strings(src).count("\n") == src.count("\n")


@given(_fragments)
def test_paper_faithful_strip_preserves_line_count(fragments):
    src = "".join(fragments)
    assert strip_comment_lines(src).count("\n") == src.count("\n")


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
def test_superstring_identifiers_never_match(api, decorations):
    # every identifier strictly contains the API name, so nothing may match
    lines = [f"{prefix}{api}{suffix}();" for prefix, suffix in decorations]
    assert call_lines("\n".join(lines), api) == []


@st.composite
def _source_files(draw):
    apis = ["tk_open", "tk_close", "tk_put"]
    n = draw(st.integers(min_value=0, max_value=5))
    files = []
    for i in range(n):
        calls = draw(st.lists(st.sampled_from(apis), max_size=6))
        body = "\n".join(f"{api}({j});" for j, api in enumerate(calls))
        files.append((f"f{i}.c", body))
    return files


@given(_source_files(), st.randoms())
def test_scan_is_order_insensitive(files, rng):
    api_names = {"tk_open", "tk_close", "tk_put"}
    baseline, _ = scan_sources(files, api_names)
    shuffled = list(files)
    rng.shuffle(shuffled)
    again, _ = scan_sources(shuffled, api_names)
    assert baseline == again


@given(st.lists(_source_files(), max_size=4))
def test_aggregate_additivity(clients):
    api_names = {"tk_open", "tk_close", "tk_put"}
    reports = []
    for idx, files in enumerate(clients):
        uses, _ = scan_sources(files, api_names)
        from apimeter.scan import UsageReport

        reports.append(UsageReport(client_id=f"c{idx}", library="lib", uses=uses, catalog_size=3))
    agg = aggregate_reports("lib", 3, reports)
    for api in api_names:
        assert agg.api_total_uses.get(api, 0) == sum(r.uses.get(api, 0) for r in reports)
        assert agg.api_client_counts.get(api, 0) == sum(
            1 for r in reports if r.uses.get(api, 0) > 0
        )
