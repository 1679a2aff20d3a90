"""The scanner's call matcher against the frozen identifier-loop matcher.

Both run through the scanner's entry point, `scan_sources`. The first generated
texts hold no '/', '"', "'" or '*', so the comment and string blanking
leaves them as they are and the matcher sees them unchanged. Uses and the sorted (api, line) list are compared in strict
and loose mode, with lines (`collect_sites`) and without; whole-file scans
are compared in the default, `paper_faithful` and `collect_sites` modes.
The counts-path tests at the end generate texts full of comments and
literals, and compare uses, sites and events in strict and loose mode.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_matcher as ref
from apimeter.diagnostics import Diagnostics
from apimeter.scan import ScanOptions, scan_sources
from conftest import GOLDEN

NAMES = frozenset(
    ["tk_open", "tk_open2", "open", "tk_op", "ab", "a1b", "b", "x", "_", "x_1", "tk_close", "close_x"]
)


def _assert_same(text: str, names: frozenset[str] = NAMES) -> None:
    files = [("f.c", text)]
    for loose in (False, True):
        for with_lines in (False, True):
            options = ScanOptions(loose_call_match=loose, collect_sites=with_lines)
            got_uses, got_sites = scan_sources(files, names, options)
            want_uses, want_sites = ref.scan_sources(files, names, options)
            assert got_uses == want_uses
            assert type(got_uses) is dict
            assert sorted((api, line) for _, line, api in got_sites) == sorted(
                (api, line) for _, line, api in want_sites
            )


EDGE_CASES = [
    # digit runs lead a token only until its first letter or underscore
    "12ab(",
    "a1b(",
    "0x1Ftk_open(",
    "9tk_open(",
    "1_(",
    "12(",
    "x12(",
    "x_1(",
    "tk_open2(",
    "tk_open2 (",
    # an API name as prefix or suffix of another identifier
    "tk_openx(",
    "xtk_open(",
    "my_tk_open(",
    "tk_op(tk_open(",
    "close_x(tk_close(",
    "tk_close_x(",
    # start and end of text
    "tk_open(",
    "tk_open",
    "(tk_open",
    "tk_open (",
    "(",
    "((",
    "",
    " (",
    # gaps
    "tk_open  (h);",
    "tk_open\t(h);",
    "tk_open\n(h);",
    "tk_open\r\n(h);",
    "tk_open\r(h);",
    "tk_open\f(h);",
    "tk_open\v(h);",
    "tk_open \n (h);",
    "tk_open\n\n\n(h);\ntk_open(",
    "tk_open((x))",
    "tk_open(tk_open(b(x(_()))))",
    # non-ASCII and control characters next to names
    "étk_open(",
    "tk_opené(",
    "�ab(",
    "ab�(",
    "\x00ab(",
    "ab\x00(",
    "ab(\x00ab (",
    # several per line, several lines
    "ab(b(a1b(\nab (b  (\n\nx(x(x(",
    "f(tk_open(e), tk_close(e));\r\nb(1);\n",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_match_reference(text):
    _assert_same(text)


_PIECES = [
    "tk_open", "tk_close", "open", "tk_", "ab", "a", "b", "x", "_", "1", "12", "0x1F", "2", "close_x",
    " ", "  ", "\t", "\f", "\v", "\r", "\n", "\r\n", "(", "((", ")", ";", ",", "é", "�", "\x00",
]

_texts = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
    st.text(alphabet="abx_12 \t\f\v\r\n()é�\x00", max_size=60),
)


@settings(max_examples=500, deadline=None)
@given(_texts)
def test_generated_text_matches_reference(text):
    _assert_same(text)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(sorted(NAMES)), min_size=1, max_size=4).map(frozenset), _texts)
def test_generated_name_sets_match_reference(names, text):
    _assert_same(text, names)


def _golden_sources() -> list[tuple[str, str]]:
    clients = GOLDEN / "clients"
    return [
        (p.relative_to(clients).as_posix(), p.read_text(encoding="utf-8", errors="replace"))
        for p in sorted(clients.rglob("*"))
        if p.suffix in (".c", ".h")
    ]


_LEXED_PIECES = _PIECES + ["//", "/*", "*/", '"', "'", "\\", " * "]


@pytest.mark.parametrize(
    "options",
    [
        ScanOptions(),
        ScanOptions(paper_faithful=True),
        ScanOptions(collect_sites=True),
        ScanOptions(paper_faithful=True, collect_sites=True),
        ScanOptions(loose_call_match=True, collect_sites=True),
    ],
    ids=["default", "paper_faithful", "collect_sites", "paper_faithful_sites", "loose_sites"],
)
@settings(max_examples=50, deadline=None)
@given(extra=st.lists(st.lists(st.sampled_from(_LEXED_PIECES), max_size=60).map("".join), max_size=3))
def test_scan_sources_modes_match_reference(options, extra):
    files = _golden_sources() + [(f"gen/{i}.c", text) for i, text in enumerate(extra)]
    names = NAMES | {"tk_put", "tk_get", "tk_delete", "tk_stat"}
    got_diag, want_diag = Diagnostics(), Diagnostics()
    got = scan_sources(files, names, options, got_diag)
    want = ref.scan_sources(files, names, options, want_diag)
    assert got == want
    assert got_diag.events == want_diag.events


# The scanner puts two spaces in place of each comment or literal, and on the sites path that token's
# newlines after them. These texts hold comments and literals, so its uses, its sorted (api, line)
# sites, strict and loose, and its `unterminated_block_comment` events are compared with the
# reference, whose frozen lexer blanks width for width.


def _assert_counts_same(text: str) -> None:
    files = [("f.c", text)]
    for loose in (False, True):
        for with_lines in (False, True):
            options = ScanOptions(loose_call_match=loose, collect_sites=with_lines)
            got_diag, want_diag = Diagnostics(), Diagnostics()
            got_uses, got_sites = scan_sources(files, NAMES, options, got_diag)
            want_uses, want_sites = ref.scan_sources(files, NAMES, options, want_diag)
            assert got_uses == want_uses
            assert sorted((api, line) for _, line, api in got_sites) == sorted(
                (api, line) for _, line, api in want_sites
            )
            assert got_diag.events == want_diag.events


COUNTS_EDGE_CASES = [
    # a lone quote is a one-character token before a newline or at the end of the text
    "tk_open'\n(a);",
    'tk_open"\n(a);',
    "tk_open '\n(a);",
    "ab(x'\ntk_open (b);",
    "tk_open'",
    'tk_open"',
    "tk_open '",
    "tk_open(a) '",
    # an open block comment can only be the last token
    "tk_open(a); /*/",
    "/*/",
    "tk_open(a); /* tk_close(b);\n",
    "/* a */ tk_open(b); /*/ tk_close(c);",
    "/**/ tk_open(b); /*/",
    "/* a */ tk_open(b); \"/*\" tk_close(c);",
    "/* a */ tk_open(b); '/*' tk_close(c);",
    "/* a */ tk_open(b); // /* tk_close(c);",
    "tk_open(b); \"/*\" tk_close(c); /* d */",
    "*/ tk_open(b); /*",
    "/*/ */ tk_open(b); /*",
    # a last token that runs to the end of the text, or a backslash that would continue it
    'tk_open(a); R"d(tk_close(b);',
    'tk_open(a); R"d(tk_close(b); /*',
    "tk_open(a); // x \\",
    'tk_open(a); "x\\',
    "tk_open(a); 'x\\",
    "tk_open(a); \\",
    "tk_open",
    "tk_open \n",
    "",
    "/*",
    "/**",
    "/* a */",
    "x /**/",
    'f(); R"(',
    # line comments at the end of the text and continued by a backslash
    "tk_open(a); // tk_close(b)",
    "tk_open(a); //",
    "// note \\\ntk_open(a);\ntk_close(b);",
    "// note \\\\\ntk_open(a);\ntk_close(b);",
    "tk_open // x\n(a);",
    "tk_open /* x */ (a);",
    "tk_open/**/(a);",
    "tk_open\"\"(a);",
    "tk_open''(a);",
    'tk_open R"(x)" (a); R"d(tk_close(b))d" tk_close(c);',
    # a call after a token that holds newlines keeps its line
    "/* one\ntwo\nthree */\ntk_open(a);\n tk_close(b);",
    'x = R"d(one\ntk_close(no)\n)d";\ntk_open(a); tk_close(b);',
    "// x \\\ntk_close(no);\ntk_open(a);",
    "tk_open /* a\nb */ (x);\ntk_close(c);",
    "/* one\r\ntwo\r\n*/\r\ntk_open(a);\r\ntk_close(b);",
]


@pytest.mark.parametrize("text", COUNTS_EDGE_CASES)
def test_counts_path_edge_cases_match_reference(text):
    _assert_counts_same(text)


_TOKEN_PIECES = ["/", "*", '"', "'", "\\", "R", "(", "\n", " ", *sorted(NAMES)]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=40).map("".join))
def test_counts_path_on_token_text_matches_reference(text):
    _assert_counts_same(text)
