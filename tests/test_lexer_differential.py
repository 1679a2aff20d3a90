"""The scanner's one-pass tokenizer against the frozen per-character lexer.

`scan._lex` splits each file into code parts and tokens (comments and
literals) once. `conftest.blank_tokens` joins those parts back with each
token blanked width for width, the view the reference gives, and is
compared on two texts. On `strip_comment_lines` output, the text the
`paper_faithful` path lexes, no comment survives, so it must equal the
reference's `mask_string_literals`. On the whole text it must equal
stripping comments and then masking strings in the stripped text,
diagnostics included. The scanner itself keeps no widths: it joins the
code parts with two spaces, followed under `collect_sites` by each token's
newlines, and `test_matcher_differential.py` compares its uses, sites and
events with the reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lexer as ref
from apimeter.diagnostics import Diagnostics
from apimeter.scan import strip_comment_lines
from conftest import blank_tokens


def _assert_same(src: str) -> None:
    lines_kept = strip_comment_lines(src)
    assert blank_tokens(lines_kept) == ref.mask_string_literals(lines_kept)

    want_diag, got_diag = Diagnostics(), Diagnostics()
    want = ref.mask_string_literals(ref.strip_comments(src, want_diag))
    assert blank_tokens(src, got_diag) == want
    assert got_diag.events == want_diag.events


EDGE_CASES = [
    # raw-string prefixes: R, [uUL]R and u8R, each at start of text or after a non-identifier
    'R"(a // b /* c)" f();',
    'x = R"(a "b" c)"; f();',
    'x=uR"(q)" UR"(q)" LR"(q)" u8R"(q)" f();',
    'aR"(not raw)" f();',
    '_R"(x)" f();',
    '9R"(x)" f();',
    'au8R"(x)" f();',
    'x8R"(x)" f();',
    'bLR"(x)" f();',
    '(u8R"(x)")',
    'R"abcdefghijklmnop(x)abcdefghijklmnop" f();',
    'R"abcdefghijklmnopq(x)abcdefghijklmnopq" f();',
    'R"a b(x)a b" f();',
    'R"a\\b(x)a\\b" f();',
    'R"a)(x)a)" f();',
    'R"d(x)" f(); )d" g();',
    'R"d(unclosed\n// not a comment\nf();',
    'R"(\n/* still raw */\n)" f();',
    'R"',
    'R"d',
    # // continuation: any run of backslashes before a newline continues the comment
    "// a \\\nf();\ng();",
    "// a \\\\\nf();\ng();",
    "// a \\\\\\\nf();\ng();",
    "// a \\x\nf();",
    "// a \\ \nf();",
    "// trailing backslash \\",
    "// trailing backslashes \\\\",
    "//\\\n\\\n\\\nf();",
    "//*/ f();\ng();",
    # ordinary literals
    '"a\\\nb" f();',
    '"unterminated\nf();',
    '"lone backslash\\',
    "'c' '\\'' '\\\\' f();",
    "'unterminated\nf();",
    '"esc \\" still" f();',
    '"\\\\" f(); "x"',
    "'\"' f(); '\"'",
    '"\'" f(); "\'"',
    # block comments
    "/* open\nf();\n",
    "a /* open",
    "/*/ f();",
    "/*/",
    "/**/ f();",
    "/***/ f();",
    "/*/ */ f();",
    "/* a **/ f(); /* b * / */",
    "x;\n\n/* first */ /* second\nf();",
    '"/*" f(); "*/"',
    "'//' g();",
    '/* "a */ "b" */ f();',
    "// \"quoted\nf();",
    "/* 'q */ f(); /* ' */",
    # end of text: open block comments, open raw strings and trailing backslashes, as in the
    # counts-path cases of test_matcher_differential.py
    "tk_open(a); /*/",
    "tk_open(a); /* tk_close(b);\n",
    "/* a */ tk_open(b); /*/ tk_close(c);",
    "/**/ tk_open(b); /*/",
    "*/ tk_open(b); /*",
    "/*/ */ tk_open(b); /*",
    'tk_open(a); R"d(tk_close(b);',
    'tk_open(a); R"d(tk_close(b); /*',
    "tk_open(a); // x \\",
    'tk_open(a); "x\\',
    "tk_open(a); 'x\\",
    "tk_open(a); \\",
    "tk_open",
    "tk_open \n",
    "/*",
    "/**",
    "/* a */",
    "x /**/",
    'f(); R"(',
    # empty and degenerate
    "",
    "/",
    "*",
    '"',
    "'",
    "\\",
    "\n\n",
]


@pytest.mark.parametrize("src", EDGE_CASES)
def test_edge_cases_match_reference(src):
    _assert_same(src)


_ATOMS = [
    "//", "/*", "*/", "*", "/", '"', "'", "\\", "\n", "\\\n", " ", "\t", "x", "f(", ")", "(",
    "R", "u8", "u", "U", "L", "8", "_", "d", 'R"(', ')"', 'R"d(', ')d"', "abcdefghijklmnopq",
]

_texts = st.one_of(
    st.lists(st.sampled_from(_ATOMS), max_size=40).map("".join),
    st.text(alphabet="/*\"'\\\nRuUL8()xd _", max_size=60),
)


@settings(max_examples=500, deadline=None)
@given(_texts)
def test_generated_text_matches_reference(src):
    _assert_same(src)
