"""The `paper_faithful` line filter against the frozen per-line loop.

`apimeter.scan.strip_comment_lines` must empty exactly the lines the
reference's one-search-per-line loop empties, and keep every newline. The
generated texts draw from the characters the rule turns on: the comment
markers, newlines, and whitespace that is not a newline, Unicode
whitespace included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lexer as ref
from apimeter.scan import strip_comment_lines

CASES = [
    # (text, the text with its dropped lines emptied)
    (" *p = 1;", ""),
    ("\t*x", ""),
    ("  *x", "  *x"),
    ('f("http://x"); tk_open(a);', ""),
    ("tk_open(a); /* b */\ntk_close(a);", "\ntk_close(a);"),
    ("tk_open(a);", "tk_open(a);"),
    ("tk_open(a);\n", "tk_open(a);\n"),
    ("a\n // b\n", "a\n\n"),
    ("a;\r\n * b\r\n// c\r\nd;\r\n", "a;\r\n\n\nd;\r\n"),
    ("\r*x\n\x85*y\n\x1c*z\n", "\n\n\n"),
    ("*x\n/\n*", "*x\n/\n*"),
    ("\n\n", "\n\n"),
    ("", ""),
]


@pytest.mark.parametrize("text, want", CASES)
def test_explicit_cases(text, want):
    assert ref.strip_comment_lines(text) == want
    assert strip_comment_lines(text) == want


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="/* \t\r\x0b\x0c\x1c\x85a(\n", max_size=80))
def test_generated_text_matches_reference(text):
    assert strip_comment_lines(text) == ref.strip_comment_lines(text)
