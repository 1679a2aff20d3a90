"""Frozen per-character lexer: the reference for the scanner's tokenizer.

This is the state machine `apimeter.scan` used before it moved to a single
compiled pattern, and the per-line loop of its `paper_faithful` comment
rule from before that rule became one substitution. Both are kept only so
the differential tests can check the scanner against them; nothing outside
`tests/` imports this module.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from apimeter.diagnostics import Diagnostics

CODE = "code"
COMMENT = "comment"
STRING = "string"

_IDENT_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
_RAW_DELIM = re.compile(r"[^()\\\s]{0,16}")
# A line holding a comment marker, or starting with one whitespace and '*'.
_LINE_DROP = re.compile(r"//|/\*|^\s\*")


def _lex_regions(text: str) -> Iterator[tuple[str, int, int]]:
    """Yield (kind, start, end) spans: code, comment, or string/char literal."""
    n = len(text)
    i = 0
    start = 0

    def flush(upto: int, kind: str) -> Iterator[tuple[str, int, int]]:
        nonlocal start
        if upto > start:
            yield (kind, start, upto)
        start = upto

    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            yield from flush(i, CODE)
            i += 2
            while i < n:
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    i += 2
                    continue
                if text[i] == "\n":
                    break
                i += 1
            yield from flush(i, COMMENT)
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            yield from flush(i, CODE)
            close = text.find("*/", i + 2)
            i = n if close < 0 else close + 2
            yield from flush(i, COMMENT)
            continue
        if c == '"':
            j = i - 1
            if j >= 0 and text[j] == "R" and _raw_prefix_ok(text, j):
                delim_end = text.find("(", i + 1)
                if 0 <= delim_end <= i + 17 and _RAW_DELIM.fullmatch(text[i + 1 : delim_end]):
                    closer = ")" + text[i + 1 : delim_end] + '"'
                    close = text.find(closer, delim_end + 1)
                    end = n if close < 0 else close + len(closer)
                    yield from flush(i, CODE)
                    i = end
                    yield from flush(i, STRING)
                    continue
            yield from flush(i, CODE)
            i = _scan_quoted(text, i + 1, '"')
            yield from flush(i, STRING)
            continue
        if c == "'":
            yield from flush(i, CODE)
            i = _scan_quoted(text, i + 1, "'")
            yield from flush(i, STRING)
            continue
        i += 1
    yield from flush(n, CODE)


def _raw_prefix_ok(text: str, r_index: int) -> bool:
    k = r_index - 1
    if k >= 1 and text[k] == "8" and text[k - 1] == "u":
        k -= 2
    elif k >= 0 and text[k] in "uUL":
        k -= 1
    return k < 0 or text[k] not in _IDENT_CHARS


def _scan_quoted(text: str, i: int, quote: str) -> int:
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\\" and i + 1 < n:
            i += 2
            continue
        if c == quote:
            return i + 1
        if c == "\n":
            return i
        i += 1
    return n


def _blank(text: str, spans: Iterable[tuple[int, int]]) -> str:
    chars = list(text)
    for s, e in spans:
        for i in range(s, e):
            if chars[i] != "\n":
                chars[i] = " "
    return "".join(chars)


def strip_comments(source: str, diag: Diagnostics | None = None) -> str:
    spans = []
    for kind, s, e in _lex_regions(source):
        if kind == COMMENT:
            spans.append((s, e))
            terminated = e - s >= 4 and source.startswith("*/", e - 2)
            if source.startswith("/*", s) and not terminated and diag:
                diag.emit("unterminated_block_comment", at_line=source.count("\n", 0, s) + 1)
    return _blank(source, spans)


def mask_string_literals(source: str) -> str:
    spans = [(s, e) for kind, s, e in _lex_regions(source) if kind == STRING]
    return _blank(source, spans)


def strip_comment_lines(source: str) -> str:
    """Empty every line that `_LINE_DROP` finds, one search per line; the newlines stay."""
    out = []
    for line in source.split("\n"):
        out.append("" if _LINE_DROP.search(line) else line)
    return "\n".join(out)
