"""Frozen identifier-loop call matcher: the reference for the scanner's matcher.

This is the matcher `apimeter.scan` used before it moved to one compiled
pattern run from each '(' over the reversed text. `scan_sources` is the
scanner's aggregation loop of that time. It prepares each text with the
frozen per-character lexer of `reference_lexer` alone (comments stripped,
then strings masked, width for width, after the per-line
`strip_comment_lines` on the `paper_faithful` path), so no live lexer code
runs under the matcher gate. The matcher and the loop are kept only so the
differential tests can check the scanner against them; nothing outside
`tests/` imports this module.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from apimeter.diagnostics import Diagnostics
from apimeter.scan import ScanOptions
from reference_lexer import mask_string_literals, strip_comment_lines, strip_comments

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# One optional whitespace between name and '(' — never a newline, matching
# a line-oriented search.
_STRICT_GAP = frozenset(" \t\f\v\r")


def match_calls(
    text: str, api_names: frozenset[str] | set[str], loose: bool, with_lines: bool = True
) -> Iterator[tuple[str, int]]:
    """Yield (api, line) for every call-shaped occurrence; line is 0 unless
    `with_lines`. `text` must already be comment-stripped and string-masked."""
    n = len(text)
    line, counted = (1 if with_lines else 0), 0
    for m in _IDENT.finditer(text):
        name = m.group()
        if name not in api_names:
            continue
        j = m.end()
        if loose:
            while j < n and text[j] in " \t\f\v\r\n":
                j += 1
        elif j < n and text[j] in _STRICT_GAP:
            j += 1
        if j < n and text[j] == "(":
            if with_lines:
                start = m.start()
                line += text.count("\n", counted, start)
                counted = start
            yield name, line


def scan_sources(
    files: Iterable[tuple[str, str]],
    api_names: frozenset[str] | set[str],
    options: ScanOptions = ScanOptions(),
    diag: Diagnostics | None = None,
) -> tuple[dict[str, int], list[tuple[str, int, str]]]:
    uses: dict[str, int] = {}
    sites: list[tuple[str, int, str]] = []  # (file, line, api)
    for rel_path, text in files:
        if options.paper_faithful:
            prepared = mask_string_literals(strip_comments(strip_comment_lines(text)))
        else:
            prepared = mask_string_literals(strip_comments(text, diag))
        for api, line in match_calls(prepared, api_names, options.loose_call_match, options.collect_sites):
            uses[api] = uses.get(api, 0) + 1
            if options.collect_sites:
                sites.append((rel_path, line, api))
    return uses, sorted(sites)
