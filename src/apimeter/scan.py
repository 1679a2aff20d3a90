"""Lexical usage scanning of C/C++ sources.

Finds call expressions of catalog APIs without preprocessing or parsing.
One compiled tokenizer finds comments and string/char literals (raw
strings included) in a single pass over each file and blanks them. Where
sites are kept it keeps newlines and widths, so line numbers and columns
survive; a counts-only scan puts two spaces in place of each. A use is a
token-boundary API name followed by at most one (non-newline) whitespace
and an opening parenthesis; the matcher finds it from each '(' back to its
identifier, in one regex pass over the reversed text. Uses inside macro
bodies and #ifdef regions count — under some build configuration they are
real calls.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from .catalog import DEFAULT_FILE_CAP_BYTES, ApiCatalog, is_source_name, read_text
from .clientprep import ClientRecord
from .diagnostics import SILENT, Diagnostics
# aggregate_reports is re-exported: callers reach it as scan.aggregate_reports.
from .usage import UsageReport, aggregate_reports  # noqa: F401

# Line-oriented comment exclusion for evaluation parity with purely
# regex-based pipelines: a line is emptied, its newline kept, if it holds
# '//' or '/*' anywhere (inside a literal too), or if it starts with one
# whitespace character other than a newline and then '*'.
_LINE_DROP = re.compile(r"(?m)^(?:[^\n]*(?://|/\*)[^\n]*|[^\S\n]\*[^\n]*)$")


class UseSite(NamedTuple):
    file: str
    line: int
    api: str


# --- comment / string lexing -------------------------------------------------

# One token is a comment or a string/char literal; everything between tokens
# is code. Every alternative starts with a literal '/', '"' or "'", so the
# regex engine skips plain code by its first character. The alternatives sit
# in one outer group, and a new one goes inside it: `split` then gives code, a
# token and its inner groups, code, ..., so a token every _STRIDE parts.
_TOKEN = re.compile(
    r"""
    (
    //[^\n\\]*(?:\\+[^\\][^\n\\]*)*\\*          # line comment; backslashes before a newline continue it
  | /\*[^*]*(?:\*+[^*/][^*]*)*(?:\*+/?)?        # block comment; an unterminated one runs to end of text
  | "(?:(?<=R")(?<![A-Za-z0-9_]R")              # raw string: R, [uUL]R or u8R starting a token,
      |(?<=[uUL]R")(?<![A-Za-z0-9_][uUL]R")
      |(?<=u8R")(?<![A-Za-z0-9_]u8R"))
    (?P<d>[^()\\\s]{0,16})\((?:.*?\)(?P=d)"|.*) # then d(...)d; an unclosed one runs to end of text
  | "[^"\\\n]*(?:\\.[^"\\\n]*)*(?:"|\\)?        # string literal; an unescaped newline ends it
  | '[^'\\\n]*(?:\\.[^'\\\n]*)*(?:'|\\)?        # char literal, likewise
    )
    """,
    re.S | re.X,
)
_STRIDE = _TOKEN.groups + 1


def _spaces(token: str) -> str:
    if "\n" not in token:
        return " " * len(token)
    return "\n".join(" " * len(line) for line in token.split("\n"))


def _lex(source: str, diag: Diagnostics) -> list[str | None]:
    """Split `source` once: code, a token and its inner groups, code, and so on.

    An open block comment runs to the end, so only the last token can be one."""
    parts = _TOKEN.split(source)
    last = parts[-_STRIDE] if len(parts) > 1 else ""
    if last.startswith("/*") and (len(last) < 4 or not last.endswith("*/")):
        diag.emit("unterminated_block_comment", at_line=source.count("\n", 0, len(source) - len(last)) + 1)
    return parts


def blank_comments_and_strings(source: str, diag: Diagnostics = SILENT) -> str:
    """Blank every non-newline character of comments and string/char literals.

    One pass of the tokenizer; line count and the columns of surviving code
    are preserved. Comment markers inside literals are protected. An
    unterminated block comment blanks through end of text and emits a
    diagnostic.
    """
    parts = _lex(source, diag)
    parts[1::_STRIDE] = map(_spaces, parts[1::_STRIDE])
    for group in range(2, _STRIDE):  # an inner group, such as a raw string's delimiter, is in its token
        parts[group::_STRIDE] = [""] * (len(parts) // _STRIDE)
    return "".join(parts)


def strip_comment_lines(source: str) -> str:
    """Line-regex comment exclusion: empty whole lines that look commented.

    Loses calls sharing a line with a comment; kept behind the
    paper_faithful flag for comparing against regex-only pipelines.
    """
    return _LINE_DROP.sub("", source)


# --- call-site matching -------------------------------------------------------


# A call read backwards: '(' then the gap, then the identifier reversed.
# Matching starts at a literal '(', so the engine skips from paren to paren.
# Group 1 ends at the last letter or '_' of the reversed word run; the digits
# after it lead the run in forward text and are not part of the identifier.
# Strict allows one non-newline whitespace in the gap, as a line-oriented
# search would; loose allows any whitespace, newlines included.
_CALL = re.compile(r"\([ \t\f\v\r]?([A-Za-z0-9_]*[A-Za-z_])[0-9]*(?![A-Za-z0-9_])")
_LOOSE_CALL = re.compile(r"\([ \t\f\v\r\n]*([A-Za-z0-9_]*[A-Za-z_])[0-9]*(?![A-Za-z0-9_])")


def _call_sites(
    text: str, reversed_names: set[str] | frozenset[str], pattern: re.Pattern
) -> list[tuple[str, int]]:
    """(reversed api, line) of every call of a catalog API, in text order.

    `text` must already be comment-stripped and string-masked;
    `reversed_names` holds each API name spelled backwards."""
    rev = text[::-1]
    line, counted = rev.count("\n") + 1, 0
    found = []
    for m in pattern.finditer(rev):
        name = m.group(1)
        if name in reversed_names:
            end = m.end(1)
            line -= rev.count("\n", counted, end)
            counted = end
            found.append((name, line))
    found.reverse()
    return found


class ScanOptions(NamedTuple):
    paper_faithful: bool = False
    loose_call_match: bool = False
    file_cap_bytes: int = DEFAULT_FILE_CAP_BYTES
    collect_sites: bool = False


def scan_sources(
    files: Iterable[tuple[str, str]],
    api_names: Iterable[str],
    options: ScanOptions = ScanOptions(),
    diag: Diagnostics = SILENT,
) -> tuple[dict[str, int], list[UseSite]]:
    """Count call sites over (relative path, text) pairs.

    Pure aggregation: the result does not depend on file order.
    """
    reversed_names = frozenset(name[::-1] for name in api_names)
    pattern = _LOOSE_CALL if options.loose_call_match else _CALL
    found: Counter[str] = Counter()  # keyed by reversed name
    sites: list[UseSite] = []
    for rel_path, text in files:
        if options.paper_faithful:
            text = strip_comment_lines(text)  # leaves no '/*', so no open block comment below
        if options.collect_sites:
            for name, line in _call_sites(blank_comments_and_strings(text, diag), reversed_names, pattern):
                found[name] += 1
                sites.append(UseSite(rel_path, line, name[::-1]))
        else:
            # Counts need no widths or newlines. Two spaces never let a strict match span a
            # token: the only one-character tokens are a lone quote before a newline or at the end.
            rev = "  ".join(_lex(text, diag)[::_STRIDE])[::-1]
            found.update(filter(reversed_names.__contains__, pattern.findall(rev)))
    return {name[::-1]: n for name, n in found.items()}, sorted(sites)


def iter_client_sources(
    rec: ClientRecord,
    options: ScanOptions = ScanOptions(),
    diag: Diagnostics = SILENT,
) -> Iterator[tuple[str, str]]:
    """Yield scannable (relative path, text) of a prepared checkout, in walk order.

    Reads the listing `prepare_client` took. Excluded directories are pruned
    and excluded files skipped as the listing reaches them, each with an event.
    """
    if "." in rec.excluded_dirs:
        return
    pruned: set[str] = set()
    for rel_dir, dirs, files, path in rec.listing:
        sub = "" if rel_dir == "." else rel_dir + "/"
        if rel_dir in pruned:
            pruned.update(sub + d for d in dirs)
            continue
        for d in dirs:
            if sub + d in rec.excluded_dirs:
                pruned.add(sub + d)
                diag.emit("dir_excluded", client=rec.client_id, path=sub + d)
        for fname in files:
            if not is_source_name(fname):
                continue
            rel = sub + fname
            if rel in rec.excluded_files:
                diag.emit("file_excluded", client=rec.client_id, path=rel)
                continue
            try:
                text = read_text(path + fname, options.file_cap_bytes)
            except OSError as exc:
                diag.emit("file_unreadable", client=rec.client_id, path=rel, error=str(exc))
                continue
            if text is None:
                diag.emit("file_too_large", client=rec.client_id, path=rel)
                continue
            yield rel, text


def scan_client(
    rec: ClientRecord,
    catalog: ApiCatalog,
    options: ScanOptions = ScanOptions(),
    diag: Diagnostics = SILENT,
) -> UsageReport:
    """Scan every non-excluded C/C++ file of one client."""
    uses, sites = scan_sources(iter_client_sources(rec, options, diag), catalog.apis, options, diag)
    return UsageReport(
        client_id=rec.client_id,
        library=catalog.library,
        uses=uses,
        catalog_size=len(catalog.apis),
        sites=sites if options.collect_sites else None,
    )
