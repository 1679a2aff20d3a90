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

from .catalog import DEFAULT_FILE_CAP_BYTES, ApiCatalog, is_source_name, read_text, walk_tree
from .clientprep import ClientRecord
from .diagnostics import SILENT, Diagnostics

# Line-oriented comment exclusion for evaluation parity with purely
# regex-based pipelines: any line containing a comment marker, or starting
# with one whitespace and '*', is dropped wholesale.
_LINE_DROP = re.compile(r"//|/\*|^\s\*")


class UseSite(NamedTuple):
    file: str
    line: int
    api: str


class UsageReport(NamedTuple):
    client_id: str
    library: str
    uses: dict[str, int]
    catalog_size: int
    sites: list[UseSite] | None = None

    @property
    def distinct_count(self) -> int:
        return sum(1 for c in self.uses.values() if c > 0)

    @property
    def total_uses(self) -> int:
        return sum(self.uses.values())

    @property
    def utilisation_pct(self) -> float:
        if self.catalog_size == 0:
            return 0.0
        return 100.0 * self.distinct_count / self.catalog_size


class CorpusAggregate(NamedTuple):
    library: str
    catalog_size: int
    reports: list[UsageReport]
    api_client_counts: dict[str, int]
    api_total_uses: dict[str, int]
    clients_without_uses: list[str]


# --- comment / string lexing -------------------------------------------------

# One token is a comment or a string/char literal; everything between tokens
# is code. Every alternative starts with a literal '/', '"' or "'", so the
# regex engine skips plain code by its first character.
_TOKEN = re.compile(
    r"""
    //[^\n\\]*(?:\\+[^\\][^\n\\]*)*\\*          # line comment; backslashes before a newline continue it
  | /\*[^*]*(?:\*+[^*/][^*]*)*(?:\*+/?)?        # block comment; an unterminated one runs to end of text
  | "(?:(?<=R")(?<![A-Za-z0-9_]R")              # raw string: R, [uUL]R or u8R starting a token,
      |(?<=[uUL]R")(?<![A-Za-z0-9_][uUL]R")
      |(?<=u8R")(?<![A-Za-z0-9_]u8R"))
    (?P<d>[^()\\\s]{0,16})\((?:.*?\)(?P=d)"|.*) # then d(...)d; an unclosed one runs to end of text
  | "[^"\\\n]*(?:\\.[^"\\\n]*)*(?:"|\\)?        # string literal; an unescaped newline ends it
  | '[^'\\\n]*(?:\\.[^'\\\n]*)*(?:'|\\)?        # char literal, likewise
    """,
    re.S | re.X,
)


def _spaces(token: str) -> str:
    if "\n" not in token:
        return " " * len(token)
    return "\n".join(" " * len(line) for line in token.split("\n"))


def blank_comments_and_strings(source: str, diag: Diagnostics = SILENT) -> str:
    """Blank every non-newline character of comments and string/char literals.

    One pass of the tokenizer; line count and the columns of surviving code
    are preserved. Comment markers inside literals are protected. An
    unterminated block comment blanks through end of text and emits a
    diagnostic.
    """

    def blank(m: re.Match) -> str:
        token = m.group()
        if token[0] != "/":
            return _spaces(token)
        if token[1] == "*" and (len(token) < 4 or not token.endswith("*/")):
            diag.emit("unterminated_block_comment", at_line=source.count("\n", 0, m.start()) + 1)
        return _spaces(token)

    return _TOKEN.sub(blank, source)


# Appended to a text before counts-path blanking. An open block comment or
# raw string runs to the end and swallows it; after any other last token its
# final "x" is left as code (a trailing backslash carries a line comment or a
# literal over one newline, never two). It adds no call.
_END = "\n\nx"


def strip_comment_lines(source: str) -> str:
    """Line-regex comment exclusion: blank whole lines that look commented.

    Loses calls sharing a line with a comment; kept behind the
    paper_faithful flag for comparing against regex-only pipelines.
    """
    out = []
    for line in source.split("\n"):
        out.append("" if _LINE_DROP.search(line) else line)
    return "\n".join(out)


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
    """(api, line) of every call of a catalog API, in text order.

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
            found.append((name[::-1], line))
    found.reverse()
    return found


class ScanOptions(NamedTuple):
    paper_faithful: bool = False
    loose_call_match: bool = False
    file_cap_bytes: int = DEFAULT_FILE_CAP_BYTES
    collect_sites: bool = False


def scan_sources(
    files: Iterable[tuple[str, str]],
    api_names: frozenset[str] | set[str],
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
            # No comment survives strip_comment_lines, so this blanks literals only.
            prepared = blank_comments_and_strings(strip_comment_lines(text))
        elif options.collect_sites:
            prepared = blank_comments_and_strings(text, diag)
        else:
            # Counts need no widths or newlines. Two spaces never let a strict match span a
            # token: the only one-character tokens are a lone quote before a newline or at the end.
            prepared = _TOKEN.sub("  ", text + _END)
            if prepared[-1] != "x":  # the last token may be an open block comment: lex for its event
                prepared = blank_comments_and_strings(text, diag)
        if options.collect_sites:
            found_sites = _call_sites(prepared, reversed_names, pattern)
            sites += [UseSite(rel_path, line, api) for api, line in found_sites]
        else:
            found.update(filter(reversed_names.__contains__, pattern.findall(prepared[::-1])))
    if options.collect_sites:
        uses = dict(Counter(site.api for site in sites))
    else:
        uses = {name[::-1]: n for name, n in found.items()}
    return uses, sorted(sites)


def iter_client_sources(
    rec: ClientRecord,
    options: ScanOptions = ScanOptions(),
    diag: Diagnostics = SILENT,
) -> Iterator[tuple[str, str]]:
    """Yield scannable (relative path, text) of a prepared checkout, in walk order.

    Reads the listing `prepare_client` took; a record without one (built by
    hand) is walked here. Excluded directories are pruned and excluded files
    skipped as the walk reaches them, each with an event.
    """
    if "." in rec.excluded_dirs:
        return
    pruned: set[str] = set()
    listing = rec.listing if rec.listing is not None else walk_tree(rec.root, diag, rec.client_id)
    for rel_dir, dirs, files, path in listing:
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
    uses, sites = scan_sources(iter_client_sources(rec, options, diag), catalog.names(), options, diag)
    return UsageReport(
        client_id=rec.client_id,
        library=catalog.library,
        uses=uses,
        catalog_size=len(catalog.apis),
        sites=sites if options.collect_sites else None,
    )


def aggregate_reports(library: str, catalog_size: int, reports: list[UsageReport]) -> CorpusAggregate:
    """Fold per-client reports; commutative, so any merge order is valid."""
    ordered = sorted(reports, key=lambda r: r.client_id)
    client_counts: dict[str, int] = {}
    total_uses: dict[str, int] = {}
    without_uses = []
    for report in ordered:
        if report.distinct_count == 0:
            without_uses.append(report.client_id)
        for api, count in report.uses.items():
            if count > 0:
                client_counts[api] = client_counts.get(api, 0) + 1
                total_uses[api] = total_uses.get(api, 0) + count
    return CorpusAggregate(library, catalog_size, ordered, client_counts, total_uses, without_uses)
