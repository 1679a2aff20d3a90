"""Seeded input generators for the apimeter benchmark, each with its own answer.

Every generator writes real files (shared objects, headers, client trees,
LCOV tracefiles) and returns a model of what a correct pipeline must report
for them. The model comes from how the inputs were built, never from running
apimeter, so the benchmark's checks are independent of the code under test.
Nothing here imports apimeter.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

LIBRARY = "cvi"  # library name, symbol prefix and header directory
AMALGAMATION = "lb_amalg.c"  # the library's explicit file exclude
FIXED_APIS = 8  # APIs whose names and coverage never depend on the seed

# --- minimal ELF shared objects ----------------------------------------------------

STB_LOCAL, STB_GLOBAL, STB_WEAK = 0, 1, 2
STT_OBJECT, STT_FUNC = 1, 2
SHN_UNDEF, SHN_TEXT, SHN_DATA = 0, 1, 2


def write_elf(path: Path, symbols: list[tuple[str, int, int, int]], bits: int = 64, little: bool = True) -> int:
    """Write a shared object whose .dynsym lists (name, bind, type, shndx).

    Sections: null, .text (executable), .data, .dynsym, .dynstr, .shstrtab.
    Returns the file size.
    """
    end = "<" if little else ">"
    is64 = bits == 64
    dynstr = bytearray(b"\0")
    shstr = bytearray(b"\0")
    shname = {}
    for sec in (".text", ".data", ".dynsym", ".dynstr", ".shstrtab"):
        shname[sec] = len(shstr)
        shstr += sec.encode() + b"\0"

    def sym(name_off: int, info: int, shndx: int, value: int) -> bytes:
        if is64:
            return struct.pack(end + "IBBHQQ", name_off, info, 0, shndx, value, 16)
        return struct.pack(end + "IIIBBH", name_off, value, 16, info, 0, shndx)

    ordered = sorted(symbols, key=lambda s: s[1] != STB_LOCAL)
    first_global = 1 + sum(1 for s in symbols if s[1] == STB_LOCAL)
    table = bytearray(sym(0, 0, 0, 0))
    for i, (name, bind, typ, shndx) in enumerate(ordered):
        off = len(dynstr)
        dynstr += name.encode() + b"\0"
        table += sym(off, (bind << 4) | typ, shndx, 0x1000 + 16 * i)

    text, data = b"\xc3" * 64, b"\0" * 64
    blobs = [text, data, bytes(table), bytes(dynstr), bytes(shstr)]
    ehsize, shentsize = (64, 64) if is64 else (52, 40)
    offsets, pos = [], ehsize
    for blob in blobs:
        offsets.append(pos)
        pos += len(blob)

    def shdr(name: str, sh_type: int, flags: int, idx: int, link: int, info: int, entsize: int) -> bytes:
        fmt = end + ("IIQQQQIIQQ" if is64 else "IIIIIIIIII")
        return struct.pack(fmt, shname[name], sh_type, flags, 0, offsets[idx], len(blobs[idx]), link, info, 1, entsize)

    headers = b"\0" * shentsize + b"".join(
        [
            shdr(".text", 1, 0x6, 0, 0, 0, 0),
            shdr(".data", 1, 0x3, 1, 0, 0, 0),
            shdr(".dynsym", 11, 0x2, 2, 4, first_global, 24 if is64 else 16),
            shdr(".dynstr", 3, 0x2, 3, 0, 0, 0),
            shdr(".shstrtab", 3, 0, 4, 0, 0, 0),
        ]
    )
    ident = b"\x7fELF" + bytes([2 if is64 else 1, 1 if little else 2, 1]) + b"\0" * 9
    tail = "QQQIHHHHHH" if is64 else "IIIIHHHHHH"
    ehdr = ident + struct.pack(end + "HHI" + tail, 3, 62 if is64 else 3, 1, 0, 0, pos, 0, ehsize, 0, 0, shentsize, 6, 5)
    payload = ehdr + b"".join(blobs) + headers
    path.write_bytes(payload)
    return len(payload)


# --- the library: shared objects, headers, source tree -------------------------------

WORDS = ["open", "close", "read", "write", "get", "set", "put", "find", "scan", "sync",
         "init", "free", "load", "save", "lock", "flush", "seek", "stat", "map", "bind"]


@dataclass
class Library:
    name: str
    so_paths: list[str]
    header_root: str
    source_root: str
    apis: list[str]          # the right catalog: exported text symbols named in a header
    decoys: list[str]        # symbol-like names that must never count as APIs
    fixed: list[str]         # APIs whose coverage layout is seed-independent
    so_bytes: int = 0
    header_files: int = 0
    header_bytes: int = 0
    lib_dirs: dict[str, list[str]] = field(default_factory=dict)  # leaf dir -> file names


def gen_library(root: Path, rng: random.Random, n_apis: int, n_headers: int,
                tree: tuple[int, int, int] = (2, 2, 2)) -> Library:
    """Shared objects plus headers whose intersection is exactly n_apis names.

    Every decoy kind is planted in fixed numbers: exported but undeclared,
    weak, local, data, undefined, header-only, and versioned exports whose
    bare names are declared. The first FIXED_APIS names are always APIs.
    """
    prefix = LIBRARY
    n_decoy = max(6, n_apis // 20)
    kinds = ["api"] * (n_apis - FIXED_APIS)
    for kind in ("internal", "weak", "local", "data", "undef", "header_only"):
        kinds += [kind] * n_decoy
    rng.shuffle(kinds)
    kinds = ["api"] * FIXED_APIS + kinds
    names = [f"{prefix}_{WORDS[i % len(WORDS)]}_{i:04d}" for i in range(len(kinds))]

    so_a: list[tuple[str, int, int, int]] = []
    so_b: list[tuple[str, int, int, int]] = []
    declared: list[tuple[str, str]] = []
    apis, decoys = [], []
    for i, (name, kind) in enumerate(zip(names, kinds)):
        target = so_a if i % 3 else so_b
        if kind == "api":
            apis.append(name)
            exported = name
            if i % 11 == 5:
                exported = f"{name}@@CVI_2.{i % 4}"
            target.append((exported, STB_GLOBAL, STT_FUNC, SHN_TEXT))
            if i % 7 == 3:  # exported by both objects: kept once
                (so_b if target is so_a else so_a).append((name, STB_GLOBAL, STT_FUNC, SHN_TEXT))
            declared.append((name, "fn"))
            continue
        decoys.append(name)
        if kind == "internal":
            target.append((name, STB_GLOBAL, STT_FUNC, SHN_TEXT))
        elif kind == "weak":
            target.append((name, STB_WEAK, STT_FUNC, SHN_TEXT))
            declared.append((name, "fn"))
        elif kind == "local":
            target.append((name, STB_LOCAL, STT_FUNC, SHN_TEXT))
            declared.append((name, "fn"))
        elif kind == "data":
            target.append((name, STB_GLOBAL, STT_OBJECT, SHN_DATA))
            declared.append((name, "data"))
        elif kind == "undef":
            target.append((name, STB_GLOBAL, STT_FUNC, SHN_UNDEF))
            declared.append((name, "fn"))
        else:
            declared.append((name, "fn"))

    lib_dir = root / "build"
    lib_dir.mkdir(parents=True)
    so1, so2 = lib_dir / f"lib{prefix}.so", lib_dir / f"lib{prefix}_ext.so"
    so_bytes = write_elf(so1, so_a) + write_elf(so2, so_b, bits=32, little=False)

    inc = root / "include"
    rng.shuffle(declared)
    header_bytes = 0
    for h in range(n_headers):
        sub = inc / prefix / (f"mod{h % 4}" if h % 2 else "")
        sub.mkdir(parents=True, exist_ok=True)
        body = [f"#ifndef CVI_H_{h}", f"#define CVI_H_{h}", "", "/* Public interface, part %d. */" % h,
                "typedef struct cvi_ctx cvi_ctx_t;", ""]
        for name, kind in declared[h::n_headers]:
            if kind == "data":
                body.append(f"extern int {name};")
            elif rng.random() < 0.15:
                body.append(f"#define CVI_CALL_{name.upper()}(c) {name}((c), 0)")
            else:
                body += [f"/** Returns zero when the request succeeds. */",
                         f"int {name}(cvi_ctx_t *ctx, int flags);"]
        body += ["", f"#endif /* CVI_H_{h} */", ""]
        text = "\n".join(body)
        (sub / f"cvi_part{h:03d}.h").write_text(text)
        header_bytes += len(text)
    # Not a header: its names must not reach the catalog.
    (inc / "internal_names.inc").write_text("".join(f"int {d}(void);\n" for d in decoys))

    src = root / "libsrc"
    lib_dirs: dict[str, list[str]] = {}
    tops, mids, leaves = tree
    leaf_id = 0
    for t in range(tops):
        for m in range(mids):
            mid = src / f"area{t}" / f"part{m}"
            mid.mkdir(parents=True)
            (mid / f"lbmid{t}_{m}.c").write_text("int x;\n")
            for _ in range(leaves):
                leaf = mid / f"unit{leaf_id:03d}"
                leaf.mkdir()
                files = [f"lb{leaf_id:03d}_{k}.c" for k in range(4)] + [f"lb{leaf_id:03d}.h"]
                for f in files:
                    (leaf / f).write_text("int y;\n")
                lib_dirs[leaf.relative_to(src).as_posix()] = files
                leaf_id += 1
    return Library(
        name=prefix,
        so_paths=[str(so1), str(so2)],
        header_root=str(inc),
        source_root=str(src),
        apis=sorted(apis),
        decoys=decoys,
        fixed=names[:FIXED_APIS],
        so_bytes=so_bytes,
        header_files=n_headers,
        header_bytes=header_bytes,
        lib_dirs=lib_dirs,
    )


# --- C sources with known call sites --------------------------------------------------
# Each template returns [(line text, [APIs genuinely called on that line])].


def _call(r, a, o):
    x = a()
    return [(f"    rc = {x}(ctx, {r.randrange(99)});", [x])]


def _two_calls(r, a, o):
    x, y = a(), a()
    return [(f"    rc = {x}(ctx) + {y} (ctx, 2);", [x, y])]


def _tab_gap(r, a, o):
    x = a()
    return [(f"    {x}\t(ctx);", [x])]


def _wide_gap(r, a, o):
    x, y = a(), a()
    return [(f"    rc = {x}  (ctx);", []), (f"    rc = {y}", []), ("        (ctx);", [])]


def _line_comment(r, a, o):
    x = a()
    return [(f"    // {x}(ctx); old path", [])]


def _continued_comment(r, a, o):
    x, y = a(), a()
    return [(f"    // retry through {x}(ctx) \\", []), (f"    {y}(ctx); still inside the comment", [])]


def _block_comment(r, a, o):
    x, y, z = a(), a(), a()
    return [(f"    /* {x}(ctx)", []), (f"     * {y}(ctx) */ rc = {z}(ctx);", [z])]


def _string(r, a, o):
    x = a()
    return [(f'    log_msg("{x}(ctx) failed: %d", rc);', [])]


def _escaped_string(r, a, o):
    x, y = a(), a()
    return [(f'    log_msg("say \\"{x}(\\" now"); rc = {y}(ctx);', [y])]


def _marker_in_string(r, a, o):
    x, y = a(), a()
    return [(f'    puts("/* not a comment // either"); rc = {x}(ctx); // {y}(ctx)', [x])]


def _char_literals(r, a, o):
    x = a()
    return [(f"    ch = '\"'; rc = {x}(ctx, '('); ch = '\\'';", [x])]


def _raw_string(r, a, o):
    x, y = a(), a()
    return [(f'    q = R"sql({x}(ctx) "quoted" )sql"; rc = {y}(ctx);', [y])]


def _raw_multiline(r, a, o):
    x = a()
    return [('    q = u8R"x(', []), (f"      {x}(ctx); // not code", []), ('    )x";', [])]


def _fn_pointer(r, a, o):
    x, y = a(), a()
    return [(f"    cb = {x}; table[1] = &{y};", []), (f"    register_cb({x}, ctx);", [])]


def _longer_names(r, a, o):
    x = a()
    return [(f"    rc = my_{x}(ctx) + {x}_ex(ctx) + {x}2(ctx);", [])]


def _not_an_api(r, a, o):
    z = o()
    return [(f"    rc = {z}(ctx);", [])]


def _macro(r, a, o):
    x, y = a(), a()
    return [(f"#define CALL_{r.randrange(10**6)}(c) \\", []), (f"    {x}((c), 0) + {y}((c), 1)", [x, y])]


def _ifdef(r, a, o):
    x = a()
    return [("#ifdef FEATURE_FAST", []), (f"    rc = {x}(ctx);", [x]), ("#endif", [])]


def _glued(r, a, o):
    x = a()
    return [(f"    /**/{x}(ctx); rc = rc /{x}(ctx);", [x, x])]


def _filler(r, a, o):
    n = r.randrange(1000)
    return [(r.choice([
        f"    int v{n} = {n % 97} * 2;",
        "    if (rc != 0) { return rc; }",
        f"    helper_{n}(rc);",
        "    memset(buf, 0, sizeof buf);",
        "",
    ]), [])]


LEXER_MIX = [
    (_call, 10), (_two_calls, 3), (_tab_gap, 1), (_wide_gap, 1), (_line_comment, 3),
    (_continued_comment, 2), (_block_comment, 3), (_string, 3), (_escaped_string, 2),
    (_marker_in_string, 2), (_char_literals, 2), (_raw_string, 1), (_raw_multiline, 1),
    (_fn_pointer, 2), (_longer_names, 2), (_not_an_api, 2), (_macro, 1), (_ifdef, 1),
    (_glued, 1), (_filler, 12),
]
LIGHT_MIX = [(_call, 6), (_line_comment, 1), (_string, 1), (_fn_pointer, 1), (_filler, 10)]


def gen_c_source(rng: random.Random, apis: list[str], others: list[str], body_lines: int,
                 mix, unterminated_tail: bool = False) -> tuple[str, list[tuple[int, str]]]:
    """One C file and its genuine call sites as (1-based line, API)."""
    templates, weights = [t for t, _ in mix], [w for _, w in mix]
    pick_api = lambda: rng.choice(apis)  # noqa: E731
    pick_other = lambda: rng.choice(others)  # noqa: E731
    lines = ['#include "cvi.h"', ""]
    sites: list[tuple[int, str]] = []
    produced = 0
    fn = 0
    while produced < body_lines:
        lines += [f"int client_fn_{fn}(cvi_ctx_t *ctx)", "{", "    int rc = 0;"]
        fn += 1
        for _ in range(min(40, body_lines - produced)):
            for text, calls in rng.choices(templates, weights)[0](rng, pick_api, pick_other):
                lines.append(text)
                sites += [(len(lines), api) for api in calls]
                produced += 1
        lines += ["    return rc;", "}", ""]
    if unterminated_tail:
        x = pick_api()
        lines += [f"/* trailing notes: {x}(ctx) never runs", f"   {pick_api()}(ctx);"]
    return "\n".join(lines) + "\n", sites


# --- client checkouts --------------------------------------------------------------------


@dataclass
class ClientModel:
    client: str
    uses: dict[str, int] = field(default_factory=dict)
    sites: list[str] = field(default_factory=list)         # "file:line:api", sorted
    excluded: dict[str, str] = field(default_factory=dict)  # dir or file -> rule
    events: list[tuple[str, str]] = field(default_factory=list)  # (event, path), sorted
    files: int = 0
    scanned_files: int = 0
    lines: int = 0
    bytes: int = 0
    dirs: int = 0


class ClientWriter:
    """Writes one checkout file by file and keeps its model in step."""

    def __init__(self, root: Path, client: str, rng: random.Random, apis: list[str], others: list[str]):
        self.root, self.rng, self.apis, self.others = root, rng, apis, others
        self.model = ClientModel(client)
        self.dir_names: dict[str, set[str]] = {}
        self.lib_names: set[str] = set()
        self.planted: set[str] = set()
        self._sites: list[tuple[str, int, str]] = []

    def source(self, rel: str, body_lines: int, mix, counted: bool = True, tail: bool = False) -> None:
        text, sites = gen_c_source(self.rng, self.apis, self.others, body_lines, mix, tail)
        self.text(rel, text)
        if counted:
            self.model.scanned_files += 1
            self.model.lines += text.count("\n")
            self.model.bytes += len(text)
            for line, api in sites:
                self.model.uses[api] = self.model.uses.get(api, 0) + 1
                self._sites.append((rel, line, api))

    def text(self, rel: str, content: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        self.model.files += 1
        parts = PurePosixPath(rel).parts
        name = parts[-1]
        for depth in range(len(parts)):
            self.dir_names.setdefault("/".join(parts[:depth]) or ".", set()).add(name)

    def exclude(self, rel: str, rule: str) -> None:
        self.model.excluded[rel] = rule

    def finish(self) -> ClientModel:
        m = self.model
        m.dirs = len(self.dir_names)
        m.sites = [f"{f}:{line}:{api}" for f, line, api in sorted(self._sites)]
        dirs = [p for p, rule in m.excluded.items() if rule != "explicit"]

        def under(p: str) -> bool:
            return any(p.startswith(d + "/") for d in dirs)

        events = [("client_prepared", "")]
        events += [("dir_excluded", d) for d in dirs if not under(d) and (self.root / d).is_dir()]
        events += [("file_excluded", p) for p, rule in m.excluded.items() if rule == "explicit" and not under(p)]
        m.events = sorted(events)
        # Only planted directories may reach the 80% name-overlap threshold
        # against any library directory, so no ancestor is excluded instead.
        for rel, names in self.dir_names.items():
            share = len(names & self.lib_names) / len(names)
            if (share >= 0.8) != (rel in self.planted):
                raise AssertionError(f"{m.client}: {rel} overlap {share:.2f} breaks the plan")
        return m


def gen_plain_client(root: Path, client: str, rng: random.Random, apis: list[str], others: list[str],
                     files: int, body_lines: int, mix, tails: int = 0) -> ClientModel:
    """A flat checkout of mid-sized sources plus one declared submodule."""
    w = ClientWriter(root, client, rng, apis, others)
    for i in range(files):
        suffix = (".c", ".cpp", ".h")[i % 3]
        w.source(f"src/{client}_{i:03d}{suffix}", body_lines, mix, tail=i < tails)
    w.text(f"docs/{client}_notes.md", f"Call {apis[0]}(ctx) first.\n")
    w.source(f"ext/dep/{client}_dep.c", 20, LIGHT_MIX, counted=False)
    w.text(".gitmodules", '[submodule "dep"]\n\tpath = ext/dep\n\turl = https://example.invalid/dep\n')
    w.exclude("ext/dep", "submodule")
    return w.finish()


def gen_vendoring_client(root: Path, client: str, rng: random.Random, apis: list[str], others: list[str],
                         lib: Library, n_dirs: int, files_per_dir: int, body_lines: int,
                         plant: bool) -> ClientModel:
    """A deep tree of small files, optionally with every exclusion form planted.

    Planted: a declared submodule (plus one declared outside the root and one
    section without a path), a full vendored copy of a library directory, a
    copy at exactly 80% name overlap, a decoy at 75% that must be scanned,
    and the explicit exclude both in scanned code and inside the submodule.
    """
    w = ClientWriter(root, client, rng, apis, others)
    dirs = ["src"]
    while len(dirs) < n_dirs:
        parent = rng.choice(dirs)
        if parent.count("/") < 5:
            dirs.append(f"{parent}/d{len(dirs):03d}")
    for d_idx, d in enumerate(dirs):
        for k in range(files_per_dir):
            suffix = ".h" if k == files_per_dir - 1 else ".c"
            w.source(f"{d}/{client}_{d_idx:03d}_{k}{suffix}", body_lines, LIGHT_MIX)
        w.text(f"{d}/{client}_{d_idx:03d}.txt", f"notes: {rng.choice(apis)}(ctx)\n")
    if not plant:
        return w.finish()

    leaves = rng.sample(sorted(lib.lib_dirs), 3)
    hosts = rng.sample(dirs[1:], 2)
    full = "third_party/vendored_copy"
    for k in range(3):
        w.text(f"third_party/{client}_tp{k}.txt", "license\n")
    for name in lib.lib_dirs[leaves[0]]:
        w.source(f"{full}/{name}", 8, LIGHT_MIX, counted=False)
    w.exclude(full, "overlap")
    eighty = f"{hosts[0]}/old_engine"
    for name in lib.lib_dirs[leaves[1]][:4] + [f"{client}_glue.c"]:
        w.source(f"{eighty}/{name}", 8, LIGHT_MIX, counted=False)
    w.exclude(eighty, "overlap")
    decoy = f"{hosts[1]}/almost_vendor"
    for name in lib.lib_dirs[leaves[2]][:3] + [f"{client}_port.c"]:
        w.source(f"{decoy}/{name}", 8, LIGHT_MIX)
    w.planted = {full, eighty}
    w.lib_names = {n for names in lib.lib_dirs.values() for n in names}

    sub = "ext/submod"
    w.source(f"{sub}/{client}_sub.c", 10, LIGHT_MIX, counted=False)
    w.source(f"{sub}/{AMALGAMATION}", 10, LIGHT_MIX, counted=False)
    w.exclude(sub, "submodule")
    w.exclude(f"{sub}/{AMALGAMATION}", "explicit")
    w.text(".gitmodules", (
        f'[submodule "submod"]\n\tpath = {sub}\n'
        '[submodule "escape"]\n\tpath = ../outside\n'
        '[submodule "nopath"]\n\turl = https://example.invalid/x\n'
    ))
    amalg = f"{rng.choice(dirs)}/{AMALGAMATION}"
    w.source(amalg, 10, LIGHT_MIX, counted=False)
    w.exclude(amalg, "explicit")
    return w.finish()


# --- LCOV tracefiles with known function extents ------------------------------------------


@dataclass
class Fn:
    name: str
    start: int
    end: int          # last line of the body
    lines: list[int]  # instrumented lines


@dataclass
class CovFile:
    path: str
    fns: list[Fn]
    explicit_end: bool


def gen_coverage_layout(rng: random.Random, apis: list[str], fixed: list[str], n_files: int,
                        fns_per_file: int, lines_per_fn: int, duplicates: int) -> list[CovFile]:
    """Library source files laid out as functions with instrumented lines.

    Functions never share a line and no instrumented line sits between
    them, so an extent read from the next function's start holds the same
    lines as an explicit end. The fixed APIs get their own file with a
    seed-independent layout. `duplicates` APIs are defined a second time in
    a compat file with fewer lines, so the larger definition must win.
    """
    layout_rng = random.Random(0)
    files = [_cov_file("src/core_fixed.c", [(n, 6) for n in fixed], True, layout_rng)]
    pool = [a for a in apis if a not in set(fixed)]
    rng.shuffle(pool)
    measured = pool[: int(len(pool) * 0.9)]  # the rest stay unmeasured
    per_file = max(1, fns_per_file * 2 // 3)
    for i in range(n_files):
        chunk = measured[i * per_file:(i + 1) * per_file]
        if not chunk and i:
            break
        entries = [(n, lines_per_fn + rng.randrange(-3, 4)) for n in chunk]
        entries += [(f"static_{i}_{k}", lines_per_fn) for k in range(fns_per_file - len(chunk))]
        rng.shuffle(entries)
        files.append(_cov_file(f"src/mod_{i:04d}.c", entries, rng.random() < 0.7, rng))
    for k, name in enumerate(rng.sample(measured[: n_files * per_file], duplicates)):
        files.append(_cov_file(f"compat/dup_{k:03d}.c", [(name, 3)], True, rng))
    return files


def _cov_file(path: str, entries: list[tuple[str, int]], explicit_end: bool, rng: random.Random) -> CovFile:
    fns, line = [], 3
    for name, n in entries:
        start = line
        body = list(range(start, start + n + 2))
        instrumented = [start] + sorted(rng.sample(body[1:], n))
        end = body[-1]
        fns.append(Fn(name, start, end, instrumented))
        line = end + 1 + rng.randrange(1, 4)
    return CovFile(path, fns, explicit_end)


def gen_run(rng: random.Random, files: list[CovFile], p_fn: float, p_line: float) -> dict[str, dict[int, int]]:
    """Hit counts for one test run: each function is entered with p_fn, and
    an entered function executes each instrumented line with p_line."""
    run = {}
    for cf in files:
        fixed = cf.path == "src/core_fixed.c"
        counts = {}
        for fn in cf.fns:
            entered = fixed or rng.random() < p_fn
            for ln in fn.lines:
                if fixed:
                    counts[ln] = 3 if (ln + fn.start) % 3 else 0
                elif entered and (ln == fn.start or rng.random() < p_line):
                    counts[ln] = rng.randrange(1, 500)
                else:
                    counts[ln] = 0
        run[cf.path] = counts
    return run


def write_tracefile(path: Path, files: list[CovFile], run: dict[str, dict[int, int]], name: str) -> int:
    """Write one LCOV tracefile; returns its DA + FN record count."""
    out = [f"TN:{name}"]
    records = 0
    for cf in files:
        counts = run.get(cf.path)
        if counts is None:
            continue
        out.append(f"SF:/build/cvi/{cf.path}")
        for fn in cf.fns:
            out.append(f"FN:{fn.start},{fn.end},{fn.name}" if cf.explicit_end else f"FN:{fn.start},{fn.name}")
        for fn in cf.fns:
            out.append(f"FNDA:{counts[fn.start]},{fn.name}")
        out.append(f"FNF:{len(cf.fns)}")
        out.append(f"FNH:{sum(1 for fn in cf.fns if counts[fn.start])}")
        for fn in cf.fns:
            out += [f"DA:{ln},{counts[ln]}" for ln in fn.lines]
        out.append(f"LF:{len(counts)}")
        out.append(f"LH:{sum(1 for c in counts.values() if c)}")
        out.append("end_of_record")
        records += len(cf.fns) + len(counts)
    path.write_text("\n".join(out) + "\n")
    return records


def cov_path(cf: CovFile) -> str:
    return f"/build/cvi/{cf.path}"


def extent(cf: CovFile, idx: int) -> tuple[int, int]:
    """The extent apimeter must assign: the declared end, else the line
    before the next function, else the file's last instrumented line."""
    fn = cf.fns[idx]
    if cf.explicit_end:
        return fn.start, fn.end
    if idx + 1 < len(cf.fns):
        return fn.start, cf.fns[idx + 1].start - 1
    return fn.start, max(max(f.lines[-1] for f in cf.fns), fn.start)


def expected_annotation(files: list[CovFile], run: dict[str, dict[int, int]], catalog: set[str]) -> dict:
    """Per catalog API: (file, start, end, eloc, covered) from the largest
    definition, path breaking ties; APIs not in the run stay unmeasured."""
    best: dict[str, tuple] = {}
    for cf in files:
        counts = run.get(cf.path)
        if counts is None:
            continue
        for idx, fn in enumerate(cf.fns):
            if fn.name not in catalog:
                continue
            start, end = extent(cf, idx)
            cand = (cov_path(cf), start, end, len(fn.lines), sum(1 for ln in fn.lines if counts[ln]))
            cur = best.get(fn.name)
            if cur is None or (-cand[3], cand[0]) < (-cur[3], cur[0]):
                best[fn.name] = cand
    return {api: best.get(api, (None, None, None, None, None)) for api in catalog}


def covered_lines(run: dict[str, dict[int, int]]) -> int:
    return sum(1 for counts in run.values() for c in counts.values() if c)


def expected_delta(files: list[CovFile], base: dict, aug: dict, catalog: set[str]) -> dict:
    """What the augmented run adds; both runs instrument the same lines."""
    total = sum(len(c) for c in base.values())
    newly, improved, new_lines = [], [], 0
    chosen = expected_annotation(files, base, catalog)
    fns = {(cov_path(cf), fn.start): fn for cf in files for fn in cf.fns}
    path_of = {cov_path(cf): cf.path for cf in files}
    for api in sorted(catalog):
        path, start, _end, _eloc, _cov = chosen[api]
        if path is None:
            continue
        fn = fns[(path, start)]
        b = aug_b = 0
        for ln in fn.lines:
            hit_b = base[path_of[path]][ln] > 0
            hit_a = aug[path_of[path]][ln] > 0
            b += hit_b
            aug_b += hit_a
            new_lines += hit_a and not hit_b
        if b == 0 and aug_b > 0:
            newly.append(api)
        elif b > 0 and aug_b > b:
            improved.append(api)
    return {
        "extra_total_coverage_pct": 100.0 * covered_lines(aug) / total - 100.0 * covered_lines(base) / total,
        "newly_covered_apis": newly,
        "improved_apis": improved,
        "new_api_lines_covered": new_lines,
    }


def augment(rng: random.Random, files: list[CovFile], base: dict, share: float) -> dict:
    """A second run on top of `base`: it keeps every hit and newly executes
    the instrumented lines of a share of the functions."""
    aug = {p: dict(c) for p, c in base.items()}
    for cf in files:
        for fn in cf.fns:
            if rng.random() < share:
                for ln in fn.lines:
                    if aug[cf.path][ln] == 0 and rng.random() < 0.7:
                        aug[cf.path][ln] = rng.randrange(1, 50)
    return aug
