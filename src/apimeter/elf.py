"""Minimal ELF reader: exported functions of a shared object.

Reads just enough of the ELF format (header, section headers, .dynsym and
its string table) to list exported function symbols. Classification follows
the classic symbol-listing convention: a symbol is "exported text" when it
is globally bound, defined, and its target section is executable.

Supports ELF32/ELF64, little and big endian. Every structural fault raises
NotElfError naming the file.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple

from .errors import InputFileError, NoDynamicSymbolsError, NotElfError

ELF_MAGIC = b"\x7fELF"

SHT_DYNSYM = 11
SHF_EXECINSTR = 0x4

SHN_UNDEF = 0
SHN_LORESERVE = 0xFF00

STB_GLOBAL = 1

_Section = namedtuple("_Section", "name type flags addr offset size link info addralign entsize")


class _Layout(NamedTuple):
    """Where one ELF class keeps what this reader needs (struct formats, no byte order)."""

    shoff_at: int  # e_shoff
    shoff: str
    shnum_at: int  # e_shentsize, then e_shnum
    section: str  # one section header, fields as in _Section
    symbol: str  # one symbol record, fields as in `symbol_fields`
    symbol_fields: type


_LAYOUTS = {
    1: _Layout(0x20, "I", 0x2E, "10I", "IIIBBH", namedtuple("_Symbol32", "name value size info other shndx")),
    2: _Layout(0x28, "Q", 0x3A, "IIQQQQIIQQ", "IBBHQQ", namedtuple("_Symbol64", "name info other shndx value size")),
}


def exported_text_symbols(path: str | Path) -> set[str]:
    """Names of globally bound symbols defined in executable sections.

    Versioned names (name@VERSION) are normalized to the bare name; headers
    never carry version suffixes. Mangled names are kept verbatim. Raises
    NotElfError for input that is not a sound ELF file and
    NoDynamicSymbolsError when the object carries no .dynsym section; a
    file that cannot be read raises InputFileError naming it.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputFileError(f"cannot read shared object {path}: {exc}") from exc
    if len(data) < 16 or data[:4] != ELF_MAGIC:
        raise NotElfError(f"{path}: bad magic: not an ELF file")
    layout = _LAYOUTS.get(data[4])
    if layout is None:
        raise NotElfError(f"{path}: unknown ELF class {data[4]}")
    if data[5] not in (1, 2):
        raise NotElfError(f"{path}: unknown ELF data encoding {data[5]}")
    end = "<" if data[5] == 1 else ">"

    def unpack(fmt: str, offset: int, what: str) -> tuple:
        try:
            return struct.unpack_from(end + fmt, data, offset)
        except (struct.error, OverflowError) as exc:  # OverflowError: offset past any buffer
            raise NotElfError(f"{path}: truncated {what}: {exc}") from exc

    (shoff,) = unpack(layout.shoff, layout.shoff_at, "ELF header")
    shentsize, shnum = unpack("HH", layout.shnum_at, "ELF header")
    sections = [
        _Section._make(unpack(layout.section, shoff + i * shentsize, "section header table"))
        for i in range(shnum)
    ]
    tables = [s for s in sections if s.type == SHT_DYNSYM]
    if not tables:
        raise NoDynamicSymbolsError(f"{path}: no dynamic symbol table")

    symbol = struct.Struct(end + layout.symbol)
    names: set[str] = set()
    for table in tables:
        if table.link >= len(sections):
            raise NotElfError(f"{path}: symbol table links to a nonexistent string table")
        strtab = sections[table.link]
        strings = data[strtab.offset : strtab.offset + strtab.size]
        step = table.entsize or symbol.size
        if step < symbol.size:
            raise NotElfError(f"{path}: symbol table entry size {step} is below {symbol.size} bytes")
        if table.offset + table.size > len(data):
            raise NotElfError(f"{path}: symbol table extends past end of file")
        for i in range(table.size // step):
            sym = layout.symbol_fields._make(symbol.unpack_from(data, table.offset + i * step))
            if sym.info >> 4 != STB_GLOBAL or sym.shndx == SHN_UNDEF or sym.shndx >= SHN_LORESERVE:
                continue
            if sym.shndx >= len(sections) or not sections[sym.shndx].flags & SHF_EXECINSTR:
                continue
            nul = strings.find(b"\x00", sym.name)
            name = strings[sym.name : nul if nul >= 0 else len(strings)].decode("utf-8", errors="replace")
            if name:
                names.add(name.split("@", 1)[0])
    return names
