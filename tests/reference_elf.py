"""Frozen ELF reader: the reference for the table-driven `apimeter.elf`.

This is `apimeter.elf` as it was before the reader became one function with
a field layout per ELF class: section and symbol records, a reader per
table, and an unpack branch per class. It is kept only so the differential
tests can check the rewrite against it; nothing outside `tests/` imports it.

Reads just enough of the ELF format (header, section headers, .dynsym and
its string table) to list exported function symbols. Classification follows
the classic symbol-listing convention: a symbol is "exported text" when it
is globally bound, defined, and its target section is executable.

Supports ELF32/ELF64, little and big endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

from apimeter.errors import NoDynamicSymbolsError, NotElfError

ELF_MAGIC = b"\x7fELF"

SHT_SYMTAB = 2
SHT_DYNSYM = 11
SHF_EXECINSTR = 0x4

SHN_UNDEF = 0
SHN_LORESERVE = 0xFF00

STB_LOCAL = 0
STB_GLOBAL = 1
STB_WEAK = 2


@dataclass(frozen=True)
class ElfSymbol:
    name: str
    bind: int
    type: int
    shndx: int


@dataclass(frozen=True)
class ElfSection:
    name_offset: int
    sh_type: int
    flags: int
    offset: int
    size: int
    link: int
    entsize: int


def _read_sections(data: bytes) -> tuple[list[ElfSection], str]:
    """Parse the ELF header and section header table.

    Returns (sections, endian_prefix). Raises NotElfError on anything that
    is not a structurally sound ELF file.
    """
    if len(data) < 16 or data[:4] != ELF_MAGIC:
        raise NotElfError("bad magic: not an ELF file")
    ei_class = data[4]
    ei_data = data[5]
    if ei_class not in (1, 2):
        raise NotElfError(f"unknown ELF class {ei_class}")
    if ei_data not in (1, 2):
        raise NotElfError(f"unknown ELF data encoding {ei_data}")
    end = "<" if ei_data == 1 else ">"
    is64 = ei_class == 2

    try:
        if is64:
            (e_shoff,) = struct.unpack_from(end + "Q", data, 0x28)
            e_shentsize, e_shnum = struct.unpack_from(end + "HH", data, 0x3A)
        else:
            (e_shoff,) = struct.unpack_from(end + "I", data, 0x20)
            e_shentsize, e_shnum = struct.unpack_from(end + "HH", data, 0x2E)
    except struct.error as exc:
        raise NotElfError(f"truncated ELF header: {exc}") from exc

    sections: list[ElfSection] = []
    for i in range(e_shnum):
        base = e_shoff + i * e_shentsize
        try:
            if is64:
                name_off, sh_type, flags, _addr, offset, size, link, _info, _align, entsize = (
                    struct.unpack_from(end + "IIQQQQIIQQ", data, base)
                )
            else:
                name_off, sh_type, flags, _addr, offset, size, link, _info, _align, entsize = (
                    struct.unpack_from(end + "IIIIIIIIII", data, base)
                )
        except struct.error as exc:
            raise NotElfError(f"truncated section header table: {exc}") from exc
        sections.append(ElfSection(name_off, sh_type, flags, offset, size, link, entsize))
    return sections, end + ("64" if is64 else "32")


def _read_symbols(data: bytes, sections: list[ElfSection], layout: str, table: ElfSection) -> list[ElfSymbol]:
    end, cls = layout[0], layout[1:]
    if table.link >= len(sections):
        raise NotElfError("symbol table links to a nonexistent string table")
    strtab = sections[table.link]
    strings = data[strtab.offset : strtab.offset + strtab.size]

    if cls == "64":
        fmt, width = end + "IBBHQQ", 24
    else:
        fmt, width = end + "IIIBBH", 16
    entsize = table.entsize or width
    if table.offset + table.size > len(data):
        raise NotElfError("symbol table extends past end of file")

    symbols: list[ElfSymbol] = []
    count = table.size // entsize if entsize else 0
    for i in range(count):
        base = table.offset + i * entsize
        if cls == "64":
            st_name, st_info, _other, st_shndx, _value, _size = struct.unpack_from(fmt, data, base)
        else:
            st_name, _value, _size, st_info, _other, st_shndx = struct.unpack_from(fmt, data, base)
        nul = strings.find(b"\x00", st_name)
        if nul < 0:
            nul = len(strings)
        name = strings[st_name:nul].decode("utf-8", errors="replace")
        symbols.append(ElfSymbol(name=name, bind=st_info >> 4, type=st_info & 0xF, shndx=st_shndx))
    return symbols


def read_dynamic_symbols(path: str | Path) -> tuple[list[ElfSymbol], list[ElfSection], str]:
    """Read the dynamic symbol table of an ELF file.

    Raises NotElfError for non-ELF input and NoDynamicSymbolsError when the
    object carries no .dynsym section.
    """
    data = Path(path).read_bytes()
    sections, layout = _read_sections(data)
    dynsyms = [s for s in sections if s.sh_type == SHT_DYNSYM]
    if not dynsyms:
        raise NoDynamicSymbolsError(f"{path}: no dynamic symbol table")
    symbols: list[ElfSymbol] = []
    for table in dynsyms:
        symbols.extend(_read_symbols(data, sections, layout, table))
    return symbols, sections, layout


def exported_text_symbols(path: str | Path) -> set[str]:
    """Names of globally bound symbols defined in executable sections.

    Versioned names (name@VERSION) are normalized to the bare name; headers
    never carry version suffixes. Mangled names are kept verbatim.
    """
    symbols, sections, _layout = read_dynamic_symbols(path)
    names: set[str] = set()
    for sym in symbols:
        if not sym.name:
            continue
        if sym.bind != STB_GLOBAL:
            continue
        if sym.shndx == SHN_UNDEF or sym.shndx >= SHN_LORESERVE:
            continue
        if sym.shndx >= len(sections):
            continue
        if not sections[sym.shndx].flags & SHF_EXECINSTR:
            continue
        names.add(sym.name.split("@", 1)[0])
    return names
