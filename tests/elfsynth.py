"""Synthesize minimal ELF shared objects for fixtures and demos.

The objects are structurally valid (header, sections, .dynsym/.dynstr) but
contain no runnable code; they exist so catalogs can be built without a C
toolchain. Nothing here is needed by the analysis pipeline itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

ET_DYN = 3
EM_X86_64 = 62
EM_386 = 3

SHT_PROGBITS = 1
SHT_STRTAB = 3
SHT_DYNSYM = 11

SHF_WRITE = 0x1
SHF_ALLOC = 0x2
SHF_EXECINSTR = 0x4

STB_LOCAL = 0
STB_GLOBAL = 1
STB_WEAK = 2
STT_OBJECT = 1
STT_FUNC = 2

SEC_TEXT = 1
SEC_DATA = 2


@dataclass(frozen=True)
class SynthSymbol:
    name: str
    bind: int = STB_GLOBAL
    type: int = STT_FUNC
    section: int = SEC_TEXT


def function(name: str) -> SynthSymbol:
    return SynthSymbol(name)


def local_function(name: str) -> SynthSymbol:
    return SynthSymbol(name, bind=STB_LOCAL)


def weak_function(name: str) -> SynthSymbol:
    return SynthSymbol(name, bind=STB_WEAK)


def data_object(name: str) -> SynthSymbol:
    return SynthSymbol(name, type=STT_OBJECT, section=SEC_DATA)


# The golden library's shared object: its 6 APIs plus symbols that the catalog
# must filter out (an internal export, a local helper, a data object).
GOLDEN_SYMBOLS = [function(n) for n in ("tk_open", "tk_close", "tk_put", "tk_get", "tk_delete", "tk_stat")] + [
    function("tk_internal_bump"),
    local_function("tk_hash_mix"),
    data_object("tk_format_version"),
]


class _StrTab:
    def __init__(self) -> None:
        self.blob = b"\x00"
        self.offsets: dict[str, int] = {"": 0}

    def add(self, s: str) -> int:
        if s not in self.offsets:
            self.offsets[s] = len(self.blob)
            self.blob += s.encode() + b"\x00"
        return self.offsets[s]


def write_shared_object(
    path: str | Path,
    symbols: list[SynthSymbol],
    *,
    bits: int = 64,
    little_endian: bool = True,
) -> Path:
    """Write a minimal ELF shared object exposing `symbols` via .dynsym."""
    end = "<" if little_endian else ">"
    is64 = bits == 64

    dynstr = _StrTab()
    shstr = _StrTab()
    sec_names = ["", ".text", ".data", ".dynsym", ".dynstr", ".shstrtab"]
    for n in sec_names:
        shstr.add(n)

    # .dynsym convention: null entry first, then locals, then globals.
    ordered = [s for s in symbols if s.bind == STB_LOCAL] + [s for s in symbols if s.bind != STB_LOCAL]
    first_global = 1 + sum(1 for s in symbols if s.bind == STB_LOCAL)

    def pack_sym(name_off: int, info: int, shndx: int, value: int) -> bytes:
        if is64:
            return struct.pack(end + "IBBHQQ", name_off, info, 0, shndx, value, 0)
        return struct.pack(end + "IIIBBH", name_off, value, 0, info, 0, shndx)

    sym_blob = pack_sym(0, 0, 0, 0)
    addr = 0x1000
    for sym in ordered:
        off = dynstr.add(sym.name)
        sym_blob += pack_sym(off, (sym.bind << 4) | sym.type, sym.section, addr)
        addr += 0x10

    text = b"\xc3" * 16
    data = b"\x00" * 16

    ehsize = 64 if is64 else 52
    shentsize = 64 if is64 else 40
    symentsize = 24 if is64 else 16

    blobs = [text, data, sym_blob, dynstr.blob, shstr.blob]
    offsets = []
    pos = ehsize
    for blob in blobs:
        offsets.append(pos)
        pos += len(blob)
    shoff = pos

    def shdr(name: str, sh_type: int, flags: int, offset: int, size: int, link: int, info: int, entsize: int) -> bytes:
        if is64:
            return struct.pack(
                end + "IIQQQQIIQQ",
                shstr.offsets[name], sh_type, flags, 0, offset, size, link, info, 1, entsize,
            )
        return struct.pack(
            end + "IIIIIIIIII",
            shstr.offsets[name], sh_type, flags, 0, offset, size, link, info, 1, entsize,
        )

    headers = b"".join(
        [
            shdr("", 0, 0, 0, 0, 0, 0, 0),
            shdr(".text", SHT_PROGBITS, SHF_ALLOC | SHF_EXECINSTR, offsets[0], len(text), 0, 0, 0),
            shdr(".data", SHT_PROGBITS, SHF_ALLOC | SHF_WRITE, offsets[1], len(data), 0, 0, 0),
            shdr(".dynsym", SHT_DYNSYM, SHF_ALLOC, offsets[2], len(sym_blob), 4, first_global, symentsize),
            shdr(".dynstr", SHT_STRTAB, SHF_ALLOC, offsets[3], len(dynstr.blob), 0, 0, 0),
            shdr(".shstrtab", SHT_STRTAB, 0, offsets[4], len(shstr.blob), 0, 0, 0),
        ]
    )

    ident = b"\x7fELF" + bytes([2 if is64 else 1, 1 if little_endian else 2, 1]) + b"\x00" * 9
    machine = EM_X86_64 if is64 else EM_386
    if is64:
        ehdr = ident + struct.pack(
            end + "HHIQQQIHHHHHH",
            ET_DYN, machine, 1, 0, 0, shoff, 0, ehsize, 0, 0, shentsize, 6, 5,
        )
    else:
        ehdr = ident + struct.pack(
            end + "HHIIIIIHHHHHH",
            ET_DYN, machine, 1, 0, 0, shoff, 0, ehsize, 0, 0, shentsize, 6, 5,
        )

    out = Path(path)
    out.write_bytes(ehdr + b"".join(blobs) + headers)
    return out
