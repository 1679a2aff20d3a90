import os
import re
import shutil
import struct
import subprocess

import pytest

import elfsynth
from apimeter.elf import exported_text_symbols
from apimeter.errors import InputFileError, NoDynamicSymbolsError, NotElfError


def test_global_text_symbols_only(tmp_path):
    so = elfsynth.write_shared_object(
        tmp_path / "lib.so",
        [
            elfsynth.function("f"),
            elfsynth.local_function("g"),
            elfsynth.data_object("table"),
        ],
    )
    assert exported_text_symbols(so) == {"f"}


def test_data_only_object_exports_nothing(tmp_path):
    so = elfsynth.write_shared_object(tmp_path / "lib.so", [elfsynth.data_object("table")])
    assert exported_text_symbols(so) == set()


def test_weak_symbols_are_not_exported_text(tmp_path):
    so = elfsynth.write_shared_object(
        tmp_path / "lib.so", [elfsynth.function("f"), elfsynth.weak_function("w")]
    )
    assert exported_text_symbols(so) == {"f"}


def test_versioned_names_normalized(tmp_path):
    so = elfsynth.write_shared_object(
        tmp_path / "lib.so", [elfsynth.function("tk_open@@TINYKV_1.0")]
    )
    assert exported_text_symbols(so) == {"tk_open"}


def test_elf32_big_endian(tmp_path):
    so = elfsynth.write_shared_object(
        tmp_path / "lib.so",
        [elfsynth.function("f"), elfsynth.local_function("g")],
        bits=32,
        little_endian=False,
    )
    assert exported_text_symbols(so) == {"f"}


def test_not_elf(tmp_path):
    bogus = tmp_path / "not_elf.so"
    bogus.write_bytes(b"MZ this is not an ELF file")
    with pytest.raises(NotElfError):
        exported_text_symbols(bogus)


def test_unreadable_object_names_it(tmp_path):
    with pytest.raises(InputFileError, match=f"^cannot read shared object {re.escape(str(tmp_path))}: "):
        exported_text_symbols(tmp_path)


@pytest.mark.skipif(os.geteuid() == 0, reason="root opens a file whatever its permission bits")
def test_chmod_0_object_names_it(tmp_path):
    so = elfsynth.write_shared_object(tmp_path / "lib.so", [elfsynth.function("f")])
    so.chmod(0)
    with pytest.raises(InputFileError, match=f"^cannot read shared object {re.escape(str(so))}: .*Permission denied"):
        exported_text_symbols(so)


def test_truncated_elf(tmp_path):
    so = elfsynth.write_shared_object(tmp_path / "lib.so", [elfsynth.function("f")])
    (tmp_path / "cut.so").write_bytes(so.read_bytes()[:40])
    with pytest.raises(NotElfError):
        exported_text_symbols(tmp_path / "cut.so")


def test_no_dynamic_symbols(tmp_path):
    # A bare ELF header with zero sections parses but has no .dynsym.
    so = elfsynth.write_shared_object(tmp_path / "lib.so", [elfsynth.function("f")])
    data = bytearray(so.read_bytes())
    # zero out e_shnum so no sections (hence no dynsym) are visible
    data[0x3C:0x3E] = b"\x00\x00"
    stripped = tmp_path / "stripped.so"
    stripped.write_bytes(bytes(data))
    with pytest.raises(NoDynamicSymbolsError):
        exported_text_symbols(stripped)


# Offsets of an elfsynth ELF64 little-endian object: e_shoff, and the
# .dynsym section header's sh_size and sh_link.
_SHOFF_AT = 0x28
_DYNSYM_HEADER = 3 * 64
_FIELDS = {"size": (32, "<Q"), "link": (40, "<I")}


def _with_dynsym(data: bytes, **fields: int) -> bytes:
    out = bytearray(data)
    (shoff,) = struct.unpack_from("<Q", out, _SHOFF_AT)
    for name, value in fields.items():
        at, fmt = _FIELDS[name]
        struct.pack_into(fmt, out, shoff + _DYNSYM_HEADER + at, value)
    return bytes(out)


@pytest.mark.parametrize(
    "damage",
    [
        lambda d: b"MZ this is not an ELF file",
        lambda d: d[:4] + b"\x07" + d[5:],
        lambda d: d[:4] + d[4:5] + b"\x09" + d[6:],
        lambda d: d[:40],
        lambda d: d[:-10],
        lambda d: d[:_SHOFF_AT] + struct.pack("<Q", 2**64 - 64) + d[_SHOFF_AT + 8 :],
        lambda d: _with_dynsym(d, link=99),
        lambda d: _with_dynsym(d, size=len(d)),
    ],
    ids=["bad_magic", "unknown_class", "unknown_encoding", "truncated_header",
         "truncated_section_table", "section_table_beyond_any_buffer", "dangling_string_table",
         "symbols_past_end"],
)
def test_not_elf_errors_name_the_file(tmp_path, damage):
    so = elfsynth.write_shared_object(tmp_path / "lib.so", [elfsynth.function("f")])
    bad = tmp_path / "bad.so"
    bad.write_bytes(damage(so.read_bytes()))
    with pytest.raises(NotElfError, match="^" + re.escape(f"{bad}: ")):
        exported_text_symbols(bad)


TOOLCHAIN = shutil.which("gcc") and shutil.which("nm")


@pytest.mark.skipif(not TOOLCHAIN, reason="needs gcc and nm")
def test_cross_check_against_nm_on_compiled_library(tmp_path):
    # Independent oracle: compile a real shared object and compare against
    # the standard symbol-listing tool's " T " lines.
    src = tmp_path / "two.c"
    src.write_text(
        "int mdb_env_create(void) { return 1; }\n"
        "int mdb_env_open(void) { return 2; }\n"
        "static int helper(void) { return 3; }\n"
        "int lookup_table[4] = {1, 2, 3, 4};\n"
    )
    so = tmp_path / "libtwo.so"
    subprocess.run(["gcc", "-shared", "-fPIC", "-o", str(so), str(src)], check=True)

    nm = subprocess.run(["nm", "-CD", str(so)], check=True, capture_output=True, text=True)
    nm_text = {
        line.split()[-1].split("@")[0]
        for line in nm.stdout.splitlines()
        if " T " in line
    }
    assert exported_text_symbols(so) == nm_text
    assert exported_text_symbols(so) == {"mdb_env_create", "mdb_env_open"}


@pytest.mark.skipif(not shutil.which("nm"), reason="needs nm")
def test_nm_agrees_on_synthesized_object(tmp_path):
    so = elfsynth.write_shared_object(
        tmp_path / "lib.so",
        [
            elfsynth.function("alpha_fn"),
            elfsynth.function("beta_fn"),
            elfsynth.local_function("hidden"),
            elfsynth.data_object("blob"),
        ],
    )
    nm = subprocess.run(["nm", "-CD", str(so)], check=True, capture_output=True, text=True)
    nm_text = {line.split()[-1] for line in nm.stdout.splitlines() if " T " in line}
    assert exported_text_symbols(so) == nm_text == {"alpha_fn", "beta_fn"}
