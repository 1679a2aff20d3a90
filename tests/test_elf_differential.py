"""The ELF reader against the frozen reference reader.

Hypothesis builds shared objects with `elfsynth` (ELF32 and ELF64, both
byte orders, global, local, weak, data and versioned symbols), then cuts
them short or overwrites runs of their bytes. Wherever `reference_elf`
returns, `apimeter.elf` must return the same names; wherever it raises
`NotElfError` or `NoDynamicSymbolsError`, the same class. Two kinds of input
are faults the reference missed, and there `apimeter.elf` must raise
`NotElfError`: those on which the reference crashes with another exception
(a symbol record past end of file, an offset beyond any buffer), and those
whose .dynsym entries are shorter than one symbol record, which the
reference reads as overlapping records.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elfsynth
import reference_elf as ref
from apimeter.elf import exported_text_symbols
from apimeter.errors import NoDynamicSymbolsError, NotElfError

_NAME = st.from_regex(r"([A-Za-z_][A-Za-z0-9_]{0,8})?(@@?V[0-9])?", fullmatch=True)
_SYMBOL = st.builds(
    lambda make, name: make(name),
    st.sampled_from([elfsynth.function, elfsynth.local_function, elfsynth.weak_function, elfsynth.data_object]),
    _NAME,
)
_OBJECT = st.tuples(st.lists(_SYMBOL, max_size=8), st.sampled_from([32, 64]), st.booleans())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("elf_differential")


def _synth(workdir, obj) -> bytes:
    symbols, bits, little = obj
    return elfsynth.write_shared_object(workdir / "lib.so", symbols, bits=bits, little_endian=little).read_bytes()


def _outcome(read, path):
    try:
        return "names", read(path)
    except (NotElfError, NoDynamicSymbolsError) as exc:
        return "error", type(exc)
    except Exception as exc:  # the reference's crashes on malformed input
        return "crash", type(exc)


def _undersized_entries(data: bytes) -> bool:
    sections, layout = ref._read_sections(data)
    width = 24 if layout.endswith("64") else 16
    return any(s.sh_type == ref.SHT_DYNSYM and 0 < s.entsize < width for s in sections)


def _assert_same(workdir, data: bytes) -> None:
    path = workdir / "mutant.so"
    path.write_bytes(data)
    want = _outcome(ref.exported_text_symbols, path)
    got = _outcome(exported_text_symbols, path)
    if want[0] == "crash" or (want[0] == "names" and _undersized_entries(data)):
        assert got == ("error", NotElfError)
    else:
        assert got == want


@settings(max_examples=100, deadline=None)
@given(obj=_OBJECT)
def test_synthesized_objects_match_reference(workdir, obj):
    _assert_same(workdir, _synth(workdir, obj))


@settings(max_examples=150, deadline=None)
@given(obj=_OBJECT, data=st.data())
def test_truncated_objects_match_reference(workdir, obj, data):
    blob = _synth(workdir, obj)
    _assert_same(workdir, blob[: data.draw(st.integers(0, len(blob)))])


@settings(max_examples=300, deadline=None)
@given(obj=_OBJECT, data=st.data())
def test_overwritten_objects_match_reference(workdir, obj, data):
    blob = bytearray(_synth(workdir, obj))
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(blob) - 1))
        patch = data.draw(st.binary(min_size=1, max_size=8))
        blob[pos : pos + len(patch)] = patch[: len(blob) - pos]
    _assert_same(workdir, bytes(blob))
