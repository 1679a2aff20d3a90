import json
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apimeter import artifacts
from apimeter.errors import InputFileError, ReportIoError

SRC = Path(artifacts.__file__).parent


def test_failed_replace_keeps_previous_artifact(tmp_path, monkeypatch):
    path = tmp_path / "catalog.json"
    artifacts.write_json(path, {"schema_version": "1.0", "apis": ["a"]})
    before = path.read_bytes()

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))

    monkeypatch.setattr(artifacts.os, "replace", refuse)
    with pytest.raises(ReportIoError, match=f"cannot write {re.escape(str(path))}"):
        artifacts.write_json(path, {"schema_version": "1.0", "apis": ["a", "b"]})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_failed_encode_keeps_previous_artifact_and_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "catalog.json"
    artifacts.write_json(path, {"schema_version": "1.0", "apis": ["a"]})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        artifacts.write_json(path, {"schema_version": "1.0", "apis": ["a", object()]})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_write_json_streams_the_document_instead_of_holding_it(tmp_path):
    # The scan stage's corpus at thousands of clients runs to megabytes; holding its text
    # (or json.dumps's list of chunks) would set the stage's peak memory.
    payload = {"clients": [{"client": f"c{i}", "uses": {f"api_{j:03d}": j for j in range(20)}} for i in range(2500)]}
    tracemalloc.start()
    try:
        path = artifacts.write_json(tmp_path / "corpus.json", payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1_000_000
    assert peak < size // 4, (peak, size)


def test_write_json_bytes_and_directory(tmp_path):
    path = tmp_path / "new" / "dir" / "doc.json"
    artifacts.write_json(path, {"b": [1, 2], "a": None})
    assert path.read_text() == json.dumps({"b": [1, 2], "a": None}, indent=2, sort_keys=True) + "\n"
    assert [p.name for p in path.parent.iterdir()] == ["doc.json"]


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
    | st.text()
    | st.text(st.characters(min_codepoint=0x80), min_size=1)
)


def _dicts(values, max_size=4):
    # One key type per dict: sort_keys cannot order str against int.
    return st.dictionaries(st.text(), values, max_size=max_size) | st.dictionaries(
        st.integers(), values, max_size=max_size
    )


def _containers(children):
    return st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple) | _dicts(children)


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("write_json")


@settings(max_examples=300, deadline=None)
@given(payload=_dicts(st.recursive(_SCALARS, _containers, max_leaves=25), max_size=5))
@example(payload={"rows": [{"library": "lib", "unused_names": ("a", "b"), "unused": 2}]})
@example(payload={"apis": [], "provenance": {}, "nested": [[], {}, ()], "tuple": ()})
@example(payload={2: {10: [1.5, None], 9: True}, 1: [{3: "é"}, -0.0]})
def test_write_json_matches_json_dumps(json_dir, payload):
    path = artifacts.write_json(json_dir / "doc.json", payload)
    assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_load_json_names_kind_and_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("[1, 2]")
    with pytest.raises(InputFileError, match=f"cannot load thing {re.escape(str(path))}: TypeError"):
        artifacts.load_json(path, "thing", dict)


def test_single_schema_version_assignment():
    assignments = [
        p.name
        for p in sorted(SRC.glob("*.py"))
        for line in p.read_text().splitlines()
        if re.match(r"\s*SCHEMA_VERSION\s*=", line) or re.search(r'"schema_version":\s*"', line)
    ]
    assert assignments == ["artifacts.py"]


_TABLE = {
    "name": artifacts.Field(str, ..., "a string"),
    "size": artifacts.Field(int, 0, "a non-negative integer", artifacts.is_count),
    "ratio": artifacts.Field((int, float), 1.0, "a number"),
    "note": artifacts.Field(str, None, "a string"),
}


def test_checked_gives_each_field_or_its_default():
    assert artifacts.checked({"name": "a", "extra": 1}, _TABLE) == {"name": "a", "size": 0, "ratio": 1.0, "note": None}
    assert artifacts.checked({"name": "a", "size": 3, "ratio": 2}, _TABLE)["size"] == 3


def test_checked_strict_rejects_an_unknown_key():
    with pytest.raises(TypeError, match=r"^f: obj\.extra is not a known key; known: name, size, ratio, note$"):
        artifacts.checked({"name": "a", "extra": 1}, _TABLE, "f: ", "obj", strict=True)
    with pytest.raises(TypeError, match=r"^extra is not a known key"):
        artifacts.checked({"name": "a", "extra": 1}, _TABLE, strict=True)


def test_checked_names_a_missing_required_field():
    # At the top level the document is not shown; a nested object is, to find it by.
    with pytest.raises(TypeError, match=r"^name is missing$"):
        artifacts.checked({"size": 1}, _TABLE)
    with pytest.raises(TypeError, match=r"""^items\[2\] needs "name": \{'size': 1\}$"""):
        artifacts.checked({"size": 1}, _TABLE, scope="items[2]")


def test_checked_allows_null_only_where_the_default_is_none():
    assert artifacts.checked({"name": "a", "note": None}, _TABLE)["note"] is None
    with pytest.raises(TypeError, match=r"^size must be a non-negative integer: None$"):
        artifacts.checked({"name": "a", "size": None}, _TABLE)
    with pytest.raises(TypeError, match=r"^name must be a string: None$"):
        artifacts.checked({"name": None}, _TABLE)


@pytest.mark.parametrize("key", ["size", "ratio"])
def test_checked_takes_true_for_no_number_or_count(key):
    with pytest.raises(TypeError, match=rf"^{key} must be a (non-negative integer|number): True$"):
        artifacts.checked({"name": "a", key: True}, _TABLE)


def test_checked_messages_start_with_the_label_prefix():
    with pytest.raises(InputFileError, match=r"^cannot load x f\.json: entry 0\.size must be a non-negative integer: -1$"):
        artifacts.checked({"name": "a", "size": -1}, _TABLE, "cannot load x f.json: ", "entry 0", InputFileError)
    with pytest.raises(InputFileError, match=r"^cannot load x f\.json: entry 0 must be an object: \[1\]$"):
        artifacts.checked([1], _TABLE, "cannot load x f.json: ", "entry 0", InputFileError)


def test_checked_cuts_a_long_value_and_gives_its_length():
    fits = "y" * (artifacts.SHOWN_CHARS - 2)  # its repr adds two quotes
    with pytest.raises(TypeError, match=rf"^size must be a non-negative integer: '{fits}'$"):
        artifacts.checked({"name": "a", "size": fits}, _TABLE)
    long = fits + "z"
    with pytest.raises(TypeError) as raised:
        artifacts.checked({"name": "a", "size": long}, _TABLE)
    assert str(raised.value) == (
        f"size must be a non-negative integer: {repr(long)[: artifacts.SHOWN_CHARS]}... ({len(long) + 2} characters)"
    )
