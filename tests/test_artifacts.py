import json
import re
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
