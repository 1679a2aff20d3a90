import json
import re
from pathlib import Path

import pytest

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
