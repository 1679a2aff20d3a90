import io
import json

from apimeter.diagnostics import Diagnostics


def test_streaming_sink_writes_each_event_and_keeps_none():
    stream = io.StringIO()
    diag = Diagnostics(stream)
    diag.emit("client_prepared", client="a")
    diag.emit("file_excluded", path="b/c.c", rule="explicit")
    assert diag.events == []
    assert [json.loads(line) for line in stream.getvalue().splitlines()] == [
        {"event": "client_prepared", "client": "a"},
        {"event": "file_excluded", "path": "b/c.c", "rule": "explicit"},
    ]

