"""Structured diagnostics: one JSON object per event.

Corpus runs produce thousands of skip/warning events; they go to a log
stream, never into reports. Library code always has a sink: a function's
`diag` defaults to SILENT, which drops every event and keeps none, so a
caller that gives no sink gets silence and a shared default never
collects. A sink with a stream only writes each event; one without
collects them, for a caller to replay or assert on.
"""

from __future__ import annotations

import json
from typing import IO, Any


class Diagnostics:
    """Writes diagnostic events to `stream` as JSON lines, or, without one, collects them in `events`."""

    def __init__(self, stream: IO[str] | None = None):
        self.stream = stream
        self.events: list[dict[str, Any]] = []

    def emit(self, event: str, **fields: Any) -> None:
        record = {"event": event, **fields}
        if self.stream is None:
            self.events.append(record)
        else:
            self.stream.write(json.dumps(record, sort_keys=True) + "\n")

    def count(self, event: str) -> int:
        return sum(1 for e in self.events if e["event"] == event)


class _Silent(Diagnostics):
    def emit(self, event: str, **fields: Any) -> None:
        pass


SILENT: Diagnostics = _Silent()
