"""In-memory spans around calls into the program's layers.

A span records its name, start, end and the span that caused it; times are
seconds from the recorder's creation. Spans are kept in memory and written
out once, when the run ends.
"""

import json
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "start": time.perf_counter() - self.origin, "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.origin

    def durations(self, name):
        """Durations of every span called ``name``, in start order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path, **header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, spans=self.spans), fh, indent=1)
            fh.write("\n")
