"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call the benchmark makes into a layer's public function:
its name, start and end (``time.perf_counter`` seconds) and the id of the
span that was open around it.  Spans stay in memory until ``write`` dumps
them as JSON when the run ends.  A disabled tracer records nothing, so the
untraced run pays only for one ``with`` statement per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations_ms(self, name: str, within=None) -> list:
        """Durations of the spans called ``name``, optionally only those
        nested (at any depth) inside the span with id ``within``."""
        out = []
        for rec in self.spans:
            if rec["name"] != name or rec["end"] is None:
                continue
            if within is not None and not self._inside(rec, within):
                continue
            out.append((rec["end"] - rec["start"]) * 1e3)
        return out

    def _inside(self, rec, ancestor: int) -> bool:
        parent = rec["parent"]
        while parent is not None:
            if parent == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def write(self, path, summary: dict) -> None:
        """Dump every closed span with its self time: its duration minus the
        time its direct children cover."""
        closed = [rec for rec in self.spans if rec["end"] is not None]
        child_s = {}
        for rec in closed:
            if rec["parent"] is not None:
                child_s[rec["parent"]] = (child_s.get(rec["parent"], 0.0)
                                          + rec["end"] - rec["start"])
        rows = [dict(rec, self_ms=(rec["end"] - rec["start"]
                                   - child_s.get(rec["id"], 0.0)) * 1e3)
                for rec in closed]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "spans": rows}, fh, indent=0)
