"""In-memory spans recorded at the benchmark's own call boundaries."""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import List, Optional, Tuple


class Spans:
    """Spans of one sample: name, start, end, parent span, run id.

    Times are ``time.perf_counter`` seconds. Spans stay in memory; the
    caller writes them out when the benchmark ends.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: List[dict] = []
        self._stack: List[int] = []

    def _open(self, name: str, start: float, parent: Optional[int] = None) -> dict:
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {
            "id": len(self.records),
            "name": name,
            "start": start,
            "end": None,
            "parent": parent,
            "run": self.run_id,
        }
        self.records.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name, time.perf_counter())
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(
        self, name: str, start: float, end: float, parent: Optional[int] = None
    ) -> int:
        """Record a span timed by someone else (a phase the callee reports)."""
        record = self._open(name, start, parent)
        record["end"] = end
        return record["id"]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for r in self.records if r["name"] == name)

    def pieces(self) -> List[Tuple[str, str, float]]:
        """The root span cut at every span boundary inside it, in order.

        Each piece is ``(phase, name, seconds)``: ``name`` is the
        innermost span open over the piece and ``phase`` the root's
        child holding it (the root's name between its children). The
        pieces tile the root, so their seconds add up to its duration.
        """
        children = defaultdict(list)
        for record in self.records:
            children[record["parent"]].append(record)
        out: List[Tuple[str, str, float]] = []

        def walk(record: dict, phase: str) -> None:
            mark = record["start"]
            for child in sorted(children[record["id"]], key=lambda r: r["start"]):
                out.append((phase, record["name"], child["start"] - mark))
                walk(child, phase if record["parent"] is not None else child["name"])
                mark = child["end"]
            out.append((phase, record["name"], record["end"] - mark))

        root = self.records[0]
        walk(root, root["name"])
        return out
