"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls
into each layer's public functions; spans *inside* the program belong
to the later ``repro/obs`` change.  A span is ``(name, start, end,
parent, op)``: ``parent`` is the index of the span that was open when
this one started, ``op`` the identifier all spans of one operation
share.  A layer's self time is its span minus its children.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional


class Span:
    __slots__ = ("tracer", "index", "name", "start", "end", "parent", "op",
                 "attrs")

    def __init__(self, tracer: "Tracer", name: str, op: Optional[int],
                 attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.op = op
        self.attrs = attrs
        self.start = self.end = 0.0
        self.index = self.parent = -1

    def __enter__(self) -> "Span":
        tracer = self.tracer
        stack = tracer._stack
        if stack:
            parent = stack[-1]
            self.parent = parent.index
            if self.op is None:
                self.op = parent.op
        self.index = len(tracer.spans)
        tracer.spans.append(self)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.end = time.perf_counter()
        self.tracer._stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory; :meth:`write` dumps them at exit."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, op: Optional[int] = None,
             **attrs: Any) -> Span:
        return Span(self, name, op, attrs)

    def children(self, span: Span) -> List[Span]:
        # a child starts after its parent, so it sits later in the list
        return [other for other in self.spans[span.index + 1:]
                if other.parent == span.index]

    def self_seconds(self) -> List[float]:
        """Per span: its duration minus the part its children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.seconds
        return [span.seconds - covered[span.index] for span in self.spans]

    def to_json(self) -> List[Dict[str, Any]]:
        origin = self.spans[0].start if self.spans else 0.0
        return [{"name": span.name,
                 "start_ms": (span.start - origin) * 1000.0,
                 "end_ms": (span.end - origin) * 1000.0,
                 "self_ms": own * 1000.0,
                 "parent": span.parent, "op": span.op, **span.attrs}
                for span, own in zip(self.spans, self.self_seconds())]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.to_json()}, indent=1))
