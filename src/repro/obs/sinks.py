"""Span sinks: where completed spans go.

Two zero-dependency exporters:

* :class:`InMemorySink` — a bounded ring buffer, for tests and the
  ``profile=True`` stage breakdown;
* :class:`JsonLinesSink` — one JSON object per line, the ``--trace-out``
  format readable by ``jq`` or any trace viewer after a tiny conversion.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import IO, Any, Protocol

from .tracer import Span

__all__ = ["SpanSink", "InMemorySink", "JsonLinesSink"]


class SpanSink(Protocol):
    """Anything that can receive completed spans."""

    def export(self, span: Span) -> None:
        """Called once per span, at span end (children before parents)."""
        ...  # pragma: no cover - protocol


class InMemorySink:
    """Bounded ring buffer of completed spans (oldest evicted first)."""

    def __init__(self, capacity: int = 4096) -> None:
        self._buffer: deque[Span] = deque(maxlen=capacity)

    def export(self, span: Span) -> None:
        self._buffer.append(span)

    @property
    def spans(self) -> list[Span]:
        """Completed spans in end order (a child ends before its parent)."""
        return list(self._buffer)

    def find(self, name: str) -> list[Span]:
        """All completed spans with the given name."""
        return [span for span in self._buffer if span.name == name]

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)


class JsonLinesSink:
    """Appends each completed span as one JSON object per line.

    Tracing must never take the query path down with it: an ``OSError``
    from the underlying handle (disk full, closed pipe, revoked
    permissions) drops that span, bumps the ``trace.sink_errors``
    counter, and evaluation continues.  Pass a
    :class:`~repro.storage.durability.retry.RetryPolicy` to retry
    transient write failures before counting the span as dropped.
    """

    def __init__(
        self,
        path_or_handle: "str | IO[str]",
        retry: "Any | None" = None,
    ) -> None:
        if isinstance(path_or_handle, str):
            self._handle: IO[str] = open(path_or_handle, "a", encoding="utf-8")
            self._owned = True
        else:
            self._handle = path_or_handle
            self._owned = False
        self._retry = retry
        self._lock = threading.Lock()
        self._dropped = 0

    @property
    def dropped(self) -> int:
        """Spans lost to write failures since this sink was created."""
        return self._dropped

    def _count_drop(self) -> None:
        from .metrics import get_metrics

        self._dropped += 1
        get_metrics().counter("trace.sink_errors").inc()

    def export(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), default=str, sort_keys=True)

        def write() -> None:
            self._handle.write(line + "\n")

        with self._lock:
            try:
                if self._retry is not None:
                    self._retry.call(write)
                else:
                    write()
            except OSError:
                self._count_drop()

    def flush(self) -> None:
        try:
            self._handle.flush()
        except OSError:
            self._count_drop()

    def close(self) -> None:
        self.flush()
        if self._owned:
            try:
                self._handle.close()
            except OSError:
                self._count_drop()

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
