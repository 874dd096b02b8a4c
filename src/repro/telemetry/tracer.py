"""Deterministic lifecycle spans for the market runtime.

A :class:`Tracer` records *spans* — named intervals on simulated time
with parent/child causality — and *point events* (zero-length spans).
Everything about a span is a deterministic simulation quantity: span
ids are sequential in creation order, timestamps are simulator ticks,
and trace ids derive from seeded deal indices, so two runs of the same
seeded workload produce byte-identical traces.

The tracer never touches the simulation: it draws no randomness,
schedules no events, and mutates no market state.  Instrumentation
sites guard every call behind a single ``if telemetry is not None:``
attribute check, so the off path costs nothing measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Span:
    """One interval (or instant, when ``point``) on simulated time."""

    span_id: int
    trace_id: str
    name: str
    start: float
    end: float | None = None
    parent_id: int | None = None
    point: bool = False
    attrs: dict = field(default_factory=dict)

    def close(self, at: float, **attrs: object) -> None:
        """End the span at ``at`` (idempotent; first close wins)."""
        if self.end is None:
            self.end = at
            if attrs:
                self.attrs.update(attrs)

    def to_record(self) -> dict:
        """A JSON-serializable record of this span (stable layout)."""
        record = {
            "type": "event" if self.point else "span",
            "id": self.span_id,
            "trace": self.trace_id,
            "name": self.name,
            "start": self.start,
        }
        if not self.point:
            record["end"] = self.end
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class Tracer:
    """Record spans and point events in deterministic creation order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._next_id = 1

    def start_span(
        self,
        trace_id: str,
        name: str,
        at: float,
        parent: Span | None = None,
        **attrs: object,
    ) -> Span:
        """Open a span; close it later with :meth:`Span.close`."""
        span = Span(
            span_id=self._next_id,
            trace_id=trace_id,
            name=name,
            start=at,
            parent_id=parent.span_id if parent is not None else None,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def event(
        self,
        trace_id: str,
        name: str,
        at: float,
        parent: Span | None = None,
        **attrs: object,
    ) -> Span:
        """Record an instantaneous point event."""
        span = Span(
            span_id=self._next_id,
            trace_id=trace_id,
            name=name,
            start=at,
            end=at,
            parent_id=parent.span_id if parent is not None else None,
            point=True,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def close_open_spans(self, at: float) -> int:
        """Close every still-open span at ``at`` (end of run)."""
        closed = 0
        for span in self.spans:
            if not span.point and span.end is None:
                span.close(at, truncated=True)
                closed += 1
        return closed
