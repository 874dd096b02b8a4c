"""Contract event logs.

Contracts emit events (named records) during execution; they are
collected into the enclosing receipt and delivered to chain
subscribers with the block notification.  Parties drive their protocol
state machines off these events — the "monitoring one or more
blockchains, receiving notifications" of the paper's §3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping


@dataclass(frozen=True, slots=True)
class Event:
    """A single log entry emitted by a contract."""

    contract: str
    name: str
    fields: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze the mapping so events are safely shareable.
        object.__setattr__(self, "fields", MappingProxyType(dict(self.fields)))

    def matches(self, name: str, **conditions: object) -> bool:
        """Return True if the event has ``name`` and the given fields.

        A condition on a field the event lacks never matches, even if
        the expected value is ``None``.  A callable condition acts as a
        predicate: it is applied to the field value and must return
        truthy (so ``matches("Vote", count=lambda n: n >= 2)`` filters
        by threshold instead of equality).
        """
        if self.name != name:
            return False
        missing = object()
        for key, expected in conditions.items():
            value = self.fields.get(key, missing)
            if value is missing:
                return False
            if callable(expected):
                if not expected(value):
                    return False
            elif value != expected:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"Event({self.contract}.{self.name}: {inner})"
