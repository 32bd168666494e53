"""Sensors, ON/OFF events and event streams: ordering, cleaning, time features.

Input starts after binarization: every event is one binary sensor changing to
ON or OFF, as in the event CSV. Timestamps are integer seconds since the Unix
epoch (UTC). A stream is a totally ordered sequence of events; ``sorted_stream``
holds the tie rule that keeps it strictly increasing: rows with equal
timestamps are ordered by sensor id and later ones bumped one second each.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Iterable, Optional

import numpy as np

ON = "ON"
OFF = "OFF"
STATUSES = (ON, OFF)


@dataclass(frozen=True)
class Sensor:
    """A binary sensor, whose events are ON/OFF status changes."""

    id: str
    sensor_type: str
    house_item: Optional[str] = None
    room: Optional[str] = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("sensor id must be nonempty")
        if not self.sensor_type:
            raise ValueError(f"sensor {self.id!r}: sensor_type must be nonempty")


@dataclass(frozen=True)
class Event:
    """One status change: (timestamp, sensor, status)."""

    timestamp: int
    sensor: Sensor
    status: str

    def __post_init__(self):
        if self.timestamp <= 0:
            raise ValueError(f"timestamp must be positive, got {self.timestamp}")
        if self.status not in STATUSES:
            raise ValueError(f"status must be ON or OFF, got {self.status!r}")


@dataclass(frozen=True)
class EventStream:
    """Events sorted strictly ascending by timestamp, with optional labels."""

    events: tuple[Event, ...]
    labels: tuple[Optional[str], ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", (None,) * len(self.events))
        if len(self.labels) != len(self.events):
            raise ValueError("labels must match events one-to-one")
        for a, b in zip(self.events, self.events[1:]):
            if b.timestamp <= a.timestamp:
                raise ValueError(
                    f"timestamps not strictly increasing: {a.timestamp} then {b.timestamp}")

    def __len__(self):
        return len(self.events)

    def sensors(self) -> dict[str, Sensor]:
        out: dict[str, Sensor] = {}
        for e in self.events:
            out.setdefault(e.sensor.id, e.sensor)
        return out


@dataclass(frozen=True)
class CleanReport:
    removed_count: int
    removed_indices: tuple[int, ...] = ()


def clean_alternation(stream: EventStream) -> tuple[EventStream, CleanReport]:
    """Drop events that repeat a sensor's current status (keep the first).

    Idempotent; afterwards every sensor's statuses strictly alternate. An
    ``EventStream`` is sorted by construction, so no order check runs here.
    """
    last: dict[str, str] = {}
    kept_events: list[Event] = []
    kept_labels: list[Optional[str]] = []
    removed: list[int] = []
    for i, (event, label) in enumerate(zip(stream.events, stream.labels)):
        if last.get(event.sensor.id) == event.status:
            removed.append(i)
            continue
        last[event.sensor.id] = event.status
        kept_events.append(event)
        kept_labels.append(label)
    cleaned = EventStream(tuple(kept_events), tuple(kept_labels))
    return cleaned, CleanReport(len(removed), tuple(removed))


def sorted_stream(pairs: Iterable[tuple[Event, Optional[str]]]) -> EventStream:
    """Stream of raw (event, label) rows under the tie rule.

    Rows are stable-sorted by (timestamp, sensor id); an event that does not
    come strictly after its predecessor is bumped to one second past it.
    """
    events: list[Event] = []
    labels: list[Optional[str]] = []
    last_t = 0
    for event, label in sorted(pairs, key=lambda p: (p[0].timestamp, p[0].sensor.id)):
        t = max(event.timestamp, last_t + 1)
        events.append(event if t == event.timestamp else replace(event, timestamp=t))
        labels.append(label)
        last_t = t
    return EventStream(tuple(events), tuple(labels))


def extract_time_features(timestamp):
    """(day_of_week Monday=0, hour 0..23, second_in_hour 0..3599), in UTC.

    ``timestamp`` is an int or an int64 array, mapped by integer arithmetic
    (1970-01-01 was a Thursday, day 3).
    """
    if np.any(np.asarray(timestamp) <= 0):
        raise ValueError(f"timestamp must be positive (post-1970), got {np.min(timestamp)}")
    return (timestamp // 86400 + 3) % 7, timestamp // 3600 % 24, timestamp % 3600


_ISO_TIMESTAMP = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}")


def parse_iso_timestamp(text: str) -> int:
    """Strict `YYYY-MM-DDTHH:MM:SS` (UTC, ASCII digits, every field zero-padded) to epoch seconds."""
    if not _ISO_TIMESTAMP.fullmatch(text):
        raise ValueError(f"timestamp {text!r} is not YYYY-MM-DDTHH:MM:SS")
    ts = int(datetime.fromisoformat(text).replace(tzinfo=timezone.utc).timestamp())
    if ts <= 0:
        raise ValueError(f"timestamp {text!r} is not after 1970-01-01")
    return ts


def format_iso_timestamp(timestamp: int) -> str:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
