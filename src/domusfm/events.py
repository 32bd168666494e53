"""Sensors, events, and event streams: cleaning, binarization, merging.

Timestamps are integer seconds since the Unix epoch (UTC). A stream is a
totally ordered sequence of events; ties introduced by merging are broken by
bumping later events one second in sensor-id order, which keeps the global
stream strictly increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Iterable, Optional, Sequence

import numpy as np

ON = "ON"
OFF = "OFF"
STATUSES = (ON, OFF)


@dataclass(frozen=True)
class Sensor:
    """A binary sensor (or a binary state derived from a continuous one)."""

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
class SemanticState:
    """Named half-open value interval [lo, hi) of a continuous signal."""

    name: str
    lo: float
    hi: float = float("inf")

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"state {self.name!r}: need lo < hi, got [{self.lo}, {self.hi})")

    def contains(self, value: float) -> bool:
        return self.lo <= value < self.hi


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


def binarize_continuous(samples: Sequence[tuple[int, float]],
                        states: Sequence[SemanticState],
                        sensor: Optional[Sensor] = None) -> list[EventStream]:
    """Turn a sampled continuous signal into one binary stream per state.

    ON fires at the sample where the indicator goes 0 -> 1 (including the first
    sample if it already lies inside the interval), OFF at 1 -> 0.
    """
    for (t0, _), (t1, _) in zip(samples, samples[1:]):
        if t1 <= t0:
            raise ValueError("samples must be sorted strictly ascending by time")
    names = [s.name for s in states]
    if len(set(names)) != len(names):
        raise ValueError("semantic state names must be unique")
    streams = []
    for state in states:
        if sensor is None:
            derived = Sensor(id=state.name, sensor_type="derived")
        else:
            derived = Sensor(id=f"{sensor.id}:{state.name}",
                             sensor_type=sensor.sensor_type,
                             house_item=sensor.house_item, room=sensor.room)
        events = []
        inside = False
        for t, value in samples:
            now = state.contains(value)
            if now and not inside:
                events.append(Event(t, derived, ON))
            elif inside and not now:
                events.append(Event(t, derived, OFF))
            inside = now
        streams.append(EventStream(tuple(events)))
    return streams


def merge_streams(streams: Iterable[EventStream]) -> EventStream:
    """Merge sorted streams into one strictly increasing global stream.

    Simultaneous events are ordered by sensor id and later ones bumped by one
    second each, cascading, so timestamps end up unique.
    """
    pairs: list[tuple[Event, Optional[str]]] = []
    for stream in streams:
        pairs.extend(zip(stream.events, stream.labels))
    return sorted_stream(pairs)


def sorted_stream(pairs: Iterable[tuple[Event, Optional[str]]]) -> EventStream:
    """Stream of raw (event, label) rows under the merge tie rule.

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


def parse_iso_timestamp(text: str) -> int:
    """Strict `YYYY-MM-DDTHH:MM:SS` (UTC) to epoch seconds."""
    dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S").replace(tzinfo=timezone.utc)
    ts = int(dt.timestamp())
    if ts <= 0:
        raise ValueError(f"timestamp {text!r} is not after 1970-01-01")
    return ts


def format_iso_timestamp(timestamp: int) -> str:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
