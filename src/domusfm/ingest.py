"""Dataset I/O and synthesis.

One canonical CSV format carries everything: each line is an event with its
sensor's attributes denormalized, so a file is self-contained. The synthetic
generator scripts daily activity routines over a declared home layout and is
the desk-scale stand-in for real recorded corpora.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .events import (
    OFF,
    ON,
    Event,
    EventStream,
    Sensor,
    clean_alternation,
    extract_time_features,
    format_iso_timestamp,
    parse_iso_timestamp,
    sorted_stream,
)

CSV_HEADER = "timestamp,sensor_id,house_item,room,sensor_type,status,activity"


class ParseError(ValueError):
    """Malformed canonical event CSV; message names the offending line."""


@dataclass
class Dataset:
    """A named sensor registry plus one labeled global event stream."""

    name: str = field(compare=False, default="dataset")
    sensors: dict[str, Sensor] = field(default_factory=dict)
    stream: EventStream = field(default_factory=lambda: EventStream(()))
    activity_set: tuple[str, ...] = ()

    def __post_init__(self):
        for event in self.stream.events:
            registered = self.sensors.get(event.sensor.id)
            if registered is None:
                raise ValueError(f"event sensor {event.sensor.id!r} not in registry")
            if registered != event.sensor:
                raise ValueError(f"inconsistent attributes for sensor {event.sensor.id!r}")
        allowed = set(self.activity_set)
        for label in self.stream.labels:
            if label is not None and label not in allowed:
                raise ValueError(f"label {label!r} not in activity_set")

    def event_vocabulary(self) -> list[tuple[str, str]]:
        """Deterministic (sensor_id, status) list, the next-k prediction space."""
        return [(sid, status) for sid in sorted(self.sensors) for status in (ON, OFF)]


def _clean_field(value: Optional[str], what: str) -> str:
    value = value or ""
    if any(ch in value for ch in ",\n\r"):
        raise ValueError(f"{what} {value!r} contains a reserved character")
    return value


def parse_event_csv(blob: bytes, name: str = "dataset") -> Dataset:
    """Strict parse of the canonical event CSV; sorts, deduplicates timestamps
    per the merge tie rule, and applies alternation cleaning."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError(f"line 1: expected header {CSV_HEADER!r}")
    sensors: dict[str, Sensor] = {}
    rows: list[tuple[Event, Optional[str]]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.endswith("\r"):
            raise ParseError(f"line {lineno}: CRLF line ending (canonical format is LF)")
        if line == CSV_HEADER:
            raise ParseError(f"line {lineno}: duplicate header")
        fields = line.split(",")
        if len(fields) != 7:
            raise ParseError(f"line {lineno}: expected 7 fields, got {len(fields)}")
        raw_ts, sensor_id, house_item, room, sensor_type, status, activity = fields
        try:
            ts = parse_iso_timestamp(raw_ts)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad timestamp {raw_ts!r}") from exc
        if not sensor_id:
            raise ParseError(f"line {lineno}: empty sensor_id")
        if not sensor_type:
            raise ParseError(f"line {lineno}: empty sensor_type")
        canonical = status.upper()
        if canonical not in (ON, OFF):
            raise ParseError(f"line {lineno}: unknown status token {status!r}")
        sensor = Sensor(sensor_id, sensor_type, house_item or None, room or None)
        seen = sensors.get(sensor_id)
        if seen is None:
            sensors[sensor_id] = sensor
        elif seen != sensor:
            raise ParseError(f"line {lineno}: sensor {sensor_id!r} attributes conflict "
                             f"with an earlier line")
        rows.append((Event(ts, sensor, canonical), activity or None))
    cleaned, _ = clean_alternation(sorted_stream(rows))
    activities = tuple(sorted({l for l in cleaned.labels if l is not None}))
    return Dataset(name=name, sensors=sensors, stream=cleaned, activity_set=activities)


def write_event_csv(dataset: Dataset) -> bytes:
    """Canonical serialization; `parse_event_csv(write_event_csv(d)) == d`."""
    lines = [CSV_HEADER]
    for event, label in zip(dataset.stream.events, dataset.stream.labels):
        sensor = dataset.sensors[event.sensor.id]
        lines.append(",".join([
            format_iso_timestamp(event.timestamp),
            _clean_field(sensor.id, "sensor id"),
            _clean_field(sensor.house_item, "house item"),
            _clean_field(sensor.room, "room"),
            _clean_field(sensor.sensor_type, "sensor type"),
            event.status,
            _clean_field(label, "activity"),
        ]))
    return ("\n".join(lines) + "\n").encode("utf-8")


# -- synthetic corpus ---------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSensor:
    id: str
    sensor_type: str
    house_item: Optional[str] = None
    room: Optional[str] = None


@dataclass(frozen=True)
class Visit:
    """One stop of an activity script: a room, optionally an item used there."""

    room: str
    item: Optional[str] = None
    dwell: tuple[int, int] = (60, 300)  # seconds, inclusive range


@dataclass(frozen=True)
class ActivityScript:
    name: str
    visits: tuple[Visit, ...]
    hour_ranges: tuple[tuple[int, int], ...]  # (start, end); end <= start wraps midnight
    weekday_weights: tuple[float, ...] = (1.0,) * 7  # P(occurs) per weekday, Mon..Sun


@dataclass(frozen=True)
class SyntheticHomeSpec:
    name: str
    rooms: tuple[str, ...]
    sensors: tuple[SyntheticSensor, ...]
    activities: tuple[ActivityScript, ...]
    noise_rate: float = 0.0
    duration_days: int = 7
    seed: int = 0
    start: str = "2025-01-06T00:00:00"  # a Monday

    def validate(self):
        """Check each field's type and range; a message names its JSON path,
        e.g. ``activities[0].visits[0].dwell: expected two integers ...``."""
        _check(isinstance(self.name, str), "name", "a string", self.name)
        _check(_is_tuple(self.rooms, lambda r: isinstance(r, str)), "rooms",
               "a non-empty list of strings", self.rooms)
        _check(_is_tuple(self.sensors, lambda s: isinstance(s, SyntheticSensor)), "sensors",
               "a non-empty list of sensors", self.sensors)
        _check(_is_tuple(self.activities, lambda a: isinstance(a, ActivityScript)),
               "activities", "a non-empty list of activities", self.activities)
        _check(_is_real(self.noise_rate) and 0.0 <= self.noise_rate <= 1.0, "noise_rate",
               "a number in [0, 1]", self.noise_rate)
        _check(_is_int(self.duration_days) and 1 <= self.duration_days <= MAX_DURATION_DAYS,
               "duration_days", f"an integer in [1, {MAX_DURATION_DAYS}]", self.duration_days)
        _check(_is_int(self.seed) and self.seed >= 0, "seed", "a non-negative integer",
               self.seed)
        _check(_is_timestamp(self.start), "start",
               "a YYYY-MM-DDTHH:MM:SS time after 1970-01-01", self.start)
        ids = set()
        for i, sensor in enumerate(self.sensors):
            path = f"sensors[{i}]"
            _check(isinstance(sensor.id, str) and sensor.id not in ids, f"{path}.id",
                   "a string unique among the sensors", sensor.id)
            ids.add(sensor.id)
            _check(isinstance(sensor.sensor_type, str), f"{path}.sensor_type", "a string",
                   sensor.sensor_type)
            _check(_is_optional_str(sensor.house_item), f"{path}.house_item",
                   "a string or null", sensor.house_item)
            _check(sensor.room is None or sensor.room in self.rooms, f"{path}.room",
                   "null or one of the rooms", sensor.room)
        for i, script in enumerate(self.activities):
            path = f"activities[{i}]"
            _check(isinstance(script.name, str), f"{path}.name", "a string", script.name)
            _check(_is_tuple(script.visits, lambda v: isinstance(v, Visit)), f"{path}.visits",
                   "a non-empty list of visits", script.visits)
            _check(_is_tuple(script.hour_ranges, _is_hour_range), f"{path}.hour_ranges",
                   "a non-empty schedule of [start, end] hours, start 0..23, end 0..24, "
                   "end != start", script.hour_ranges)
            _check(_is_tuple(script.weekday_weights, lambda w: _is_real(w) and 0.0 <= w <= 1.0)
                   and len(script.weekday_weights) == 7, f"{path}.weekday_weights",
                   "7 numbers in [0, 1]", script.weekday_weights)
            for j, visit in enumerate(script.visits):
                _check(isinstance(visit.room, str) and visit.room in self.rooms,
                       f"{path}.visits[{j}].room", "one of the rooms", visit.room)
                _check(_is_optional_str(visit.item), f"{path}.visits[{j}].item",
                       "a string or null", visit.item)
                _check(_is_int_pair(visit.dwell) and 1 <= visit.dwell[0] <= visit.dwell[1],
                       f"{path}.visits[{j}].dwell", "two integers 1 <= min <= max",
                       visit.dwell)
                _check(any(_sensors_for_visit(self, visit)), f"{path}.visits[{j}]",
                       "a visit that triggers a sensor (a motion sensor in its room, "
                       "or a sensor on its item)", visit)


MAX_DURATION_DAYS = 3650
"""Ten years: the longest simulation ``SyntheticHomeSpec.validate`` accepts."""


def _check(ok: bool, path: str, expected: str, value):
    if not ok:
        raise ValueError(f"{path}: expected {expected}, got {value!r}")


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_int_pair(v) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and all(_is_int(x) for x in v)


def _is_hour_range(v) -> bool:
    return _is_int_pair(v) and 0 <= v[0] <= 23 and 0 <= v[1] <= 24 and v[0] != v[1]


def _is_optional_str(v) -> bool:
    return v is None or isinstance(v, str)


def _is_tuple(v, element_ok) -> bool:
    """A non-empty tuple whose elements all pass ``element_ok``."""
    return isinstance(v, tuple) and len(v) > 0 and all(element_ok(x) for x in v)


def _is_timestamp(text) -> bool:
    try:
        parse_iso_timestamp(text)
    except (TypeError, ValueError):
        return False
    return True


def _sensors_for_visit(spec: SyntheticHomeSpec, visit: Visit):
    motion = [s for s in spec.sensors
              if s.room == visit.room and s.house_item is None]
    items = [s for s in spec.sensors if visit.item is not None and s.house_item == visit.item]
    return motion, items


def _emit_visit(raw, spec, visit, start, dwell, label, rng):
    motion, items = _sensors_for_visit(spec, visit)
    end = start + dwell
    for sensor in motion:
        # motion sensors retrigger: ON/OFF pulses whose cadence scales with the
        # dwell, so long activities stay at a handful of pulses
        cursor = start
        gap_lo = max(20, dwell // 10)
        gap_hi = max(gap_lo + 1, dwell // 3)
        while cursor < end - 1:
            on_len = int(rng.integers(5, max(6, min(60, dwell // 4) + 1)))
            off_at = min(cursor + on_len, end)
            raw.append((Event(cursor, _as_sensor(sensor), ON), label))
            raw.append((Event(off_at, _as_sensor(sensor), OFF), label))
            cursor = off_at + int(rng.integers(gap_lo, gap_hi + 1))
    for sensor in items:
        margin = max(1, dwell // 10)
        on_at = start + int(rng.integers(0, margin + 1))
        off_at = max(on_at + 1, end - int(rng.integers(0, margin + 1)))
        raw.append((Event(on_at, _as_sensor(sensor), ON), label))
        raw.append((Event(off_at, _as_sensor(sensor), OFF), label))


def _as_sensor(s: SyntheticSensor) -> Sensor:
    return Sensor(s.id, s.sensor_type, s.house_item, s.room)


def generate_synthetic_corpus(spec: SyntheticHomeSpec) -> Dataset:
    """Simulate ``duration_days`` of scripted routines; deterministic per seed."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    base = parse_iso_timestamp(spec.start)
    raw: list[tuple[Event, Optional[str]]] = []
    for day in range(spec.duration_days):
        weekday = (day + extract_time_features(base)[0]) % 7
        day_start = base + day * 86400
        for script in spec.activities:
            if rng.random() >= script.weekday_weights[weekday]:
                continue
            lo, hi = script.hour_ranges[int(rng.integers(len(script.hour_ranges)))]
            span_start = lo * 3600
            span_end = (hi if hi > lo else hi + 24) * 3600
            dwells = [int(rng.integers(v.dwell[0], v.dwell[1] + 1)) for v in script.visits]
            total = sum(dwells)
            avail = span_end - span_start
            if total > avail:
                dwells = [max(1, d * avail // total) for d in dwells]
                total = sum(dwells)
            start_s = span_start + int(rng.integers(0, max(1, avail - total + 1)))
            t = day_start + start_s
            for visit, dwell in zip(script.visits, dwells):
                _emit_visit(raw, spec, visit, t, dwell, script.name, rng)
                t += dwell
        if spec.noise_rate > 0.0:
            scripted_today = sum(1 for e, _ in raw if day_start <= e.timestamp < day_start + 86400)
            n_noise = int(rng.binomial(max(scripted_today, 1), spec.noise_rate))
            sensor_pool = list(spec.sensors)
            for _ in range(n_noise):
                sensor = sensor_pool[int(rng.integers(len(sensor_pool)))]
                at = day_start + int(rng.integers(0, 86400))
                status = ON if rng.random() < 0.5 else OFF
                raw.append((Event(at, _as_sensor(sensor), status), None))
    cleaned, _ = clean_alternation(sorted_stream(raw))
    registry = cleaned.sensors()
    activities = tuple(sorted({l for l in cleaned.labels if l is not None}))
    return Dataset(name=spec.name, sensors=registry, stream=cleaned,
                   activity_set=activities)


# -- dataset-level oversampling ------------------------------------------------


@dataclass
class SamplingPlan:
    """Equal per-dataset window draw quotas per epoch (oversampling)."""

    quota: int
    seed: int
    dataset_sizes: dict[str, int]

    def epoch_draws(self, epoch: int) -> list[tuple[str, int]]:
        """Shuffled (dataset, window_index) draws for one epoch; deterministic."""
        rng = np.random.default_rng([self.seed, epoch])
        draws: list[tuple[str, int]] = []
        for name in self.dataset_sizes:
            size = self.dataset_sizes[name]
            if size >= self.quota:
                picks = rng.choice(size, size=self.quota, replace=False)
            else:
                picks = rng.choice(size, size=self.quota, replace=True)
            draws.extend((name, int(i)) for i in picks)
        order = rng.permutation(len(draws))
        return [draws[i] for i in order]


def build_sampling_plan(dataset_sizes: dict[str, int],
                        windows_per_dataset_per_epoch: int, seed: int) -> SamplingPlan:
    if not dataset_sizes:
        raise ValueError("need at least one dataset")
    if windows_per_dataset_per_epoch < 1:
        raise ValueError("per-epoch quota must be positive")
    for name, size in dataset_sizes.items():
        if size < 1:
            raise ValueError(f"dataset {name!r} has no windows")
    return SamplingPlan(quota=windows_per_dataset_per_epoch, seed=seed,
                        dataset_sizes=dict(dataset_sizes))
