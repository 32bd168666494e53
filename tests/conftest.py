"""Shared fixtures: toy configs, tiny windows, seeded sensors."""

import numpy as np
import pytest

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from domusfm.embeddings import fallback_table
from domusfm.event_encoder import ModelConfig, featurize_events
from domusfm.events import OFF, ON, Event, Sensor
from domusfm.segmentation import Window


def toy_config(**overrides) -> ModelConfig:
    base = dict(d=8, heads=2, layers=1, harmonics=2, seconds_buckets=12,
                n_window=4, context_enabled=True)
    base.update(overrides)
    return ModelConfig(**base)


KITCHEN_MOTION = Sensor("m_k", "motion", None, "kitchen")
STOVE = Sensor("p_stove", "power", "stove", "kitchen")
BED = Sensor("b_bed", "pressure", "bed", "bedroom")
WEARABLE = Sensor("w1", "wearable")  # NULL room and item


def toy_events(n: int = 3, seed: int = 0) -> tuple[Event, ...]:
    """``n`` seeded events from four sensors, alternating ON/OFF per sensor."""
    rng = np.random.default_rng(seed)
    sensors = [KITCHEN_MOTION, STOVE, BED, WEARABLE]
    events, t = [], 1_700_000_000
    last = {}
    for _ in range(n):
        t += int(rng.integers(30, 4000))
        s = sensors[int(rng.integers(len(sensors)))]
        status = ON if last.get(s.id) != ON else OFF
        last[s.id] = status
        events.append(Event(t, s, status))
    return tuple(events)


def toy_window(target, n: int = 3, seed: int = 0, events=None, name=None) -> Window:
    """A ``Window`` view over a whole toy stream registered on ``target``.

    ``target`` is a ``Model`` (the stream goes through ``add_stream_features``)
    or a ``(features, table, config)`` triple whose dict receives the
    featurized stream. The stream holds ``events``, or ``toy_events(n, seed)``,
    under ``name`` (by default one per seed and length).
    """
    events = toy_events(n, seed) if events is None else tuple(events)
    name = name or f"toy{seed}x{len(events)}"
    if isinstance(target, tuple):
        features, table, config = target
        features[name] = featurize_events(events, table, config)
    else:
        target.add_stream_features(name, events)
    return Window(name, 0, len(events), "cook")


@pytest.fixture
def table():
    return fallback_table(8)
