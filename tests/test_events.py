"""Domain-model tests: alternation cleaning, the tie rule, time features."""

from datetime import datetime, timezone

import numpy as np
import pytest

from domusfm.events import (
    OFF,
    ON,
    CleanReport,
    Event,
    EventStream,
    Sensor,
    clean_alternation,
    extract_time_features,
    format_iso_timestamp,
    parse_iso_timestamp,
    sorted_stream,
)

M1 = Sensor("M1", "motion", room="kitchen")
D1 = Sensor("D1", "contact", house_item="door", room="hall")


def stream_of(*triples):
    """triples: (timestamp, sensor, status)"""
    return EventStream(tuple(Event(t, s, st) for t, s, st in triples))


class TestTypes:
    def test_sensor_requires_id_and_type(self):
        with pytest.raises(ValueError):
            Sensor("", "motion")
        with pytest.raises(ValueError):
            Sensor("M1", "")

    def test_event_requires_positive_timestamp(self):
        with pytest.raises(ValueError):
            Event(0, M1, ON)

    def test_event_status_vocabulary(self):
        with pytest.raises(ValueError):
            Event(1, M1, "on")

    def test_stream_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            stream_of((5, M1, ON), (5, M1, OFF))

    def test_stream_label_length(self):
        with pytest.raises(ValueError, match="one-to-one"):
            EventStream((Event(1, M1, ON),), ("a", "b"))


class TestCleanAlternation:
    def test_duplicate_on_removed(self):
        stream = stream_of((1, M1, ON), (5, M1, ON), (9, M1, OFF))
        cleaned, report = clean_alternation(stream)
        assert [e.timestamp for e in cleaned.events] == [1, 9]
        assert report == CleanReport(1, (1,))

    def test_alternating_stream_unchanged(self):
        stream = stream_of((1, M1, ON), (2, D1, ON), (3, M1, OFF), (4, D1, OFF))
        cleaned, report = clean_alternation(stream)
        assert cleaned == stream
        assert report.removed_count == 0

    def test_keep_first_rule(self):
        stream = stream_of((1, M1, ON), (2, M1, ON), (3, M1, ON), (4, M1, OFF), (5, M1, OFF))
        cleaned, report = clean_alternation(stream)
        assert [(e.timestamp, e.status) for e in cleaned.events] == [(1, ON), (4, OFF)]
        assert report.removed_count == 3

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        sensors = [M1, D1, Sensor("P9", "power", house_item="stove", room="kitchen")]
        events = []
        for t in range(1, 200):
            events.append((t, sensors[rng.integers(3)], ON if rng.random() < 0.5 else OFF))
        stream = stream_of(*events)
        once, _ = clean_alternation(stream)
        twice, report = clean_alternation(once)
        assert twice == once
        assert report.removed_count == 0

    def test_per_sensor_statuses_alternate(self):
        rng = np.random.default_rng(11)
        events = []
        for t in range(1, 300):
            sensor = M1 if rng.random() < 0.6 else D1
            events.append((t, sensor, ON if rng.random() < 0.5 else OFF))
        cleaned, _ = clean_alternation(stream_of(*events))
        by_sensor = {}
        for e in cleaned.events:
            assert by_sensor.get(e.sensor.id) != e.status
            by_sensor[e.sensor.id] = e.status

    def test_labels_follow_kept_events(self):
        stream = EventStream(
            (Event(1, M1, ON), Event(2, M1, ON), Event(3, M1, OFF)),
            ("cook", "cook", None),
        )
        cleaned, _ = clean_alternation(stream)
        assert cleaned.labels == ("cook", None)


class TestMergeStreams:
    """Merging streams is ``sorted_stream`` of their (event, label) rows: the CSV tie rule."""

    @staticmethod
    def rows(*streams):
        return [pair for stream in streams for pair in zip(stream.events, stream.labels)]

    def test_disjoint_interleave(self):
        a = stream_of((1, M1, ON), (10, M1, OFF))
        b = stream_of((5, D1, ON), (15, D1, OFF))
        merged = sorted_stream(self.rows(a, b))
        assert [e.timestamp for e in merged.events] == [1, 5, 10, 15]

    def test_tie_bumps_in_sensor_order(self):
        a = stream_of((100, Sensor("B", "motion"), ON))
        b = stream_of((100, Sensor("A", "motion"), ON))
        merged = sorted_stream(self.rows(a, b))
        assert [(e.sensor.id, e.timestamp) for e in merged.events] == [("A", 100), ("B", 101)]

    def test_merge_single_stream_identity(self):
        a = EventStream((Event(1, M1, ON), Event(2, M1, OFF)), ("cook", None))
        assert sorted_stream(self.rows(a)) == a

    def test_output_always_strict(self):
        # equal timestamps across four sensors cascade: each bump can create a
        # new tie with the next row, and every one is bumped again
        rng = np.random.default_rng(9)
        streams = []
        for s in range(4):
            sensor = Sensor(f"S{s}", "motion")
            times = np.sort(rng.choice(np.arange(1, 60), size=12, replace=False))
            status = [ON, OFF] * 6
            streams.append(stream_of(*[(int(t), sensor, st) for t, st in zip(times, status)]))
        merged = sorted_stream(self.rows(*streams))
        times = [e.timestamp for e in merged.events]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert len(merged) == sum(len(s) for s in streams)


class TestTimeFeatures:
    def test_paper_style_example(self):
        # 2025-10-15 is a Wednesday; 06:30:00 -> hour 6, second-in-hour 1800
        ts = parse_iso_timestamp("2025-10-15T06:30:00")
        assert extract_time_features(ts) == (2, 6, 1800)

    def test_midnight_monday(self):
        ts = parse_iso_timestamp("2024-01-01T00:00:00")  # a Monday
        assert extract_time_features(ts) == (0, 0, 0)

    def test_last_second_of_hour(self):
        ts = parse_iso_timestamp("2024-01-01T23:59:59")
        assert extract_time_features(ts) == (0, 23, 3599)

    def test_rejects_pre_epoch(self):
        with pytest.raises(ValueError):
            extract_time_features(0)
        with pytest.raises(ValueError):
            extract_time_features(np.array([5, -3], dtype=np.int64))

    def test_integer_rule_matches_datetime(self):
        # ints and int64 arrays take one rule; datetime is the oracle
        rng = np.random.default_rng(1)
        stamps = np.concatenate([rng.integers(1, 4_000_000_000, size=500),
                                 [1, 86399, 86400, 3599, 3600, 1_700_000_000]])
        expected = []
        for ts in stamps.tolist():
            dt = datetime.fromtimestamp(ts, tz=timezone.utc)
            expected.append((dt.weekday(), dt.hour, dt.minute * 60 + dt.second))
            assert extract_time_features(ts) == expected[-1]
        got = extract_time_features(stamps.astype(np.int64))
        assert all(a.dtype == np.int64 for a in got)
        np.testing.assert_array_equal(np.stack(got, axis=1), expected)

    def test_iso_roundtrip(self):
        rng = np.random.default_rng(0)
        for ts in rng.integers(1, 2_000_000_000, size=50):
            assert parse_iso_timestamp(format_iso_timestamp(int(ts))) == int(ts)
