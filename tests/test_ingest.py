"""Canonical CSV parsing/writing, the synthetic generator, and sampling plans."""

import numpy as np
import pytest

from domusfm.events import OFF, ON, Event, EventStream, Sensor, extract_time_features
from domusfm.ingest import (
    CSV_HEADER,
    ActivityScript,
    Dataset,
    ParseError,
    SyntheticHomeSpec,
    SyntheticSensor,
    Visit,
    build_sampling_plan,
    generate_synthetic_corpus,
    parse_event_csv,
    write_event_csv,
)

VALID = (
    CSV_HEADER + "\n"
    "2025-01-06T06:30:00,M1,,kitchen,motion,ON,breakfast\n"
    "2025-01-06T06:31:00,S2,stove,kitchen,power,ON,breakfast\n"
    "2025-01-06T06:40:00,M1,,kitchen,motion,OFF,\n"
).encode()


def random_dataset(seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    sensors = {
        "M1": Sensor("M1", "motion", None, "kitchen"),
        "B2": Sensor("B2", "pressure", "bed", "bedroom"),
        "D3": Sensor("D3", "contact", "door", None),
    }
    ids = list(sensors)
    activities = ("cook", "sleep")
    events, labels, last = [], [], {}
    t = 1000
    while len(events) < 40:
        t += int(rng.integers(1, 500))
        sid = ids[int(rng.integers(3))]
        status = ON if last.get(sid) != ON else OFF
        last[sid] = status
        events.append(Event(t, sensors[sid], status))
        labels.append(activities[int(rng.integers(2))] if rng.random() < 0.7 else None)
    used = sorted({l for l in labels if l})
    return Dataset(name=f"rand{seed}", sensors=sensors,
                   stream=EventStream(tuple(events), tuple(labels)),
                   activity_set=tuple(used))


class TestParse:
    def test_valid_file(self):
        ds = parse_event_csv(VALID, name="demo")
        assert len(ds.stream) == 3
        assert ds.sensors["S2"].house_item == "stove"
        assert ds.sensors["M1"].room == "kitchen"
        assert ds.activity_set == ("breakfast",)
        assert ds.stream.labels[2] is None

    def test_roundtrip_bytes(self):
        assert write_event_csv(parse_event_csv(VALID)) == VALID

    def test_lowercase_status_canonicalized(self):
        blob = VALID.replace(b",ON,", b",on,", 1)
        ds = parse_event_csv(blob)
        assert ds.stream.events[0].status == ON

    def test_wrong_field_count_names_line(self):
        blob = (CSV_HEADER + "\n2025-01-06T06:30:00,M1,,kitchen,ON\n").encode()
        with pytest.raises(ParseError, match="line 2: expected 7 fields, got 5"):
            parse_event_csv(blob)

    def test_bad_timestamp_names_line(self):
        blob = (CSV_HEADER + "\nyesterday,M1,,kitchen,motion,ON,\n").encode()
        with pytest.raises(ParseError, match="line 2: bad timestamp"):
            parse_event_csv(blob)

    # a lenient parser accepts these: unpadded fields and non-ASCII digits
    @pytest.mark.parametrize("raw", ["2025-1-06T00:00:00", "2025-01-6T0:0:0",
                                     "\uff12\uff10\uff12\uff15-01-06T00:00:00"])
    def test_loose_timestamp_forms_rejected(self, raw):
        blob = (CSV_HEADER + f"\n{raw},M1,,kitchen,motion,ON,\n").encode()
        with pytest.raises(ParseError, match="line 2: bad timestamp"):
            parse_event_csv(blob)

    def test_unknown_status_rejected(self):
        blob = VALID.replace(b",ON,", b",MAYBE,", 1)
        with pytest.raises(ParseError, match="unknown status"):
            parse_event_csv(blob)

    def test_duplicate_header_rejected(self):
        blob = VALID + CSV_HEADER.encode() + b"\n"
        with pytest.raises(ParseError, match="duplicate header"):
            parse_event_csv(blob)

    def test_conflicting_sensor_attributes_rejected(self):
        blob = VALID + b"2025-01-06T07:00:00,M1,,bathroom,motion,ON,\n"
        with pytest.raises(ParseError, match="line 5.*conflict"):
            parse_event_csv(blob)

    def test_unsorted_input_is_sorted(self):
        lines = VALID.decode().strip().split("\n")
        shuffled = "\n".join([lines[0], lines[3], lines[1], lines[2]]) + "\n"
        ds = parse_event_csv(shuffled.encode())
        times = [e.timestamp for e in ds.stream.events]
        assert times == sorted(times)

    def test_equal_timestamps_bumped_in_sensor_order(self):
        blob = (
            CSV_HEADER + "\n"
            "2025-01-06T06:30:00,B,,kitchen,motion,ON,\n"
            "2025-01-06T06:30:00,A,,kitchen,motion,ON,\n"
        ).encode()
        ds = parse_event_csv(blob)
        assert [(e.sensor.id, e.timestamp - ds.stream.events[0].timestamp)
                for e in ds.stream.events] == [("A", 0), ("B", 1)]

    def test_alternation_cleaned(self):
        blob = VALID + b"2025-01-06T07:00:00,S2,stove,kitchen,power,ON,\n"
        ds = parse_event_csv(blob)
        statuses = [e.status for e in ds.stream.events if e.sensor.id == "S2"]
        assert statuses == [ON]


class TestWrite:
    def test_empty_dataset_header_only(self):
        assert write_event_csv(Dataset()) == (CSV_HEADER + "\n").encode()

    def test_null_fields_are_empty(self):
        ds = random_dataset(0)
        text = write_event_csv(ds).decode()
        d3_lines = [l for l in text.split("\n") if ",D3," in l]
        assert d3_lines and all(l.split(",")[3] == "" for l in d3_lines)

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_property(self, seed):
        ds = random_dataset(seed)
        again = parse_event_csv(write_event_csv(ds), name=ds.name)
        assert again == ds
        assert write_event_csv(again) == write_event_csv(ds)


HOME = SyntheticHomeSpec(
    name="home",
    rooms=("kitchen", "bedroom"),
    sensors=(
        SyntheticSensor("m_kitchen", "motion", None, "kitchen"),
        SyntheticSensor("p_stove", "power", "stove", "kitchen"),
        SyntheticSensor("m_bedroom", "motion", None, "bedroom"),
        SyntheticSensor("b_bed", "pressure", "bed", "bedroom"),
    ),
    activities=(
        ActivityScript("cook", (Visit("kitchen", "stove", (300, 900)),), ((18, 20),)),
        ActivityScript("sleep", (Visit("bedroom", "bed", (1800, 3600)),), ((22, 6),)),
    ),
    noise_rate=0.0,
    duration_days=5,
    seed=42,
)


class TestSyntheticCorpus:
    def test_same_seed_byte_identical(self):
        a = write_event_csv(generate_synthetic_corpus(HOME))
        b = write_event_csv(generate_synthetic_corpus(HOME))
        assert a == b

    def test_single_activity_hours_match_schedule(self):
        spec = SyntheticHomeSpec(
            name="sleepy", rooms=("bedroom",),
            sensors=(SyntheticSensor("m_bed", "motion", None, "bedroom"),
                     SyntheticSensor("b_bed", "pressure", "bed", "bedroom")),
            activities=(ActivityScript("sleep", (Visit("bedroom", "bed", (3600, 7200)),),
                                       ((22, 6),)),),
            duration_days=7, seed=3,
        )
        ds = generate_synthetic_corpus(spec)
        allowed = {22, 23, 0, 1, 2, 3, 4, 5}
        for event, label in zip(ds.stream.events, ds.stream.labels):
            if label is not None:
                assert extract_time_features(event.timestamp)[1] in allowed

    def test_zero_noise_means_no_null_labels(self):
        ds = generate_synthetic_corpus(HOME)
        assert all(label is not None for label in ds.stream.labels)

    def test_noise_adds_unlabeled_events(self):
        noisy = SyntheticHomeSpec(**{**HOME.__dict__, "noise_rate": 0.3, "name": "noisy"})
        ds = generate_synthetic_corpus(noisy)
        assert any(label is None for label in ds.stream.labels)

    def test_structural_invariants(self):
        ds = generate_synthetic_corpus(HOME)
        times = [e.timestamp for e in ds.stream.events]
        assert all(b > a for a, b in zip(times, times[1:]))
        last = {}
        for e in ds.stream.events:
            assert last.get(e.sensor.id) != e.status
            last[e.sensor.id] = e.status
        assert set(ds.activity_set) == {"cook", "sleep"}

    def test_impossible_schedule_rejected(self):
        bad = SyntheticHomeSpec(
            name="bad", rooms=("kitchen",),
            sensors=(SyntheticSensor("m", "motion", None, "kitchen"),),
            activities=(ActivityScript("cook", (Visit("kitchen"),), ()),),
        )
        with pytest.raises(ValueError, match="empty schedule"):
            generate_synthetic_corpus(bad)

    def test_activities_recur_daily(self):
        from domusfm.events import parse_iso_timestamp

        ds = generate_synthetic_corpus(HOME)
        base = parse_iso_timestamp(HOME.start)
        days = {(e.timestamp - base) // 86400
                for e, l in zip(ds.stream.events, ds.stream.labels) if l == "cook"}
        assert len(days) == HOME.duration_days


class TestSamplingPlan:
    def test_oversampling_equal_draws(self):
        plan = build_sampling_plan({"big": 100, "small": 10}, 100, seed=0)
        draws = plan.epoch_draws(0)
        by_dataset = {}
        for name, idx in draws:
            by_dataset.setdefault(name, []).append(idx)
        assert len(by_dataset["big"]) == len(by_dataset["small"]) == 100
        assert len(set(by_dataset["big"])) == 100  # without replacement
        assert len(set(by_dataset["small"])) <= 10  # with replacement

    def test_single_dataset_uniform_shuffle(self):
        plan = build_sampling_plan({"only": 50}, 50, seed=1)
        draws = plan.epoch_draws(0)
        assert sorted(idx for _, idx in draws) == list(range(50))

    def test_same_seed_identical(self):
        a = build_sampling_plan({"x": 7, "y": 30}, 12, seed=9).epoch_draws(3)
        b = build_sampling_plan({"x": 7, "y": 30}, 12, seed=9).epoch_draws(3)
        assert a == b

    def test_zero_window_dataset_rejected(self):
        with pytest.raises(ValueError, match="no windows"):
            build_sampling_plan({"empty": 0}, 10, seed=0)
