"""Windowing: sliding-window counts vs enumeration, time windows, labels."""

import numpy as np
import pytest

from domusfm.events import OFF, ON, Event, EventStream, Sensor
from domusfm.segmentation import Window, segment_events, segment_time

S = Sensor("M1", "motion")


def make_stream(n, labeler=None):
    events = tuple(Event(t, S, ON if t % 2 else OFF) for t in range(1, n + 1))
    labels = tuple(labeler(i) if labeler else None for i in range(n))
    return EventStream(events, labels)


def times_of(stream, window):
    """Timestamps of the stream events a window views."""
    return [e.timestamp for e in stream.events[window.start:window.end + 1]]


def enumerate_starts(total, n, stride):
    """Independent oracle: list every valid window start by brute force."""
    return [s for s in range(0, total + 1, stride) if s + n <= total]


class TestEventSegmentation:
    def test_paper_style_sliding(self):
        windows = segment_events(make_stream(32), n=30, overlap=29)
        assert [w.start for w in windows] == [0, 1, 2]
        assert all(len(w) == 30 for w in windows)

    def test_exact_fit_single_window(self):
        windows = segment_events(make_stream(30), n=30, overlap=29)
        assert len(windows) == 1

    def test_disjoint_windows(self):
        windows = segment_events(make_stream(20), n=10, overlap=0)
        assert [w.start for w in windows] == [0, 10]

    def test_short_stream_warns_empty(self):
        with pytest.warns(UserWarning, match="shorter than window size"):
            assert segment_events(make_stream(5), n=30, overlap=29) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_count_formula_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            overlap = int(rng.integers(0, n))
            total = int(rng.integers(n, 400))
            stride = n - overlap
            windows = segment_events(make_stream(total), n=n, overlap=overlap)
            assert len(windows) == (total - n) // stride + 1
            assert [w.start for w in windows] == enumerate_starts(total, n, stride)

    def test_full_coverage_when_stride_leq_n(self):
        total, n, overlap = 100, 10, 3
        windows = segment_events(make_stream(total), n=n, overlap=overlap)
        covered = set()
        for w in windows:
            covered.update(range(w.start, w.start + len(w)))
        # every event up to the last full window is covered
        assert covered.issuperset(range(0, windows[-1].start + n))

    def test_windows_preserve_order(self):
        stream = make_stream(50)
        for w in segment_events(stream, n=7, overlap=3, dataset="home"):
            times = times_of(stream, w)
            assert len(times) == len(w) == w.n and w.dataset == "home"
            assert times == sorted(times)


class TestTimeSegmentation:
    def test_closed_interval_example(self):
        stream = make_stream(10)  # events at t = 1..10
        windows = segment_time(stream, delta_t=5, overlap_fraction=0.0)
        spans = [times_of(stream, w) for w in windows]
        assert spans == [[1, 2, 3, 4, 5, 6], [6, 7, 8, 9, 10]]

    def test_empty_stream(self):
        assert segment_time(EventStream(()), delta_t=10) == []

    def test_half_overlap_starts_every_five(self):
        stream = make_stream(40)
        windows = segment_time(stream, delta_t=10, overlap_fraction=0.5)
        starts = [stream.events[w.start].timestamp for w in windows]
        assert starts[:4] == [1, 6, 11, 16]

    def test_variable_window_length(self):
        events = tuple(Event(t, S, ON if i % 2 == 0 else OFF)
                       for i, t in enumerate([1, 2, 3, 50, 51]))
        stream = EventStream(events)
        windows = segment_time(stream, delta_t=5)
        # interval starts advance by 5 from t=1; [1,6] -> {1,2,3},
        # [46,51] -> {50,51}, [51,56] -> {51}; empty intervals skipped
        assert [len(w) for w in windows] == [3, 2, 1]
        assert [times_of(stream, w) for w in windows] == [[1, 2, 3], [50, 51], [51]]

    def test_views_name_their_interval(self):
        events = tuple(Event(t, S, ON if i % 2 == 0 else OFF)
                       for i, t in enumerate([1, 2, 3, 50, 51, 52]))
        stream = EventStream(events, ("a", "b", "c", "d", None, "f"))
        windows = segment_time(stream, delta_t=5, dataset="home")
        # [1,6] -> 0..2, [46,51] -> 3..4, [51,56] -> 4..5
        assert [(w.dataset, w.start, w.n, w.label) for w in windows] == \
            [("home", 0, 3, "c"), ("home", 3, 2, None), ("home", 4, 2, "f")]


class TestWindowLabel:
    def test_label_of_last_event(self):
        stream = make_stream(5, labeler=lambda i: "cooking" if i == 4 else "other")
        (window,) = segment_events(stream, n=5, overlap=0)
        assert window.label == "cooking"

    def test_unlabeled_final_event(self):
        stream = make_stream(5, labeler=lambda i: "x" if i < 4 else None)
        (window,) = segment_events(stream, n=5, overlap=0)
        assert window.label is None

    def test_single_event_window(self):
        stream = make_stream(1, labeler=lambda i: "nap")
        (window,) = segment_events(stream, n=1, overlap=0)
        assert window.label == "nap"

    def test_invariant_under_non_final_relabeling(self):
        stream_a = make_stream(6, labeler=lambda i: "a")
        stream_b = EventStream(stream_a.events, ("z", "z", "z", "z", "z", "a"))
        (wa,) = segment_events(stream_a, n=6, overlap=0)
        (wb,) = segment_events(stream_b, n=6, overlap=0)
        assert wa.label == wb.label


class TestConfig:
    def test_validations(self):
        stream = make_stream(20)
        with pytest.raises(ValueError, match="overlap"):
            segment_events(stream, n=10, overlap=10)
        with pytest.raises(ValueError, match="delta_t"):
            segment_time(stream, delta_t=0)
        with pytest.raises(ValueError, match="overlap_fraction"):
            segment_time(stream, delta_t=5, overlap_fraction=1.0)

    def test_window_requires_events(self):
        with pytest.raises(ValueError, match="at least one event"):
            Window("home", 0, 0)

    def test_window_start_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="start must be >= 0, got -2"):
            Window("home", -2, 3)
