"""Windowing of the global event stream.

Event-based windows hold exactly N consecutive events and may overlap;
time-based windows hold whatever falls in [t, t + delta_t] (closed on both
ends). A window's activity label is the label of its last event.
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass
from typing import Optional

from .events import EventStream


@dataclass(frozen=True)
class Window:
    """A view of ``n`` consecutive events of stream ``dataset`` from ``start``.

    ``label`` is the activity of the final event. The events themselves stay
    with the stream; a model reads them through the stream features that
    ``Model.add_stream_features`` registered under ``dataset``.
    """

    dataset: str
    start: int
    n: int
    label: Optional[str] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("window must contain at least one event")
        if self.start < 0:
            raise ValueError(f"window start must be >= 0, got {self.start}")

    def __len__(self):
        return self.n

    @property
    def end(self) -> int:
        """Index of the last event in the source stream."""
        return self.start + self.n - 1


def check_overlap(n: int, overlap: int):
    """Reject an overlap outside [0, N), so the stride N - overlap lies in [1, N]."""
    if not 0 <= overlap < n:
        raise ValueError(f"need 0 <= overlap < N, got overlap={overlap}, N={n}")


def segment_events(stream: EventStream, n: int, overlap: int,
                   dataset: str = "") -> list[Window]:
    """Fixed-size sliding windows with stride ``n - overlap``."""
    check_overlap(n, overlap)
    total = len(stream)
    if total < n:
        warnings.warn(f"stream of {total} events is shorter than window size {n}; "
                      f"no windows produced", stacklevel=2)
        return []
    return [Window(dataset, start, n, stream.labels[start + n - 1])
            for start in range(0, total - n + 1, n - overlap)]


def segment_time(stream: EventStream, delta_t: int, overlap_fraction: float = 0.0,
                 dataset: str = "") -> list[Window]:
    """Windows over the closed interval [t_j, t_j + delta_t], starts advancing
    by delta_t * (1 - overlap_fraction). Intervals without events are skipped."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError("overlap_fraction must be in [0, 1)")
    if len(stream) == 0:
        return []
    stride = delta_t * (1.0 - overlap_fraction)
    times = [e.timestamp for e in stream.events]
    t_first, t_last = times[0], times[-1]
    windows = []
    j = 0
    while True:
        t_start = t_first + j * stride
        if t_start > t_last:
            break
        lo = bisect.bisect_left(times, t_start)
        hi = bisect.bisect_right(times, t_start + delta_t)
        if hi > lo:
            windows.append(Window(dataset, lo, hi - lo, stream.labels[hi - 1]))
        j += 1
    return windows
