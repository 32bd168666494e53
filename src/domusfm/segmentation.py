"""Windowing of the global event stream.

Event-based windows hold exactly N consecutive events and may overlap;
time-based windows hold whatever falls in [t, t + delta_t] (closed on both
ends). A window's activity label is the label of its last event.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from .events import Event, EventStream


@dataclass(frozen=True)
class Window:
    """N consecutive events; ``label`` is the activity of the final event."""

    events: tuple[Event, ...]
    labels: tuple[Optional[str], ...]
    dataset: str = ""
    start: int = 0  # index of events[0] in the source stream

    def __post_init__(self):
        if not self.events:
            raise ValueError("window must contain at least one event")
        if len(self.labels) != len(self.events):
            raise ValueError("labels must match events one-to-one")

    def __len__(self):
        return len(self.events)

    @property
    def label(self) -> Optional[str]:
        return self.labels[-1]

    @property
    def end(self) -> int:
        """Index of the last event in the source stream."""
        return self.start + len(self.events) - 1


def segment_events(stream: EventStream, n: int, overlap: int,
                   dataset: str = "") -> list[Window]:
    """Fixed-size sliding windows with stride ``n - overlap``."""
    if not 0 <= overlap < n:
        raise ValueError(f"need 0 <= overlap < N, got overlap={overlap}, N={n}")
    total = len(stream)
    if total < n:
        warnings.warn(f"stream of {total} events is shorter than window size {n}; "
                      f"no windows produced", stacklevel=2)
        return []
    stride = n - overlap
    windows = []
    for start in range(0, total - n + 1, stride):
        windows.append(Window(
            events=stream.events[start:start + n],
            labels=stream.labels[start:start + n],
            dataset=dataset,
            start=start,
        ))
    return windows


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
    import bisect

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
            windows.append(Window(
                events=stream.events[lo:hi],
                labels=stream.labels[lo:hi],
                dataset=dataset,
                start=lo,
            ))
        j += 1
    return windows
