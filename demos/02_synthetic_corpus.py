#!/usr/bin/env python3
"""Synthesize a week of smart-home life and segment it into model windows.

Shows the scripted generator (rooms, item visits, daily schedules), the
canonical CSV roundtrip, and both segmentation flavors.
"""

from collections import Counter

from domusfm import parse_event_csv, segment_events, segment_time, write_event_csv
from domusfm.benchmark import home_spec
from domusfm.ingest import generate_synthetic_corpus

spec = home_spec("home1", days=7, seed=42, noise_rate=0.05)
dataset = generate_synthetic_corpus(spec)

print(f"home {dataset.name!r}: {len(dataset.stream)} events from "
      f"{len(dataset.sensors)} sensors over {spec.duration_days} days")
print("activities:", ", ".join(dataset.activity_set))

label_counts = Counter(l for l in dataset.stream.labels if l)
print("\nevents per activity:")
for name, count in label_counts.most_common():
    print(f"  {name:<16} {count}")
noise = sum(1 for l in dataset.stream.labels if l is None)
print(f"  (unlabeled noise)  {noise}")

# canonical CSV roundtrip is exact
blob = write_event_csv(dataset)
again = parse_event_csv(blob, name=dataset.name)
assert again == dataset and write_event_csv(again) == blob
print(f"\nCSV roundtrip OK ({len(blob)} bytes)")
print("first lines:")
for line in blob.decode().split("\n")[:4]:
    print("  " + line)

# event-based windows: fixed length, stride 1 at overlap N-1
windows = segment_events(dataset.stream, n=30, overlap=29, dataset=dataset.name)
print(f"\nevent-based segmentation: {len(windows)} windows of 30 events "
      f"(stride 1)")
last_labels = Counter(w.label for w in windows if w.label)
print("window labels (label of each window's final event):",
      dict(last_labels.most_common(3)))

# time-based windows: fixed duration, variable length
time_windows = segment_time(dataset.stream, delta_t=600, overlap_fraction=0.5)
lengths = [len(w) for w in time_windows]
print(f"time-based segmentation (10 min, 50% overlap): {len(time_windows)} windows, "
      f"lengths min={min(lengths)} max={max(lengths)}")
