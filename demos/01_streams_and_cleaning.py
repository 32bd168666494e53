#!/usr/bin/env python3
"""From an event CSV to a clean global event stream.

Input starts at binary ON/OFF events. This walks what ``parse_event_csv``
does to a small file with unsorted rows, two events in one second and a
repeated ON: sort and bump ties (``sorted_stream``), drop repeats
(``clean_alternation`` and its report), then read each event's time features.
"""

from domusfm import Event, clean_alternation, extract_time_features, parse_event_csv
from domusfm.events import format_iso_timestamp, parse_iso_timestamp, sorted_stream

CSV = """timestamp,sensor_id,house_item,room,sensor_type,status,activity
2025-01-06T07:02:10,M1,,kitchen,motion,OFF,breakfast
2025-01-06T07:00:00,M1,,kitchen,motion,ON,breakfast
2025-01-06T07:00:00,K1,kettle,kitchen,power,ON,breakfast
2025-01-06T07:01:30,M1,,kitchen,motion,ON,breakfast
2025-01-06T07:05:00,K1,kettle,kitchen,power,OFF,
"""

dataset = parse_event_csv(CSV.encode(), name="kitchen")


def show(events, labels):
    for event, label in zip(events, labels):
        print(f"  {format_iso_timestamp(event.timestamp)}  {event.sensor.id:<3} "
              f"{event.status:<3} {label or '-'}")


# -- 1. the rows as the file holds them -----------------------------------------

rows = []
for line in CSV.splitlines()[1:]:
    ts, sensor_id, _, _, _, status, activity = line.split(",")
    event = Event(parse_iso_timestamp(ts), dataset.sensors[sensor_id], status)
    rows.append((event, activity or None))
print("rows in file order:")
show(*zip(*rows))

# -- 2. sort by (timestamp, sensor id); a tie is bumped one second ---------------

ordered = sorted_stream(rows)
print("\nsorted_stream (K1 sorts before M1 at 07:00:00, so M1 moves to 07:00:01):")
show(ordered.events, ordered.labels)

# -- 3. a sensor that repeats its status loses the repeat ------------------------

cleaned, report = clean_alternation(ordered)
print(f"\nclean_alternation: {report.removed_count} removed at indices "
      f"{report.removed_indices}")
show(cleaned.events, cleaned.labels)
assert cleaned == dataset.stream
print("parse_event_csv returned this same stream")

# -- 4. the temporal attributes the event encoder reads -------------------------

print("\ntime features (weekday Monday=0, hour, second in hour):")
for event in dataset.stream.events:
    dow, hour, sec = extract_time_features(event.timestamp)
    print(f"  {format_iso_timestamp(event.timestamp)}  {event.sensor.id:<3} "
          f"weekday={dow} hour={hour:02d} sec_in_hour={sec}")
