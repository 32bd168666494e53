#!/usr/bin/env python3
"""Inside the encoders: attribute embeddings, masking, and contextualization.

Encodes the events of two short streams, shows how masking swaps in learned
MASK vectors, and demonstrates that the context encoder lets neighboring
events reshape each event's representation.
"""

from dataclasses import replace

import numpy as np

from domusfm import Event, Model, ModelConfig, Sensor, Window
from domusfm.autodiff import no_grad
from domusfm.embeddings import fallback_embedding
from domusfm.event_encoder import N_SLOTS, cyclical_features

config = ModelConfig(d=32, heads=4, layers=2, seconds_buckets=60)
model = Model.init(config, seed=7)

# deterministic hash embeddings stand in for a sentence-embedding table
for token in ("stove", "oven", "bed"):
    vec = fallback_embedding(token, 6)
    print(f"fallback_embedding({token!r}, 6) -> {np.round(vec, 3)}")

# cyclical time features: hour 23 and hour 0 are neighbors on the circle
h23, h0, h12 = (cyclical_features(h, 24.0, config.harmonics) for h in (23, 0, 12))
print(f"\n|features(23h) - features(0h)|  = {np.linalg.norm(h23 - h0):.3f}  (close)")
print(f"|features(12h) - features(0h)|  = {np.linalg.norm(h12 - h0):.3f}  (far)")

# the same stove event surrounded by different neighbors, in two streams
stove = Sensor("p_stove", "power", house_item="stove", room="kitchen")
bed = Sensor("b_bed", "pressure", house_item="bed", room="bedroom")
fridge = Sensor("c_fridge", "contact", house_item="fridge", room="kitchen")
event = Event(1736154000, stove, "ON")  # 2025-01-06 09:00 UTC


def around(name: str, neighbor: Sensor) -> Window:
    events = (Event(event.timestamp - 120, neighbor, "ON"),
              event,
              Event(event.timestamp + 90, neighbor, "OFF"))
    model.add_stream_features(name, events)
    return Window(name, 0, 3)


kitchen, bedroom = around("kitchen", fridge), around("bedroom", bed)

with no_grad():
    plain = model.encode_events(model.batch([kitchen])).data[0]
    masks = np.zeros((1, len(kitchen), N_SLOTS))
    masks[0, 1, 1] = 1.0  # hide the stove event's room
    room_masked = model.encode_events(model.batch([kitchen], masks)).data[0]
    ctx_kitchen, _ = model.window_tensors([kitchen])
    ctx_bedroom, _ = model.window_tensors([bedroom])
    ablated = model.copy()  # the ablation is a model config flag
    ablated.config = replace(model.config, context_enabled=False)
    ctx_ablated, _ = ablated.window_tensors([kitchen])

print(f"\nevent embedding h_e is {plain.shape[1]}-dimensional")
print(f"masking the room slot moves h_e by "
      f"{np.linalg.norm(plain[1] - room_masked[1]):.3f}")

shift = np.linalg.norm(ctx_kitchen.data[0, 1] - ctx_bedroom.data[0, 1])
print(f"\nsame event, different window context: h_cxt differs by {shift:.3f}")

assert np.array_equal(ctx_ablated.data[0], plain)
print("with context disabled, rows fall back to the raw event embeddings (bitwise)")
