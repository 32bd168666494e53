"""Event-level feature extraction.

An event is encoded from seven slots: three semantic attributes (house item,
room, sensor type), two cyclical temporal attributes (day of week, hour),
the discretized second-in-hour, and the status. Each slot is embedded to the
model dimension, tagged with a learned slot embedding, fused by one
self-attention layer over the slots, mean-pooled, and projected. The result
is a context-free vector per event.

An event is stored as seven integer slot ids. Each slot embeds as a row of its
own table, whose last two rows are the learned NULL and MASK inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor, concat, reshape, take_rows, tensor_mean
from .embeddings import AttributeEmbeddingTable
from .events import Event, Sensor, extract_time_features
from .nn import ParamGroup, init_attention, init_embedding, init_linear, init_vector, linear, multi_head_attention
from .segmentation import Window

SLOTS = ("house_item", "room", "sensor_type", "dow", "hour", "sec", "status")
TEXT_SLOTS = ("item", "room", "type")
N_SLOTS = 7
STATUS_INDEX = {"ON": 0, "OFF": 1}
NULL_ID, MASK_ID = -2, -1  # the last two rows of every slot table


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters shared by both encoder stages."""

    d: int = 64
    heads: int = 4
    layers: int = 2
    harmonics: int = 4
    seconds_buckets: int = 60
    n_window: int = 30
    context_enabled: bool = True

    def __post_init__(self):
        for name in ("d", "heads", "layers", "harmonics", "seconds_buckets", "n_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")
        if 3600 % self.seconds_buckets != 0:
            raise ValueError(f"seconds_buckets={self.seconds_buckets} must divide 3600")

    @staticmethod
    def full_scale() -> "ModelConfig":
        return ModelConfig(d=384, heads=12, layers=12)


def cyclical_features(x: float, period: float, harmonics: int) -> np.ndarray:
    """(sin, cos) pairs at harmonics 1..H of 2*pi*x/period.

    The phase is reduced modulo the period first, so shifting by a whole
    period reproduces the features bitwise.
    """
    x = x % period
    out = np.empty(2 * harmonics, dtype=np.float64)
    for m in range(1, harmonics + 1):
        angle = 2.0 * math.pi * m * x / period
        out[2 * (m - 1)] = math.sin(angle)
        out[2 * (m - 1) + 1] = math.cos(angle)
    return out


def init_event_encoder(config: ModelConfig, d_text: int,
                       rng: np.random.Generator) -> ParamGroup:
    """All learnable parameters of the event-level extractor, for text vectors of ``d_text``."""
    d = config.d
    group = ParamGroup("event_encoder")
    for slot in TEXT_SLOTS:
        init_linear(group, f"proj_{slot}", d_text, d, rng)
        init_vector(group, f"null_{slot}", d_text, rng)
        init_vector(group, f"mask_{slot}", d_text, rng)
    for name in ("dow", "hour"):
        init_linear(group, f"proj_{name}", 2 * config.harmonics, d, rng)
        init_vector(group, f"mask_{name}", d, rng)
    init_embedding(group, "sec_table", config.seconds_buckets, d, rng)
    init_vector(group, "mask_sec", d, rng)
    init_embedding(group, "status_table", 3, d, rng)
    init_embedding(group, "slot_emb", 6, d, rng)
    init_attention(group, "attn", d, rng)
    init_linear(group, "fuse", d, d, rng)
    return group


# -- batched featurization -----------------------------------------------------


@dataclass
class StreamFeatures:
    """Per-event constant model inputs, precomputed once per stream.

    ``ids`` holds each event's seven slot ids: a text id is a row of the
    stream's ``text`` table for that slot (one row per sensor) or ``NULL_ID``;
    then day of week 0-6, hour 0-23, the second bucket and the status 0/1.
    """

    text: dict[str, np.ndarray]  # slot -> (sensors, d_text) float32
    ids: np.ndarray              # (T, 7) int64

    def __len__(self):
        return len(self.ids)


@lru_cache(maxsize=None)
def cyclical_table(period: int, harmonics: int) -> np.ndarray:
    """Row i is ``cyclical_features(i, period, harmonics)`` as float32."""
    table = np.stack([cyclical_features(i, float(period), harmonics)
                      for i in range(period)]).astype(np.float32)
    table.flags.writeable = False
    return table


def featurize_events(events: Sequence[Event], table: AttributeEmbeddingTable,
                     config: ModelConfig) -> StreamFeatures:
    """The slot ids of every event, and each distinct sensor's text vectors.

    A NULL (missing or blank) attribute gets ``NULL_ID`` and a zero text row.
    """
    sensors: dict[Sensor, int] = {}
    which = np.array([sensors.setdefault(e.sensor, len(sensors)) for e in events],
                     dtype=np.int64)
    ids = np.empty((len(events), N_SLOTS), dtype=np.int64)
    text = {}
    for k, (slot, attr) in enumerate(zip(TEXT_SLOTS, SLOTS)):
        values = [getattr(sensor, attr) for sensor in sensors]
        null = np.array([value is None or not value.strip() for value in values], dtype=bool)
        vecs = np.zeros((len(values), table.d_text), dtype=np.float32)
        for row, value in enumerate(values):
            if not null[row]:
                vecs[row] = table.lookup(value)
        text[slot] = vecs
        ids[:, k] = np.where(null[which], NULL_ID, which)
    ts = np.array([e.timestamp for e in events], dtype=np.int64)
    ids[:, 3], ids[:, 4], sec = extract_time_features(ts)
    ids[:, 5] = sec // (3600 // config.seconds_buckets)
    ids[:, 6] = [STATUS_INDEX[e.status] for e in events]
    return StreamFeatures(text, ids)


@dataclass
class EventBatch:
    """Slot ids of B windows of N events, and the text tables they index."""

    text: dict[str, np.ndarray]  # slot -> (rows, d_text): each stream's table once
    ids: np.ndarray              # (B, N, 7), MASK_ID where masked

    @property
    def shape(self):
        return self.ids.shape[:2]


def build_batch(windows: Sequence[Window], features: dict[str, StreamFeatures],
                masks: Optional[np.ndarray] = None) -> EventBatch:
    """Gather each window's slot ids from its stream into one (B, N) batch.

    ``features`` maps dataset name to its precomputed stream features. Each
    stream's text tables enter the batch once, in the order the windows first
    name the streams, and its text ids are offset by the rows before it.
    ``masks`` is (B, N, 7) float/bool; a masked slot reads ``MASK_ID``.
    """
    b, n = len(windows), len(windows[0])
    if any(len(w) != n for w in windows):
        raise ValueError("all windows in a batch must have the same length")
    if masks is not None and np.shape(masks) != (b, n, N_SLOTS):
        raise ValueError(f"masks shape {np.shape(masks)} does not match "
                         f"{b} windows of {n} events")
    by_stream: dict[str, list[int]] = {}
    for i, w in enumerate(windows):
        by_stream.setdefault(w.dataset, []).append(i)
    ids = np.empty((b, n, N_SLOTS), dtype=np.int64)
    text = {slot: [] for slot in TEXT_SLOTS}
    offset = 0
    for name, members in by_stream.items():
        spans = np.array([windows[i].start for i in members])[:, None] + np.arange(n)
        feats, stop = features.get(name), int(spans.max()) + 1
        if feats is None:
            raise ValueError(f"no stream features for dataset {name!r}; register "
                             f"the stream with Model.add_stream_features first")
        if stop > len(feats):
            raise ValueError(f"a window reaching event {stop - 1} runs past the end of "
                             f"stream {name!r} ({len(feats)} events)")
        rows = feats.ids[spans]
        rows[..., :3] += np.where(rows[..., :3] >= 0, offset, 0)
        ids[members] = rows
        for slot in TEXT_SLOTS:
            text[slot].append(feats.text[slot])
        offset += len(feats.text["item"])
    if masks is not None:
        ids[np.asarray(masks) > 0.5] = MASK_ID
    return EventBatch({slot: np.concatenate(t) for slot, t in text.items()}, ids)


def encode_batch(batch: EventBatch, params: ParamGroup, config: ModelConfig) -> Tensor:
    """h_e for every event: (B, N, d).

    Each slot is a row of its own table, projected once per batch: the text
    tables with the learned NULL and MASK vectors in text space, the day and
    hour harmonics, the second buckets, and the status. ``NULL_ID`` and
    ``MASK_ID`` are the last two rows, so a masked NULL attribute reads MASK.
    """
    b, n = batch.shape
    d = config.d
    ids = batch.ids
    slot_streams = []
    for k, slot in enumerate(TEXT_SLOTS):
        table = concat([Tensor(batch.text[slot]), reshape(params[f"null_{slot}"], (1, -1)),
                        reshape(params[f"mask_{slot}"], (1, -1))])
        table = linear(table, params[f"proj_{slot}.w"], params[f"proj_{slot}.b"])
        slot_streams.append(take_rows(table, ids[..., k]))
    for k, name, period in ((3, "dow", 7), (4, "hour", 24)):
        table = linear(Tensor(cyclical_table(period, config.harmonics)),
                       params[f"proj_{name}.w"], params[f"proj_{name}.b"])
        table = concat([table, reshape(params[f"mask_{name}"], (1, -1))])
        slot_streams.append(take_rows(table, ids[..., k]))
    table = concat([params["sec_table"], reshape(params["mask_sec"], (1, -1))])
    slot_streams.append(take_rows(table, ids[..., 5]))
    status = take_rows(params["status_table"], ids[..., 6])  # its last row is MASK

    stacked = concat([reshape(s, (b, n, 1, d)) for s in slot_streams], axis=2)
    stacked = stacked + reshape(params["slot_emb"], (1, 1, 6, d))
    slots = concat([stacked, reshape(status, (b, n, 1, d))], axis=2)  # (B, N, 7, d)

    flat = reshape(slots, (b * n, N_SLOTS, d))
    fused = multi_head_attention(flat, config.heads, params.tensors)
    pooled = tensor_mean(fused, axis=1)  # (B*N, d)
    out = linear(pooled, params["fuse.w"], params["fuse.b"])
    return reshape(out, (b, n, d))
