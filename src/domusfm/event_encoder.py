"""Event-level feature extraction.

An event is encoded from seven slots: three semantic attributes (house item,
room, sensor type), two cyclical temporal attributes (day of week, hour),
the discretized second-in-hour, and the status. Each slot is embedded to the
model dimension, tagged with a learned slot embedding, fused by one
self-attention layer over the slots, mean-pooled, and projected. The result
is a context-free vector per event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor, concat, reshape, take_rows, tensor_mean
from .embeddings import AttributeEmbeddingTable
from .events import Event, Sensor
from .nn import ParamGroup, init_attention, init_embedding, init_linear, init_vector, linear, multi_head_attention
from .segmentation import Window

SLOTS = ("house_item", "room", "sensor_type", "dow", "hour", "sec", "status")
TEXT_SLOTS = ("item", "room", "type")
N_SLOTS = 7
STATUS_INDEX = {"ON": 0, "OFF": 1, "MASK": 2}


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


def seconds_bucket(sec_in_hour: int, buckets: int) -> int:
    if not 0 <= sec_in_hour < 3600:
        raise ValueError(f"second-in-hour out of range: {sec_in_hour}")
    return sec_in_hour // (3600 // buckets)


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
    """Per-event constant model inputs, precomputed once per stream."""

    text: dict[str, np.ndarray]       # slot -> (T, d_text) float32, zero where NULL
    null_mask: dict[str, np.ndarray]  # slot -> (T, 1) float32
    dow_feats: np.ndarray             # (T, 2H) float32
    hour_feats: np.ndarray            # (T, 2H) float32
    sec_ids: np.ndarray               # (T,)
    status_ids: np.ndarray            # (T,)

    def __len__(self):
        return len(self.sec_ids)


def featurize_events(events: Sequence[Event], table: AttributeEmbeddingTable,
                     config: ModelConfig) -> StreamFeatures:
    """The model inputs of every event, as float32 arrays built by lookup.

    Each distinct sensor's text vectors are looked up once. Day of week, hour
    and second come from the integer UTC timestamp (1970-01-01 was a
    Thursday, day 3), and the cyclical features are rows of one table per
    period, so every row equals ``cyclical_features`` of its event cast to
    float32.
    """
    sensors: dict[Sensor, int] = {}
    which = np.array([sensors.setdefault(e.sensor, len(sensors)) for e in events],
                     dtype=np.int64)
    text, null_mask = {}, {}
    for slot, attr in zip(TEXT_SLOTS, ("house_item", "room", "sensor_type")):
        values = [getattr(sensor, attr) for sensor in sensors]
        null = np.array([value is None or not value.strip() for value in values],
                        dtype=np.float32)[:, None]
        vecs = np.zeros((len(values), table.d_text), dtype=np.float32)
        for row, value in enumerate(values):
            if not null[row, 0]:
                vecs[row] = table.lookup(value)
        text[slot], null_mask[slot] = vecs[which], null[which]
    ts = np.array([e.timestamp for e in events], dtype=np.int64)
    dow_table, hour_table = (
        np.stack([cyclical_features(i, float(period), config.harmonics)
                  for i in range(period)]).astype(np.float32)
        for period in (7, 24))
    return StreamFeatures(
        text, null_mask,
        dow_feats=dow_table[(ts // 86400 + 3) % 7],
        hour_feats=hour_table[ts // 3600 % 24],
        sec_ids=ts % 3600 // (3600 // config.seconds_buckets),
        status_ids=np.array([STATUS_INDEX[e.status] for e in events], dtype=np.int64))


@dataclass
class EventBatch:
    """Stacked constant inputs for B windows of N events, plus mask flags."""

    text: dict[str, np.ndarray]       # slot -> (B, N, d_text)
    null_mask: dict[str, np.ndarray]  # slot -> (B, N, 1)
    dow_feats: np.ndarray
    hour_feats: np.ndarray
    sec_ids: np.ndarray               # (B, N)
    status_ids: np.ndarray            # (B, N), already MASK-substituted
    slot_mask: np.ndarray             # (B, N, 7) float

    @property
    def shape(self):
        return self.sec_ids.shape


def gather_batch(blocks: Sequence[tuple[StreamFeatures, object]], shape: tuple[int, int],
                 masks: Optional[np.ndarray] = None) -> EventBatch:
    """Concatenate rows of feature blocks into one (B, N) batch.

    ``blocks`` pairs each stream's features with the rows it contributes (a
    slice or an index array), in batch order; B * N rows in all. ``masks`` is
    (B, N, 7) float/bool; slot 6 masks the status.
    """
    def gather(select):
        rows = np.concatenate([select(feats)[index] for feats, index in blocks])
        return rows.reshape(shape + rows.shape[1:])

    batch = EventBatch(
        text={slot: gather(lambda f, s=slot: f.text[s]) for slot in TEXT_SLOTS},
        null_mask={slot: gather(lambda f, s=slot: f.null_mask[s]) for slot in TEXT_SLOTS},
        dow_feats=gather(lambda f: f.dow_feats),
        hour_feats=gather(lambda f: f.hour_feats),
        sec_ids=gather(lambda f: f.sec_ids),
        status_ids=gather(lambda f: f.status_ids),
        slot_mask=np.asarray(masks, dtype=np.float64) if masks is not None
        else np.zeros(shape + (N_SLOTS,)),
    )
    status_masked = batch.slot_mask[:, :, 6] > 0.5
    batch.status_ids[status_masked] = STATUS_INDEX["MASK"]
    return batch


def stream_features(features: dict[str, StreamFeatures], dataset: str,
                    stop: int) -> StreamFeatures:
    """The features of stream ``dataset``, which must hold events ``[0, stop)``.

    Every window reads its events here.
    """
    feats = features.get(dataset)
    if feats is None:
        raise ValueError(f"no stream features for dataset {dataset!r}; register "
                         f"the stream with Model.add_stream_features first")
    if stop > len(feats):
        raise ValueError(f"a window reaching event {stop - 1} runs past the end of "
                         f"stream {dataset!r} ({len(feats)} events)")
    return feats


def build_batch(windows: Sequence[Window], features: dict[str, StreamFeatures],
                masks: Optional[np.ndarray] = None) -> EventBatch:
    """Gather each window's slice of its stream's features into batch arrays.

    This is the per-window reference path, with no production caller:
    ``Model.event_rows`` encodes each distinct event once and must match it
    bitwise. ``features`` maps dataset name to its precomputed stream features.
    ``masks`` is (B, N, 7) float/bool; slot 6 masks the status.
    """
    n = len(windows[0])
    if any(len(w) != n for w in windows):
        raise ValueError("all windows in a batch must have the same length")
    blocks = [(stream_features(features, w.dataset, w.start + n),
               slice(w.start, w.start + n))
              for w in windows]
    return gather_batch(blocks, (len(windows), n), masks)


def encode_batch(batch: EventBatch, params: ParamGroup, config: ModelConfig) -> Tensor:
    """h_e for every event: (B, N, d)."""
    b, n = batch.shape
    d = config.d
    slot_streams = []
    # text slots: learned NULL/MASK vectors substitute in text space, then project
    for idx, slot in enumerate(TEXT_SLOTS):
        m = batch.slot_mask[:, :, idx:idx + 1]
        nm = batch.null_mask[slot] * (1.0 - m)  # mask wins over NULL
        keep = 1.0 - nm - m
        text_in = (Tensor(batch.text[slot] * keep)
                   + params[f"null_{slot}"] * Tensor(nm)
                   + params[f"mask_{slot}"] * Tensor(m))
        slot_streams.append(linear(text_in, params[f"proj_{slot}.w"], params[f"proj_{slot}.b"]))
    # cyclical slots: project harmonics, replace with the mask vector where masked
    for feats, name, idx in ((batch.dow_feats, "dow", 3), (batch.hour_feats, "hour", 4)):
        m = batch.slot_mask[:, :, idx:idx + 1]
        enc = linear(Tensor(feats), params[f"proj_{name}.w"], params[f"proj_{name}.b"])
        slot_streams.append(enc * Tensor(1.0 - m) + params[f"mask_{name}"] * Tensor(m))
    # second-of-hour bucket embedding
    m = batch.slot_mask[:, :, 5:6]
    sec = take_rows(params["sec_table"], batch.sec_ids)
    slot_streams.append(sec * Tensor(1.0 - m) + params["mask_sec"] * Tensor(m))
    # status embedding (MASK substitution already applied to the ids)
    status = take_rows(params["status_table"], batch.status_ids)

    stacked = concat([reshape(s, (b, n, 1, d)) for s in slot_streams], axis=2)
    stacked = stacked + reshape(params["slot_emb"], (1, 1, 6, d))
    slots = concat([stacked, reshape(status, (b, n, 1, d))], axis=2)  # (B, N, 7, d)

    flat = reshape(slots, (b * n, N_SLOTS, d))
    fused = multi_head_attention(flat, config.heads, params.tensors)
    pooled = tensor_mean(fused, axis=1)  # (B*N, d)
    out = linear(pooled, params["fuse.w"], params["fuse.b"])
    return reshape(out, (b, n, d))
