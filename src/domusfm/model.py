"""Model bundle: configuration, parameter groups, forward passes, checkpoints."""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor, reshape, take_rows
from .checkpoint import load_into_groups, save_checkpoint
from .context_encoder import contextualize, init_context_encoder, pool_sequence
from .embeddings import AttributeEmbeddingTable, fallback_table
from .event_encoder import (
    N_SLOTS,
    EventBatch,
    ModelConfig,
    StreamFeatures,
    build_batch,
    encode_batch,
    featurize_events,
    gather_batch,
    init_event_encoder,
    stream_features,
)
from .nn import ParamGroup
from .segmentation import Window

EVENT_GROUP = "event_encoder"
CONTEXT_GROUP = "context_encoder"


class Model:
    """Both encoder stages, as named groups; task heads keep their own."""

    def __init__(self, config: ModelConfig, table: AttributeEmbeddingTable,
                 groups: dict[str, ParamGroup]):
        self.config = config
        self.table = table
        self.groups = groups
        self.features: dict[str, StreamFeatures] = {}

    @staticmethod
    def init(config: ModelConfig, table: Optional[AttributeEmbeddingTable] = None,
             seed: int = 0) -> "Model":
        if table is None:
            table = fallback_table(config.d)
        rng = np.random.default_rng([seed, 0xD0])
        groups = {
            EVENT_GROUP: init_event_encoder(config, table.d_text, rng),
            CONTEXT_GROUP: init_context_encoder(config, rng),
        }
        return Model(config, table, groups)

    # -- bookkeeping -----------------------------------------------------

    @property
    def event_params(self) -> ParamGroup:
        return self.groups[EVENT_GROUP]

    @property
    def context_params(self) -> ParamGroup:
        return self.groups[CONTEXT_GROUP]

    def copy(self) -> "Model":
        clone = Model(self.config, self.table,
                      {name: g.copy() for name, g in self.groups.items()})
        clone.features = self.features
        return clone

    def add_stream_features(self, name: str, events) -> StreamFeatures:
        feats = featurize_events(events, self.table, self.config)
        self.features[name] = feats
        return feats

    # -- forward ---------------------------------------------------------

    def batch(self, windows: Sequence[Window],
              masks: Optional[np.ndarray] = None) -> EventBatch:
        """Each window's own slice of its stream: the per-window reference path.

        No production path calls it; ``event_rows`` must match it bitwise.
        """
        return build_batch(windows, self.features, masks)

    def encode_events(self, batch: EventBatch) -> Tensor:
        """h_e for a batch: (B, N, d)."""
        return encode_batch(batch, self.event_params, self.config)

    def event_rows(self, windows: Sequence[Window],
                   masks: Optional[np.ndarray] = None) -> Tensor:
        """h_e (B, N, d) that encodes each distinct event of a batch once.

        This is the one path to event embeddings, with or without a tape. The
        event encoder is context-free, so a row depends only on the event and
        its mask flags, not on the window holding it: windows of one stream
        share one row per (stream index, mask bits). Streams come in the order
        the batch first names them. The distinct rows are encoded in one batch
        and gathered back with ``take_rows``, whose backward sums the gradient
        of a shared row over every place it is used. ``masks`` is (B, N, 7)
        0/1 flags; slot 6 masks the status.
        """
        b, n = len(windows), len(windows[0])
        if any(len(w) != n for w in windows):
            raise ValueError("all windows in a batch must have the same length")
        bits = np.zeros((b, n), dtype=np.int64)
        if masks is not None:
            if np.shape(masks) != (b, n, N_SLOTS):
                raise ValueError(f"masks shape {np.shape(masks)} does not match "
                                 f"{b} windows of {n} events")
            bits = (np.asarray(masks) > 0.5).astype(np.int64) @ (1 << np.arange(N_SLOTS))
        index = np.empty((b, n), dtype=np.int64)
        blocks, row_bits, total = [], [], 0
        by_stream: dict[str, list[int]] = {}
        for i, w in enumerate(windows):
            by_stream.setdefault(w.dataset, []).append(i)
        full = (1 << N_SLOTS) - 1
        for name, members in by_stream.items():
            spans = np.array([windows[i].start for i in members])[:, None] + np.arange(n)
            feats = stream_features(self.features, name, int(spans.max()) + 1)
            spans[bits[members] == full] = 0  # after the span check: one shared row
            keys, inverse = np.unique((spans << N_SLOTS) | bits[members],
                                      return_inverse=True)
            rows = keys >> N_SLOTS
            blocks.append((feats, rows))
            row_bits.append(keys & full)
            index[members] = total + inverse.reshape(spans.shape)
            total += len(keys)
        # One (1, R) batch, or (R, 1) for one-event windows: either way BLAS runs
        # the kernel the per-window path runs, so the rows match it bitwise.
        shape = (1, total) if n > 1 else (total, 1)
        slot_mask = (np.concatenate(row_bits)[:, None] >> np.arange(N_SLOTS)) & 1
        encoded = self.encode_events(
            gather_batch(blocks, shape, slot_mask.reshape(shape + (N_SLOTS,))))
        return take_rows(reshape(encoded, (total, self.config.d)), index)

    def contextualize(self, event_embeddings: Tensor) -> Tensor:
        """h_cxt rows (B, N, d) from the context encoder.

        It runs whatever ``config.context_enabled`` says: pretraining phase 2
        trains the context encoder even for a model evaluated with the ablation.
        """
        return contextualize(event_embeddings, self.context_params, self.config)

    def window_tensors(self, windows: Sequence[Window]) -> tuple[Tensor, Tensor]:
        """(contextualized (B, N, d), pooled (B, d)) for a batch of windows.

        Taped (``full`` fine-tuning) and tape-free passes take the same path:
        the event rows come from ``event_rows``. With ``config.context_enabled``
        off (the ablation) the context encoder is skipped and the event rows are
        pooled as they are.
        """
        ctx = self.event_rows(windows)
        if self.config.context_enabled:
            ctx = self.contextualize(ctx)
        return ctx, pool_sequence(ctx)

    # -- persistence -----------------------------------------------------

    def meta(self) -> dict:
        return {"config": {**asdict(self.config), "d_text": self.table.d_text,
                           "table_sha256": self.table.fingerprint()}}

    def save(self, path: str):
        save_checkpoint(path, list(self.groups.values()), meta=self.meta())

    def load(self, path: str) -> dict:
        """Load a checkpoint; it must match this model's architecture and table.

        ``n_window`` and ``context_enabled`` are not compared: a checkpoint may
        be evaluated on other window lengths and with the context ablation. A
        header without ``table_sha256`` (an older file) is not compared on it.
        """
        arch = {k: v for k, v in self.meta()["config"].items()
                if k not in ("n_window", "context_enabled")}
        return load_into_groups(path, self.groups, arch)

    def state_bytes(self) -> bytes:
        return b"".join(g.state_bytes() for g in self.groups.values())
