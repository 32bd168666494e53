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
    NULL_ID,
    EventBatch,
    ModelConfig,
    StreamFeatures,
    build_batch,
    encode_batch,
    featurize_events,
    init_event_encoder,
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
        """The slot ids of each window's events, MASK_ID where ``masks`` says."""
        return build_batch(windows, self.features, masks)

    def encode_events(self, batch: EventBatch) -> Tensor:
        """h_e for a batch: (B, N, d)."""
        return encode_batch(batch, self.event_params, self.config)

    def event_rows(self, windows: Sequence[Window],
                   masks: Optional[np.ndarray] = None) -> Tensor:
        """h_e (B, N, d) that encodes each distinct event row of a batch once.

        This is the one path to event embeddings, with or without a tape. The
        event encoder is context-free, so a row depends only on its seven slot
        ids after masking: events of one stream with equal ids share a row,
        whichever windows hold them. The stream stays in the key, so a batch
        never shrinks to one row, whose ``fuse`` product would take numpy's
        matrix-vector path. The distinct rows are encoded as one (1, R) batch
        and gathered back with ``take_rows``, whose backward sums the gradient
        of a shared row over every place it is used. ``masks`` is (B, N, 7)
        0/1 flags. The key packs into one int64, which ``np.ravel_multi_index``
        refuses with a ValueError only past tens of thousands of sensors.
        """
        batch = self.batch(windows, masks)
        codes: dict[str, int] = {}
        stream = np.array([codes.setdefault(w.dataset, len(codes)) for w in windows])
        ids = batch.ids.reshape(-1, N_SLOTS)
        columns = [np.repeat(stream, batch.shape[1]), *(ids - NULL_ID).T]  # all >= 0
        keys = np.ravel_multi_index(columns, [int(c.max()) + 1 for c in columns])
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        encoded = self.encode_events(EventBatch(batch.text, ids[first][None]))
        return take_rows(reshape(encoded, (len(first), self.config.d)),
                         inverse.reshape(batch.shape))

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
