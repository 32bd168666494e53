"""Model bundle: configuration, parameter groups, forward passes, checkpoints."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor, no_grad, reshape, take_rows
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
)
from .nn import ParamGroup
from .segmentation import Window

EVENT_GROUP = "event_encoder"
CONTEXT_GROUP = "context_encoder"


class Model:
    """Both encoder stages plus any attached task heads, as named groups."""

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
            table = fallback_table(config.text_dim())
        config = config.with_table(table)
        if table.provenance == "fallback" and table.d_text != config.text_dim():
            raise ValueError(f"fallback table dimension {table.d_text} != model "
                             f"text dimension {config.text_dim()}")
        rng = np.random.default_rng([seed, 0xD0])
        groups = {
            EVENT_GROUP: init_event_encoder(config, rng),
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

    def set_frozen(self, group: str, frozen: bool):
        self.groups[group].frozen = frozen

    def trainable_groups(self) -> list[ParamGroup]:
        return [g for g in self.groups.values() if not g.frozen]

    # -- forward ---------------------------------------------------------

    def batch(self, windows: Sequence[Window],
              masks: Optional[np.ndarray] = None) -> EventBatch:
        return build_batch(windows, self.features, masks,
                           table=self.table, config=self.config)

    def encode_events(self, batch: EventBatch) -> Tensor:
        """h_e for a batch: (B, N, d)."""
        return encode_batch(batch, self.event_params, self.config)

    def event_rows(self, windows: Sequence[Window],
                   masks: Optional[np.ndarray] = None) -> Tensor:
        """h_e (B, N, d) that encodes each distinct event of a batch once.

        This is the one path to event embeddings, with or without a tape. The
        event encoder is context-free, so a row depends only on the event and
        its mask flags, not on the window holding it: windows of a featurized
        stream share one row per (stream index, mask bits). Windows of any
        other dataset carry their own events and get one row per event, as
        ``build_batch`` gives them. The distinct rows are encoded in one batch
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
            if w.dataset in self.features:
                by_stream.setdefault(w.dataset, []).append(i)
            else:
                blocks.append((featurize_events(w.events, self.table, self.config),
                               slice(0, n)))
                row_bits.append(bits[i])
                index[i] = total + np.arange(n)
                total += n
        for name, members in by_stream.items():
            spans = np.array([windows[i].start for i in members])[:, None] + np.arange(n)
            keys, inverse = np.unique((spans << N_SLOTS) | bits[members],
                                      return_inverse=True)
            blocks.append((self.features[name], keys >> N_SLOTS))
            row_bits.append(keys & ((1 << N_SLOTS) - 1))
            index[members] = total + inverse.reshape(spans.shape)
            total += len(keys)
        # One (1, R) batch, or (R, 1) for one-event windows: either way BLAS runs
        # the kernel the per-window path runs, so the rows match it bitwise.
        shape = (1, total) if n > 1 else (total, 1)
        slot_mask = (np.concatenate(row_bits)[:, None] >> np.arange(N_SLOTS)) & 1
        encoded = self.encode_events(
            gather_batch(blocks, shape, slot_mask.reshape(shape + (N_SLOTS,))))
        return take_rows(reshape(encoded, (total, self.config.d)), index)

    def masked_event_row(self, window: Window) -> np.ndarray:
        """h_e (d,) of a fully masked event, one constant row for every event.

        Masking all seven slots puts each slot's learned mask vector in place of
        the event's inputs. The whole ``window`` is encoded masked, not a single
        event: a one-row batch would take numpy's matrix-vector path, whose
        float32 sums differ in the last bits from the matrix-matrix path that
        window batches take.
        """
        masks = np.ones((1, len(window), N_SLOTS))
        with no_grad():
            return self.encode_events(self.batch([window], masks)).data[0, 0]

    def contextualize(self, event_embeddings: Tensor,
                      context_enabled: Optional[bool] = None) -> Tensor:
        """h_cxt rows; with context disabled this is the identity (ablation)."""
        enabled = self.config.context_enabled if context_enabled is None else context_enabled
        if not enabled:
            return event_embeddings
        return contextualize(event_embeddings, self.context_params, self.config)

    def window_tensors(self, windows: Sequence[Window],
                       context_enabled: Optional[bool] = None) -> tuple[Tensor, Tensor]:
        """(contextualized (B, N, d), pooled (B, d)) for a batch of windows.

        Taped (``full`` fine-tuning) and tape-free passes take the same path:
        the event rows come from ``event_rows``.
        """
        ctx = self.contextualize(self.event_rows(windows), context_enabled)
        return ctx, pool_sequence(ctx)

    # -- persistence -----------------------------------------------------

    def meta(self) -> dict:
        cfg = self.config
        return {"config": {
            "d": cfg.d, "heads": cfg.heads, "layers": cfg.layers,
            "harmonics": cfg.harmonics, "seconds_buckets": cfg.seconds_buckets,
            "n_window": cfg.n_window, "context_enabled": cfg.context_enabled,
            "d_text": cfg.text_dim(),
        }}

    def save(self, path: str):
        save_checkpoint(path, list(self.groups.values()), meta=self.meta())

    def load(self, path: str) -> dict:
        return load_into_groups(path, self.groups)

    def state_bytes(self) -> bytes:
        return b"".join(g.state_bytes() for g in self.groups.values())
