"""Dual contrastive self-supervised pretraining.

Phase 1 masks one attribute per selected event and trains the event encoder
with InfoNCE over sequence embeddings (means of raw event embeddings).
Phase 2 freezes the event encoder, masks whole events, and trains the context
encoder on mean-pooled contextualized embeddings. A window and its masked
augmentation form the positive pair; other windows in the batch are negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor, l2_normalize, log_softmax, matmul, no_grad, transpose
from .event_encoder import N_SLOTS
from .ingest import build_sampling_plan
from .model import CONTEXT_GROUP, EVENT_GROUP, Model
from .nn import NumericError, group_grads, adam_step, init_adam
from .context_encoder import pool_sequence
from .segmentation import Window


@dataclass(frozen=True)
class PretrainConfig:
    p_event_select: float = 0.3   # phase 1: P(event gets one masked attribute)
    p_event_mask: float = 0.15    # phase 2: P(event fully masked)
    temperature: float = 0.1
    batch_size: int = 64
    epochs_phase1: int = 3
    epochs_phase2: int = 3
    lr: float = 1e-3
    windows_per_dataset: Optional[int] = None  # None: size of the largest dataset
    symmetric: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("p_event_select", "p_event_mask"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if self.batch_size < 2:
            raise ValueError("contrastive batches need at least 2 windows")
        if self.epochs_phase1 < 0 or self.epochs_phase2 < 0:
            raise ValueError("epoch counts must be nonnegative")


@dataclass(frozen=True)
class MaskedWindow:
    """A window viewed through per-event, per-slot mask flags."""

    window: Window
    mask: np.ndarray  # (N, 7) bool

    def __post_init__(self):
        if self.mask.shape != (len(self.window), N_SLOTS):
            raise ValueError(f"mask shape {self.mask.shape} does not match window")


@dataclass(frozen=True)
class AugmentedPair:
    original: Window
    augmented: MaskedWindow


def augment_mask_attribute(window: Window, p_event_select: float,
                           rng: np.random.Generator) -> AugmentedPair:
    """Mask exactly one uniformly chosen slot of each selected event."""
    n = len(window)
    mask = np.zeros((n, N_SLOTS), dtype=bool)
    selected = rng.random(n) < p_event_select
    slots = rng.integers(0, N_SLOTS, size=n)
    for i in range(n):
        if selected[i]:
            mask[i, slots[i]] = True
    return AugmentedPair(window, MaskedWindow(window, mask))


def augment_mask_event(window: Window, p_event_mask: float,
                       rng: np.random.Generator) -> AugmentedPair:
    """Fully mask each selected event (all seven slots at once)."""
    n = len(window)
    mask = np.zeros((n, N_SLOTS), dtype=bool)
    mask[rng.random(n) < p_event_mask] = True
    return AugmentedPair(window, MaskedWindow(window, mask))


def infonce(anchors: Tensor, positives: Tensor, temperature: float,
            symmetric: bool = True) -> Tensor:
    """InfoNCE over cosine similarities; in-batch negatives.

    anchors/positives are (B, d); row i of each side is a positive pair,
    every other row a negative. ``symmetric`` averages both directions.
    """
    b = anchors.shape[0]
    if b < 2:
        raise ValueError("InfoNCE needs a batch of at least 2 (no negatives otherwise)")
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    a_n = l2_normalize(anchors, axis=-1)
    p_n = l2_normalize(positives, axis=-1)
    sim = matmul(a_n, transpose(p_n, (1, 0))) * (1.0 / temperature)
    diag = (np.arange(b), np.arange(b))
    loss = -(log_softmax(sim, axis=1)[diag].mean())
    if symmetric:
        loss = (loss + -(log_softmax(sim, axis=0)[diag].mean())) * 0.5
    return loss


@dataclass
class LossRecord:
    phase: int
    epoch: int
    step: int
    loss: float


def loss_history_csv(records: Sequence[LossRecord]) -> str:
    lines = ["phase,epoch,step,loss"]
    lines += [f"{r.phase},{r.epoch},{r.step},{r.loss:.8f}" for r in records]
    return "\n".join(lines) + "\n"


@dataclass
class PretrainResult:
    model: Model
    history: list[LossRecord]
    seen_datasets: set[str]


def phase1_loss(model: Model, windows: Sequence[Window], masks: np.ndarray,
                config: PretrainConfig) -> Tensor:
    """InfoNCE between windows and their attribute-masked views (``masks``, (B, N, 7)).

    Both views go through one ``event_rows`` call, so an event the mask leaves
    untouched is encoded once and shared by its anchor and its positive.
    """
    b = len(windows)
    views = np.concatenate([np.zeros_like(masks), masks])
    pooled = model.event_rows(list(windows) * 2, views).mean(axis=1)
    return infonce(pooled[:b], pooled[b:], config.temperature, config.symmetric)


def _batches(draws: list[tuple[str, int]], size: int):
    for lo in range(0, len(draws), size):
        chunk = draws[lo:lo + size]
        if len(chunk) >= 2:
            yield chunk


def pretrain(dataset_windows: dict[str, list[Window]], config: PretrainConfig,
             model: Model) -> PretrainResult:
    """Run both contrastive phases; the event encoder is frozen after phase 1."""
    sizes = {name: len(ws) for name, ws in dataset_windows.items()}
    quota = config.windows_per_dataset or max(sizes.values())
    history: list[LossRecord] = []
    seen: set[str] = set()

    def run_phase(phase: int, epochs: int, step_fn):
        plan = build_sampling_plan(sizes, quota, seed=config.seed * 31 + phase)
        for epoch in range(epochs):
            rng = np.random.default_rng([config.seed, phase, epoch])
            for step, chunk in enumerate(_batches(plan.epoch_draws(epoch),
                                                  config.batch_size)):
                windows = [dataset_windows[name][i] for name, i in chunk]
                seen.update(name for name, _ in chunk)
                loss = step_fn(windows, rng)
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite pretraining loss at phase {phase}, "
                                       f"epoch {epoch}, step {step}")
                history.append(LossRecord(phase, epoch, step, loss))

    # phase 1: attribute-level masking; sequence embedding = mean of raw
    # event embeddings, context encoder excluded
    event_group = model.groups[EVENT_GROUP]
    adam1 = init_adam(event_group.tensors, lr=config.lr)

    def phase1_step(windows, rng):
        pairs = [augment_mask_attribute(w, config.p_event_select, rng) for w in windows]
        masks = np.stack([p.augmented.mask for p in pairs])
        loss = phase1_loss(model, windows, masks, config)
        value = loss.item()
        loss.backward()
        adam_step(event_group.tensors, group_grads(event_group), adam1)
        event_group.zero_grad()
        return value

    run_phase(1, config.epochs_phase1, phase1_step)

    # phase 2: full-event masking; event encoder frozen, gradients reach only
    # the context encoder
    model.set_frozen(EVENT_GROUP, True)
    context_group = model.groups[CONTEXT_GROUP]
    adam2 = init_adam(context_group.tensors, lr=config.lr)

    def phase2_step(windows, rng):
        pairs = [augment_mask_event(w, config.p_event_mask, rng) for w in windows]
        masked = np.stack([p.augmented.mask.all(axis=1) for p in pairs])[:, :, None]
        with no_grad():  # the event encoder is frozen: keep it off the tape
            anchors_in = model.event_rows(windows)
        # a fully masked event encodes to one constant row: no second encoder pass
        positives_in = Tensor(np.where(masked, model.masked_event_row(windows[0]),
                                       anchors_in.data))
        anchors = pool_sequence(model.contextualize(anchors_in, context_enabled=True))
        positives = pool_sequence(model.contextualize(positives_in, context_enabled=True))
        loss = infonce(anchors, positives, config.temperature, config.symmetric)
        value = loss.item()
        loss.backward()
        adam_step(context_group.tensors, group_grads(context_group), adam2)
        context_group.zero_grad()
        return value

    run_phase(2, config.epochs_phase2, phase2_step)
    return PretrainResult(model=model, history=history, seen_datasets=seen)
