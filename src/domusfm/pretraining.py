"""Dual contrastive self-supervised pretraining.

Both phases take the same step: draw a masked view of every window, encode
anchors and views in one ``Model.event_rows`` call, score InfoNCE (a window
and its view are the positive pair, other windows in the batch negatives),
check the loss, backpropagate and step Adam over one parameter group. They
differ in three things. Phase 1 masks one attribute per selected event,
pools the raw event rows and trains the event encoder. Phase 2 masks whole
events, keeps the event encoder off the tape, pools the contextualized rows
and trains the context encoder.

The augment functions, ``infonce`` and ``adam_step`` are looked up as module
globals on every call, so instrumentation that rebinds them reaches the loop.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor, cross_entropy, l2_normalize, matmul, no_grad, transpose
from .event_encoder import N_SLOTS
from .ingest import build_sampling_plan
from .model import CONTEXT_GROUP, EVENT_GROUP, Model
from .nn import NumericError, adam_step, check_lr, init_adam
from .context_encoder import pool_sequence
from .segmentation import Window


# The smallest temperature whose reciprocal, the InfoNCE logit scale, is a
# finite float32. Computed in float64, so checking it casts nothing.
MIN_TEMPERATURE = 1.0 / float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class PretrainConfig:
    p_event_select: float = 0.3   # phase 1: P(event gets one masked attribute)
    p_event_mask: float = 0.15    # phase 2: P(event fully masked)
    temperature: float = 0.1
    batch_size: int = 64
    epochs_phase1: int = 3
    epochs_phase2: int = 3
    lr: float = 1e-3
    windows_per_dataset: int = 0  # 0: size of the largest dataset
    seed: int = 0

    def __post_init__(self):
        for name in ("p_event_select", "p_event_mask"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if not (math.isfinite(self.temperature) and self.temperature >= MIN_TEMPERATURE):
            raise ValueError(f"temperature must be a finite number >= {MIN_TEMPERATURE:.3g}, "
                             f"got {self.temperature}")
        if self.batch_size < 2:
            raise ValueError("contrastive batches need at least 2 windows")
        if self.epochs_phase1 < 0 or self.epochs_phase2 < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.windows_per_dataset < 0:
            raise ValueError(f"windows_per_dataset must be >= 0, got {self.windows_per_dataset}")
        check_lr(self.lr)


def augment_mask_attribute(window: Window, p_event_select: float,
                           rng: np.random.Generator) -> np.ndarray:
    """(N, 7) bool mask: exactly one uniformly chosen slot of each selected event."""
    n = len(window)
    mask = np.zeros((n, N_SLOTS), dtype=bool)
    selected = rng.random(n) < p_event_select
    slots = rng.integers(0, N_SLOTS, size=n)
    mask[selected, slots[selected]] = True
    return mask


def augment_mask_event(window: Window, p_event_mask: float,
                       rng: np.random.Generator) -> np.ndarray:
    """(N, 7) bool mask: each selected event fully masked (all seven slots)."""
    n = len(window)
    mask = np.zeros((n, N_SLOTS), dtype=bool)
    mask[rng.random(n) < p_event_mask] = True
    return mask


def infonce(anchors: Tensor, positives: Tensor, temperature: float) -> Tensor:
    """Symmetric InfoNCE over cosine similarities; in-batch negatives.

    anchors/positives are (B, d); row i of each side is a positive pair,
    every other row a negative. The loss averages the cross-entropy of each
    anchor against the positives (rows of the similarity matrix) and of each
    positive against the anchors (its columns); the target is the diagonal.
    """
    b = anchors.shape[0]
    if b < 2:
        raise ValueError("InfoNCE needs a batch of at least 2 (no negatives otherwise)")
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    a_n = l2_normalize(anchors, axis=-1)
    p_n = l2_normalize(positives, axis=-1)
    sim = matmul(a_n, transpose(p_n, (1, 0))) * (1.0 / temperature)
    eye = np.eye(b)
    return (cross_entropy(sim, eye, axis=1) + cross_entropy(sim, eye, axis=0)) * 0.5


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


def contrastive_loss(model: Model, windows: Sequence[Window], phase: int,
                     config: PretrainConfig, rng: np.random.Generator) -> Tensor:
    """InfoNCE between ``windows`` and their masked views in pretraining ``phase``.

    Anchors and views go through one ``event_rows`` call, so an event both
    leave unmasked is encoded once; the module docstring says how phases differ.
    """
    augment, p = ((augment_mask_attribute, config.p_event_select) if phase == 1
                  else (augment_mask_event, config.p_event_mask))
    masks = np.stack([augment(w, p, rng) for w in windows])
    views = np.concatenate([np.zeros_like(masks), masks])
    b = len(windows)
    with nullcontext() if phase == 1 else no_grad():
        rows = model.event_rows(list(windows) * 2, views)
    if phase == 1:
        pooled = pool_sequence(rows)
        anchors, positives = pooled[:b], pooled[b:]
    else:  # one context pass per view keeps the float order of the gradient sums
        anchors, positives = (pool_sequence(model.contextualize(view))
                              for view in (rows[:b], rows[b:]))
    return infonce(anchors, positives, config.temperature)


def _batches(draws: list[tuple[str, int]], size: int):
    for lo in range(0, len(draws), size):
        chunk = draws[lo:lo + size]
        if len(chunk) >= 2:
            yield chunk


def pretrain(dataset_windows: dict[str, list[Window]], config: PretrainConfig,
             model: Model) -> PretrainResult:
    """Run both contrastive phases, each with one Adam state over the group it trains."""
    sizes = {name: len(ws) for name, ws in dataset_windows.items()}
    quota = config.windows_per_dataset or max(sizes.values())
    history: list[LossRecord] = []
    seen: set[str] = set()
    for phase, epochs, group_name in ((1, config.epochs_phase1, EVENT_GROUP),
                                      (2, config.epochs_phase2, CONTEXT_GROUP)):
        groups = [model.groups[group_name]]
        adam = init_adam(groups, lr=config.lr)
        plan = build_sampling_plan(sizes, quota, seed=config.seed * 31 + phase)
        for epoch in range(epochs):
            rng = np.random.default_rng([config.seed, phase, epoch])
            for step, chunk in enumerate(_batches(plan.epoch_draws(epoch),
                                                  config.batch_size)):
                windows = [dataset_windows[name][i] for name, i in chunk]
                seen.update(name for name, _ in chunk)
                loss = contrastive_loss(model, windows, phase, config, rng)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError(f"non-finite pretraining loss at phase {phase}, "
                                       f"epoch {epoch}, step {step}")
                loss.backward()
                adam_step(groups, adam)
                history.append(LossRecord(phase, epoch, step, value))
    return PretrainResult(model=model, history=history, seen_datasets=seen)
