"""Task heads and fine-tuning for ADL recognition and next-k event forecasting.

Both heads consume the mean-pooled window representation, and each head is
one product over any number of pooled rows (..., d): the harness scores a
whole test block at once. Next-k prediction is a bag-of-events problem: the
model scores event types (sensor, status) and regresses expected counts, and
``NextKHead.decode`` turns one row of them into an integer multiset of total
k by largest-remainder apportionment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor, cross_entropy, no_grad, softplus, tensor_mean
from .events import EventStream
from .model import Model
from .nn import NumericError, ParamGroup, adam_step, check_lr, init_adam, init_linear, linear
from .segmentation import Window

ADL_GROUP = "adl_head"
NEXTK_GROUP = "nextk_head"


class FinetuneStrategy(str, Enum):
    """How much of the network the downstream task may move."""

    HEAD_ONLY = "head_only"
    FULL = "full"


@dataclass(frozen=True)
class EventMultiset:
    """Counts over (sensor_id, status) pairs."""

    counts: tuple[tuple[tuple[str, str], int], ...]

    @staticmethod
    def from_dict(mapping: dict[tuple[str, str], int]) -> "EventMultiset":
        for key, count in mapping.items():
            if count < 0:
                raise ValueError(f"multiset count for {key} must be nonnegative")
        return EventMultiset(tuple(sorted((k, int(v))
                                          for k, v in mapping.items() if v > 0)))

    @staticmethod
    def from_events(events) -> "EventMultiset":
        counts: dict[tuple[str, str], int] = {}
        for e in events:
            key = (e.sensor.id, e.status)
            counts[key] = counts.get(key, 0) + 1
        return EventMultiset.from_dict(counts)

    def as_dict(self) -> dict[tuple[str, str], int]:
        return dict(self.counts)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def intersection_size(self, other: "EventMultiset") -> int:
        mine, theirs = self.as_dict(), other.as_dict()
        return sum(min(c, theirs.get(k, 0)) for k, c in mine.items())


@dataclass
class AdlHead:
    classes: tuple[str, ...]
    params: ParamGroup

    def __post_init__(self):
        if len(self.classes) < 2:
            raise ValueError("ADL head needs at least 2 classes")


@dataclass
class NextKHead:
    vocabulary: tuple[tuple[str, str], ...]  # (sensor_id, status) event types
    params: ParamGroup

    def __post_init__(self):
        if not self.vocabulary:
            raise ValueError("next-k head needs a nonempty event-type vocabulary")

    def decode(self, expected: np.ndarray, k: int) -> EventMultiset:
        """The exact-total-k multiset of one (V,) row of expected counts."""
        counts = largest_remainder(expected, k).tolist()
        return EventMultiset.from_dict({t: c for t, c in zip(self.vocabulary, counts) if c})


def init_adl_head(classes: Sequence[str], d: int, seed: int = 0) -> AdlHead:
    group = ParamGroup(ADL_GROUP)
    init_linear(group, "out", d, len(classes), np.random.default_rng([seed, 0xAD]))
    return AdlHead(tuple(classes), group)


def init_nextk_head(vocabulary: Sequence[tuple[str, str]], d: int,
                    seed: int = 0) -> NextKHead:
    group = ParamGroup(NEXTK_GROUP)
    rng = np.random.default_rng([seed, 0x9E])
    init_linear(group, "types", d, len(vocabulary), rng)
    init_linear(group, "counts", d, len(vocabulary), rng)
    return NextKHead(tuple((s, st) for s, st in vocabulary), group)


# -- prediction ----------------------------------------------------------------


def adl_logits(pooled, head: AdlHead) -> Tensor:
    return linear(pooled, head.params["out.w"], head.params["out.b"])


def adl_predict(pooled, head: AdlHead) -> tuple[np.ndarray, np.ndarray]:
    """(logits, argmax class index) of each pooled row of (..., d), in one product.

    Ties break toward the lowest index.
    """
    logits = adl_logits(pooled, head).data
    return logits, np.argmax(logits, axis=-1)


def expected_counts(pooled, head: NextKHead) -> Tensor:
    """Nonnegative expected per-type counts (softplus of the counts head)."""
    return softplus(linear(pooled, head.params["counts.w"], head.params["counts.b"]))


def largest_remainder(expected: np.ndarray, k: int) -> np.ndarray:
    """Integer apportionment of k items proportional to nonnegative scores.

    Floors first; the remaining mass goes to the largest fractional
    remainders, ties broken by lower index. All-zero scores fall back to
    uniform apportionment.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    expected = np.asarray(expected, dtype=np.float64)
    if expected.ndim != 1:
        raise ValueError("expected counts must be a vector")
    total = expected.sum()
    if total <= 0.0:
        expected = np.ones_like(expected)
        total = expected.sum()
    scaled = expected * (k / total)
    floors = np.floor(scaled).astype(np.int64)
    remaining = k - int(floors.sum())
    if remaining > 0:
        remainders = scaled - floors
        # sort by (-remainder, index): stable argsort on negated remainders
        order = np.argsort(-remainders, kind="stable")
        floors[order[:remaining]] += 1
    return floors


def nextk_predict(row, head: NextKHead, k: int) -> EventMultiset:
    """Decode an exact-total-k multiset from the counts head for one (d,) row."""
    return head.decode(expected_counts(row, head).data, k)


def nextk_target(stream: EventStream, window_end_index: int, k: int) -> Optional[EventMultiset]:
    """Multiset of the k events following the window's last event.

    Returns None when fewer than k events follow (the window is excluded
    from next-k training and evaluation).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    following = stream.events[window_end_index + 1: window_end_index + 1 + k]
    if len(following) < k:
        return None
    return EventMultiset.from_events(following)


# -- fine-tuning ----------------------------------------------------------------


@dataclass
class FinetuneSettings:
    strategy: FinetuneStrategy = FinetuneStrategy.FULL
    epochs: int = 10
    batch_size: int = 64
    lr: float = 1e-3
    count_loss_weight: float = 1.0  # lambda on the count MSE term
    seed: int = 0

    def __post_init__(self):
        try:
            self.strategy = FinetuneStrategy(self.strategy)
        except ValueError:
            choices = ", ".join(s.value for s in FinetuneStrategy)
            raise ValueError(f"strategy: expected one of {choices}, "
                             f"got {self.strategy!r}") from None
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError(f"need epochs >= 0 and batch_size >= 1, got "
                             f"epochs={self.epochs}, batch_size={self.batch_size}")
        check_lr(self.lr)
        if not (math.isfinite(self.count_loss_weight) and self.count_loss_weight >= 0.0):
            raise ValueError(f"count_loss_weight must be a finite number >= 0, "
                             f"got {self.count_loss_weight}")


@dataclass
class TrainItem:
    """One supervised example: a window plus its task target."""

    window: Window
    label: Optional[str] = None
    target: Optional[EventMultiset] = None


def adl_loss(pooled: Tensor, label_ids: np.ndarray, head: AdlHead) -> Tensor:
    return cross_entropy(adl_logits(pooled, head), np.eye(len(head.classes))[label_ids])


def nextk_loss(pooled: Tensor, target_counts: np.ndarray, head: NextKHead,
               count_loss_weight: float) -> Tensor:
    """Type cross-entropy against normalized counts plus count MSE."""
    k_totals = target_counts.sum(axis=1, keepdims=True)
    type_dist = target_counts / np.maximum(k_totals, 1.0)
    ce = cross_entropy(linear(pooled, head.params["types.w"], head.params["types.b"]),
                       type_dist)
    r = expected_counts(pooled, head) - Tensor(target_counts)
    return ce + tensor_mean(r * r) * count_loss_weight


def batched_pooled(model: Model, windows: Sequence[Window], chunk: int = 256) -> np.ndarray:
    """Pooled representations for many windows, forward-only."""
    outputs = []
    with no_grad():
        for lo in range(0, len(windows), chunk):
            _, pooled = model.window_tensors(windows[lo:lo + chunk])
            outputs.append(pooled.data)
    return np.concatenate(outputs, axis=0)


def finetune(model: Model, train_set: Sequence[TrainItem], task: str,
             settings: FinetuneSettings,
             classes: Optional[Sequence[str]] = None,
             vocabulary: Optional[Sequence[tuple[str, str]]] = None):
    """Train a new task head (and with FULL the backbone) on labeled windows.

    The head, the targets, the groups Adam steps and, for HEAD_ONLY, the pooled
    features of every window are set up once; each step then picks its rows.
    Returns the trained head. HEAD_ONLY leaves the encoder groups bit-identical.
    """
    if not train_set:
        raise ValueError("empty training set")
    if task == "adl":
        if classes is None:
            raise ValueError("ADL fine-tuning needs the class list")
        head = init_adl_head(classes, model.config.d, seed=settings.seed)
        class_index = {c: i for i, c in enumerate(head.classes)}
        for item in train_set:
            if item.label is None or item.label not in class_index:
                raise ValueError(f"window label {item.label!r} not in class list")
        targets = np.array([class_index[item.label] for item in train_set])

        def task_loss(pooled, rows):
            return adl_loss(pooled, targets[rows], head)
    elif task == "nextk":
        if vocabulary is None:
            raise ValueError("next-k fine-tuning needs the event-type vocabulary")
        head = init_nextk_head(vocabulary, model.config.d, seed=settings.seed)
        type_index = {t: i for i, t in enumerate(head.vocabulary)}
        targets = np.zeros((len(train_set), len(type_index)))
        for i, item in enumerate(train_set):
            if item.target is None:
                raise ValueError("next-k fine-tuning needs a target multiset per window")
            for etype, count in item.target.as_dict().items():
                if etype not in type_index:
                    raise ValueError(f"event type {etype} not in head vocabulary")
                targets[i, type_index[etype]] = count

        def task_loss(pooled, rows):
            return nextk_loss(pooled, targets[rows], head, settings.count_loss_weight)
    else:
        raise ValueError(f"unknown task {task!r}")

    for group in model.groups.values():  # no stale gradient trains or lingers
        group.zero_grad()
    windows = [item.window for item in train_set]
    head_only = settings.strategy == FinetuneStrategy.HEAD_ONLY
    trainable = [head.params] if head_only else \
        [model.event_params, model.context_params, head.params]
    features = batched_pooled(model, windows, settings.batch_size) if head_only else None
    adam = init_adam(trainable, lr=settings.lr)

    rng = np.random.default_rng([settings.seed, 0xF1])
    for epoch in range(settings.epochs):
        order = rng.permutation(len(windows))
        for lo in range(0, len(windows), settings.batch_size):
            rows = order[lo:lo + settings.batch_size]
            if head_only:
                pooled = Tensor(features[rows])
            else:
                _, pooled = model.window_tensors([windows[i] for i in rows])
            loss = task_loss(pooled, rows)
            if not np.isfinite(loss.data).all():
                raise NumericError(f"non-finite fine-tuning loss at epoch {epoch}")
            loss.backward()
            adam_step(trainable, adam)
    return head
