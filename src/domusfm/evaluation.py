"""Metrics and the leave-one-dataset-out evaluation harness.

Cross-validation folds are contiguous blocks of the held-out stream, and any
training window sharing events with the test block is purged, so the heavy
window overlap cannot leak test events into training.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .downstream import (
    AdlHead,
    EventMultiset,
    FinetuneSettings,
    NextKHead,
    TrainItem,
    adl_predict,
    batched_pooled,
    expected_counts,
    finetune,
    nextk_target,
)
from .event_encoder import ModelConfig
from .ingest import Dataset
from .model import Model
from .pretraining import PretrainConfig, PretrainResult, pretrain
from .segmentation import Window, check_overlap, segment_events


@dataclass(frozen=True)
class EvalProtocol:
    held_out: str = ""
    train_pcts: tuple = (5.0, 10.0, 15.0, 30.0)
    folds: int = 5
    k_values: tuple = (10, 30)
    seeds: tuple = (0,)

    def __post_init__(self):
        for pct in self.train_pcts:
            if not 0 < pct <= 100:
                raise ValueError(f"train percentage {pct} outside (0, 100]")
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        for k in self.k_values:
            if k < 1:
                raise ValueError("k values must be positive")


@dataclass
class MetricRow:
    dataset: str
    task: str
    pct: float
    fold: int
    seed: int
    metric: str
    value: float


@dataclass
class MetricReport:
    """Per-(fold, seed) metric rows; aggregates are means and use fold=seed=-1."""

    rows: list[MetricRow] = field(default_factory=list)

    def add(self, **kwargs):
        self.rows.append(MetricRow(**kwargs))

    def aggregate(self) -> list[MetricRow]:
        groups: dict[tuple, list[float]] = {}
        for r in self.rows:
            groups.setdefault((r.dataset, r.task, r.pct, r.metric), []).append(r.value)
        return [MetricRow(ds, task, pct, -1, -1, metric, float(np.mean(vals)))
                for (ds, task, pct, metric), vals in sorted(groups.items())]

    def mean(self, task: str, metric: str, pct: Optional[float] = None) -> float:
        vals = [r.value for r in self.rows
                if r.task == task and r.metric == metric
                and (pct is None or r.pct == pct)]
        if not vals:
            raise KeyError(f"no rows for task={task!r} metric={metric!r} pct={pct}")
        return float(np.mean(vals))

    def to_csv(self) -> str:
        lines = ["dataset,task,pct,fold,seed,metric,value"]
        for r in self.rows + self.aggregate():
            lines.append(f"{r.dataset},{r.task},{r.pct:g},{r.fold},{r.seed},"
                         f"{r.metric},{r.value:.6f}")
        return "\n".join(lines) + "\n"


# -- metrics -------------------------------------------------------------------


def _class_scores(predictions: Sequence, labels: Sequence,
                  classes: Sequence) -> list[tuple[str, int, float, float, float]]:
    """(class, support, precision, recall, F1) per class with nonzero support.

    Classes come in the order given; a class with zero precision and recall
    has F1 = 0.
    """
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must have equal length")
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    for pred, true in zip(predictions, labels):
        if pred == true:
            tp[true] += 1
        else:
            fp[pred] += 1
            fn[true] += 1
    out = []
    for c in classes:
        support = tp[c] + fn[c]
        if support == 0:
            continue
        precision = tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] else 0.0
        recall = tp[c] / support
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out.append((c, support, precision, recall, f1))
    return out


def weighted_f1(predictions: Sequence, labels: Sequence, classes: Sequence) -> float:
    """Support-weighted mean of per-class F1 scores.

    Classes absent from the true labels carry zero weight.
    """
    scores = _class_scores(predictions, labels, classes)
    if not labels:
        raise ValueError("cannot score an empty label set")
    total = 0
    weighted = 0.0
    for _, support, _, _, f1 in scores:
        weighted += support * f1
        total += support
    return weighted / total


def per_class_prf(predictions: Sequence, labels: Sequence,
                  classes: Sequence) -> dict[str, tuple[float, float, float]]:
    """(precision, recall, F1) per class with nonzero support."""
    return {c: (p, r, f1) for c, _, p, r, f1 in _class_scores(predictions, labels, classes)}


def multiset_prf(gt: EventMultiset, pred: EventMultiset) -> tuple[float, float, float]:
    """Precision, recall, F1 over multisets: |gt ∩ pred| with min-counts."""
    if gt.total == 0 or pred.total == 0:
        raise ValueError("multiset metrics need nonempty ground truth and prediction")
    inter = gt.intersection_size(pred)
    precision = inter / pred.total
    recall = inter / gt.total
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def subsample_training(windows: Sequence, pct: float, seed: int) -> list:
    """Uniform sample without replacement of round-half-up(pct% of n), min 1."""
    if not 0 < pct <= 100:
        raise ValueError(f"pct {pct} outside (0, 100]")
    n = len(windows)
    m = max(1, int(np.floor(pct / 100.0 * n + 0.5)))
    rng = np.random.default_rng([seed, 0x5A])
    picks = rng.choice(n, size=min(m, n), replace=False)
    return [windows[i] for i in picks]


def kfold_splits(windows: Sequence[Window], folds: int = 5) -> list[tuple[list, list]]:
    """Contiguous time-block folds with overlap purging.

    Windows are blocked in stream order; fold i tests block i, and training
    excludes every window that shares an event index with the test block.
    """
    n = len(windows)
    if n < folds:
        raise ValueError(f"{n} windows cannot form {folds} folds")
    ordered = sorted(windows, key=lambda w: w.start)
    sizes = [n // folds + (1 if i < n % folds else 0) for i in range(folds)]
    bounds = np.cumsum([0] + sizes)
    splits = []
    for i in range(folds):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        test = ordered[lo:hi]
        t_start, t_end = test[0].start, test[-1].end
        train = [w for j, w in enumerate(ordered)
                 if not lo <= j < hi and (w.end < t_start or w.start > t_end)]
        splits.append((train, test))
    return splits


def majority_baseline_f1(train_labels: Sequence[str], test_labels: Sequence[str],
                         classes: Sequence[str]) -> float:
    """Weighted F1 of always predicting the most frequent training label."""
    counts = {c: 0 for c in classes}
    for label in train_labels:
        counts[label] += 1
    majority = max(classes, key=lambda c: counts[c])
    return weighted_f1([majority] * len(test_labels), list(test_labels), classes)


# -- LODO harness ----------------------------------------------------------------


def eligible_adl_items(windows: Sequence[Window], classes: Sequence[str]) -> list[TrainItem]:
    allowed = set(classes)
    return [TrainItem(w, label=w.label) for w in windows if w.label in allowed]


def eligible_nextk_items(windows: Sequence[Window], dataset: Dataset,
                         k: int) -> list[TrainItem]:
    items = []
    for w in windows:
        target = nextk_target(dataset.stream, w.end, k)
        if target is not None:
            items.append(TrainItem(w, target=target))
    return items


def adl_predictions(model: Model, head: AdlHead,
                    items: Sequence[TrainItem]) -> tuple[list, list]:
    picks = adl_predict(batched_pooled(model, [it.window for it in items]), head)[1]
    return [head.classes[i] for i in picks], [it.label for it in items]


def evaluate_nextk(model: Model, head: NextKHead, items: Sequence[TrainItem],
                   k: int) -> tuple[float, float, float]:
    pooled = batched_pooled(model, [it.window for it in items])
    expected = expected_counts(pooled, head).data
    scores = [multiset_prf(item.target, head.decode(row, k))
              for item, row in zip(items, expected)]
    return tuple(float(x) for x in np.asarray(scores).mean(axis=0))


def control_model(model: Model, seed: int) -> Model:
    """Random-init control for ``seed``: ``model``'s architecture, table and stream features."""
    control = Model.init(model.config, model.table, seed=seed + 104729)
    control.features = model.features
    return control


@dataclass
class LodoConfig:
    """Everything a LODO experiment needs besides the datasets."""

    model: ModelConfig
    protocol: EvalProtocol
    pretrain: PretrainConfig
    finetune: FinetuneSettings
    overlap: int = 29
    run_control: bool = True

    def __post_init__(self):
        check_overlap(self.model.n_window, self.overlap)


def lodo_run(datasets: Sequence[Dataset], config: LodoConfig,
             table=None, progress: Optional[Callable[[str], None]] = None) -> MetricReport:
    """Per seed: ``pretrain_backbone``, then ``grid_run`` on the held-out dataset."""
    say = progress or (lambda msg: None)
    held_out, splits = held_out_splits(datasets, config)
    report = MetricReport()
    for seed in config.protocol.seeds:
        result = pretrain_backbone(datasets, config, table, seed)
        say(f"seed {seed}: pretrained on {sorted(result.seen_datasets)}")
        grid_run(report, result.model, held_out, splits, config, seed, say)
    return report


def pretrain_backbone(datasets: Sequence[Dataset], config: LodoConfig,
                      table=None, seed: int = 0) -> PretrainResult:
    """``init_model``, pretrained on every dataset but the held-out one.

    A pretraining dataset too short for one window is a ``ValueError`` naming it.
    """
    held_out = config.protocol.held_out
    windows = {ds.name: segment_events(ds.stream, config.model.n_window,
                                       config.overlap, dataset=ds.name)
               for ds in datasets if ds.name != held_out}
    if not windows:
        raise ValueError(f"no pretraining dataset besides the held-out {held_out!r}")
    empty = [name for name, ws in windows.items() if not ws]
    if empty:
        raise ValueError(f"datasets too short to segment: {empty}")
    model = init_model(datasets, config, table, seed)
    result = pretrain(windows, replace(config.pretrain, seed=seed), model)
    if held_out in result.seen_datasets:
        raise AssertionError("held-out windows leaked into pretraining")
    return result


def init_model(datasets: Sequence[Dataset], config: LodoConfig,
               table=None, seed: int = 0) -> Model:
    """A model initialised with ``seed``; every stream, held-out too, is registered.

    Streams are keyed by dataset name, so a name given twice is a ``ValueError``.
    """
    names = [ds.name for ds in datasets]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"two datasets are named {name!r}; dataset names must be unique")
    model = Model.init(config.model, table, seed=seed)
    for ds in datasets:
        model.add_stream_features(ds.name, ds.stream.events)
    return model


def held_out_splits(datasets: Sequence[Dataset],
                    config: LodoConfig) -> tuple[Dataset, list[tuple[list, list]]]:
    """The held-out dataset and the purged k-fold splits of its windows."""
    by_name = {ds.name: ds for ds in datasets}
    held_out = by_name.get(config.protocol.held_out)
    if held_out is None:
        raise ValueError(f"held-out dataset {config.protocol.held_out!r} not among "
                         f"{list(by_name)}")
    windows = segment_events(held_out.stream, config.model.n_window, config.overlap,
                             dataset=held_out.name)
    return held_out, kfold_splits(windows, config.protocol.folds)


def grid_run(report: MetricReport, model: Model, held_out: Dataset, splits,
             config: LodoConfig, seed: int,
             progress: Optional[Callable[[str], None]] = None):
    """Fine-tune and evaluate ``model`` in every (pct, fold) cell of the protocol.

    A random-init control with the identical architecture and fine-tuning
    (metric suffix ``_control``) runs alongside when ``run_control`` is set.
    """
    say = progress or (lambda msg: None)
    variants = [("", model)]
    if config.run_control:
        variants.append(("_control", control_model(model, seed)))
    for pct in config.protocol.train_pcts:
        for fold, (train_w, test_w) in enumerate(splits):
            for suffix, backbone in variants:
                _run_fold(report, backbone, held_out, train_w, test_w, pct, fold,
                          seed, suffix, config, say)


def _run_fold(report, backbone, held_out, train_w, test_w, pct, fold, seed,
              suffix, config, say):
    protocol = config.protocol
    classes = held_out.activity_set
    settings = replace(config.finetune, seed=seed * 1009 + fold)
    sub_seed = seed * 9176 + fold * 31 + int(pct)

    train_adl = eligible_adl_items(train_w, classes)
    test_adl = eligible_adl_items(test_w, classes)
    if train_adl and test_adl and len(classes) >= 2:
        sub = subsample_training(train_adl, pct, sub_seed)
        model = backbone.copy()
        head = finetune(model, sub, "adl", settings, classes=classes)
        preds, labels = adl_predictions(model, head, test_adl)
        score = weighted_f1(preds, labels, classes)
        report.add(dataset=held_out.name, task="adl", pct=pct, fold=fold, seed=seed,
                   metric=f"weighted_f1{suffix}", value=score)
        for cls, (p, r, f1) in per_class_prf(preds, labels, classes).items():
            for metric, value in (("precision", p), ("recall", r), ("f1", f1)):
                report.add(dataset=held_out.name, task="adl", pct=pct, fold=fold,
                           seed=seed, metric=f"{metric}[{cls}]{suffix}", value=value)
        say(f"  pct={pct} fold={fold} adl{suffix}: {score:.3f}")

    for k in protocol.k_values:
        train_k = eligible_nextk_items(train_w, held_out, k)
        test_k = eligible_nextk_items(test_w, held_out, k)
        if not train_k or not test_k:
            continue
        sub = subsample_training(train_k, pct, sub_seed + k)
        model = backbone.copy()
        head = finetune(model, sub, "nextk", settings,
                        vocabulary=held_out.event_vocabulary())
        p, r, f1 = evaluate_nextk(model, head, test_k, k)
        task = f"next{k}"
        for metric, value in (("precision", p), ("recall", r), ("f1", f1)):
            report.add(dataset=held_out.name, task=task, pct=pct, fold=fold,
                       seed=seed, metric=f"{metric}{suffix}", value=value)
        say(f"  pct={pct} fold={fold} {task}{suffix}: f1={f1:.3f}")
