"""The three benchmark workloads: pretrain, finetune and inference.

Each workload is a single caller in one process (a closed loop: the next
operation starts when the previous one returns) and calls only public
functions of domusfm. Calls go through module attributes (``ingest.parse_event_csv``
rather than a bound name) so that the tracer's rebinding reaches them.

A workload has three parts:
- ``inputs(seed)``: the canonical event-CSV bytes the program is given;
- ``setup(...)``: parse, segment, build the model and heads, warm up;
- ``run_once(state, clock)``: the timed operation, repeated for the run length.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from domusfm import (benchmark, downstream, evaluation, ingest, model, pretraining,
                     segmentation)
from domusfm.downstream import FinetuneSettings, FinetuneStrategy
from domusfm.event_encoder import ModelConfig

# The desk configuration every workload uses.
CONFIG = ModelConfig(d=64, heads=4, layers=2, n_window=30)
OVERLAP = 29
BATCH = 64
K = 30
MODEL_SEED = 0
CONTROL_SEED = MODEL_SEED + 104729
INFERENCE_CHUNK = BATCH
PROBE_STRIDE = 5  # the probe scores every fifth window of its stream


@dataclass(frozen=True)
class Size:
    home_days: int           # each pretraining / held-out home
    pretrain_windows: int    # windows drawn per home per phase, pretrain workload
    checkpoint_windows: int  # the same, for the set-up pretraining behind a checkpoint
    folds: int
    pcts: tuple              # small and large training share of the finetune grid
    finetune_epochs: int     # grid cells: ADL `full` and next-K `head_only`
    head_epochs: int         # head-only fits of the probe and of the inference heads
    inference_days: int      # the long unseen home


SIZES = {
    "desk": Size(home_days=4, pretrain_windows=128, checkpoint_windows=64, folds=2,
                 pcts=(10, 30), finetune_epochs=3, head_epochs=30, inference_days=40),
    "tiny": Size(home_days=2, pretrain_windows=32, checkpoint_windows=32, folds=2,
                 pcts=(10, 30), finetune_epochs=1, head_epochs=2, inference_days=3),
}


@dataclass
class Repeat:
    """One timed operation and what it produced."""

    wall_s: float
    windows: int
    step_s: list[float]
    attempted: int
    failed: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    phase_rates: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    model: Optional[model.Model] = None


# -- shared pieces ---------------------------------------------------------------


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def homes(seed: int, size: Size) -> dict[str, bytes]:
    """home1/home2 (pretraining) and home3 (held out), as event-CSV bytes."""
    return {ds.name: ingest.write_event_csv(ds)
            for ds in benchmark.three_home_corpus(days=size.home_days, seed=seed)}


def parse_all(blobs: dict[str, bytes]) -> dict[str, ingest.Dataset]:
    return {name: ingest.parse_event_csv(blob, name) for name, blob in blobs.items()}


def segment_all(datasets) -> dict[str, list]:
    return {name: segmentation.segment_events(ds.stream, CONFIG.n_window, OVERLAP,
                                              dataset=name)
            for name, ds in datasets.items()}


def base_model(datasets) -> model.Model:
    m = model.Model.init(CONFIG, seed=MODEL_SEED)
    for name, ds in datasets.items():
        m.add_stream_features(name, ds.stream.events)
    return m


def pretrain_config(windows_per_dataset: int, seed: int) -> pretraining.PretrainConfig:
    return pretraining.PretrainConfig(batch_size=BATCH, epochs_phase1=1, epochs_phase2=1,
                                      windows_per_dataset=windows_per_dataset, seed=seed)


def loss_guards(history) -> dict[str, float]:
    """Mean loss over each phase's steps."""
    out = {}
    for phase in (1, 2):
        losses = [r.loss for r in history if r.phase == phase]
        out[f"loss.phase{phase}_final"] = float(np.mean(losses))
    return out


def check_losses(history) -> list[str]:
    return [f"non-finite loss at phase {r.phase} step {r.step}"
            for r in history if not np.isfinite(r.loss)]


def step_intervals(clock, t0: float, first_mark: int) -> list[float]:
    """Seconds between consecutive step ends since ``t0``; one per training step."""
    marks = clock.marks[first_mark:]
    return list(np.diff([t0] + marks)) if marks else []


@dataclass
class Scored:
    """Predictions of both heads on test windows, and their scores."""

    adl_f1: float
    next30_f1: float
    adl_pred: np.ndarray    # class index per test window
    next_counts: np.ndarray  # (windows, vocabulary) predicted counts
    problems: list[str]


def bad_multisets(preds, head) -> list[str]:
    """Next-K predictions that are not multisets of total exactly K over the vocabulary."""
    vocab = set(head.vocabulary)
    bad = [p for p in preds if p.total != K or not set(p.as_dict()) <= vocab]
    return [f"{len(bad)} next-{K} predictions not of total {K} over the head vocabulary"] \
        if bad else []


def finish_scoring(adl_pred, next_preds, labels, targets, adl_head, nextk_head,
                   problems) -> Scored:
    classes = adl_head.classes
    if any(not 0 <= i < len(classes) for i in adl_pred):
        problems.append("ADL prediction outside the class set")
    scored = [(classes[p], y) for p, y in zip(adl_pred, labels) if y is not None]
    adl_f1 = evaluation.weighted_f1([p for p, _ in scored], [y for _, y in scored],
                                    classes)
    f1s = [evaluation.multiset_prf(t, p)[2] for p, t in zip(next_preds, targets)
           if t is not None]
    next30_f1 = float(np.mean(f1s))
    for name, value in (("adl_f1", adl_f1), ("next30_f1", next30_f1)):
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} = {value} outside [0, 1]")
    index = {t: i for i, t in enumerate(nextk_head.vocabulary)}
    counts = np.zeros((len(next_preds), len(index)), dtype=np.int64)
    for row, pred in enumerate(next_preds):
        for etype, c in pred.counts:
            counts[row, index[etype]] = c
    return Scored(adl_f1, next30_f1, np.asarray(adl_pred, dtype=np.int64), counts, problems)


def fit_heads(backbone, dataset, train_w, pct: int, seed: int, epochs: int,
              adl_strategy: FinetuneStrategy, steps: Optional[list] = None, clock=None):
    """ADL head (``adl_strategy``) and next-K head (head-only) on a training share.

    Returns the model each head was fitted with, since ``full`` moves the backbone,
    and the training windows seen. With a clock, appends each step's seconds to ``steps``.
    """
    classes = dataset.activity_set
    adl_items = evaluation.subsample_training(
        evaluation.eligible_adl_items(train_w, classes), pct, seed)
    next_items = evaluation.subsample_training(
        evaluation.eligible_nextk_items(train_w, dataset, K), pct, seed + K)
    fitted = []
    for task, items, strategy, extra in (
            ("adl", adl_items, adl_strategy, {"classes": classes}),
            ("nextk", next_items, FinetuneStrategy.HEAD_ONLY,
             {"vocabulary": dataset.event_vocabulary()})):
        m = backbone.copy()
        first = len(clock.marks) if clock else 0
        t0 = perf_counter()
        head = downstream.finetune(
            m, items, task, FinetuneSettings(strategy=strategy, epochs=epochs,
                                             batch_size=BATCH, seed=seed), **extra)
        if clock:
            steps += step_intervals(clock, t0, first)
        fitted.append((m, head))
    return fitted[0], fitted[1], (len(adl_items) + len(next_items)) * epochs


def truth(dataset, windows):
    classes = set(dataset.activity_set)
    labels = [w.label if w.label in classes else None for w in windows]
    targets = [downstream.nextk_target(dataset.stream, w.end, K) for w in windows]
    return labels, targets


def cell(backbone, dataset, train_w, test_w, pct, seed, epochs, adl_strategy,
         steps=None, clock=None):
    """Fit both heads on a training share and score them on a test block."""
    (adl_model, adl_head), (next_model, nextk_head), trained = fit_heads(
        backbone, dataset, train_w, pct, seed, epochs, adl_strategy, steps, clock)
    labels, targets = truth(dataset, test_w)
    adl_windows = [w for w, y in zip(test_w, labels) if y is not None]
    pooled = evaluation.batched_pooled(adl_model, adl_windows)
    adl_pred = [downstream.adl_predict(row, adl_head)[1] for row in pooled]
    next_windows = [w for w, t in zip(test_w, targets) if t is not None]
    pooled = evaluation.batched_pooled(next_model, next_windows)
    next_pred = [downstream.nextk_predict(row, nextk_head, K) for row in pooled]
    scored = finish_scoring(adl_pred, next_pred, [y for y in labels if y is not None],
                            [t for t in targets if t is not None], adl_head, nextk_head,
                            bad_multisets(next_pred, nextk_head))
    return scored, trained + len(adl_windows) + len(next_windows)


def score_stream(m, ds, windows, adl_head, nextk_head):
    """Both heads over every window in batches, scored against the stream's truth.

    Returns (scores or None when a batch failed, seconds per batch, batches
    attempted, batches failed, problems).
    """
    labels, targets = truth(ds, windows)
    steps, adl_pred, next_pred, problems = [], [], [], []
    attempted = failed = 0
    for lo in range(0, len(windows), INFERENCE_CHUNK):
        attempted += 1
        t = perf_counter()
        try:
            pooled = evaluation.batched_pooled(m, windows[lo:lo + INFERENCE_CHUNK])
            chunk_adl = [downstream.adl_predict(row, adl_head)[1] for row in pooled]
            chunk_next = [downstream.nextk_predict(row, nextk_head, K) for row in pooled]
        except Exception as exc:  # a failed batch is counted, not fatal
            failed += 1
            problems.append(f"batch at window {lo} raised {exc!r}")
            continue
        steps.append(perf_counter() - t)
        bad = bad_multisets(chunk_next, nextk_head)
        if bad:
            failed += 1
            problems += [f"batch at window {lo}: {msg}" for msg in bad]
        adl_pred += chunk_adl
        next_pred += chunk_next
    if failed:
        return None, steps, attempted, failed, problems
    scored = finish_scoring(adl_pred, next_pred, labels, targets, adl_head, nextk_head,
                            problems)
    if scored.problems:
        failed = attempted
    return scored, steps, attempted, failed, problems


def long_home(layout: str, days: int, seed: int) -> bytes:
    """A longer stream of one of the fixture layouts (same sensor ids), as CSV bytes."""
    return ingest.write_event_csv(ingest.generate_synthetic_corpus(
        benchmark.home_spec(layout, days=days, seed=seed)))


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


# -- workloads -------------------------------------------------------------------


class Pretrain:
    """Both contrastive phases over home1+home2 for a fixed step count, then save."""

    name = "pretrain"

    def __init__(self, size: Size, seed: int, workdir: str):
        self.size, self.seed, self.workdir = size, seed, workdir

    def inputs(self, seed: int) -> dict[str, bytes]:
        blobs = homes(seed, self.size)
        return {"home1": blobs["home1"], "home2": blobs["home2"],
                "probe": long_home("home1", self.size.inference_days // 2, seed + 10)}

    def setup(self):
        blobs = self.inputs(self.seed)
        probe_blob = blobs.pop("probe")
        datasets = parse_all(blobs)
        windows = segment_all(datasets)
        base = base_model(datasets)
        # warm-up: one step per phase on a throwaway copy
        pretraining.pretrain(windows, pretrain_config(BATCH // 2, self.seed), base.copy())
        return {"windows": windows, "base": base, "datasets": datasets,
                "probe_blob": probe_blob}

    def run_once(self, state, clock) -> Repeat:
        m = state["base"].copy()
        cfg = pretrain_config(self.size.pretrain_windows, self.seed)
        path = os.path.join(self.workdir, "pretrain.ckpt")
        steps_planned = 2 * len(state["windows"]) * self.size.pretrain_windows // BATCH
        first = len(clock.marks)
        t0 = perf_counter()
        try:
            result = pretraining.pretrain(state["windows"], cfg, m)
            m.save(path)
        except Exception as exc:  # a failed step is counted, not fatal
            return Repeat(perf_counter() - t0, 0, [], steps_planned, steps_planned,
                          problems=[f"pretrain raised {exc!r}"])
        wall = perf_counter() - t0
        steps = step_intervals(clock, t0, first)
        history = result.history
        n1 = sum(1 for r in history if r.phase == 1)
        windows_per_phase = len(state["windows"]) * self.size.pretrain_windows
        rep = Repeat(wall, 2 * windows_per_phase, steps, steps_planned)
        rep.phase_rates = {"phase1_windows_per_s": windows_per_phase / sum(steps[:n1]),
                           "phase2_windows_per_s": windows_per_phase / sum(steps[n1:])}
        rep.problems = check_losses(history)
        if len(history) != steps_planned:
            rep.problems.append(f"{len(history)} steps run, {steps_planned} planned")
        rep.failed = steps_planned if rep.problems else 0
        rep.quality = loss_guards(history)
        with open(path, "rb") as fh:
            checkpoint = fh.read()
        rep.digest = digest(pretraining.loss_history_csv(history).encode(), checkpoint)
        rep.model = m
        return rep

    def probe(self, state, rep: Repeat) -> Scored:
        """The F1 quality guards: heads fitted head-only on home1 with the pretrained
        encoder, scored on every ``PROBE_STRIDE``-th window of a longer home1 stream."""
        (_, adl_head), (_, nextk_head), _ = fit_heads(
            rep.model, state["datasets"]["home1"], state["windows"]["home1"], 100,
            self.seed, self.size.head_epochs, FinetuneStrategy.HEAD_ONLY)
        ds = ingest.parse_event_csv(state["probe_blob"], "probe")
        m = model.Model(rep.model.config, rep.model.table, rep.model.groups)
        m.add_stream_features(ds.name, ds.stream.events)
        windows = segmentation.segment_events(ds.stream, CONFIG.n_window, OVERLAP,
                                              dataset=ds.name)[::PROBE_STRIDE]
        scored, _, _, _, problems = score_stream(m, ds, windows, adl_head, nextk_head)
        if scored is None:
            raise RuntimeError(f"probe scoring failed: {problems}")
        return scored


def checkpoint_setup(size: Size, seed: int, datasets, windows, path: str):
    """Pretrain briefly on home1+home2 and save: the checkpoint downstream work starts from."""
    base = base_model(datasets)
    pretrain_windows = {name: windows[name] for name in ("home1", "home2")}
    result = pretraining.pretrain(pretrain_windows,
                                  pretrain_config(size.checkpoint_windows, seed), base)
    base.save(path)
    return base, result.history


class Finetune:
    """LODO grid on held-out home3 from a checkpoint: {pcts} x folds x {pretrained, control}."""

    name = "finetune"

    def __init__(self, size: Size, seed: int, workdir: str):
        self.size, self.seed, self.workdir = size, seed, workdir
        self.path = os.path.join(workdir, "finetune.ckpt")

    def inputs(self, seed: int) -> dict[str, bytes]:
        return homes(seed, self.size)

    def setup(self):
        datasets = parse_all(self.inputs(self.seed))
        windows = segment_all(datasets)
        base, history = checkpoint_setup(self.size, self.seed, datasets, windows, self.path)
        # warm-up: the smallest cell once, on the first fold
        train_w, test_w = evaluation.kfold_splits(windows["home3"], self.size.folds)[0]
        cell(base, datasets["home3"], train_w, test_w[:BATCH], self.size.pcts[0],
             self.seed, 1, FinetuneStrategy.FULL)
        return {"datasets": datasets, "windows": windows, "features": base.features,
                "history": history}

    def run_once(self, state, clock) -> Repeat:
        held_out = state["datasets"]["home3"]
        size = self.size
        t0 = perf_counter()
        pretrained = model.Model.init(CONFIG, seed=MODEL_SEED)
        pretrained.features = state["features"]
        pretrained.load(self.path)
        control = model.Model.init(CONFIG, seed=CONTROL_SEED)
        control.features = state["features"]
        splits = evaluation.kfold_splits(state["windows"]["home3"], size.folds)
        report = evaluation.MetricReport()
        outputs, problems, steps, windows = [], [], [], 0
        attempted = failed = 0
        adl, nxt = [], []
        for pct in size.pcts:
            for fold, (train_w, test_w) in enumerate(splits):
                for suffix, backbone in (("", pretrained), ("_control", control)):
                    attempted += 1
                    seed = self.seed * 1009 + fold * 31 + pct
                    try:
                        scored, n = cell(backbone, held_out, train_w, test_w, pct, seed,
                                         size.finetune_epochs, FinetuneStrategy.FULL,
                                         steps, clock)
                    except Exception as exc:  # a failed cell is counted, not fatal
                        failed += 1
                        problems.append(f"cell pct={pct} fold={fold}{suffix} raised {exc!r}")
                        continue
                    windows += n
                    if scored.problems:
                        failed += 1
                        problems += scored.problems
                    for task, value in (("adl", scored.adl_f1), ("next30", scored.next30_f1)):
                        report.add(dataset=held_out.name, task=task, pct=pct, fold=fold,
                                   seed=self.seed, metric=f"f1{suffix}", value=value)
                    if not suffix:
                        adl.append(scored.adl_f1)
                        nxt.append(scored.next30_f1)
                    outputs += [scored.adl_pred.tobytes(), scored.next_counts.tobytes()]
        wall = perf_counter() - t0
        rep = Repeat(wall, windows, steps, attempted, failed, problems=problems)
        rep.quality = {**loss_guards(state["history"]),
                       "adl_f1": float(np.mean(adl)) if adl else float("nan"),
                       "next30_f1": float(np.mean(nxt)) if nxt else float("nan")}
        rep.digest = digest(report.to_csv().encode(), *outputs)
        return rep


class Inference:
    """Forward-only scoring of one long unseen home, from its raw CSV bytes."""

    name = "inference"

    def __init__(self, size: Size, seed: int, workdir: str):
        self.size, self.seed, self.workdir = size, seed, workdir

    def inputs(self, seed: int) -> dict[str, bytes]:
        blobs = homes(seed, self.size)
        # same layout (and sensor ids) as home3, ten times as long, unseen by training
        blobs["home4"] = long_home("home3", self.size.inference_days, seed + 3)
        return blobs

    def setup(self):
        blobs = self.inputs(self.seed)
        long_blob = blobs.pop("home4")
        datasets = parse_all(blobs)
        windows = segment_all(datasets)
        path = os.path.join(self.workdir, "inference.ckpt")
        base, history = checkpoint_setup(self.size, self.seed, datasets, windows, path)
        (_, adl_head), (_, nextk_head), _ = fit_heads(
            base, datasets["home3"], windows["home3"], 100, self.seed,
            self.size.head_epochs, FinetuneStrategy.HEAD_ONLY)
        # warm-up: one scoring chunk of the labelled home
        for row in evaluation.batched_pooled(base, windows["home3"][:INFERENCE_CHUNK]):
            downstream.adl_predict(row, adl_head)
            downstream.nextk_predict(row, nextk_head, K)
        return {"blob": long_blob, "base": base, "adl_head": adl_head,
                "nextk_head": nextk_head, "history": history}

    def run_once(self, state, clock) -> Repeat:
        base = state["base"]
        t0 = perf_counter()
        try:
            ds = ingest.parse_event_csv(state["blob"], "home4")
            m = model.Model(base.config, base.table, base.groups)
            m.add_stream_features(ds.name, ds.stream.events)
            windows = segmentation.segment_events(ds.stream, CONFIG.n_window, OVERLAP,
                                                  dataset=ds.name)
        except Exception as exc:  # nothing to score: one failed operation
            return Repeat(perf_counter() - t0, 0, [], 1, 1,
                          problems=[f"ingest raised {exc!r}"])
        scored, steps, attempted, failed, problems = score_stream(
            m, ds, windows, state["adl_head"], state["nextk_head"])
        rep = Repeat(perf_counter() - t0, len(windows), steps, attempted, failed,
                     problems=problems)
        if scored is not None:
            rep.quality = {**loss_guards(state["history"]), "adl_f1": scored.adl_f1,
                           "next30_f1": scored.next30_f1}
            rep.digest = digest(scored.adl_pred.tobytes(), scored.next_counts.tobytes())
        return rep


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, Inference)}
