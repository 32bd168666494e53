"""Outside-in instrumentation of domusfm.

Nothing under ``src/`` knows about this module. Spans and counters are taken
by rebinding the public functions of the package (module attributes and class
attributes) to thin wrappers for as long as a ``Tracer`` is installed, and
restoring the originals afterwards. Spans are kept in memory and written out
when the benchmark ends.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import statistics
from time import perf_counter

from domusfm import (autodiff, context_encoder, downstream, evaluation, event_encoder,
                     ingest, model, nn, pretraining, segmentation)

# Span fields, kept as lists for cheap in-place closing.
NAME, START, END, PARENT, RUN, PHASE = range(6)


def tape_nodes(loss) -> int:
    """Nodes reachable from ``loss`` through the autodiff tape."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class StepClock:
    """Timestamps the end of every ``Tensor.backward`` call: one per training step.

    It is installed in untraced runs too, since step latency is an end-to-end
    metric; it costs one clock read per step.
    """

    def __init__(self):
        self.marks: list[float] = []
        self._original = None

    def install(self):
        original = self._original = autodiff.Tensor.backward
        marks = self.marks

        @functools.wraps(original)
        def backward(tensor):
            original(tensor)
            marks.append(perf_counter())

        autodiff.Tensor.backward = backward

    def uninstall(self):
        autodiff.Tensor.backward = self._original


class Tracer:
    """Spans (name, start, end, parent, run id, phase) plus per-run counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, collections.Counter] = collections.defaultdict(collections.Counter)
        self.run_id = ""
        self.phase = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._strategy = None

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1):
        self.counts[self.run_id][key] += n

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1,
                          self.run_id, self.phase])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = perf_counter()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def _patch(self, owner, attr, name, before=None, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, before, after))

    # -- hooks at public call boundaries -------------------------------------

    def _set_phase(self, phase):
        def hook(*_args, **_kwargs):
            self.phase = phase
        return hook

    def _pretrain_done(self, *_args, **_kwargs):
        self.phase = ""

    def _batch(self, _model, windows, masks=None):
        # Phase 2 encodes unmasked anchors only for windows its cache misses.
        if masks is None and self.phase == "phase2":
            self.count("pretraining.anchor_cache.encoded", len(windows))

    def _infonce(self, anchors, *_args, **_kwargs):
        if self.phase == "phase2":
            self.count("pretraining.anchor_cache.rows", anchors.shape[0])

    def _encode_batch(self, batch, *_args, **_kwargs):
        b, n = batch.shape
        self.count("event_encoder.rows_encoded", b * n)

    def _backward(self, loss):
        self.count("autodiff.tape_nodes", tape_nodes(loss))

    def _finetune(self, _model, _train_set, _task, settings, *_args, **_kwargs):
        self._strategy = settings.strategy

    def _finetune_done(self, *_args, **_kwargs):
        self._strategy = None

    def _window_tensors(self, _model, windows, *_args, **_kwargs):
        if self._strategy is downstream.FinetuneStrategy.HEAD_ONLY:
            self.count("downstream.rep_cache.encoded", len(windows))

    def _task_loss(self, pooled, *_args, **_kwargs):
        if self._strategy is downstream.FinetuneStrategy.HEAD_ONLY:
            self.count("downstream.rep_cache.rows", pooled.shape[0])

    def _segmented(self, windows, *_args, **_kwargs):
        self.count("segmentation.windows", len(windows))

    def _saved(self, _result, _model, path):
        self.count("checkpoint.bytes", os.path.getsize(path))

    # -- install / uninstall -------------------------------------------------

    def install(self):
        p = self._patch
        Model = model.Model
        p(ingest, "parse_event_csv", "ingest.parse")
        p(segmentation, "segment_events", "segmentation.segment", after=self._segmented)
        p(model, "featurize_events", "event_encoder.featurize")
        p(model, "build_batch", "event_encoder.build_batch")
        p(model, "encode_batch", "event_encoder.forward", before=self._encode_batch)
        p(event_encoder, "multi_head_attention", "event_encoder.attention")
        p(model, "contextualize", "context_encoder.forward")
        p(context_encoder, "multi_head_attention", "context_encoder.attention")
        p(context_encoder, "feed_forward", "context_encoder.ffn")
        p(nn, "gelu", "autodiff.gelu")
        p(autodiff.Tensor, "backward", "autodiff.backward", before=self._backward)
        p(pretraining, "adam_step", "nn.adam")
        p(downstream, "adam_step", "nn.adam")
        p(pretraining, "pretrain", "pretraining.pretrain", before=self._set_phase("phase1"),
          after=self._pretrain_done)
        p(pretraining, "augment_mask_attribute", "pretraining.augment",
          before=self._set_phase("phase1"))
        p(pretraining, "augment_mask_event", "pretraining.augment",
          before=self._set_phase("phase2"))
        p(pretraining, "infonce", "pretraining.infonce", before=self._infonce)
        p(Model, "batch", "model.batch", before=self._batch)
        p(Model, "encode_events", "model.encode_events")
        p(Model, "window_tensors", "model.window_tensors", before=self._window_tensors)
        p(Model, "save", "checkpoint.save", after=self._saved)
        p(Model, "load", "checkpoint.load")
        p(downstream, "finetune", "downstream.finetune", before=self._finetune,
          after=self._finetune_done)
        p(downstream, "adl_loss", "downstream.loss", before=self._task_loss)
        p(downstream, "nextk_loss", "downstream.loss", before=self._task_loss)
        p(downstream, "adl_predict", "downstream.decode")
        p(downstream, "nextk_predict", "downstream.decode")
        p(evaluation, "batched_pooled", "evaluation.batched_pooled")
        p(evaluation, "kfold_splits", "evaluation.kfold")
        p(evaluation, "weighted_f1", "evaluation.metrics")
        p(evaluation, "multiset_prf", "evaluation.metrics")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.phase = ""
        self._strategy = None

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self, run_ids) -> dict:
        """Per (phase, span name): calls, total and self seconds over ``run_ids``."""
        wanted = set(run_ids)
        own = self.self_times()
        table: dict[tuple[str, str], list[float]] = {}
        for i, s in enumerate(self.spans):
            if s[RUN] not in wanted:
                continue
            row = table.setdefault((s[PHASE], s[NAME]), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[END] - s[START]
            row[2] += own[i]
        return table

    def totals(self, run_id: str, phase=None) -> dict[str, float]:
        """Total seconds per span name in one run, optionally one phase only."""
        out: dict[str, float] = collections.defaultdict(float)
        for s in self.spans:
            if s[RUN] == run_id and (phase is None or s[PHASE] == phase):
                out[s[NAME]] += s[END] - s[START]
        return out

    def nested_total(self, run_id: str, name: str, ancestor: str) -> float:
        """Total seconds of ``name`` spans that run somewhere inside an ``ancestor`` span."""
        total = 0.0
        for s in self.spans:
            if s[RUN] != run_id or s[NAME] != name:
                continue
            parent = s[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != ancestor:
                parent = self.spans[parent][PARENT]
            if parent >= 0:
                total += s[END] - s[START]
        return total

    def attributed(self, run_id: str) -> float:
        """Seconds of one run covered by top-level spans."""
        return sum(s[END] - s[START] for s in self.spans
                   if s[RUN] == run_id and s[PARENT] < 0)

    def check_nesting(self) -> list[str]:
        """Problems with span structure: children outside parents, self > total."""
        problems = []
        own = self.self_times()
        for i, s in enumerate(self.spans):
            total = s[END] - s[START]
            if total < 0 or own[i] > total + 1e-9 or own[i] < -1e-6:
                problems.append(f"span {i} {s[NAME]}: total {total:.6f}s self {own[i]:.6f}s")
            if s[PARENT] >= 0:
                p = self.spans[s[PARENT]]
                if s[START] < p[START] or s[END] > p[END] or s[RUN] != p[RUN]:
                    problems.append(f"span {i} {s[NAME]} escapes parent {p[NAME]}")
        return problems

    def write(self, path: str):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT], "run": s[RUN],
                                     "phase": s[PHASE]}) + "\n")


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
