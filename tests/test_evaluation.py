"""Metrics vs brute-force oracles, subsampling, purged k-fold, LODO smoke test."""

import numpy as np
import pytest

from conftest import toy_config
from domusfm import downstream
from domusfm.benchmark import three_home_corpus
from domusfm.downstream import (EventMultiset, adl_predict, batched_pooled, init_adl_head,
                                init_nextk_head, nextk_predict)
from domusfm.embeddings import fallback_table
from domusfm.evaluation import (
    EvalProtocol,
    MetricReport,
    adl_predictions,
    eligible_adl_items,
    eligible_nextk_items,
    evaluate_nextk,
    kfold_splits,
    majority_baseline_f1,
    multiset_prf,
    subsample_training,
    weighted_f1,
)
from domusfm.events import OFF, ON, Event, EventStream, Sensor
from domusfm.model import Model
from domusfm.segmentation import segment_events

SENSOR = Sensor("X", "motion")


# -- independent oracles -------------------------------------------------------


def confusion_matrix_f1_oracle(preds, labels, classes):
    """Weighted F1 straight from an explicit confusion matrix."""
    index = {c: i for i, c in enumerate(classes)}
    m = np.zeros((len(classes), len(classes)))
    for p, t in zip(preds, labels):
        m[index[t], index[p]] += 1
    support = m.sum(axis=1)
    predicted = m.sum(axis=0)
    tp = np.diag(m)
    f1 = np.zeros(len(classes))
    for i in range(len(classes)):
        p = tp[i] / predicted[i] if predicted[i] else 0.0
        r = tp[i] / support[i] if support[i] else 0.0
        f1[i] = 2 * p * r / (p + r) if p + r else 0.0
    mask = support > 0
    return float((f1[mask] * support[mask]).sum() / support[mask].sum())


def greedy_multiset_oracle(gt: EventMultiset, pred: EventMultiset):
    """Expand multisets into sorted lists and greedily match equal items."""
    a = sorted([k for k, c in gt.as_dict().items() for _ in range(c)])
    b = sorted([k for k, c in pred.as_dict().items() for _ in range(c)])
    i = j = matches = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            matches += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    precision = matches / len(b)
    recall = matches / len(a)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def random_multiset(rng, types):
    counts = {}
    for t in types:
        c = int(rng.integers(0, 4))
        if c:
            counts[t] = c
    if not counts:
        counts[types[int(rng.integers(len(types)))]] = 1
    return EventMultiset.from_dict(counts)


class TestWeightedF1:
    def test_perfect(self):
        assert weighted_f1(["a", "b"], ["a", "b"], ["a", "b"]) == 1.0

    def test_hand_confusion(self):
        # P_a=1, R_a=1/2, F1_a=2/3; P_b=1/2, R_b=1, F1_b=2/3 -> weighted 2/3
        value = weighted_f1(["a", "b", "b"], ["a", "a", "b"], ["a", "b"])
        assert abs(value - 2 / 3) < 1e-12

    def test_collapsed_predictor_on_balanced_data(self):
        value = weighted_f1(["a"] * 4, ["a", "a", "b", "b"], ["a", "b"])
        assert abs(value - 1 / 3) < 1e-12

    def test_zero_support_class_excluded(self):
        value = weighted_f1(["a", "a"], ["a", "a"], ["a", "b", "never"])
        assert value == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_f1([], [], ["a"])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_f1(["a"], ["a", "b"], ["a", "b"])

    def test_against_confusion_matrix_oracle(self):
        rng = np.random.default_rng(0)
        classes = ["a", "b", "c", "d"]
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            labels = [classes[i] for i in rng.integers(0, len(classes), size=n)]
            preds = [classes[i] for i in rng.integers(0, len(classes), size=n)]
            mine = weighted_f1(preds, labels, classes)
            oracle = confusion_matrix_f1_oracle(preds, labels, classes)
            assert abs(mine - oracle) < 1e-12


class TestMultisetPRF:
    def test_identical(self):
        ms = EventMultiset.from_dict({("s1", ON): 2, ("s2", OFF): 1})
        assert multiset_prf(ms, ms) == (1.0, 1.0, 1.0)

    def test_hand_example(self):
        gt = EventMultiset.from_dict({("s1", ON): 2, ("s2", OFF): 1})
        pred = EventMultiset.from_dict({("s1", ON): 1, ("s3", ON): 2})
        p, r, f1 = multiset_prf(gt, pred)
        assert abs(p - 1 / 3) < 1e-12
        assert abs(r - 1 / 3) < 1e-12
        assert abs(f1 - 1 / 3) < 1e-12

    def test_disjoint(self):
        gt = EventMultiset.from_dict({("s1", ON): 2})
        pred = EventMultiset.from_dict({("s2", ON): 2})
        assert multiset_prf(gt, pred) == (0.0, 0.0, 0.0)

    def test_empty_rejected(self):
        ms = EventMultiset.from_dict({("s1", ON): 1})
        empty = EventMultiset.from_dict({})
        with pytest.raises(ValueError):
            multiset_prf(empty, ms)
        with pytest.raises(ValueError):
            multiset_prf(ms, empty)

    def test_against_greedy_oracle(self):
        rng = np.random.default_rng(1)
        types = [(f"s{i}", status) for i in range(5) for status in (ON, OFF)]
        for _ in range(1000):
            gt = random_multiset(rng, types)
            pred = random_multiset(rng, types)
            mine = multiset_prf(gt, pred)
            oracle = greedy_multiset_oracle(gt, pred)
            assert all(abs(m - o) < 1e-12 for m, o in zip(mine, oracle))


class TestSubsample:
    def test_full_percentage_keeps_all(self):
        windows = list(range(37))
        out = subsample_training(windows, 100, seed=0)
        assert sorted(out) == windows

    def test_five_percent_of_200(self):
        assert len(subsample_training(list(range(200)), 5, seed=1)) == 10

    def test_round_half_up_minimum_one(self):
        assert len(subsample_training(list(range(9)), 5, seed=2)) == 1  # 0.45 -> 1
        assert len(subsample_training(list(range(10)), 5, seed=2)) == 1  # 0.5 -> 1
        assert len(subsample_training(list(range(30)), 5, seed=2)) == 2  # 1.5 -> 2

    def test_deterministic_and_no_replacement(self):
        a = subsample_training(list(range(50)), 20, seed=3)
        b = subsample_training(list(range(50)), 20, seed=3)
        assert a == b
        assert len(set(a)) == len(a)

    def test_pct_validation(self):
        with pytest.raises(ValueError):
            subsample_training([1], 0, seed=0)


def stride1_windows(total, n):
    events = tuple(Event(t, SENSOR, ON if t % 2 else OFF) for t in range(1, total + 1))
    return segment_events(EventStream(events), n=n, overlap=n - 1)


class TestKFold:
    def test_partition_property(self):
        windows = stride1_windows(104, 5)
        splits = kfold_splits(windows, folds=5)
        seen = []
        for _, test in splits:
            seen.extend(w.start for w in test)
        assert sorted(seen) == [w.start for w in windows]

    def test_purges_overlapping_train_windows(self):
        windows = stride1_windows(104, 5)  # 100 windows
        for train, test in kfold_splits(windows, folds=5):
            lo = test[0].start
            hi = test[-1].end
            assert len(test) == 20
            for w in train:
                assert w.end < lo or w.start > hi

    def test_two_disjoint_windows(self):
        events = tuple(Event(t, SENSOR, ON if t % 2 else OFF) for t in range(1, 5))
        stream = EventStream(events)
        windows = segment_events(stream, n=2, overlap=0)
        splits = kfold_splits(windows, folds=2)
        assert [len(test) for _, test in splits] == [1, 1]
        assert all(len(train) == 1 for train, _ in splits)

    def test_too_few_windows_rejected(self):
        with pytest.raises(ValueError):
            kfold_splits(stride1_windows(6, 5), folds=5)


class TestMajorityBaseline:
    def test_balanced_two_class(self):
        value = majority_baseline_f1(["a", "a", "b"], ["a", "b", "a", "b"], ["a", "b"])
        assert abs(value - 1 / 3) < 1e-12


class TestPerClassPRF:
    def test_hand_confusion(self):
        from domusfm.evaluation import per_class_prf

        out = per_class_prf(["a", "b", "b"], ["a", "a", "b"], ["a", "b", "ghost"])
        assert set(out) == {"a", "b"}  # zero-support class omitted
        p, r, f1 = out["a"]
        assert (p, r) == (1.0, 0.5) and abs(f1 - 2 / 3) < 1e-12
        p, r, f1 = out["b"]
        assert (p, r) == (0.5, 1.0) and abs(f1 - 2 / 3) < 1e-12

    def test_length_mismatch_rejected(self):
        from domusfm.evaluation import per_class_prf

        for score in (per_class_prf, weighted_f1):
            with pytest.raises(ValueError, match="equal length"):
                score(["a", "b"], ["a", "b", "b"], ["a", "b"])

    def test_weighted_f1_is_support_weighted_mean(self):
        from domusfm.evaluation import per_class_prf

        rng = np.random.default_rng(5)
        classes = ["a", "b", "c"]
        labels = [classes[i] for i in rng.integers(0, 3, size=60)]
        preds = [classes[i] for i in rng.integers(0, 3, size=60)]
        per_class = per_class_prf(preds, labels, classes)
        support = {c: labels.count(c) for c in classes}
        manual = sum(per_class[c][2] * support[c] for c in per_class) / len(labels)
        assert abs(manual - weighted_f1(preds, labels, classes)) < 1e-12


class TestMetricReport:
    def test_aggregate_means_and_csv(self):
        report = MetricReport()
        for fold, value in enumerate((0.5, 0.7)):
            report.add(dataset="d", task="adl", pct=5, fold=fold, seed=0,
                       metric="weighted_f1", value=value)
        agg = report.aggregate()
        assert len(agg) == 1
        assert abs(agg[0].value - 0.6) < 1e-12
        csv = report.to_csv()
        assert csv.startswith("dataset,task,pct,fold,seed,metric,value\n")
        assert "d,adl,5,-1,-1,weighted_f1,0.600000" in csv
        assert abs(report.mean("adl", "weighted_f1", 5) - 0.6) < 1e-12

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            EvalProtocol(held_out="x", train_pcts=(0,))
        with pytest.raises(ValueError):
            EvalProtocol(held_out="x", folds=1)
        with pytest.raises(ValueError):
            EvalProtocol(held_out="x", k_values=(0,))


class TestBlockScoring:
    """The harness scores a test block with one head product, not one per window."""

    @pytest.fixture(scope="class")
    def home(self):
        ds = three_home_corpus(days=1, seed=0)[0]
        model = Model.init(toy_config(d=16, n_window=4), fallback_table(16), seed=0)
        model.add_stream_features(ds.name, ds.stream.events)
        windows = segment_events(ds.stream, 4, 3, dataset=ds.name)[:60]
        return ds, model, windows

    @staticmethod
    def count_products(monkeypatch) -> list:
        shapes = []
        original = downstream.linear

        def counting(x, w, b):
            shapes.append(np.shape(getattr(x, "data", x)))
            return original(x, w, b)

        monkeypatch.setattr(downstream, "linear", counting)
        return shapes

    def test_adl_predictions(self, home, monkeypatch):
        ds, model, windows = home
        items = eligible_adl_items(windows, ds.activity_set)
        head = init_adl_head(ds.activity_set, 16, seed=0)
        pooled = batched_pooled(model, [it.window for it in items])
        per_row = [head.classes[adl_predict(row, head)[1]] for row in pooled]
        shapes = self.count_products(monkeypatch)
        preds, labels = adl_predictions(model, head, items)
        assert shapes == [(len(items), 16)]
        assert preds == per_row and labels == [it.label for it in items]

    def test_evaluate_nextk(self, home, monkeypatch):
        ds, model, windows = home
        items = eligible_nextk_items(windows, ds, 5)
        head = init_nextk_head(ds.event_vocabulary(), 16, seed=0)
        pooled = batched_pooled(model, [it.window for it in items])
        per_row = np.mean([multiset_prf(it.target, nextk_predict(row, head, 5))
                           for it, row in zip(items, pooled)], axis=0)
        shapes = self.count_products(monkeypatch)
        scores = evaluate_nextk(model, head, items, 5)
        assert shapes == [(len(items), 16)]
        assert scores == tuple(float(x) for x in per_row)
