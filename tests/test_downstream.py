"""Task heads: prediction decoding, targets, and fine-tuning freeze semantics."""

import numpy as np
import pytest

from conftest import toy_config, toy_window
from domusfm.autodiff import Tensor
from domusfm.downstream import (
    EventMultiset,
    FinetuneSettings,
    FinetuneStrategy,
    TrainItem,
    adl_predict,
    finetune,
    init_adl_head,
    init_nextk_head,
    largest_remainder,
    nextk_predict,
    nextk_target,
)
from domusfm.embeddings import fallback_table
from domusfm.events import OFF, ON, Event, EventStream, Sensor
from domusfm.model import CONTEXT_GROUP, EVENT_GROUP, Model
from domusfm.nn import linear
from domusfm.segmentation import Window

SEEDS = (0, 1, 2)
A = Sensor("A", "motion")


class TestEventMultiset:
    def test_from_events_counts(self):
        events = [Event(1, A, ON), Event(2, A, OFF), Event(3, A, ON)]
        ms = EventMultiset.from_events(events)
        assert ms.as_dict() == {("A", ON): 2, ("A", OFF): 1}
        assert ms.total == 3

    def test_intersection_min_counts(self):
        a = EventMultiset.from_dict({("s1", ON): 2, ("s2", OFF): 1})
        b = EventMultiset.from_dict({("s1", ON): 1, ("s3", ON): 2})
        assert a.intersection_size(b) == 1
        assert b.intersection_size(a) == 1

    def test_zero_counts_dropped(self):
        ms = EventMultiset.from_dict({("x", ON): 0, ("y", OFF): 2})
        assert ms.as_dict() == {("y", OFF): 2}

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EventMultiset.from_dict({("x", ON): -1})


class TestAdlPredict:
    def test_zero_head_uniform_and_tie_to_class_zero(self):
        head = init_adl_head(["a", "b", "c"], d=4, seed=0)
        head.params["out.w"].data[:] = 0
        head.params["out.b"].data[:] = 0
        logits, pick = adl_predict(np.ones(4, dtype=np.float32), head)
        np.testing.assert_array_equal(logits, np.zeros(3))
        assert pick == 0

    def test_hand_set_dominant_class(self):
        head = init_adl_head(["a", "b", "c"], d=2, seed=0)
        head.params["out.w"].data[:] = 0
        head.params["out.b"].data[:] = np.array([0.0, 0.0, 5.0], dtype=np.float32)
        _, pick = adl_predict(np.zeros(2, dtype=np.float32), head)
        assert pick == 2

    def test_argmax_invariant_to_logit_shift(self):
        head = init_adl_head(["a", "b"], d=3, seed=1)
        x = np.array([0.3, -1.0, 2.0], dtype=np.float32)
        logits, pick = adl_predict(x, head)
        head.params["out.b"].data += 10.0
        logits2, pick2 = adl_predict(x, head)
        assert pick == pick2
        np.testing.assert_allclose(logits2 - logits, 10.0, rtol=1e-5)

    def test_deterministic(self):
        head = init_adl_head(["a", "b"], d=3, seed=2)
        x = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        logits_a, pick_a = adl_predict(x, head)
        logits_b, pick_b = adl_predict(x, head)
        np.testing.assert_array_equal(logits_a, logits_b)
        assert pick_a == pick_b

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            init_adl_head(["only"], d=4)

    def test_block_picks_equal_row_picks(self):
        head = init_adl_head(["a", "b", "c"], d=8, seed=0)
        block = np.random.default_rng(0).normal(size=(5, 8)).astype(np.float32)
        logits, picks = adl_predict(block, head)
        assert logits.shape == (5, 3)
        assert picks.tolist() == [adl_predict(row, head)[1] for row in block]

    @pytest.mark.parametrize("classes", [6, 16, 18])
    def test_row_logits_bit_equal_to_one_row_product(self, classes):
        head = init_adl_head([str(c) for c in range(classes)], d=64, seed=classes)
        rows = np.random.default_rng(classes).normal(size=(40, 64)).astype(np.float32)
        w, b = head.params["out.w"], head.params["out.b"]
        for row in rows:
            product = linear(Tensor(row[None, :]), w, b).data[0]
            assert adl_predict(row, head)[0].tobytes() == product.tobytes()

    @pytest.mark.parametrize("shape", [(7,), (5, 7), ()])
    def test_wrong_width_or_scalar_rejected(self, shape):
        head = init_adl_head(["a", "b", "c"], d=8, seed=0)
        with pytest.raises(ValueError, match="linear shape mismatch"):
            adl_predict(np.ones(shape, dtype=np.float32), head)


class TestLargestRemainder:
    def test_hand_example(self):
        # floors {1,0,0}; remainders .6,.9,.5 -> b then a
        out = largest_remainder(np.array([1.6, 0.9, 0.5]), k=3)
        np.testing.assert_array_equal(out, [2, 1, 0])

    def test_single_type_takes_all(self):
        np.testing.assert_array_equal(largest_remainder(np.array([0.2]), k=5), [5])

    def test_all_zero_uniform_fallback(self):
        out = largest_remainder(np.zeros(4), k=6)
        np.testing.assert_array_equal(out, [2, 2, 1, 1])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.uniform(0, 5, size=8)
            k = int(rng.integers(1, 40))
            base = largest_remainder(scores, k)
            for c in (0.01, 3.0, 1e6):
                np.testing.assert_array_equal(base, largest_remainder(scores * c, k))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_total_always_k(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            scores = rng.uniform(0, 1, size=int(rng.integers(1, 12))) * \
                (rng.random() > 0.1)  # occasionally all zero
            k = int(rng.integers(1, 50))
            assert largest_remainder(scores, k).sum() == k

    def test_ties_break_by_index(self):
        out = largest_remainder(np.array([0.5, 0.5, 0.5, 0.5]), k=2)
        np.testing.assert_array_equal(out, [1, 1, 0, 0])


class TestNextKPredict:
    def test_total_is_k(self):
        head = init_nextk_head([("A", ON), ("A", OFF), ("B", ON)], d=4, seed=0)
        rng = np.random.default_rng(0)
        for k in (1, 5, 30):
            ms = nextk_predict(rng.normal(size=4).astype(np.float32), head, k)
            assert ms.total == k

    def test_degenerate_head_still_totals_k(self):
        head = init_nextk_head([("A", ON), ("B", OFF)], d=3, seed=1)
        head.params["counts.w"].data[:] = 0
        head.params["counts.b"].data[:] = -60.0  # softplus ~ 0
        ms = nextk_predict(np.zeros(3, dtype=np.float32), head, 7)
        assert ms.total == 7

    @pytest.mark.parametrize("shape", [(5, 4), (1, 4), ()])
    def test_only_one_row_accepted(self, shape):
        head = init_nextk_head([("A", ON), ("A", OFF)], d=4, seed=0)
        message = "linear shape mismatch" if shape == () else "expected counts must be a vector"
        with pytest.raises(ValueError, match=message):
            nextk_predict(Tensor(np.ones(shape)), head, 3)


class TestNextKDecode:
    def test_equals_from_dict_of_nonzero_counts(self):
        vocabulary = [("A", ON), ("A", OFF), ("B", ON), ("B", OFF), ("C", ON)]
        head = init_nextk_head(vocabulary, d=4, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            expected = rng.uniform(0, 2, size=5) * (rng.random(5) > 0.3)
            k = int(rng.integers(1, 40))
            counts = largest_remainder(expected, k)
            want = EventMultiset.from_dict(
                {etype: int(c) for etype, c in zip(vocabulary, counts) if c > 0})
            got = head.decode(expected, k)
            assert got == want and got.total == k

    def test_one_row_only(self):
        head = init_nextk_head([("A", ON), ("A", OFF)], d=4, seed=0)
        with pytest.raises(ValueError, match="expected counts must be a vector"):
            head.decode(np.ones((2, 2)), 3)


class TestNextKTarget:
    def make_stream(self):
        events = (Event(1, A, ON), Event(2, A, OFF), Event(3, A, ON),
                  Event(4, A, OFF), Event(5, A, ON))
        return EventStream(events)

    def test_counts_following_events(self):
        stream = self.make_stream()
        target = nextk_target(stream, window_end_index=1, k=3)
        assert target.as_dict() == {("A", ON): 2, ("A", OFF): 1}

    def test_k_one_singleton(self):
        target = nextk_target(self.make_stream(), window_end_index=0, k=1)
        assert target.as_dict() == {("A", OFF): 1}
        assert target.total == 1

    def test_tail_window_excluded(self):
        assert nextk_target(self.make_stream(), window_end_index=4, k=1) is None
        assert nextk_target(self.make_stream(), window_end_index=2, k=3) is None


def build_separable_items(model, n_per_class=12, n_events=4):
    """Two activities at very different hours: linearly separable from h_e.

    Each window is a whole four-event stream registered on ``model``.
    """
    kitchen = Sensor("mk", "motion", None, "kitchen")
    bedroom = Sensor("mb", "pressure", "bed", "bedroom")
    items = []
    base = 1_700_000_000 - (1_700_000_000 % 86400)
    for i in range(n_per_class):
        day = base + i * 86400
        for sensor, hour, label in ((kitchen, 8, "cook"), (bedroom, 23, "sleep")):
            t0 = day + hour * 3600
            events = tuple(Event(t0 + j * 60, sensor, ON if j % 2 == 0 else OFF)
                           for j in range(n_events))
            model.add_stream_features(f"{label}{i}", events)
            items.append(TrainItem(Window(f"{label}{i}", 0, n_events, label), label=label))
    return items


class TestFinetune:
    def test_head_only_keeps_backbone_bitwise(self):
        config = toy_config(d=16)
        model = Model.init(config, fallback_table(16), seed=0)
        items = build_separable_items(model)
        before = {name: model.groups[name].state_bytes()
                  for name in (EVENT_GROUP, CONTEXT_GROUP)}
        finetune(model, items, "adl",
                 FinetuneSettings(strategy=FinetuneStrategy.HEAD_ONLY, epochs=2,
                                  batch_size=8, seed=0),
                 classes=("cook", "sleep"))
        for name, blob in before.items():
            assert model.groups[name].state_bytes() == blob

    @pytest.mark.parametrize("strategy, expected", [
        (FinetuneStrategy.HEAD_ONLY, [10, 10, 4]), (FinetuneStrategy.FULL, [10, 10, 4] * 3)])
    def test_backbone_passes(self, monkeypatch, strategy, expected):
        # head-only pools every training window once, before the first epoch,
        # in chunks of batch_size; full runs the backbone on every step
        model = Model.init(toy_config(d=16), fallback_table(16), seed=0)
        items = build_separable_items(model)
        calls = []
        original = Model.window_tensors

        def counting(self, windows):
            calls.append(len(windows))
            return original(self, windows)

        monkeypatch.setattr(Model, "window_tensors", counting)
        finetune(model, items, "adl",
                 FinetuneSettings(strategy=strategy, epochs=3, batch_size=10, seed=0),
                 classes=("cook", "sleep"))
        assert calls == expected

    def test_full_strategy_moves_backbone(self):
        config = toy_config(d=16)
        model = Model.init(config, fallback_table(16), seed=2)
        items = build_separable_items(model)
        before = model.groups[EVENT_GROUP].state_bytes()
        finetune(model, items, "adl",
                 FinetuneSettings(strategy=FinetuneStrategy.FULL, epochs=1,
                                  batch_size=8, seed=2),
                 classes=("cook", "sleep"))
        assert model.groups[EVENT_GROUP].state_bytes() != before

    def test_adl_loss_decreases_on_separable_task(self):
        firsts, lasts = [], []
        for seed in SEEDS:
            config = toy_config(d=16)
            model = Model.init(config, fallback_table(16), seed=seed)
            items = build_separable_items(model)
            from domusfm.downstream import adl_loss, init_adl_head
            from domusfm.evaluation import batched_pooled

            head = init_adl_head(("cook", "sleep"), config.d, seed=seed)

            # training-set loss before and after fine-tuning
            def loss_now(h):
                pooled = batched_pooled(model, [it.window for it in items])
                ids = np.array([("cook", "sleep").index(it.label) for it in items])
                return adl_loss(Tensor(pooled), ids, h).item()

            firsts.append(loss_now(head))
            head = finetune(model, items, "adl",
                            FinetuneSettings(strategy=FinetuneStrategy.HEAD_ONLY,
                                             epochs=10, batch_size=8, seed=seed),
                            classes=("cook", "sleep"))
            lasts.append(loss_now(head))
        assert np.mean(lasts) < np.mean(firsts)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr must be a finite number > 0"):
            FinetuneSettings(lr=lr)

    def test_strategy_is_checked_and_converted(self):
        assert FinetuneSettings(strategy="head_only").strategy is FinetuneStrategy.HEAD_ONLY
        with pytest.raises(ValueError, match="expected one of head_only, full, got 'head-only'"):
            FinetuneSettings(strategy="head-only")

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
    def test_count_loss_weight_must_be_finite_and_nonnegative(self, weight):
        with pytest.raises(ValueError, match="count_loss_weight"):
            FinetuneSettings(count_loss_weight=weight)

    def test_empty_training_set_rejected(self):
        model = Model.init(toy_config(), None, seed=0)
        with pytest.raises(ValueError, match="empty"):
            finetune(model, [], "adl", FinetuneSettings(), classes=("a", "b"))

    def test_unknown_label_rejected(self):
        config = toy_config(d=16)
        model = Model.init(config, fallback_table(16), seed=0)
        items = build_separable_items(model)[:2]
        items[0] = TrainItem(items[0].window, label="juggling")
        with pytest.raises(ValueError, match="juggling"):
            finetune(model, items, "adl", FinetuneSettings(epochs=1),
                     classes=("cook", "sleep"))

    @pytest.mark.parametrize("target, vocabulary, message", [
        (None, (("mk", ON),), "needs a target multiset"),
        (EventMultiset.from_dict({("mb", ON): 1}), (("mk", ON),), "not in head vocabulary"),
        (EventMultiset.from_dict({("mk", ON): 1}), None, "needs the event-type vocabulary"),
    ], ids=["no_target", "unknown_type", "no_vocabulary"])
    def test_bad_nextk_targets_rejected(self, target, vocabulary, message):
        model = Model.init(toy_config(d=16), fallback_table(16), seed=0)
        items = [TrainItem(it.window, target=target)
                 for it in build_separable_items(model)[:2]]
        with pytest.raises(ValueError, match=message):
            finetune(model, items, "nextk", FinetuneSettings(epochs=1),
                     vocabulary=vocabulary)

    def test_unknown_task_rejected(self):
        model = Model.init(toy_config(), None, seed=0)
        with pytest.raises(ValueError, match="unknown task"):
            finetune(model, [TrainItem(toy_window(model, 3))], "dishes", FinetuneSettings())

    def test_nextk_finetune_runs_and_predicts_exact_total(self):
        config = toy_config(d=16)
        model = Model.init(config, fallback_table(16), seed=3)
        vocab = (("mk", ON), ("mk", OFF), ("mb", ON), ("mb", OFF))
        items = []
        for item in build_separable_items(model)[:8]:
            sensor_id = {"cook": "mk", "sleep": "mb"}[item.label]
            items.append(TrainItem(item.window,
                                   target=EventMultiset.from_dict({(sensor_id, ON): 2,
                                                                   (sensor_id, OFF): 1})))
        head = finetune(model, items, "nextk",
                        FinetuneSettings(strategy=FinetuneStrategy.HEAD_ONLY, epochs=2,
                                         batch_size=4, seed=3),
                        vocabulary=vocab)
        from domusfm.evaluation import batched_pooled

        pooled = batched_pooled(model, [items[0].window])
        assert nextk_predict(pooled[0], head, 3).total == 3
