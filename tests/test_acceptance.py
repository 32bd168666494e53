"""Acceptance suite.

One test per criterion (A1..A7); each prints a PASS line with its measured
numbers (run with ``pytest -s`` to see them inline). The transfer experiment
(A5/A6) runs a scaled-down leave-one-dataset-out study on three synthetic
homes and takes several minutes; everything else is fast.
"""

import math
import time

import numpy as np
import pytest

from conftest import KITCHEN_MOTION, STOVE, WEARABLE, toy_config, toy_window
from domusfm import autodiff as ad
from domusfm.autodiff import Tensor, grad_check, parameter, precision
from domusfm.benchmark import three_home_corpus
from domusfm.checkpoint import read_checkpoint, save_checkpoint
from domusfm.context_encoder import contextualize, init_context_encoder, pool_sequence
from domusfm.downstream import (
    EventMultiset,
    FinetuneSettings,
    FinetuneStrategy,
    finetune,
)
from domusfm.embeddings import fallback_table
from domusfm.evaluation import (
    EvalProtocol,
    LodoConfig,
    kfold_splits,
    lodo_run,
    majority_baseline_f1,
    multiset_prf,
    subsample_training,
    weighted_f1,
)
from domusfm.event_encoder import (
    N_SLOTS,
    build_batch,
    cyclical_features,
    encode_batch,
    init_event_encoder,
)
from domusfm.events import OFF, ON, Event, EventStream, Sensor, clean_alternation
from domusfm.ingest import generate_synthetic_corpus
from domusfm.model import EVENT_GROUP, Model
from domusfm.pretraining import PretrainConfig, infonce, pretrain
from domusfm.segmentation import Window, segment_events

SEEDS = (0, 1, 2)


def report(line: str):
    import conftest

    conftest.ACCEPTANCE_LINES.append(line)
    print(f"\n{line}")


# -- A1: gradient correctness ----------------------------------------------------


class TestA1GradientCorrectness:
    def test_a1(self, table):
        t0 = time.time()
        worst = 0.0

        def run(build):
            nonlocal worst
            for seed in SEEDS:
                with precision("float64"):
                    rng = np.random.default_rng(seed)
                    params, f = build(rng, seed)
                    err = grad_check(f, params, seed=seed)
                worst = max(worst, err)
                assert err < 1e-4, f"gradient check failed: {err}"

        def elementwise(rng, seed):
            a = parameter(rng.normal(size=(3, 4)))
            b = parameter(rng.normal(size=(3, 4)))
            r = Tensor(rng.normal(size=(3, 4)))

            def f():
                out = (a * b + a - b) * ad.l2_normalize(b) + ad.gelu(a) + ad.softplus(a)
                return ad.tensor_sum(out * r)

            return [a, b], f

        def linear_softmax_norm(rng, seed):
            from domusfm.nn import layer_norm, linear

            x = parameter(rng.normal(size=(4, 6)))
            w = parameter(rng.normal(size=(6, 3)))
            b = parameter(rng.normal(size=(3,)))
            g = parameter(rng.normal(1.0, 0.1, size=(6,)))
            bb = parameter(rng.normal(size=(6,)))
            r = Tensor(rng.normal(size=(4, 3)))
            target = rng.dirichlet(np.ones(3), size=4)

            def f():
                h = layer_norm(x, g, bb)
                return (ad.tensor_sum(ad.softmax(linear(h, w, b), axis=-1) * r)
                        + ad.cross_entropy(linear(h, w, b), target))

            return [x, w, b, g, bb], f

        def attention(rng, seed):
            from domusfm.nn import ParamGroup, init_attention, multi_head_attention

            group = ParamGroup("attn")
            init_attention(group, "attn", 8, rng)
            x = parameter(rng.normal(size=(1, 4, 8)))
            r = Tensor(rng.normal(size=(1, 4, 8)))

            def f():
                return ad.tensor_sum(multi_head_attention(x, 2, group.tensors) * r)

            return [x] + list(group.tensors.values()), f

        def transpose_negative_axes(rng, seed):
            a = parameter(rng.normal(size=(2, 3, 5, 4)))
            r = Tensor(rng.normal(size=(2, 5, 3, 4)))

            def f():
                return ad.tensor_sum(ad.transpose(a, (0, -2, -3, -1)) * r)

            return [a], f

        def event_encoder_full(rng, seed):
            config = toy_config()
            params = init_event_encoder(config, config.d, rng)
            features = {}
            window = toy_window((features, table, config), n=2, seed=seed)
            batch = build_batch([window], features)
            r = Tensor(rng.normal(size=(1, 2, config.d)))

            def f():
                return ad.tensor_sum(encode_batch(batch, params, config) * r)

            return list(params.tensors.values()), f

        def event_encoder_null_and_masks(rng, seed):
            # NULL items and rooms, event k < 7 masked on slot k, and a NULL
            # item masked: every NULL and MASK row of the slot tables is used
            config = toy_config()
            params = init_event_encoder(config, config.d, rng)
            features = {}
            events = [Event(1_700_000_000 + 977 * k, (WEARABLE, KITCHEN_MOTION, STOVE)[k % 3],
                            OFF if k % 2 else ON) for k in range(9)]
            window = toy_window((features, table, config), events=events)
            masks = np.zeros((1, 9, N_SLOTS))
            masks[0, np.arange(7), np.arange(7)] = 1.0
            masks[0, 7, 0] = 1.0
            batch = build_batch([window], features, masks)
            r = Tensor(rng.normal(size=(1, 9, config.d)))

            def f():
                return ad.tensor_sum(encode_batch(batch, params, config) * r)

            return list(params.tensors.values()), f

        def event_rows_shared(rng, seed):
            # overlapping and repeated windows of two streams, and fully masked
            # events: the gather's backward sums each shared row into the tables
            config = toy_config(n_window=3)
            model = Model.init(config, fallback_table(config.d), seed=seed)
            first = toy_window(model, n=6, seed=seed).dataset
            second = toy_window(model, n=4, seed=seed + 10).dataset
            windows = ([Window(first, start, 3) for start in (0, 1, 2, 3, 1)]
                       + [Window(second, start, 3) for start in (0, 1)])
            masks = rng.random((7, 3, N_SLOTS)) < 0.2
            masks[0, 0] = masks[2, 2] = masks[5, 1] = masks[6, 0] = True
            r = Tensor(rng.normal(size=(7, 3, config.d)))

            def f():
                return ad.tensor_sum(model.event_rows(windows, masks) * r)

            return list(model.event_params.tensors.values()), f

        def window_pipeline(rng, seed):
            config = toy_config()
            event_params = init_event_encoder(config, config.d, rng)
            ctx_params = init_context_encoder(config, rng)
            features = {}
            window = toy_window((features, table, config), n=3, seed=seed)
            batch = build_batch([window], features)
            r = Tensor(rng.normal(size=(config.d,)))

            def f():
                h = encode_batch(batch, event_params, config)
                pooled = pool_sequence(contextualize(h, ctx_params, config))
                return ad.tensor_sum(pooled[0] * r)

            return (list(event_params.tensors.values())
                    + list(ctx_params.tensors.values())), f

        def infonce_pair(rng, seed):
            anchors = parameter(rng.normal(size=(2, 6)))
            positives = parameter(rng.normal(size=(2, 6)))

            def f():
                return infonce(anchors, positives, temperature=0.5)

            return [anchors, positives], f

        builds = (elementwise, linear_softmax_norm, attention, transpose_negative_axes,
                  event_encoder_full, event_encoder_null_and_masks, event_rows_shared,
                  window_pipeline, infonce_pair)
        for build in builds:
            run(build)

        elapsed = time.time() - t0
        assert elapsed < 60.0, f"A1 took {elapsed:.1f}s (limit 60s)"
        report(f"A1 PASS gradient checks: max rel err {worst:.2e} over "
               f"{len(SEEDS)} seeds x {len(builds)} computations ({elapsed:.1f}s < 60s)")


# -- A2: metric oracles -----------------------------------------------------------


class TestA2MetricOracles:
    def test_a2(self):
        from test_evaluation import (
            confusion_matrix_f1_oracle,
            greedy_multiset_oracle,
            random_multiset,
        )

        t0 = time.time()
        rng = np.random.default_rng(0xA2)
        classes = ["a", "b", "c", "d", "e"]
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            labels = [classes[i] for i in rng.integers(0, len(classes), size=n)]
            preds = [classes[i] for i in rng.integers(0, len(classes), size=n)]
            mine = weighted_f1(preds, labels, classes)
            oracle = confusion_matrix_f1_oracle(preds, labels, classes)
            worst = max(worst, abs(mine - oracle))
            assert abs(mine - oracle) < 1e-12

        types = [(f"s{i}", status) for i in range(6) for status in (ON, OFF)]
        for _ in range(1000):
            gt = random_multiset(rng, types)
            pred = random_multiset(rng, types)
            mine = multiset_prf(gt, pred)
            oracle = greedy_multiset_oracle(gt, pred)
            for m, o in zip(mine, oracle):
                worst = max(worst, abs(m - o))
                assert abs(m - o) < 1e-12
        elapsed = time.time() - t0
        assert elapsed < 10.0, f"A2 took {elapsed:.1f}s (limit 10s)"
        report(f"A2 PASS metric oracles: 1000+1000 cases, max deviation {worst:.1e} "
               f"({elapsed:.1f}s < 10s)")


# -- A3: InfoNCE closed forms ------------------------------------------------------


class TestA3InfoNCEClosedForms:
    def test_a3(self):
        anchors = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = infonce(anchors, anchors, temperature=1.0).item()
        expected = math.log(1.0 + math.exp(-1.0))
        d1 = abs(loss - expected)
        assert d1 < 1e-6

        deviations = [d1]
        for b in (2, 4, 7):
            rows = Tensor(np.tile(np.array([[0.8, 0.6, 0.0]]), (b, 1)))
            loss = infonce(rows, rows, temperature=0.3).item()
            deviations.append(abs(loss - math.log(b)))
            assert deviations[-1] < 1e-6
        report(f"A3 PASS InfoNCE closed forms: max deviation {max(deviations):.1e}")


# -- A4: structural invariants ------------------------------------------------------


class TestA4StructuralInvariants:
    def test_alternation_idempotent(self):
        sensor_pool = [Sensor(f"s{i}", "motion") for i in range(4)]
        rng = np.random.default_rng(0xA4)
        for _ in range(20):
            events = tuple(Event(t, sensor_pool[int(rng.integers(4))],
                                 ON if rng.random() < 0.5 else OFF)
                           for t in range(1, int(rng.integers(10, 200))))
            once, _ = clean_alternation(EventStream(events))
            twice, second = clean_alternation(once)
            assert twice == once and second.removed_count == 0

    def test_segmentation_count_formula(self):
        sensor = Sensor("s", "motion")
        rng = np.random.default_rng(0xA41)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            overlap = int(rng.integers(0, n))
            total = int(rng.integers(n, 300))
            stride = n - overlap
            events = tuple(Event(t, sensor, ON if t % 2 else OFF)
                           for t in range(1, total + 1))
            windows = segment_events(EventStream(events), n, overlap)
            enumerated = [s for s in range(0, total + 1, stride) if s + n <= total]
            assert len(windows) == (total - n) // stride + 1 == len(enumerated)
            assert [w.start for w in windows] == enumerated

    def test_cyclical_periodicity_bitwise(self):
        for hour in range(24):
            np.testing.assert_array_equal(cyclical_features(hour, 24.0, 4),
                                          cyclical_features(hour + 24, 24.0, 4))
        for dow in range(7):
            np.testing.assert_array_equal(cyclical_features(dow, 7.0, 4),
                                          cyclical_features(dow + 7, 7.0, 4))

    def test_checkpoint_save_load_save(self, tmp_path):
        model = Model.init(toy_config(d=16), fallback_table(16), seed=0)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save(str(p1))
        groups, meta = read_checkpoint(str(p1))
        save_checkpoint(str(p2), groups, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_frozen_groups_bitwise_stable(self, table):
        # phase 2 must not touch the event encoder; head-only fine-tuning must
        # not touch the backbone
        from test_pretraining import make_pretrain_setup

        model, windows = make_pretrain_setup(seed=3)
        pretrain(windows, PretrainConfig(batch_size=16, epochs_phase1=1,
                                         epochs_phase2=0, windows_per_dataset=32,
                                         seed=3), model)
        after_phase1 = model.groups[EVENT_GROUP].state_bytes()
        model2, windows2 = make_pretrain_setup(seed=3)
        pretrain(windows2, PretrainConfig(batch_size=16, epochs_phase1=1,
                                          epochs_phase2=2, windows_per_dataset=32,
                                          seed=3), model2)
        assert model2.groups[EVENT_GROUP].state_bytes() == after_phase1

        from test_downstream import build_separable_items

        config = toy_config(d=16)
        ft_model = Model.init(config, fallback_table(16), seed=5)
        items = build_separable_items(ft_model)
        before = ft_model.state_bytes()
        finetune(ft_model, items, "adl",
                 FinetuneSettings(strategy=FinetuneStrategy.HEAD_ONLY, epochs=3,
                                  batch_size=8, seed=5),
                 classes=("cook", "sleep"))
        after = b"".join(ft_model.groups[name].state_bytes()
                         for name in (EVENT_GROUP, "context_encoder"))
        assert after == before

    def test_a4_summary(self):
        report("A4 PASS structural invariants: alternation idempotence, "
               "segmentation formula (200 triples), bitwise periodicity, "
               "checkpoint roundtrip, frozen-group stability")


# -- A5 / A6: scaled-down transfer experiment ---------------------------------------

DESK_MODEL = dict(d=64, heads=4, layers=2, n_window=30)
A5_PCTS = (5, 30)
A5_FOLDS = 3  # purged contiguous folds; chosen so the full study fits the
              # 15-minute budget on a 2-core laptop-class CPU


def desk_lodo_config(pcts=A5_PCTS, k_values=(30,), seeds=SEEDS, run_control=True,
                     context_enabled=True):
    from domusfm.event_encoder import ModelConfig

    return LodoConfig(
        model=ModelConfig(**DESK_MODEL, context_enabled=context_enabled),
        protocol=EvalProtocol(held_out="home3", train_pcts=pcts, folds=A5_FOLDS,
                              k_values=k_values, seeds=seeds),
        pretrain=PretrainConfig(batch_size=64, epochs_phase1=2, epochs_phase2=2,
                                windows_per_dataset=256),
        finetune=FinetuneSettings(strategy=FinetuneStrategy.FULL, epochs=10,
                                  batch_size=64),
        overlap=29,
        run_control=run_control,
    )


@pytest.fixture(scope="module")
def transfer_experiment():
    corpus = three_home_corpus(days=7, seed=0)
    for ds in corpus:
        assert len(ds.activity_set) >= 5
    t0 = time.time()
    full_report = lodo_run(corpus, desk_lodo_config())
    elapsed_a5 = time.time() - t0
    return corpus, full_report, elapsed_a5


@pytest.mark.slow
class TestA5TransferBenefit:
    def test_a5(self, transfer_experiment):
        corpus, rep, elapsed = transfer_experiment
        held = corpus[2]

        lines = []
        for pct in A5_PCTS:
            adl = rep.mean("adl", "weighted_f1", pct)
            adl_ctl = rep.mean("adl", "weighted_f1_control", pct)
            nxt = rep.mean("next30", "f1", pct)
            nxt_ctl = rep.mean("next30", "f1_control", pct)
            assert adl >= adl_ctl, f"pct={pct}: ADL {adl:.3f} < control {adl_ctl:.3f}"
            assert nxt >= nxt_ctl, f"pct={pct}: next-30 {nxt:.3f} < control {nxt_ctl:.3f}"
            lines.append(f"pct={pct}: adl {adl:.3f}>={adl_ctl:.3f}, "
                         f"next30 {nxt:.3f}>={nxt_ctl:.3f}")

        # majority-class baseline from the fold training labels
        windows = segment_events(held.stream, DESK_MODEL["n_window"], 29,
                                 dataset=held.name)
        baselines = []
        for train_w, test_w in kfold_splits(windows, A5_FOLDS):
            train_labels = [w.label for w in train_w if w.label]
            test_labels = [w.label for w in test_w if w.label]
            baselines.append(majority_baseline_f1(train_labels, test_labels,
                                                  held.activity_set))
        baseline = float(np.mean(baselines))
        for pct in A5_PCTS:
            adl = rep.mean("adl", "weighted_f1", pct)
            assert adl > baseline + 0.05, \
                f"pct={pct}: ADL {adl:.3f} <= majority {baseline:.3f} + 0.05"

        assert elapsed < 900.0, f"A5 took {elapsed:.0f}s (limit 900s)"
        report(f"A5 PASS transfer benefit ({'; '.join(lines)}; "
               f"majority baseline {baseline:.3f}; {elapsed:.0f}s < 900s)")


@pytest.mark.slow
class TestA6AblationDirection:
    def test_a6(self, transfer_experiment):
        corpus, full_report, _ = transfer_experiment
        t0 = time.time()
        ablated_report = lodo_run(corpus, desk_lodo_config(
            pcts=(30,), k_values=(), run_control=False, context_enabled=False))
        full = full_report.mean("adl", "weighted_f1", 30)
        ablated = ablated_report.mean("adl", "weighted_f1", 30)
        assert full >= ablated, f"full {full:.3f} < context-disabled {ablated:.3f}"
        report(f"A6 PASS ablation direction: full {full:.3f} >= "
               f"context-disabled {ablated:.3f} at pct=30 "
               f"({time.time() - t0:.0f}s)")


# -- A7: determinism -----------------------------------------------------------------


class TestA7Determinism:
    def test_a7(self, tmp_path, monkeypatch):
        import json

        from domusfm.cli import main
        from test_cli import HOME_SPEC, TINY_CFG

        monkeypatch.chdir(tmp_path)
        (tmp_path / "home.json").write_text(json.dumps(HOME_SPEC))
        (tmp_path / "run.cfg").write_text(TINY_CFG)

        def run(argv):
            assert main(argv) == 0

        outputs = {}
        for attempt in ("x", "y"):
            ws = tmp_path / f"ws_{attempt}"
            ws.mkdir()
            for seed, name in ((1, "home1"), (2, "home2"), (7, "home3")):
                run(["synth", "--spec", "home.json", "--seed", str(seed),
                     "--out", str(ws / f"{name}.csv")])
            datasets = ",".join(str(ws / f"home{i}.csv") for i in (1, 2))
            run(["pretrain", "--config", "run.cfg",
                 "--set", f"paths.datasets={datasets}",
                 "--set", f"paths.out_dir={ws / 'out'}"])
            run(["eval", "--config", "run.cfg",
                 "--set", f"paths.datasets={datasets},{ws / 'home3.csv'}",
                 "--set", f"paths.out_dir={ws / 'out'}",
                 "--checkpoint", str(ws / "out" / "pretrained.ckpt"),
                 "--held-out", "home3"])
            outputs[attempt] = {
                "synth": (ws / "home1.csv").read_bytes(),
                "ckpt": (ws / "out" / "pretrained.ckpt").read_bytes(),
                "loss": (ws / "out" / "pretrain_loss.csv").read_bytes(),
                "metrics": (ws / "out" / "eval_metrics.csv").read_bytes(),
            }
        for key in outputs["x"]:
            assert outputs["x"][key] == outputs["y"][key], f"{key} differs between reruns"
        report("A7 PASS determinism: synth/pretrain/eval reruns byte-identical "
               "(corpus, checkpoint, loss CSV, metrics CSV)")
