"""Augmentations, InfoNCE closed forms and gradients, the two-phase pretrain loop."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import toy_config, toy_window
from domusfm.autodiff import Tensor, grad_check, parameter, precision
from domusfm.benchmark import three_home_corpus
from domusfm.embeddings import fallback_table
from domusfm.event_encoder import N_SLOTS, ModelConfig
from domusfm.ingest import ActivityScript, SyntheticHomeSpec, SyntheticSensor, Visit, generate_synthetic_corpus
from domusfm.model import EVENT_GROUP, Model
from domusfm.pretraining import (
    MIN_TEMPERATURE,
    LossRecord,
    PretrainConfig,
    augment_mask_attribute,
    augment_mask_event,
    contrastive_loss,
    infonce,
    loss_history_csv,
    pretrain,
)
from domusfm.segmentation import Window, segment_events

SEEDS = (0, 1, 2)


class TestAugmentations:
    def test_zero_probability_is_identity(self):
        w = Window("home", 0, 8)
        assert not augment_mask_attribute(w, 0.0, np.random.default_rng(0)).any()
        assert not augment_mask_event(w, 0.0, np.random.default_rng(0)).any()

    def test_probability_one_masks_exactly_one_slot_each(self):
        w = Window("home", 0, 50)
        mask = augment_mask_attribute(w, 1.0, np.random.default_rng(1))
        assert (mask.sum(axis=1) == 1).all()

    def test_event_mask_is_all_or_nothing(self):
        w = Window("home", 0, 50)
        per_event = augment_mask_event(w, 0.5, np.random.default_rng(2)).sum(axis=1)
        assert set(per_event.tolist()) <= {0, N_SLOTS}
        assert per_event.max() == N_SLOTS

    def test_seeded_reproducibility(self):
        w = Window("home", 0, 20)
        a = augment_mask_attribute(w, 0.4, np.random.default_rng(9))
        b = augment_mask_attribute(w, 0.4, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_attribute_mask_matches_per_event_draws(self):
        # one vectorized assignment stands for the per-event loop: event i gets
        # slot slots[i] iff it was selected, from the same two draws in order
        w = Window("home", 0, 40)
        mask = augment_mask_attribute(w, 0.3, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        selected = rng.random(40) < 0.3
        slots = rng.integers(0, N_SLOTS, size=40)
        expected = np.zeros((40, N_SLOTS), dtype=bool)
        for i in range(40):
            if selected[i]:
                expected[i, slots[i]] = True
        np.testing.assert_array_equal(mask, expected)

    def test_augmentation_never_touches_events(self):
        model = Model.init(toy_config(), fallback_table(8), seed=0)
        w = toy_window(model, n=10, seed=4)
        feats = model.features[w.dataset]

        def arrays():
            return [*feats.text.values(), *feats.null_mask.values(), feats.dow_feats,
                    feats.hour_feats, feats.sec_ids, feats.status_ids]

        before = [a.copy() for a in arrays()]
        augment_mask_event(w, 0.7, np.random.default_rng(5))
        augment_mask_attribute(w, 0.7, np.random.default_rng(5))
        # a view differs only by its mask flags: the stream's inputs stay as they were
        assert model.features[w.dataset] is feats
        for now, then in zip(arrays(), before):
            np.testing.assert_array_equal(now, then)

    def test_masked_fraction_matches_probability(self):
        # binomial bound: |observed - p| < 3 * sqrt(p (1-p) / n)
        p, n = 0.15, 10_000
        w = Window("home", 0, 100)
        rng = np.random.default_rng(7)
        masked = 0
        for _ in range(n // 100):
            masked += augment_mask_event(w, p, rng)[:, 0].sum()
        observed = masked / n
        assert abs(observed - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_mask_shape_validated(self):
        for n in (1, 3, 30):
            w = Window("home", 0, n)
            for augment in (augment_mask_attribute, augment_mask_event):
                mask = augment(w, 0.5, np.random.default_rng(n))
                assert mask.shape == (n, N_SLOTS) and mask.dtype == bool


class TestInfoNCE:
    def test_orthogonal_pair_closed_form(self):
        anchors = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = infonce(anchors, anchors, temperature=1.0)
        expected = math.log(1.0 + math.exp(-1.0))
        assert abs(loss.item() - expected) < 1e-6

    def test_identical_batch_gives_log_b(self):
        for b in (2, 3, 8):
            rows = Tensor(np.tile(np.array([[0.6, 0.8, 0.0]]), (b, 1)))
            loss = infonce(rows, rows, temperature=0.2)
            assert abs(loss.item() - math.log(b)) < 1e-6

    def test_nonnegative_and_below_log_b_for_identity_pairs(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(6, 8)))
        loss = infonce(x, x, temperature=0.5)
        assert 0.0 <= loss.item() < math.log(6)

    def test_rejects_batch_of_one(self):
        x = Tensor(np.ones((1, 4)))
        with pytest.raises(ValueError, match="at least 2"):
            infonce(x, x, temperature=1.0)

    def test_cosine_similarity_scale_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(4, 6))
        l1 = infonce(Tensor(a), Tensor(b), temperature=0.3).item()
        l2 = infonce(Tensor(a * 7.5), Tensor(b * 0.2), temperature=0.3).item()
        assert abs(l1 - l2) < 1e-5

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("symmetric", (True, False))
    def test_gradient(self, seed, symmetric):
        with precision("float64"):
            rng = np.random.default_rng(seed)
            anchors = parameter(rng.normal(size=(3, 5)))
            positives = parameter(rng.normal(size=(3, 5)))

            def f():
                return infonce(anchors, positives, temperature=0.7, symmetric=symmetric)

            err = grad_check(f, [anchors, positives], seed=seed)
        assert err < 1e-4

    def test_gradient_batch_of_two(self):
        with precision("float64"):
            rng = np.random.default_rng(4)
            anchors = parameter(rng.normal(size=(2, 4)))
            positives = parameter(rng.normal(size=(2, 4)))
            err = grad_check(lambda: infonce(anchors, positives, 1.0),
                             [anchors, positives])
        assert err < 1e-4


def tiny_corpus(name: str, seed: int, days: int = 4):
    spec = SyntheticHomeSpec(
        name=name,
        rooms=("kitchen", "bedroom"),
        sensors=(
            SyntheticSensor(f"{name}_mk", "motion", None, "kitchen"),
            SyntheticSensor(f"{name}_st", "power", "stove", "kitchen"),
            SyntheticSensor(f"{name}_mb", "motion", None, "bedroom"),
            SyntheticSensor(f"{name}_bb", "pressure", "bed", "bedroom"),
        ),
        activities=(
            ActivityScript("cook", (Visit("kitchen", "stove", (600, 1200)),), ((18, 20),)),
            ActivityScript("sleep", (Visit("bedroom", "bed", (3600, 5400)),), ((22, 6),)),
            ActivityScript("breakfast", (Visit("kitchen", "stove", (300, 600)),), ((7, 9),)),
        ),
        duration_days=days,
        seed=seed,
    )
    return generate_synthetic_corpus(spec)


def make_pretrain_setup(seed: int, n: int = 10):
    config = toy_config(d=16, heads=2, layers=1, n_window=n)
    table = fallback_table(16)
    model = Model.init(config, table, seed=seed)
    windows = {}
    for name in ("homeA", "homeB"):
        ds = tiny_corpus(name, seed=seed + hash(name) % 97)
        model.add_stream_features(name, ds.stream.events)
        windows[name] = segment_events(ds.stream, n, n - 1, dataset=name)[:120]
    return model, windows


class TestPretrain:
    def test_event_encoder_frozen_after_phase_one(self):
        model, windows = make_pretrain_setup(seed=0)
        cfg = PretrainConfig(batch_size=16, epochs_phase1=1, epochs_phase2=1,
                             windows_per_dataset=32, seed=0)
        # capture the event encoder right after phase 1 by running phase-1 only
        model_p1, windows_p1 = make_pretrain_setup(seed=0)
        pretrain(windows_p1, PretrainConfig(batch_size=16, epochs_phase1=1,
                                            epochs_phase2=0, windows_per_dataset=32,
                                            seed=0), model_p1)
        after_p1 = model_p1.groups[EVENT_GROUP].state_bytes()
        result = pretrain(windows, cfg, model)
        assert model.groups[EVENT_GROUP].state_bytes() == after_p1
        phases = {r.phase for r in result.history}
        assert phases == {1, 2}

    def test_determinism_same_seed_same_checkpoint(self):
        outs = []
        for _ in range(2):
            model, windows = make_pretrain_setup(seed=1)
            cfg = PretrainConfig(batch_size=16, epochs_phase1=1, epochs_phase2=1,
                                 windows_per_dataset=32, seed=5)
            result = pretrain(windows, cfg, model)
            outs.append((model.state_bytes(),
                         tuple(r.loss for r in result.history)))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_phase1_loss_decreases_across_epochs(self):
        # averaged over 3 seeds on a ~200-window corpus
        firsts, lasts = [], []
        for seed in SEEDS:
            model, windows = make_pretrain_setup(seed=seed)
            cfg = PretrainConfig(batch_size=16, epochs_phase1=3, epochs_phase2=0,
                                 windows_per_dataset=64, temperature=0.1, seed=seed)
            history = pretrain(windows, cfg, model).history
            by_epoch = {}
            for r in history:
                by_epoch.setdefault(r.epoch, []).append(r.loss)
            firsts.append(np.mean(by_epoch[0]))
            lasts.append(np.mean(by_epoch[max(by_epoch)]))
        assert np.mean(lasts) < np.mean(firsts)

    def test_seen_datasets_are_tracked(self):
        model, windows = make_pretrain_setup(seed=2)
        cfg = PretrainConfig(batch_size=16, epochs_phase1=1, epochs_phase2=0,
                             windows_per_dataset=16, seed=2)
        result = pretrain(windows, cfg, model)
        assert result.seen_datasets == {"homeA", "homeB"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PretrainConfig(p_event_select=0.0)
        with pytest.raises(ValueError):
            PretrainConfig(temperature=0.0)
        with pytest.raises(ValueError):
            PretrainConfig(batch_size=1)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr must be a finite number > 0"):
            PretrainConfig(lr=lr)

    def test_temperature_reciprocal_must_fit_float32(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PretrainConfig(temperature=MIN_TEMPERATURE)
            assert np.isfinite(np.float32(1.0 / MIN_TEMPERATURE))
            for bad in (np.nextafter(MIN_TEMPERATURE, 0.0), 1e-39, math.nan, math.inf):
                with pytest.raises(ValueError, match="temperature"):
                    PretrainConfig(temperature=float(bad))

    def test_loss_history_csv_format(self):
        csv = loss_history_csv([LossRecord(1, 0, 0, 0.5), LossRecord(2, 1, 3, 0.25)])
        lines = csv.strip().split("\n")
        assert lines[0] == "phase,epoch,step,loss"
        assert lines[1].startswith("1,0,0,0.5")
        assert len(lines) == 3


def test_desk_phase2_step_memory_peak():
    # One phase-2 step at the benchmark's desk size (d=64, 2 layers, batch 64,
    # N=30): numpy's peak from the loss to the end of backward is about 27 MB
    # with feed-forward blocks that recompute their hidden activations, 48 MB
    # when each kept its pre-activation, GELU's tanh and GELU's output.
    model = Model.init(ModelConfig(d=64, heads=4, layers=2, n_window=30), seed=0)
    windows = []
    for ds in three_home_corpus(days=2, seed=0)[:2]:
        model.add_stream_features(ds.name, ds.stream.events)
        windows += segment_events(ds.stream, 30, 29, dataset=ds.name)[::4][:32]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss = contrastive_loss(model, windows, 2, PretrainConfig(batch_size=64),
                                np.random.default_rng(0))
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(windows) == 64
    assert peak < 36e6
