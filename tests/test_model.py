"""Event rows: bitwise equal to the per-window encoder path, once per distinct event."""

from contextlib import nullcontext

import numpy as np
import pytest

from conftest import make_window, toy_config
from domusfm import evaluation, model as model_module, pretraining
from domusfm.autodiff import grad_check, no_grad, precision
from domusfm.benchmark import three_home_corpus
from domusfm.context_encoder import pool_sequence
from domusfm.downstream import adl_loss, init_adl_head
from domusfm.embeddings import fallback_table
from domusfm.event_encoder import N_SLOTS
from domusfm.model import Model
from domusfm.pretraining import (
    PretrainConfig,
    augment_mask_attribute,
    augment_mask_event,
    phase1_loss,
    pretrain,
)
from domusfm.segmentation import segment_events


@pytest.fixture(scope="module")
def homes():
    return three_home_corpus(days=1, seed=0)[:2]


def make_model(homes, n, seed=0):
    # d=64 as on the desk config: at small widths BLAS's matrix-vector and
    # matrix-matrix kernels happen to agree bitwise, which would hide a mismatch
    config = toy_config(d=64, heads=4, layers=1, n_window=n)
    model = Model.init(config, fallback_table(64), seed=seed)
    for ds in homes:
        model.add_stream_features(ds.name, ds.stream.events)
    return model


def stride_one(homes, n):
    return {ds.name: segment_events(ds.stream, n, n - 1, dataset=ds.name) for ds in homes}


def mixed_windows(homes, n):
    """Stride-1 windows of two streams interleaved with ad-hoc windows.

    The ad-hoc windows all have ``dataset=""`` and ``start=0`` but different
    events, so any grouping by (dataset, start) would hand them the same rows.
    """
    windows = stride_one(homes, n)
    first, second = (windows[ds.name] for ds in homes)
    ad_hoc = [make_window(n=n, seed=seed) for seed in range(5)]
    batch = first[3:13] + ad_hoc[:3] + second[40:47] + first[10:14] + ad_hoc[3:]
    order = np.random.default_rng(n).permutation(len(batch))
    return [batch[i] for i in order]


def per_window_rows(model, windows, masks=None):
    return model.encode_events(model.batch(windows, masks)).data


class TestEventRows:
    @pytest.mark.parametrize("n", [4, 1])
    def test_window_tensors_without_tape_match_per_window_path(self, homes, n):
        model = make_model(homes, n)
        windows = mixed_windows(homes, n)
        with no_grad():
            reference = per_window_rows(model, windows)
            ctx_ref = model.contextualize(model.encode_events(model.batch(windows)))
            rows = model.event_rows(windows).data
            ctx, pooled = model.window_tensors(windows)
        np.testing.assert_array_equal(rows, reference)
        np.testing.assert_array_equal(ctx.data, ctx_ref.data)
        np.testing.assert_array_equal(pooled.data, pool_sequence(ctx_ref).data)

    @pytest.mark.parametrize("tape", [no_grad, nullcontext], ids=["no_tape", "tape"])
    @pytest.mark.parametrize("n", [4, 1])
    def test_masked_rows_match_per_window_path(self, homes, n, tape):
        model = make_model(homes, n)
        windows = mixed_windows(homes, n)
        rng = np.random.default_rng(n)
        # single-slot, fully masked and unmasked events, the same stream event
        # masked differently in different windows
        masks = rng.random((len(windows), n, N_SLOTS)) < 0.2
        masks[rng.random((len(windows), n)) < 0.1] = True
        assert masks.any(axis=2).any() and not masks.any(axis=2).all()
        with tape():
            reference = per_window_rows(model, windows, masks)
            rows = model.event_rows(windows, masks).data
        np.testing.assert_array_equal(rows, reference)

    def test_ad_hoc_windows_with_equal_starts_keep_their_own_events(self, homes):
        model = make_model(homes, 4)
        windows = [make_window(n=4, seed=seed) for seed in range(3)]
        with no_grad():
            rows = model.event_rows(windows).data
        assert not np.array_equal(rows[0], rows[1])
        assert not np.array_equal(rows[1], rows[2])

    def test_unequal_lengths_rejected(self, homes):
        model = make_model(homes, 4)
        with pytest.raises(ValueError, match="same length"):
            model.event_rows([make_window(n=4), make_window(n=3)])

    def test_mask_shape_rejected(self, homes):
        model = make_model(homes, 4)
        with pytest.raises(ValueError, match="masks shape"):
            model.event_rows([make_window(n=4)] * 2, np.zeros((2, 3, N_SLOTS)))

    def test_taped_path_still_reaches_event_encoder(self, homes):
        model = make_model(homes, 4)
        windows = stride_one(homes, 4)[homes[0].name][:6]
        _, pooled = model.window_tensors(windows)
        pooled.sum().backward()
        assert model.event_params["fuse.w"].grad is not None


class TestFullyMaskedEvents:
    def test_every_fully_masked_row_is_equal(self, homes):
        model = make_model(homes, 4)
        windows = mixed_windows(homes, 4)
        masks = np.ones((len(windows), 4, N_SLOTS))
        with no_grad():
            rows = per_window_rows(model, windows, masks)
        np.testing.assert_array_equal(rows, np.broadcast_to(rows[0, 0], rows.shape))
        for window in windows[:3]:
            np.testing.assert_array_equal(model.masked_event_row(window), rows[0, 0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phase2_positives_match_masked_encoding(self, homes, seed):
        # the phase-2 positive view, built the way pretraining builds it
        model = make_model(homes, 4, seed=seed)
        windows = mixed_windows(homes, 4)
        rng = np.random.default_rng(seed)
        masks = np.stack([augment_mask_event(w, 0.3, rng).augmented.mask for w in windows])
        assert masks.any() and not masks.all()
        with no_grad():
            reference = per_window_rows(model, windows, masks.astype(np.float64))
        positives = np.where(masks.all(axis=2)[:, :, None],
                             model.masked_event_row(windows[0]),
                             model.event_rows(windows).data)
        np.testing.assert_array_equal(positives, reference)


class TestEncodeOncePerEvent:
    def test_batched_pooled_encodes_each_stream_event_once_per_chunk(self, homes,
                                                                     monkeypatch):
        n, chunk = 4, 8
        model = make_model(homes, n)
        windows = stride_one(homes, n)[homes[0].name][5:25]
        encoded = []
        original = model_module.encode_batch

        def counting(batch, *args, **kwargs):
            encoded.append(batch.shape[0] * batch.shape[1])
            return original(batch, *args, **kwargs)

        monkeypatch.setattr(model_module, "encode_batch", counting)
        evaluation.batched_pooled(model, windows, chunk=chunk)
        sizes = [len(windows[lo:lo + chunk]) for lo in range(0, len(windows), chunk)]
        assert encoded == [w + n - 1 for w in sizes]

    def test_phase1_step_encodes_distinct_rows_once(self, homes, monkeypatch):
        n, b = 4, 16
        model = make_model(homes, n)
        name = homes[0].name
        windows = stride_one(homes, n)[name][:b]
        encoded, pairs = [], []
        original_encode = model_module.encode_batch
        original_augment = pretraining.augment_mask_attribute

        def counting(batch, *args, **kwargs):
            encoded.append(batch.shape[0] * batch.shape[1])
            return original_encode(batch, *args, **kwargs)

        def recording(*args, **kwargs):
            pairs.append(original_augment(*args, **kwargs))
            return pairs[-1]

        monkeypatch.setattr(model_module, "encode_batch", counting)
        monkeypatch.setattr(pretraining, "augment_mask_attribute", recording)
        config = PretrainConfig(batch_size=b, epochs_phase1=1, epochs_phase2=0,
                                windows_per_dataset=b, p_event_select=0.5)
        assert len(pretrain({name: windows}, config, model).history) == 1
        unmasked = {p.original.start + j for p in pairs for j in range(n)}
        masked = {(p.original.start + j, tuple(p.augmented.mask[j]))
                  for p in pairs for j in range(n) if p.augmented.mask[j].any()}
        assert masked and len(unmasked) < b * n
        assert encoded == [len(unmasked) + len(masked)]


class TestGatheredGradients:
    """Float64 finite differences through the shared rows; stride-1 windows
    repeat each stream event, so the gather's backward must sum over uses."""

    @staticmethod
    def setup(homes, seed, n=3):
        config = toy_config(n_window=n)
        model = Model.init(config, fallback_table(config.text_dim()), seed=seed)
        for ds in homes:
            model.add_stream_features(ds.name, ds.stream.events)
        first, second = (stride_one(homes, n)[ds.name] for ds in homes)
        windows = first[5:9] + [make_window(n=n, seed=seed)] + second[2:4] + first[6:7]
        return model, windows

    @pytest.mark.parametrize("seed", [0, 1])
    def test_phase1_infonce(self, homes, seed):
        with precision("float64"):
            model, windows = self.setup(homes, seed)
            rng = np.random.default_rng(seed)
            masks = np.stack([augment_mask_attribute(w, 0.5, rng).augmented.mask
                              for w in windows])
            config = PretrainConfig(temperature=0.5)
            err = grad_check(lambda: phase1_loss(model, windows, masks, config),
                             list(model.event_params.tensors.values()), seed=seed)
        assert err < 1e-4

    def test_full_adl_loss(self, homes):
        with precision("float64"):
            model, windows = self.setup(homes, seed=2)
            head = init_adl_head(["cook", "sleep", "other"], model.config.d, seed=2)
            ids = np.arange(len(windows)) % 3

            def f():
                _, pooled = model.window_tensors(windows)
                return adl_loss(pooled, ids, head)

            params = [t for g in (*model.groups.values(), head.params)
                      for t in g.tensors.values()]
            err = grad_check(f, params, seed=2)
        assert err < 1e-4
