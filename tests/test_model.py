"""Forward-only event rows: bitwise equal to the per-window encoder path, once per event."""

import numpy as np
import pytest

from conftest import make_window, toy_config
from domusfm import evaluation, model as model_module
from domusfm.autodiff import no_grad
from domusfm.benchmark import three_home_corpus
from domusfm.context_encoder import pool_sequence
from domusfm.embeddings import fallback_table
from domusfm.event_encoder import N_SLOTS
from domusfm.model import Model
from domusfm.pretraining import augment_mask_event
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
