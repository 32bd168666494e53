"""Event rows: bitwise equal to the per-window encoder path, once per distinct event."""

from contextlib import nullcontext

import numpy as np
import pytest

from conftest import toy_config, toy_window
from domusfm import evaluation, model as model_module, pretraining
from domusfm.autodiff import grad_check, no_grad, precision, tensor_sum
from domusfm.benchmark import three_home_corpus
from domusfm.context_encoder import pool_sequence
from domusfm.downstream import adl_loss, init_adl_head
from domusfm.embeddings import fallback_table
from domusfm.event_encoder import MASK_ID, N_SLOTS
from domusfm.model import Model
from domusfm.pretraining import (
    PretrainConfig,
    contrastive_loss,
    pretrain,
)
from domusfm.segmentation import Window, segment_events


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
    """Overlapping stride-1 windows of two streams, shuffled.

    Both streams have windows at the same starts, so any grouping by start
    alone would hand windows of one stream the other's rows.
    """
    windows = stride_one(homes, n)
    first, second = (windows[ds.name] for ds in homes)
    batch = first[3:13] + second[5:12] + second[40:47] + first[10:14]
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

    def test_unequal_lengths_rejected(self, homes):
        model = make_model(homes, 4)
        windows = [stride_one(homes, n)[homes[0].name][0] for n in (4, 3)]
        with pytest.raises(ValueError, match="same length"):
            model.event_rows(windows)

    def test_mask_shape_rejected(self, homes):
        model = make_model(homes, 4)
        windows = stride_one(homes, 4)[homes[0].name][:2]
        with pytest.raises(ValueError, match="masks shape"):
            model.event_rows(windows, np.zeros((2, 3, N_SLOTS)))

    @pytest.mark.parametrize("path", ["event_rows", "batch"])
    def test_unregistered_stream_rejected(self, homes, path):
        model = make_model(homes, 4)
        windows = stride_one(homes, 4)[homes[0].name][:2] + [Window("attic", 0, 4)]
        with pytest.raises(ValueError, match="no stream features for dataset 'attic'"):
            getattr(model, path)(windows)

    @pytest.mark.parametrize("path", ["event_rows", "batch"])
    def test_window_past_stream_end_rejected(self, homes, path):
        model = make_model(homes, 4)
        name, total = homes[0].name, len(homes[0].stream)
        windows = stride_one(homes, 4)[name][:2] + [Window(name, total - 3, 4)]
        with pytest.raises(ValueError, match=rf"a window reaching event {total} runs "
                                             rf"past the end of stream '{name}' "
                                             rf"\({total} events\)"):
            getattr(model, path)(windows)

    def test_fully_masked_window_past_stream_end_rejected(self, homes):
        # fully masked events share one row per stream: the span is checked first
        model = make_model(homes, 4)
        name, total = homes[0].name, len(homes[0].stream)
        windows = stride_one(homes, 4)[name][:2] + [Window(name, total - 3, 4)]
        with pytest.raises(ValueError, match=rf"a window reaching event {total} runs "
                                             rf"past the end of stream '{name}'"):
            model.event_rows(windows, np.ones((3, 4, N_SLOTS)))

    def test_taped_path_still_reaches_event_encoder(self, homes):
        model = make_model(homes, 4)
        windows = stride_one(homes, 4)[homes[0].name][:6]
        _, pooled = model.window_tensors(windows)
        tensor_sum(pooled).backward()
        assert model.event_params["fuse.w"].grad is not None


class TestFullyMaskedEvents:
    def test_every_fully_masked_row_is_equal(self, homes, monkeypatch):
        # a fully masked event has only mask vectors for inputs
        model = make_model(homes, 4)
        windows = mixed_windows(homes, 4)
        masks = np.ones((len(windows), 4, N_SLOTS))
        with no_grad():
            reference = per_window_rows(model, windows, masks)
            encoded = []
            original = model_module.encode_batch

            def counting(batch, *args, **kwargs):
                encoded.append(batch.shape[0] * batch.shape[1])
                return original(batch, *args, **kwargs)

            monkeypatch.setattr(model_module, "encode_batch", counting)
            rows = model.event_rows(windows, masks).data
        np.testing.assert_array_equal(reference,
                                      np.broadcast_to(reference[0, 0], reference.shape))
        np.testing.assert_array_equal(rows, reference)
        assert encoded == [len(homes)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phase2_positives_match_masked_encoding(self, homes, seed, monkeypatch):
        # the anchors and masked views the phase-2 step encodes, against each
        # window encoded on its own with the same flags
        model = make_model(homes, 4, seed=seed)
        windows = mixed_windows(homes, 4)
        calls = []
        original = Model.event_rows

        def recording(self, wins, masks=None):
            rows = original(self, wins, masks)
            calls.append((wins, masks, rows.data))
            return rows

        monkeypatch.setattr(Model, "event_rows", recording)
        config = PretrainConfig(p_event_mask=0.3)
        contrastive_loss(model, windows, 2, config, np.random.default_rng(seed))
        [(wins, views, rows)] = calls
        assert wins == windows * 2
        full = views.all(axis=2)
        assert not views[:len(windows)].any() and full[len(windows):].any()
        assert (full == views.any(axis=2)).all() and not full.all()
        with no_grad():
            reference = per_window_rows(model, wins, views.astype(np.float64))
        np.testing.assert_array_equal(rows, reference)


class TestEncodeOncePerEvent:
    def test_batched_pooled_encodes_each_stream_event_once_per_chunk(self, homes,
                                                                     monkeypatch):
        n, chunk = 4, 8
        model = make_model(homes, n)
        windows = stride_one(homes, n)[homes[0].name][5:25]
        ids = model.features[homes[0].name].ids
        encoded = []
        original = model_module.encode_batch

        def counting(batch, *args, **kwargs):
            encoded.append(batch.shape[0] * batch.shape[1])
            return original(batch, *args, **kwargs)

        monkeypatch.setattr(model_module, "encode_batch", counting)
        evaluation.batched_pooled(model, windows, chunk=chunk)
        # one stream: a row per distinct id tuple among the chunk's events
        spans = [(windows[lo].start, windows[min(lo + chunk, len(windows)) - 1].start + n)
                 for lo in range(0, len(windows), chunk)]
        assert encoded == [len({tuple(row) for row in ids[a:b]}) for a, b in spans]
        assert sum(encoded) < sum(b - a for a, b in spans)

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

        def recording(window, *args, **kwargs):
            pairs.append((window, original_augment(window, *args, **kwargs)))
            return pairs[-1][1]

        monkeypatch.setattr(model_module, "encode_batch", counting)
        monkeypatch.setattr(pretraining, "augment_mask_attribute", recording)
        config = PretrainConfig(batch_size=b, epochs_phase1=1, epochs_phase2=0,
                                windows_per_dataset=b, p_event_select=0.5)
        assert len(pretrain({name: windows}, config, model).history) == 1
        ids = model.features[name].ids
        unmasked = {w.start + j for w, _ in pairs for j in range(n)}
        masked = {(w.start + j, tuple(mask[j]))
                  for w, mask in pairs for j in range(n) if mask[j].any()}
        assert masked and len(unmasked) < b * n
        # one row per distinct id tuple after masking, anchors and views alike
        rows = ({tuple(ids[i]) for i in unmasked}
                | {tuple(np.where(mask, MASK_ID, ids[i])) for i, mask in masked})
        assert encoded == [len(rows)] and len(rows) < len(unmasked) + len(masked)


class TestBatchedPooled:
    def test_rows_do_not_depend_on_chunk_or_batch_membership(self, homes):
        # a held-out window may be pooled once and reused only if its row is
        # the same in any chunk, beside any other windows (desk sizes)
        config = toy_config(d=64, heads=4, layers=2, n_window=30)
        model = Model.init(config, fallback_table(64), seed=0)
        windows = []
        for ds in homes:
            model.add_stream_features(ds.name, ds.stream.events)
            windows += segment_events(ds.stream, 30, 29, dataset=ds.name)
        assert len(windows) > 64
        rows = evaluation.batched_pooled(model, windows, chunk=256)
        for chunk in (1, 7, 64):
            np.testing.assert_array_equal(
                evaluation.batched_pooled(model, windows, chunk=chunk), rows)
        order = np.random.default_rng(0).permutation(len(windows))
        shuffled = evaluation.batched_pooled(model, [windows[i] for i in order], chunk=64)
        np.testing.assert_array_equal(shuffled, rows[order])


class TestGatheredGradients:
    """Float64 finite differences through the shared rows; stride-1 windows
    repeat each stream event, so the gather's backward must sum over uses."""

    @staticmethod
    def setup(homes, seed, n=3):
        config = toy_config(n_window=n)
        model = Model.init(config, fallback_table(config.d), seed=seed)
        for ds in homes:
            model.add_stream_features(ds.name, ds.stream.events)
        first, second = (stride_one(homes, n)[ds.name] for ds in homes)
        windows = first[5:9] + [toy_window(model, n=n, seed=seed)] + second[2:4] + first[6:7]
        return model, windows

    @staticmethod
    def contrastive_error(homes, seed, phase):
        # every call draws the same masks from a fresh generator
        with precision("float64"):
            model, windows = TestGatheredGradients.setup(homes, seed)
            config = PretrainConfig(temperature=0.5, p_event_select=0.5, p_event_mask=0.3)
            group = model.event_params if phase == 1 else model.context_params
            return grad_check(lambda: contrastive_loss(model, windows, phase, config,
                                                       np.random.default_rng(seed)),
                              list(group.tensors.values()), seed=seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_phase1_infonce(self, homes, seed):
        assert self.contrastive_error(homes, seed, phase=1) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1])
    def test_phase2_infonce(self, homes, seed):
        assert self.contrastive_error(homes, seed, phase=2) < 1e-4

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
