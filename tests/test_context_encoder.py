"""Contextualization: information flow, pooling, ablation path, full-pipeline gradient."""

import dataclasses
from contextlib import nullcontext

import numpy as np
import pytest

from conftest import toy_config, toy_events, toy_window
from domusfm.autodiff import Tensor, grad_check, no_grad, precision
from domusfm.context_encoder import contextualize, init_context_encoder, pool_sequence
from domusfm.embeddings import fallback_table
from domusfm.model import Model

SEEDS = (0, 1, 2)


def make_ctx_params(config, seed=0):
    return init_context_encoder(config, np.random.default_rng(seed))


class TestContextualize:
    def test_single_event_is_deterministic_transform(self):
        config = toy_config()
        params = make_ctx_params(config)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, config.d)))
        a = contextualize(x, params, config)
        b = contextualize(x, params, config)
        np.testing.assert_array_equal(a.data, b.data)
        assert a.shape == (1, 1, config.d)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_distinct_inputs_stay_distinct(self, seed):
        config = toy_config()
        params = make_ctx_params(config, seed)
        rng = np.random.default_rng(seed + 7)
        x = Tensor(rng.normal(size=(1, 2, config.d)))
        out = contextualize(x, params, config).data[0]
        assert not np.allclose(out[0], out[1])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_context_flows_between_events(self, seed):
        config = toy_config()
        params = make_ctx_params(config, seed)
        rng = np.random.default_rng(seed + 13)
        base = rng.normal(size=(1, 3, config.d))
        perturbed = base.copy()
        # single-coordinate change: a uniform shift would be erased by the
        # pre-attention layer norm
        perturbed[0, 2, 0] += 1.0
        out_a = contextualize(Tensor(base), params, config).data
        out_b = contextualize(Tensor(perturbed), params, config).data
        assert not np.allclose(out_a[0, 0], out_b[0, 0])  # row 0 saw the change

    def test_batched_matches_unbatched(self):
        config = toy_config()
        params = make_ctx_params(config)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4, config.d)).astype(np.float32)
        batched = contextualize(Tensor(x), params, config).data
        for i in range(2):
            single = contextualize(Tensor(x[i:i + 1]), params, config).data
            np.testing.assert_allclose(batched[i:i + 1], single, rtol=2e-5, atol=1e-5)


class TestPooling:
    def test_single_row_identity(self):
        x = Tensor(np.array([[3.0, -1.0, 2.0]]))
        np.testing.assert_allclose(pool_sequence(x).data, [3.0, -1.0, 2.0])

    def test_two_row_mean(self):
        x = Tensor(np.array([[1.0, 1.0], [3.0, 3.0]]))
        np.testing.assert_allclose(pool_sequence(x).data, [2.0, 2.0])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6, 5))
        perm = rng.permutation(6)
        np.testing.assert_allclose(pool_sequence(Tensor(x)).data,
                                   pool_sequence(Tensor(x[perm])).data, rtol=1e-5,
                                   atol=1e-6)


class TestWindowTensors:
    def test_ablation_returns_event_embeddings_bitwise(self, table):
        config = toy_config(context_enabled=False)
        model = Model.init(config, table, seed=0)
        window = toy_window(model, n=4, seed=5)
        raw = model.encode_events(model.batch([window])).data
        for mode in (no_grad, nullcontext):  # forward-only and taped passes
            with mode():
                ctx, pooled = model.window_tensors([window])
            np.testing.assert_array_equal(ctx.data, raw)
            np.testing.assert_allclose(pooled.data[0], raw[0].mean(axis=0), rtol=1e-6)

    def test_deterministic(self, table):
        config = toy_config()
        model = Model.init(config, table, seed=1)
        window = toy_window(model, n=3, seed=2)
        with no_grad():
            a = model.window_tensors([window])
            b = model.window_tensors([window])
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_context_enabled_mixes_rows(self, table):
        config = toy_config()
        model = Model.init(config, table, seed=3)
        events = list(toy_events(n=3, seed=10))
        w1 = toy_window(model, events=events, name="original")
        # shift event 0 by two hours so its temporal features genuinely change
        events[0] = dataclasses.replace(events[0], timestamp=events[0].timestamp - 7200)
        w2 = toy_window(model, events=events, name="shifted")
        with no_grad():
            ctx1, _ = model.window_tensors([w1])
            ctx2, _ = model.window_tensors([w2])
        assert not np.allclose(ctx1.data[0, 2], ctx2.data[0, 2])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradient_full_pipeline(self, seed):
        config = toy_config()
        with precision("float64"):
            model = Model.init(config, fallback_table(config.d), seed=seed)
            window = toy_window(model, n=3, seed=seed)
            rng = np.random.default_rng(seed + 77)
            r = Tensor(rng.normal(size=(config.d,)))

            def f():
                _, pooled = model.window_tensors([window])
                return (pooled[0] * r).sum()

            params = [t for g in model.groups.values() for t in g.tensors.values()]
            err = grad_check(f, params, seed=seed)
        assert err < 1e-4
