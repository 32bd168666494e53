"""Layer semantics, optimizer behavior, and gradient checks for nn building blocks."""

import math

import numpy as np
import pytest

from domusfm import nn
from domusfm.autodiff import Tensor, grad_check, parameter, precision
from domusfm.nn import (
    NumericError,
    ParamGroup,
    adam_step,
    feed_forward,
    init_adam,
    init_attention,
    init_linear,
    layer_norm,
    linear,
    multi_head_attention,
)

SEEDS = (0, 1, 2)


class TestLinear:
    def test_identity(self):
        out = linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [[1.0, 2.0]])

    def test_hand_matmul(self):
        # [1,0] @ [[2,3],[4,5]] + [1,1] = [2+1, 3+1]
        out = linear(Tensor([[1.0, 0.0]]), Tensor([[2.0, 3.0], [4.0, 5.0]]),
                     Tensor([1.0, 1.0]))
        np.testing.assert_allclose(out.data, [[3.0, 4.0]])

    def test_shape_mismatch_reports_dimensions(self):
        with pytest.raises(ValueError, match=r"linear shape mismatch.*\[2, 3\]"):
            linear(Tensor(np.ones((1, 4))), Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradient_wrt_all_inputs(self, seed):
        with precision("float64"):
            rng = np.random.default_rng(seed)
            x = parameter(rng.normal(size=(3, 4)))
            w = parameter(rng.normal(size=(4, 2)))
            b = parameter(rng.normal(size=(2,)))
            err = grad_check(lambda: linear(x, w, b).sum(), [x, w, b], seed=seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradient_batched_input(self, seed):
        # one weight over a (2, 3) batch of rows, as in every encoder projection
        with precision("float64"):
            rng = np.random.default_rng(seed)
            x = parameter(rng.normal(size=(2, 3, 4)))
            w = parameter(rng.normal(size=(4, 5)))
            b = parameter(rng.normal(size=(5,)))
            r = Tensor(rng.normal(size=(2, 3, 5)))
            err = grad_check(lambda: (linear(x, w, b) * r).sum(), [x, w, b], seed=seed)
        assert err < 1e-4


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        out = layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, [[0.0, 0.0, 0.0]], atol=1e-7)

    def test_unit_variance_row(self):
        out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.data, [[expected, -expected]], rtol=1e-6)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_normalizes_rows(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(loc=2.0, scale=5.0, size=(4, 16)))
        out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradient(self, seed):
        with precision("float64"):
            rng = np.random.default_rng(seed)
            x = parameter(rng.normal(size=(3, 8)))
            g = parameter(rng.normal(1.0, 0.1, size=(8,)))
            b = parameter(rng.normal(size=(8,)))
            r = Tensor(rng.normal(size=(3, 8)))
            err = grad_check(lambda: (layer_norm(x, g, b) * r).sum(), [x, g, b], seed=seed)
        assert err < 1e-4


def _attn_params(d: int, rng: np.random.Generator) -> dict:
    group = ParamGroup("attn")
    init_attention(group, "attn", d, rng)
    return group.tensors


class TestMultiHeadAttention:
    def test_single_token_is_value_projection(self):
        rng = np.random.default_rng(0)
        d = 8
        params = _attn_params(d, rng)
        x = Tensor(rng.normal(size=(1, 1, d)))
        out = multi_head_attention(x, heads=2, params=params)
        # with one token the attention weight is exactly 1, so the output is
        # just the o-projection of the v-projection
        v = x.data @ params["attn.v.w"].data + params["attn.v.b"].data
        expected = v @ params["attn.o.w"].data + params["attn.o.b"].data
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_weight_rows_sum_to_one(self, seed):
        # with a zero v-projection every value row is the bias c, so each output
        # row is (sum of its attention weights) * c projected: c @ o.w + o.b
        rng = np.random.default_rng(seed)
        d = 12
        params = _attn_params(d, rng)
        params["attn.v.w"].data[:] = 0.0
        params["attn.v.b"].data[:] = rng.normal(size=d)
        x = Tensor(rng.normal(size=(2, 5, d)))
        out = multi_head_attention(x, heads=3, params=params).data
        expected = params["attn.v.b"].data @ params["attn.o.w"].data + params["attn.o.b"].data
        np.testing.assert_allclose(out, np.broadcast_to(expected, out.shape),
                                   rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        d = 8
        params = _attn_params(d, rng)
        x = rng.normal(size=(1, 3, d))
        perm = np.array([2, 0, 1])
        out = multi_head_attention(Tensor(x), 2, params).data
        out_p = multi_head_attention(Tensor(x[:, perm]), 2, params).data
        np.testing.assert_allclose(out_p, out[:, perm], rtol=1e-4, atol=1e-5)

    def test_rejects_indivisible_heads(self):
        params = _attn_params(8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="divisible"):
            multi_head_attention(Tensor(np.ones((1, 2, 8))), heads=3, params=params)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradient(self, seed):
        with precision("float64"):
            rng = np.random.default_rng(seed)
            d = 8
            group = ParamGroup("attn")
            init_attention(group, "attn", d, rng)
            x = parameter(rng.normal(size=(2, 4, d)))
            r = Tensor(rng.normal(size=(2, 4, d)))
            tensors = [x] + list(group.tensors.values())

            def f():
                return (multi_head_attention(x, 2, group.tensors) * r).sum()

            err = grad_check(f, tensors, seed=seed)
        assert err < 1e-4


class TestFeedForward:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradient(self, seed):
        with precision("float64"):
            rng = np.random.default_rng(seed)
            group = ParamGroup("ff")
            init_linear(group, "ff.1", 6, 24, rng)
            init_linear(group, "ff.2", 24, 6, rng)
            x = parameter(rng.normal(size=(3, 6)))
            r = Tensor(rng.normal(size=(3, 6)))

            def f():
                return (feed_forward(x, group.tensors, "ff") * r).sum()

            err = grad_check(f, [x] + list(group.tensors.values()), seed=seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradient_across_row_blocks(self, seed, monkeypatch):
        # blocks of two 4-event windows, the last one short
        monkeypatch.setattr(nn, "FF_BLOCK_ROWS", 8)
        with precision("float64"):
            rng = np.random.default_rng(seed)
            group = ParamGroup("ff")
            init_linear(group, "ff.1", 6, 24, rng)
            init_linear(group, "ff.2", 24, 6, rng)
            x = parameter(rng.normal(size=(5, 4, 6)))
            r = Tensor(rng.normal(size=(5, 4, 6)))

            def f():
                return (feed_forward(x, group.tensors, "ff") * r).sum()

            err = grad_check(f, [x] + list(group.tensors.values()), seed=seed)
        assert err < 1e-4


def _group(name: str, **arrays) -> ParamGroup:
    group = ParamGroup(name)
    for key, value in arrays.items():
        group.add(key, value)
    return group


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        # a tensor no gradient reached steps with a zero gradient
        g = _group("g", p=np.array([1.0, -2.0], dtype=np.float32))
        state = init_adam([g])
        before = g["p"].data.copy()
        adam_step([g], state)
        np.testing.assert_array_equal(g["p"].data, before)
        assert state.step == 1

    def test_hand_evaluated_first_step(self):
        # p=0, g=1: m=0.1, v=0.001, mhat=1, vhat=1 -> p = -lr/(1+eps)
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        mhat = (1 - b1) * 1.0 / (1 - b1)
        vhat = (1 - b2) * 1.0 / (1 - b2)
        expected = -lr * mhat / (math.sqrt(vhat) + eps)
        g = _group("g", p=np.array([0.0]))
        state = init_adam([g], lr=lr)
        g["p"].grad = np.array([1.0], dtype=g["p"].data.dtype)
        adam_step([g], state)
        np.testing.assert_allclose(g["p"].data, [expected], rtol=1e-6)
        np.testing.assert_allclose(g["p"].data, [-0.1], atol=1e-6)
        assert g["p"].grad is None  # the step clears what it applied

    def test_deterministic_across_runs(self):
        def run():
            rng = np.random.default_rng(7)
            g = _group("g", p=rng.normal(size=(4, 3)).astype(np.float32))
            state = init_adam([g])
            for step in range(10):
                g["p"].grad = np.asarray(rng.normal(size=(4, 3)), dtype=np.float32)
                adam_step([g], state)
            return g["p"].data.tobytes()

        assert run() == run()

    def test_rejects_non_finite_gradient(self):
        # the check covers every group before any parameter moves
        first = _group("first", a=np.array([1.0]))
        second = _group("second", p=np.array([0.0]))
        state = init_adam([first, second])
        first["a"].grad = np.array([1.0])
        second["p"].grad = np.array([np.nan])
        with pytest.raises(NumericError, match="second/p"):
            adam_step([first, second], state)
        assert first["a"].data[0] == 1.0 and state.step == 0

    def test_moment_shapes_match_parameters(self):
        g = _group("g", a=np.zeros((2, 5)), b=np.zeros(3))
        state = init_adam([g])
        for name, t in g.tensors.items():
            assert state.m["g", name].shape == t.data.shape
            assert state.v["g", name].shape == t.data.shape

    def test_one_step_over_groups_equals_one_step_per_group(self):
        # moments are keyed by (group, tensor): two groups may share tensor names
        def make():
            rng = np.random.default_rng(3)
            return [_group(name, w=rng.normal(size=(3, 4)).astype(np.float32),
                           b=rng.normal(size=4).astype(np.float32))
                    for name in ("enc", "head")]

        def set_grads(groups, step):
            rng = np.random.default_rng([11, step])
            for group in groups:
                for t in group.tensors.values():
                    t.grad = rng.normal(size=t.data.shape).astype(np.float32)

        joint, alone = make(), make()
        joint_state = init_adam(joint, lr=0.01)
        alone_states = [init_adam([g], lr=0.01) for g in alone]
        for step in range(3):
            set_grads(joint, step)
            set_grads(alone, step)
            adam_step(joint, joint_state)
            for g, state in zip(alone, alone_states):
                adam_step([g], state)
        assert [g.state_bytes() for g in joint] == [g.state_bytes() for g in alone]
        assert all(t.grad is None for g in joint for t in g.tensors.values())


class TestParamGroup:
    def test_duplicate_names_rejected(self):
        g = ParamGroup("g")
        g.add("w", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            g.add("w", np.zeros(2))

    def test_copy_is_deep(self):
        g = ParamGroup("g")
        g.add("w", np.ones(3))
        g2 = g.copy()
        g2["w"].data[0] = 5.0
        assert g["w"].data[0] == 1.0

    def test_frozen_group_untouched_by_apply(self):
        # fine-tuning steps only the trainable groups; a frozen backbone keeps
        # its bytes and has stale gradients cleared, never applied
        from conftest import toy_config, toy_window
        from domusfm.downstream import FinetuneSettings, FinetuneStrategy, TrainItem, finetune
        from domusfm.embeddings import fallback_table
        from domusfm.model import CONTEXT_GROUP, EVENT_GROUP, Model

        model = Model.init(toy_config(), fallback_table(8), seed=0)
        backbone = [model.groups[name] for name in (EVENT_GROUP, CONTEXT_GROUP)]
        for g in backbone:
            for t in g.tensors.values():
                t.grad = np.ones_like(t.data)
        before = [g.state_bytes() for g in backbone]
        items = [TrainItem(toy_window(model, n=4, seed=i), label=("cook", "sleep")[i % 2])
                 for i in range(8)]
        finetune(model, items, "adl",
                 FinetuneSettings(strategy=FinetuneStrategy.HEAD_ONLY, epochs=2,
                                  batch_size=4, seed=0),
                 classes=("cook", "sleep"))
        assert [g.state_bytes() for g in backbone] == before
        assert all(t.grad is None for g in backbone for t in g.tensors.values())
