"""Gradient and semantics checks for the autodiff core.

Every differentiable primitive is checked against central finite differences
(the independent oracle) on three seeded random inputs, in float64 mode.
"""

import math
import weakref

import numpy as np
import pytest

from domusfm import autodiff as ad
from domusfm import context_encoder, nn
from domusfm.autodiff import Tensor, grad_check, no_grad, parameter, precision
from domusfm.context_encoder import contextualize, init_context_encoder
from domusfm.nn import ParamGroup, init_attention, init_linear, layer_norm
from conftest import toy_config
from test_bitwise_ops import ref_layer_norm, ref_softmax, ref_softmax_backward

SEEDS = (0, 1, 2)
TOL = 1e-4


def _projected_sum(out: Tensor, rng: np.random.Generator) -> Tensor:
    """Random projection to a scalar so every output element gets gradient."""
    r = Tensor(rng.normal(size=out.shape))
    return ad.tensor_sum(out * r)


def _check(op_builder, seed: int) -> float:
    with precision("float64"):
        rng = np.random.default_rng(seed)
        params, f = op_builder(rng)
        return grad_check(f, params, seed=seed)


class TestPrimitiveGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_elementwise(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(3, 4)))
            b = parameter(rng.normal(size=(3, 4)))

            def f():
                out = (a * b + a - b) * ad.l2_normalize(b, axis=0)
                return _projected_sum(out, np.random.default_rng(seed + 100))

            return [a, b], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_broadcasting(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(3, 4)))
            row = parameter(rng.normal(size=(4,)))
            col = parameter(rng.normal(size=(3, 1)))

            def f():
                return _projected_sum(a + row * col, np.random.default_rng(seed + 100))

            return [a, row, col], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(3, 4)))
            b = parameter(rng.normal(size=(4, 5)))

            def f():
                return _projected_sum(ad.matmul(a, b), np.random.default_rng(seed + 100))

            return [a, b], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_matmul(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(2, 3, 4)))
            b = parameter(rng.normal(size=(2, 4, 5)))
            shared = parameter(rng.normal(size=(4, 5)))

            def f():
                out = ad.matmul(a, b) + ad.matmul(a, shared)
                return _projected_sum(out, np.random.default_rng(seed + 100))

            return [a, b, shared], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", [(6, 7, 4), (2, 3, 5, 4)])
    def test_weight_matmul(self, seed, shape):
        # batched rows times one shared 2-D weight, whose gradient sums the
        # per-batch products over the broadcast axes; also through a
        # transposed (non-contiguous) input
        def build(rng):
            a = parameter(rng.normal(size=shape))
            w = parameter(rng.normal(size=(4, 3)))

            def f():
                lead = len(shape) - 3
                flipped = ad.transpose(a, tuple(range(lead)) + (lead + 1, lead, lead + 2))
                rng = np.random.default_rng(seed + 100)
                return (_projected_sum(ad.matmul(a, w), rng)
                        + _projected_sum(ad.matmul(flipped, w), rng))

            return [a, w], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reductions_and_shapes(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(3, 4, 2)))

            def f():
                t = ad.transpose(a, (1, 0, 2))
                r = ad.reshape(t, (4, 6))
                s = (ad.tensor_sum(r, axis=1) + ad.tensor_sum(ad.tensor_mean(r, axis=0))
                     + ad.tensor_sum(a))
                return _projected_sum(s, np.random.default_rng(seed + 100))

            return [a], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_transpose_negative_axes(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(2, 3, 5, 4)))

            def f():
                t = ad.transpose(a, (0, -2, -3, -1))  # (2, 5, 3, 4)
                return _projected_sum(t, np.random.default_rng(seed + 100))

            return [a], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concat_getitem_take(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(3, 4)))
            b = parameter(rng.normal(size=(2, 4)))
            table = parameter(rng.normal(size=(5, 4)))
            idx = np.array([0, 3, 3, 1])

            def f():
                joined = ad.concat([a, b], axis=0)
                sliced = joined[1:4]
                rows = ad.take_rows(table, idx)
                return (ad.tensor_sum(sliced)
                        + _projected_sum(rows, np.random.default_rng(seed + 100)))

            return [a, b, table], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_take_rows_repeated_and_negative_indices(self, seed):
        # the sorted scatter-add sums every use of a row, in a 2-D index
        # array where -1 and 5 name the same row and row 2 is never used
        def build(rng):
            table = parameter(rng.normal(size=(6, 3)))
            idx = np.array([[0, 3, 3, -1], [5, 1, 3, 0]])

            def f():
                return _projected_sum(ad.take_rows(table, idx),
                                      np.random.default_rng(seed + 100))

            return [table], f

        assert _check(build, seed) < TOL

    def test_take_rows_empty_index(self):
        table = parameter(np.ones((4, 3)))
        rows = ad.take_rows(table, np.zeros((0,), dtype=np.int64))
        assert rows.shape == (0, 3)
        (ad.tensor_sum(rows) + ad.tensor_sum(table * 2.0)).backward()
        np.testing.assert_array_equal(table.grad, np.full((4, 3), 2.0, np.float32))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax_families(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(3, 5)))
            target = rng.dirichlet(np.ones(5), size=3)

            def f():
                return (_projected_sum(ad.softmax(a, axis=-1), np.random.default_rng(seed + 100))
                        + ad.cross_entropy(a, target, axis=-1))

            return [a], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("axis", (0, -1))
    @pytest.mark.parametrize("kind", ("one_hot", "soft"))
    def test_cross_entropy(self, seed, axis, kind):
        # (4, 5) logits: 4 rows of 5 classes along axis -1, 5 rows of 4 along 0
        rows, classes = (5, 4) if axis == 0 else (4, 5)
        rng = np.random.default_rng(seed)
        dist = (np.eye(classes)[rng.integers(classes, size=rows)] if kind == "one_hot"
                else rng.dirichlet(np.ones(classes), size=rows))
        dist[1] = 0.0                     # a row that adds nothing but counts in the mean
        target = dist.T if axis == 0 else dist

        def build(rng):
            a = parameter(rng.normal(size=(4, 5)) * 2.0)
            return [a], lambda: ad.cross_entropy(a, target, axis=axis)

        assert _check(build, seed) < TOL
        with precision("float64"):
            x = rng.normal(size=(4, 5))
            shifted = x - x.max(axis=axis, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
            expected = -(target * logp).sum() / rows
            assert ad.cross_entropy(x, target, axis=axis).item() == pytest.approx(expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax_middle_axis(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(3, 4, 5)))

            def f():
                return _projected_sum(ad.softmax(a, axis=1),
                                      np.random.default_rng(seed + 100))

            return [a], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_nonlinearities(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(4, 3)))

            def f():
                out = ad.gelu(a) + ad.softplus(a) + ad.l2_normalize(a)
                return _projected_sum(out, np.random.default_rng(seed + 100))

            return [a], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gelu_where_cube_dominates(self, seed):
        # 2 <= |x| <= 6: the 0.044715 x^3 term outgrows x from |x| ~ 4.7 on
        def build(rng):
            magnitude = rng.uniform(2.0, 6.0, size=(4, 5))
            a = parameter(np.where(rng.random((4, 5)) < 0.5, -magnitude, magnitude))

            def f():
                return _projected_sum(ad.gelu(a), np.random.default_rng(seed + 100))

            return [a], f

        assert _check(build, seed) < TOL


class TestGradCheckHarness:
    def test_square_at_three(self):
        # d/dx x^2 = 6 at x=3; central differences are exact for quadratics.
        with precision("float64"):
            x = parameter(np.array([3.0]))

            def f():
                return ad.tensor_sum(x * x)

            err = grad_check(f, [x])
        assert err < 1e-8

    def test_rejects_float32(self):
        x = parameter(np.array([3.0], dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda: ad.tensor_sum(x * x), [x])


class TestSoftmaxValues:
    def test_uniform(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-6)

    def test_two_logits(self):
        expected = [math.e / (math.e + 1), 1 / (math.e + 1)]
        out = ad.softmax(Tensor([1.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_large_inputs_no_overflow(self):
        out = ad.softmax(Tensor([1000.0, 0.0]), axis=-1)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(scale=10.0, size=(6, 9)))
        out = ad.softmax(x, axis=-1)
        assert (out.data >= 0).all()
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


class TestTapeMechanics:
    def test_no_grad_blocks_recording(self):
        x = parameter(np.ones(3))
        with no_grad():
            y = ad.tensor_sum(x * 2.0)
        assert y.node is None and not y.requires_grad

    def test_gradient_accumulates_across_uses(self):
        with precision("float64"):
            x = parameter(np.array([2.0]))
            y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
            ad.tensor_sum(y).backward()
            np.testing.assert_allclose(x.grad, [7.0])

    def test_shared_gradient_survives_later_accumulation(self):
        # add hands one gradient array to both leaves; accumulating more into
        # one of them must leave the other's untouched
        a = parameter(np.ones((2, 3)))
        b = parameter(np.ones((2, 3)))
        ad.tensor_sum(a + b).backward()
        assert np.shares_memory(a.grad, b.grad)
        ad.tensor_sum(a * 3.0).backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0))
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))

    def test_stored_grads_are_c_contiguous(self):
        a = parameter(np.arange(12.0).reshape(3, 4))
        b = parameter(np.arange(6.0).reshape(3, 2))
        v = parameter(np.arange(5.0))
        r = Tensor(np.linspace(-1.0, 1.0, 18).reshape(6, 3))
        out = ad.tensor_sum(ad.transpose(ad.concat([a, b], axis=1), (1, 0)) * r)
        (out + ad.tensor_sum(v, axis=0) * 2.0).backward()  # a 0-d gradient on the way
        for t in (a, b, v):
            assert t.grad.flags.c_contiguous
        np.testing.assert_array_equal(a.grad, r.data.T[:, :4])
        np.testing.assert_array_equal(b.grad, r.data.T[:, 4:])
        np.testing.assert_array_equal(v.grad, np.full(5, 2.0))

    def test_backward_requires_scalar(self):
        x = parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            (x * 1.0).backward()

    @pytest.mark.parametrize("build", ["no_grad", "constants"])
    def test_backward_off_the_tape_raises(self, build):
        # such a loss would leave every parameter without a gradient, and Adam
        # would step them all with zeros
        x = parameter(np.ones(3))
        if build == "no_grad":
            with no_grad():
                loss = ad.tensor_sum(x * 2.0)
        else:
            loss = ad.tensor_sum(Tensor(np.ones(3)) * 2.0)
        with pytest.raises(ValueError, match="on the tape"):
            loss.backward()
        assert x.grad is None

    def test_dtype_default_is_float32(self):
        assert Tensor([1.0]).data.dtype == np.float32
        with precision("float64"):
            assert Tensor([1.0]).data.dtype == np.float64


def _spy(monkeypatch, module, name, log):
    """Rebind ``module.name`` to record weak references to its input and output arrays."""
    original = getattr(module, name)

    def spied(*args, **kwargs):
        out = original(*args, **kwargs)
        log.append((weakref.ref(args[0].data), weakref.ref(out.data)))
        return out

    monkeypatch.setattr(module, name, spied)


class TestSavedArrays:
    """A backward keeps the arrays its formula reads; the rest are freed in forward."""

    def test_block_keeps_only_what_backward_reads(self):
        rng = np.random.default_rng(4)

        def f32(*shape):
            return rng.normal(size=shape).astype(np.float32)

        x, r, v = parameter(f32(4, 5, 8)), parameter(f32(4, 5, 8)), parameter(f32(8, 3))
        gain, bias = parameter(1.0 + 0.1 * f32(8)), parameter(0.1 * f32(8))
        refs = {}

        def block():
            s = x + r                        # add keeps shapes only
            scores = layer_norm(s, gain, bias) * 0.5   # a constant factor: mul keeps nothing
            y = ad.softmax(scores, axis=-1)  # softmax keeps its output
            refs.update(sum=weakref.ref(s.data), scores=weakref.ref(scores.data),
                        y=weakref.ref(y.data))
            return ad.tensor_sum(ad.matmul(y, v))

        loss = block()
        assert refs["sum"]() is None and refs["scores"]() is None
        assert refs["y"]() is not None
        loss.backward()
        assert refs["y"]() is None

        # the gradients are still the reference formulas, bit for bit
        s = x.data + r.data
        h = ref_layer_norm(s, gain.data, bias.data, np.zeros_like(s))[0]
        y = ref_softmax(h * np.float32(0.5), -1)
        ones = np.ones((4, 5, 3), np.float32)
        g_h = ref_softmax_backward(y, np.matmul(ones, v.data.T), -1) * np.float32(0.5)
        _, dx, dgain, dbias = ref_layer_norm(s, gain.data, bias.data, g_h)
        for t, expected in ((x, dx), (r, dx), (gain, dgain), (bias, dbias),
                            (v, np.matmul(np.swapaxes(y, -1, -2), ones).sum(axis=0))):
            np.testing.assert_array_equal(t.grad, expected)

    def test_context_layer_frees_scores_and_residual_before_backward(self, monkeypatch):
        config = toy_config(d=8, heads=2, layers=1)
        params = init_context_encoder(config, np.random.default_rng(0))
        softmaxes, norms = [], []
        _spy(monkeypatch, nn, "softmax", softmaxes)
        _spy(monkeypatch, context_encoder, "layer_norm", norms)
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4, 8)))
        loss = ad.tensor_sum(contextualize(x, params, config))
        (scores, weights), = softmaxes
        residual = norms[1][0]               # the input of the second layer norm
        assert scores() is None and residual() is None
        assert weights() is not None
        loss.backward()
        assert weights() is None
        assert all(t.grad is not None for t in params.tensors.values())

    @pytest.mark.parametrize("on_tape", ["x", "w"])
    def test_linear_keeps_only_the_operand_the_other_gradient_reads(self, on_tape):
        # x's gradient reads W and W's gradient reads x: with one of the two on
        # the tape, the closure keeps the other's data and not its own
        rng = np.random.default_rng(8)
        source = parameter(rng.normal(size=(3, 4, 8) if on_tape == "x" else (8, 5)))
        on = source * 2.0                 # an intermediate, freed when dropped
        off = Tensor(rng.normal(size=(8, 5) if on_tape == "x" else (3, 4, 8)))
        bias = parameter(np.zeros(5))
        on_data, off_data = weakref.ref(on.data), weakref.ref(off.data)
        loss = ad.tensor_sum(nn.linear(on, off, bias) if on_tape == "x"
                             else nn.linear(off, on, bias))
        del on, off
        assert on_data() is None and off_data() is not None
        loss.backward()
        assert off_data() is None
        assert source.grad is not None and bias.grad is not None

    def test_feed_forward_keeps_only_its_input(self, monkeypatch):
        # backward recomputes the pre-activation, GELU's tanh and GELU's output
        rng = np.random.default_rng(5)
        group = ParamGroup("ff")
        init_linear(group, "ff.1", 8, 32, rng)
        init_linear(group, "ff.2", 32, 8, rng)
        hidden = []
        original = ad._gelu_forward

        def spied(pre):
            t, y = original(pre)
            hidden.extend(weakref.ref(a) for a in (pre, t, y))
            return t, y

        monkeypatch.setattr(ad, "_gelu_forward", spied)
        x = parameter(rng.normal(size=(3, 4, 8)))
        loss = ad.tensor_sum(nn.feed_forward(x, group.tensors, "ff"))
        assert len(hidden) == 3 and all(r() is None for r in hidden)
        loss.backward()
        assert x.grad is not None
        assert all(t.grad is not None for t in group.tensors.values())

    def test_attention_off_the_tape_frees_each_intermediate(self, monkeypatch):
        # when the output projection starts, q, k, v, the scores, the weights
        # and the per-head context are already freed
        group = ParamGroup("attn")
        init_attention(group, "attn", 8, np.random.default_rng(6))
        made, alive = [], []

        def spy(name):
            original = getattr(nn, name)

            def spied(t, *args, **kwargs):
                if name == "linear" and args[0] is group["attn.o.w"]:
                    alive.extend(r() is not None for r in made)
                out = original(t, *args, **kwargs)
                made.append(weakref.ref(out.data))
                if name == "softmax":
                    made.append(weakref.ref(t.data))
                return out

            monkeypatch.setattr(nn, name, spied)

        for name in ("linear", "matmul", "softmax"):
            spy(name)
        x = Tensor(np.random.default_rng(7).normal(size=(3, 4, 8)))
        with no_grad():
            nn.multi_head_attention(x, 2, group.tensors)
        # q, k and v from linear; the raw scores and the context; the weights
        # and the scaled scores
        assert alive == [False] * 7
