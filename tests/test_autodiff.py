"""Gradient and semantics checks for the autodiff core.

Every differentiable primitive is checked against central finite differences
(the independent oracle) on three seeded random inputs, in float64 mode.
"""

import math

import numpy as np
import pytest

from domusfm import autodiff as ad
from domusfm.autodiff import Tensor, grad_check, no_grad, parameter, precision

SEEDS = (0, 1, 2)
TOL = 1e-4


def _projected_sum(out: Tensor, rng: np.random.Generator) -> Tensor:
    """Random projection to a scalar so every output element gets gradient."""
    r = Tensor(rng.normal(size=out.shape))
    return (out * r).sum()


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
            b = parameter(rng.normal(size=(3, 4)) + 3.0)  # keep b away from 0 for div

            def f():
                out = (a * b + a - b) / b + ad.power(b, 1.5) + ad.exp(a) + ad.log(b)
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
                return _projected_sum(a @ b, np.random.default_rng(seed + 100))

            return [a, b], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_matmul(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(2, 3, 4)))
            b = parameter(rng.normal(size=(2, 4, 5)))
            shared = parameter(rng.normal(size=(4, 5)))

            def f():
                out = (a @ b) + (a @ shared)
                return _projected_sum(out, np.random.default_rng(seed + 100))

            return [a, b, shared], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", [(6, 7, 4), (2, 3, 5, 4)])
    def test_weight_matmul(self, seed, shape):
        # batched rows times one shared 2-D weight, the weight gradient taken
        # as a single GEMM over the flattened rows; also through a transposed
        # (non-contiguous) input
        def build(rng):
            a = parameter(rng.normal(size=shape))
            w = parameter(rng.normal(size=(4, 3)))

            def f():
                lead = len(shape) - 3
                flipped = ad.transpose(a, tuple(range(lead)) + (lead + 1, lead, lead + 2))
                rng = np.random.default_rng(seed + 100)
                return _projected_sum(a @ w, rng) + _projected_sum(flipped @ w, rng)

            return [a, w], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reductions_and_shapes(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(3, 4, 2)))

            def f():
                t = ad.transpose(a, (1, 0, 2))
                r = ad.reshape(t, (4, 6))
                s = r.sum(axis=1) + r.mean(axis=0).sum() + a.sum()
                return _projected_sum(s, np.random.default_rng(seed + 100))

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
                out = sliced.sum() + _projected_sum(rows, np.random.default_rng(seed + 100))
                return out

            return [a, b, table], f

        assert _check(build, seed) < TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax_families(self, seed):
        def build(rng):
            a = parameter(rng.normal(size=(3, 5)))

            def f():
                out = ad.softmax(a, axis=-1) + ad.log_softmax(a, axis=-1)
                return _projected_sum(out, np.random.default_rng(seed + 100))

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
                return (x * x).sum()

            err = grad_check(f, [x])
        assert err < 1e-8

    def test_rejects_float32(self):
        x = parameter(np.array([3.0], dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda: (x * x).sum(), [x])


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
            y = (x * 2.0).sum()
        assert y._backward is None and not y.requires_grad

    def test_gradient_accumulates_across_uses(self):
        with precision("float64"):
            x = parameter(np.array([2.0]))
            y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
            y.sum().backward()
            np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_requires_scalar(self):
        x = parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            (x * 1.0).backward()

    def test_dtype_default_is_float32(self):
        assert Tensor([1.0]).data.dtype == np.float32
        with precision("float64"):
            assert Tensor([1.0]).data.dtype == np.float64
