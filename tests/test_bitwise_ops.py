"""Bitwise equivalence of the hot ops with their textbook formulas.

``softmax``, ``gelu``, ``layer_norm`` and ``linear`` work in buffers they
allocate and reuse, but keep the float operation order of the plain numpy
formulas below. These references are the formulas the ops replaced; every
checkpoint, loss CSV and benchmark digest depends on the ops reproducing them
exactly at float32, forward and backward. ``feed_forward`` recomputes its
hidden activations in backward and must match the ``linear -> gelu -> linear``
tape it replaced.
"""

import numpy as np
import pytest

from domusfm import autodiff as ad
from domusfm.autodiff import Tensor, parameter
from domusfm.nn import ParamGroup, feed_forward, init_linear, layer_norm, linear

GELU_C = 0.7978845608028654
GELU_A = 0.044715


def ref_softmax(x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def ref_softmax_backward(y, g, axis):
    inner = (g * y).sum(axis=axis, keepdims=True)
    return y * (g - inner)


def ref_gelu(x):
    u = GELU_C * (x + GELU_A * (x * x * x))
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t)


def ref_gelu_backward(x, g):
    t = np.tanh(GELU_C * (x + GELU_A * (x * x * x)))
    du = GELU_C * (1.0 + 3.0 * GELU_A * (x * x))
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def ref_unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


def ref_layer_norm(x, gain, bias, g, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = xhat * gain + bias
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * inv
    return out, dx, ref_unbroadcast(g * xhat, gain.shape), ref_unbroadcast(g, bias.shape)


def ref_linear(x, w, b, g):
    out = np.matmul(x, w) + b
    dx = np.matmul(g, w.T)
    k, m = w.shape
    dw = x.reshape(-1, k).T @ g.reshape(-1, m) if x.ndim > 2 else np.matmul(x.T, g)
    return out, dx, dw, ref_unbroadcast(g, b.shape)


def _f32(rng, shape, scale=1.0):
    return (rng.normal(size=shape) * scale).astype(np.float32)


def _backprop(out: Tensor, g: np.ndarray):
    """Send exactly ``g`` into ``out``'s backward (1 * g is exact)."""
    (out * Tensor(g)).sum().backward()


@pytest.mark.parametrize("shape, axis", [
    ((64, 4, 30, 30), -1),   # context-encoder attention scores
    ((200, 4, 7, 7), -1),    # slot attention scores
    ((6, 7, 5, 3), 1),       # a middle axis
])
def test_softmax_matches_reference(shape, axis):
    rng = np.random.default_rng(0)
    x = _f32(rng, shape, 3.0)
    g = _f32(rng, shape)
    a = parameter(x)
    out = ad.softmax(a, axis=axis)
    y = ref_softmax(x, axis)
    assert out.data.dtype == np.float32
    np.testing.assert_array_equal(out.data, y)
    _backprop(out, g)
    np.testing.assert_array_equal(a.grad, ref_softmax_backward(y, g, axis))


@pytest.mark.parametrize("where", ["normal", "cube_dominates"])
def test_gelu_matches_reference(where):
    rng = np.random.default_rng(1)
    shape = (64, 30, 256)
    x = _f32(rng, shape, 1.5)
    if where == "cube_dominates":
        magnitude = rng.uniform(2.0, 6.0, size=shape)
        x = np.where(rng.random(shape) < 0.5, -magnitude, magnitude).astype(np.float32)
    g = _f32(rng, shape)
    a = parameter(x)
    out = ad.gelu(a)
    np.testing.assert_array_equal(out.data, ref_gelu(x))
    _backprop(out, g)
    np.testing.assert_array_equal(a.grad, ref_gelu_backward(x, g))


def test_gelu_tiny_and_zero_inputs_match_reference():
    # the halving is applied last; it must round the same way on subnormals
    x = np.array([0.0, -0.0, 1e-45, -3e-45, 1e-39, -2e-38, 1.2e-38, 3e-38, 1e-30],
                 dtype=np.float32)
    g = np.linspace(-1.0, 1.0, x.size).astype(np.float32)
    a = parameter(x)
    out = ad.gelu(a)
    np.testing.assert_array_equal(out.data, ref_gelu(x))
    _backprop(out, g)
    np.testing.assert_array_equal(a.grad, ref_gelu_backward(x, g))


@pytest.mark.parametrize("shape", [(64, 30, 64), (37, 16)])
def test_layer_norm_matches_reference(shape):
    rng = np.random.default_rng(2)
    d = shape[-1]
    x = _f32(rng, shape, 2.0) + np.float32(0.5)
    gain = (1.0 + 0.1 * rng.normal(size=d)).astype(np.float32)
    bias = _f32(rng, (d,), 0.1)
    g = _f32(rng, shape)
    xs, gs, bs = parameter(x), parameter(gain), parameter(bias)
    out = layer_norm(xs, gs, bs)
    ref_out, dx, dgain, dbias = ref_layer_norm(x, gain, bias, g)
    np.testing.assert_array_equal(out.data, ref_out)
    _backprop(out, g)
    np.testing.assert_array_equal(xs.grad, dx)
    np.testing.assert_array_equal(gs.grad, dgain)
    np.testing.assert_array_equal(bs.grad, dbias)


@pytest.mark.parametrize("x_shape, m", [((64, 30, 64), 256), ((64, 30, 256), 64),
                                        ((100, 8), 64)])
def test_linear_matches_reference(x_shape, m):
    rng = np.random.default_rng(3)
    k = x_shape[-1]
    x = _f32(rng, x_shape)
    w = _f32(rng, (k, m), k ** -0.5)
    b = _f32(rng, (m,), 0.1)
    g = _f32(rng, x_shape[:-1] + (m,))
    xs, ws, bs = parameter(x), parameter(w), parameter(b)
    out = linear(xs, ws, bs)
    ref_out, dx, dw, db = ref_linear(x, w, b, g)
    np.testing.assert_array_equal(out.data, ref_out)
    _backprop(out, g)
    np.testing.assert_array_equal(xs.grad, dx)
    np.testing.assert_array_equal(ws.grad, dw)
    np.testing.assert_array_equal(bs.grad, db)


def _ffn_params(rng, d):
    group = ParamGroup("ff")
    init_linear(group, "ff.1", d, 4 * d, rng)
    init_linear(group, "ff.2", 4 * d, d, rng)
    for t in group.tensors.values():      # non-zero biases
        t.data += _f32(rng, t.shape, 0.1)
    return group


def _three_op_ffn(x, params, prefix):
    h = ad.gelu(linear(x, params[f"{prefix}.1.w"], params[f"{prefix}.1.b"]))
    return linear(h, params[f"{prefix}.2.w"], params[f"{prefix}.2.b"])


@pytest.mark.parametrize("b, n", [(1, 1), (3, 4), (5, 7), (64, 30)])
@pytest.mark.parametrize("uses", [1, 2])
def test_feed_forward_matches_three_op_tape(b, n, uses):
    # uses=2: the weights see two inputs before one backward, as in phase 2's
    # two views
    rng = np.random.default_rng(4)
    d = 64 if (b, n) == (64, 30) else 16
    fused = _ffn_params(rng, d)
    plain = fused.copy()
    xs = [_f32(rng, (b, n, d)) for _ in range(uses)]
    gs = [_f32(rng, (b, n, d)) for _ in range(uses)]
    grads = []
    for ffn, group in ((feed_forward, fused), (_three_op_ffn, plain)):
        inputs = [parameter(x) for x in xs]
        outs = [ffn(x, group.tensors, "ff") for x in inputs]
        loss = sum(((out * Tensor(g)).sum() for out, g in zip(outs, gs)), Tensor(0.0))
        loss.backward()
        grads.append(([out.data for out in outs], [x.grad for x in inputs],
                      [t.grad for t in group.tensors.values()]))
    (out_f, dx_f, dp_f), (out_p, dx_p, dp_p) = grads
    for got, expected in zip(out_f + dx_f + dp_f, out_p + dx_p + dp_p):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, expected)
    if uses == 1:                         # and the reference formulas
        w1, b1, w2, b2 = (t.data for t in plain.tensors.values())
        pre = np.matmul(xs[0], w1) + b1
        out, dh, dw2, db2 = ref_linear(ref_gelu(pre), w2, b2, gs[0])
        _, dx, dw1, db1 = ref_linear(xs[0], w1, b1, ref_gelu_backward(pre, dh))
        for got, expected in zip(out_f + dx_f + dp_f, (out, dx, dw1, db1, dw2, db2)):
            np.testing.assert_array_equal(got, expected)
