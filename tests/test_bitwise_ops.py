"""Bitwise equivalence of the hot ops with their textbook formulas.

``softmax``, ``gelu``, ``layer_norm`` and ``linear`` work in buffers they
allocate and reuse, but keep the float operation order of the plain numpy
formulas below. These references are the formulas the ops replaced; every
checkpoint, loss CSV and benchmark digest depends on the ops reproducing them
exactly at float32, forward and backward. An input gradient multiplies by a
C-contiguous copy of the transposed weight. ``feed_forward`` runs its rows in
blocks of whole windows, recomputes its hidden activations in backward, and
must match the ``linear -> gelu -> linear`` tape it replaced, the same formulas
on its rows as one matrix, and itself at any block size. ``l2_normalize``
and ``cross_entropy`` are single nodes in place of tapes of small ops; their
references replay those tapes in numpy. ``take_rows``'s backward sums in another order than ``np.add.at`` and matches
it within float32 rounding.
"""

import numpy as np
import pytest

from domusfm import autodiff as ad
from domusfm.autodiff import Tensor, parameter
from domusfm import nn
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
    dx = np.matmul(g, np.ascontiguousarray(w.T))
    k, m = w.shape
    dw = x.reshape(-1, k).T @ g.reshape(-1, m) if x.ndim > 2 else np.matmul(x.T, g)
    return out, dx, dw, ref_unbroadcast(g, b.shape)


def ref_feed_forward(x, w1, b1, w2, b2, g):
    """``linear -> gelu -> linear`` on the rows of ``x`` as one 2-D matrix.

    The bias gradients sum over the batch axes of the unflattened gradient,
    one axis after another, as the tape did.
    """
    lead = x.shape[:-1]
    rows = x.reshape(-1, x.shape[-1])
    pre = np.matmul(rows, w1) + b1
    out, dh, dw2, _ = ref_linear(ref_gelu(pre), w2, b2, g.reshape(-1, g.shape[-1]))
    dpre = ref_gelu_backward(pre, dh)
    _, dx, dw1, _ = ref_linear(rows, w1, b1, dpre)
    return (out.reshape(lead + (-1,)), dx.reshape(x.shape), dw1,
            ref_unbroadcast(dpre.reshape(lead + (-1,)), b1.shape), dw2,
            ref_unbroadcast(g, b2.shape))


def ref_l2_normalize(x, g, axis=-1, eps=1e-12):
    """The tape ``x / power(sum(x * x) + eps, 0.5)``: quotient, power, sum, product."""
    s = (x * x).sum(axis=axis, keepdims=True) + np.float32(eps)
    norm = s ** 0.5
    dnorm = (-g * x / (norm * norm)).sum(axis=axis, keepdims=True)
    ds = np.broadcast_to(dnorm * 0.5 * s ** (0.5 - 1.0), x.shape).copy()
    # the quotient's gradient reaches x first, then each factor of x * x
    return x / norm, g / norm + ds * x + ds * x


def _log_softmax(x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def ref_cross_entropy_picked(x, idx, axis, g):
    """The tape ``-(log_softmax(x)[idx].mean())`` of InfoNCE and the ADL loss."""
    logp = _log_softmax(x, axis)
    picked = logp[idx]
    scale = np.float32(1.0 / picked.size)
    dlogp = np.zeros_like(x)
    dlogp[idx] = -g * scale
    return (-(picked.sum() * scale),
            dlogp - np.exp(logp) * dlogp.sum(axis=axis, keepdims=True))


def ref_cross_entropy_soft(x, dist, g):
    """The tape ``-(sum(log_softmax(x) * dist, -1).mean())`` of the next-k loss."""
    logp = _log_softmax(x, -1)
    rows = (logp * dist).sum(axis=-1)
    scale = np.float32(1.0 / rows.size)
    dlogp = np.broadcast_to(-g * scale, x.shape) * dist
    return (-(rows.sum() * scale),
            dlogp - np.exp(logp) * dlogp.sum(axis=-1, keepdims=True))


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
                                        ((100, 8), 64), ((1400, 7, 64), 64)])
@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("x_on_tape", [True, False])
@pytest.mark.parametrize("uses", [1, 2])
def test_linear_matches_reference(x_shape, m, transposed, x_on_tape, uses):
    # transposed: x is a non-contiguous view; x off the tape is a constant, as
    # in the event encoder's projections of its features; uses=2: one W and b
    # see two inputs before one backward, as in phase 2's two views
    rng = np.random.default_rng(3)
    k = x_shape[-1]
    w = _f32(rng, (k, m), k ** -0.5)
    b = _f32(rng, (m,), 0.1)
    xs = [_f32(rng, x_shape[::-1]).T if transposed else _f32(rng, x_shape)
          for _ in range(uses)]
    gs = [_f32(rng, x_shape[:-1] + (m,)) for _ in range(uses)]
    ws, bs = parameter(w), parameter(b)
    inputs = [parameter(x) if x_on_tape else Tensor(x) for x in xs]
    outs = [linear(x, ws, bs) for x in inputs]
    sum(((out * Tensor(g)).sum() for out, g in zip(outs, gs)), Tensor(0.0)).backward()
    refs = [ref_linear(x, w, b, g) for x, g in zip(xs, gs)]
    for x, out, (ref_out, dx, _, _) in zip(inputs, outs, refs):
        assert x.data.flags.c_contiguous != transposed
        np.testing.assert_array_equal(out.data, ref_out)
        if x_on_tape:
            np.testing.assert_array_equal(x.grad, dx)
        else:
            assert x.grad is None
    np.testing.assert_array_equal(ws.grad, sum(ref[2] for ref in refs))
    np.testing.assert_array_equal(bs.grad, sum(ref[3] for ref in refs))


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
        expected = ref_feed_forward(xs[0], w1, b1, w2, b2, gs[0])
        for got, want in zip(out_f + dx_f + dp_f, expected):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("b, n", [(5, 7), (64, 30), (1400, 7)])
def test_feed_forward_bits_do_not_depend_on_the_row_blocks(b, n, monkeypatch):
    # a block of one window, blocks that split the batch unevenly, and one
    # block for everything give the same output and gradients
    rng = np.random.default_rng(9)
    group = _ffn_params(rng, 64)
    x, g = _f32(rng, (b, n, 64)), _f32(rng, (b, n, 64))
    results = []
    for rows in (1, 3 * n, nn.FF_BLOCK_ROWS, b * n):
        monkeypatch.setattr(nn, "FF_BLOCK_ROWS", rows)
        xs = parameter(x)
        out = feed_forward(xs, group.tensors, "ff")
        _backprop(out, g)
        results.append([out.data, xs.grad] + [t.grad for t in group.tensors.values()])
        group.zero_grad()
    for other in results[1:]:
        for got, expected in zip(other, results[0]):
            np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("shape, axis", [((64, 128), -1), ((64, 1), -1), ((8, 64), 0)])
def test_l2_normalize_matches_reference(shape, axis):
    rng = np.random.default_rng(5)
    x = _f32(rng, shape, 3.0)
    x[0] = 0.0                            # a zero row: the norm is sqrt(eps)
    g = _f32(rng, shape)
    a = parameter(x)
    out = ad.l2_normalize(a, axis=axis)
    ref_out, dx = ref_l2_normalize(x, g, axis)
    np.testing.assert_array_equal(out.data, ref_out)
    _backprop(out, g)
    np.testing.assert_array_equal(a.grad, dx)


@pytest.mark.parametrize("temperature", [0.05, 0.1, 0.7, 1.0])
@pytest.mark.parametrize("axis", [1, 0])
def test_cross_entropy_matches_infonce_tape(temperature, axis):
    # one direction of InfoNCE: the diagonal of a similarity matrix picked
    rng = np.random.default_rng(6)
    b = 64
    sim = (np.tanh(_f32(rng, (b, b))) * np.float32(1.0 / temperature)).astype(np.float32)
    for g in (np.float32(0.5), np.float32(1.0)):
        a = parameter(sim)
        out = ad.cross_entropy(a, np.eye(b), axis=axis)
        ref_out, dx = ref_cross_entropy_picked(sim, (np.arange(b), np.arange(b)), axis, g)
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data, ref_out)
        _backprop(out, g)
        np.testing.assert_array_equal(a.grad, dx)


def test_cross_entropy_matches_adl_tape():
    rng = np.random.default_rng(7)
    n, classes = 64, 9
    logits = _f32(rng, (n, classes), 2.0)
    ids = rng.integers(0, classes, size=n)
    a = parameter(logits)
    out = ad.cross_entropy(a, np.eye(classes)[ids])
    ref_out, dx = ref_cross_entropy_picked(logits, (np.arange(n), ids), -1, np.float32(1.0))
    np.testing.assert_array_equal(out.data, ref_out)
    _backprop(out, np.float32(1.0))
    np.testing.assert_array_equal(a.grad, dx)


def test_cross_entropy_matches_nextk_tape():
    rng = np.random.default_rng(8)
    n, types = 64, 40
    logits = _f32(rng, (n, types), 2.0)
    counts = rng.integers(0, 3, size=(n, types)).astype(np.float64)
    counts[::5] = 0.0                     # windows with no event in the horizon
    dist = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)
    a = parameter(logits)
    out = ad.cross_entropy(a, dist)       # a float64 target is cast, as Tensor() did
    ref_out, dx = ref_cross_entropy_soft(logits, dist.astype(np.float32), np.float32(1.0))
    np.testing.assert_array_equal(out.data, ref_out)
    _backprop(out, np.float32(1.0))
    np.testing.assert_array_equal(a.grad, dx)


def test_take_rows_backward_sums_like_add_at():
    # the sorted segment sums add each row's uses in another order than
    # ``np.add.at``: equal up to float32 rounding of sums of ~30 terms
    rng = np.random.default_rng(10)
    table = parameter(_f32(rng, (1400, 64)))
    idx = rng.integers(0, 1400, size=(128, 30))
    g = _f32(rng, (128, 30, 64))
    _backprop(ad.take_rows(table, idx), g)
    expected = np.zeros((1400, 64), np.float32)
    np.add.at(expected, idx, g)
    np.testing.assert_allclose(table.grad, expected, rtol=1e-5, atol=2e-6)
