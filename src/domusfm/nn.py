"""Parameter containers, core layers, and the Adam optimizer.

All layers are plain functions over :class:`~domusfm.autodiff.Tensor` values;
parameters live in named :class:`ParamGroup` objects so that the optimizer and
checkpoints operate on whole groups. The affine map ``x @ W + b`` is written
once, as ``_affine`` and ``_affine_grads``, which ``linear`` and
``feed_forward`` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor,
    _accumulate,
    _gelu_forward,
    _gelu_slope,
    _make,
    _unbroadcast,
    as_tensor,
    gelu,
    matmul,
    parameter,
    reshape,
    softmax,
    transpose,
)


class NumericError(RuntimeError):
    """Raised when a training step encounters non-finite values."""


@dataclass
class ParamGroup:
    """Named set of parameters updated together."""

    name: str
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def add(self, name: str, data) -> Tensor:
        if name in self.tensors:
            raise ValueError(f"duplicate tensor name {name!r} in group {self.name!r}")
        t = parameter(data)
        self.tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def zero_grad(self):
        for t in self.tensors.values():
            t.zero_grad()

    def copy(self) -> "ParamGroup":
        g = ParamGroup(self.name)
        for name, t in self.tensors.items():
            g.tensors[name] = parameter(t.data.copy())
        return g

    def state_bytes(self) -> bytes:
        """Concatenated raw little-endian float32 payload (bitwise comparisons)."""
        return b"".join(t.data.astype("<f4").tobytes() for t in self.tensors.values())


# -- initialization ----------------------------------------------------------


def init_linear(group: ParamGroup, name: str, fan_in: int, fan_out: int,
                rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """Weight ~ N(0, 1/fan_in), zero bias."""
    w = group.add(f"{name}.w", rng.normal(0.0, fan_in ** -0.5, size=(fan_in, fan_out)))
    b = group.add(f"{name}.b", np.zeros(fan_out))
    return w, b


def init_embedding(group: ParamGroup, name: str, rows: int, dim: int,
                   rng: np.random.Generator, scale: float = 0.02) -> Tensor:
    return group.add(name, rng.normal(0.0, scale, size=(rows, dim)))


def init_vector(group: ParamGroup, name: str, dim: int, rng: np.random.Generator,
                scale: float = 0.02) -> Tensor:
    return group.add(name, rng.normal(0.0, scale, size=(dim,)))


def init_layer_norm(group: ParamGroup, name: str, dim: int) -> tuple[Tensor, Tensor]:
    gain = group.add(f"{name}.g", np.ones(dim))
    bias = group.add(f"{name}.b", np.zeros(dim))
    return gain, bias


def init_attention(group: ParamGroup, name: str, d: int, rng: np.random.Generator):
    for proj in ("q", "k", "v", "o"):
        init_linear(group, f"{name}.{proj}", d, d, rng)


# -- layers ------------------------------------------------------------------


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """``x @ w + b``, the bias added into the GEMM output (or ``out``) in place."""
    out = np.matmul(x, w, out=out)
    out += b
    return out


def _affine_grads(g: np.ndarray, x: np.ndarray, nw, nb, bshape: tuple):
    """Accumulate the gradients of ``b`` and ``w`` in ``x @ w + b`` from ``g``.

    W's gradient is one GEMM over all rows of a batched ``x``, not a stack of
    per-batch products summed afterwards.
    """
    if nb is not None:
        _accumulate(nb, _unbroadcast(g, bshape))
    if nw is not None:
        _accumulate(nw, x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]))


def _input_grad(g: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """``g @ w.T``, the gradient of ``x`` in ``x @ w + b``.

    ``w.T`` is copied C-contiguous first: numpy's stacked matmul runs two to
    three times slower when its second operand is a transposed view.
    """
    return np.matmul(g, np.ascontiguousarray(w.T), out=out)


def linear(x, w, b) -> Tensor:
    """x @ w + b for a 2-D weight, one tape node, with a conformance check.

    The closure keeps ``x`` only when ``w`` needs a gradient and ``w`` only
    when ``x`` does.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim == 0 or x.shape[-1] != w.shape[0] or w.shape[1] != b.shape[-1]:
        raise ValueError(
            f"linear shape mismatch: x{list(x.shape)} @ w{list(w.shape)} + b{list(b.shape)}"
        )
    nx, nw, nb, bshape = x.node, w.node, b.node, b.shape
    xv = x.data if nw is not None else None
    wv = w.data if nx is not None else None

    def backward(g):
        _affine_grads(g, xv, nw, nb, bshape)
        if nx is not None:
            _accumulate(nx, _input_grad(g, wv))

    return _make(_affine(x.data, w.data, b.data), (nx, nw, nb), backward)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The centred input becomes ``xhat`` in place, and the squares become the
    output, so the forward allocates two full-size arrays.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if not d == gain.shape[-1] == bias.shape[-1]:
        raise ValueError(f"layer_norm shape mismatch: x{list(x.shape)}, "
                         f"gain{list(gain.shape)}, bias{list(bias.shape)}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    data = np.square(xhat)
    inv = 1.0 / np.sqrt(data.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=data)
    data += bias.data
    nx, ng, nb, gv = x.node, gain.node, bias.node, gain.data
    gshape, bshape = gain.shape, bias.shape

    def backward(g):
        tmp = None
        if nx is not None:
            dx = g * gv                                 # d loss / d xhat
            m1 = dx.mean(axis=-1, keepdims=True)
            tmp = dx * xhat
            m2 = tmp.mean(axis=-1, keepdims=True)
            dx -= m1
            dx -= np.multiply(xhat, m2, out=tmp)
            dx *= inv
            _accumulate(nx, dx)
        if ng is not None:
            _accumulate(ng, _unbroadcast(np.multiply(g, xhat, out=tmp), gshape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g, bshape))

    return _make(data, (nx, ng, nb), backward)


def multi_head_attention(x, heads: int, params: dict[str, Tensor],
                         prefix: str = "attn") -> Tensor:
    """Scaled dot-product self-attention of a (b, n, d) batch over its n axis.

    All heads share the four projection matrices ``{prefix}.{q,k,v,o}.{w,b}``
    of shape (d, d).
    """
    x = as_tensor(x)
    b, n, d = x.shape
    if d % heads != 0:
        raise ValueError(f"model dim {d} not divisible by {heads} heads")
    dh = d // heads

    def project(t, name):
        return linear(t, params[f"{prefix}.{name}.w"], params[f"{prefix}.{name}.b"])

    def split_heads(t):
        return transpose(reshape(t, (b, n, heads, dh)), (0, 2, 1, 3))

    qh = split_heads(project(x, "q"))
    kh = split_heads(project(x, "k"))
    vh = split_heads(project(x, "v"))
    # Each intermediate is dropped once its consumer has run, so a pass off
    # the tape frees it there; the tape keeps what backward reads.
    scores = matmul(qh, transpose(kh, (0, 1, 3, 2))) * (dh ** -0.5)
    del qh, kh
    weights = softmax(scores, axis=-1)
    del scores
    ctx = matmul(weights, vh)  # (b, heads, n, dh)
    del weights, vh
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (b, n, d))
    return project(ctx, "o")


FF_BLOCK_ROWS = 256


def feed_forward(x, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Two-layer MLP with GELU, hidden size taken from the stored weights.

    ``linear -> gelu -> linear`` as one tape node that keeps only ``x`` and
    the weights. The rows of ``x`` run through the hidden layer in blocks of
    whole windows, about ``FF_BLOCK_ROWS`` rows each, as 2-D GEMMs, so a
    block's pre-activation and GELU stay in cache; a window never spans two
    blocks. The backward recomputes each block's pre-activation, GELU's tanh
    and output with the forward's own calls (activation recomputation, Chen
    et al. 2016). The weight and bias gradients are still one GEMM or sum over
    all rows, in the three-node tape's float order. The backward holds two
    hidden-size arrays: GELU's output and the pre-activation's gradient.
    """
    x = as_tensor(x)
    w1, b1, w2, b2 = (params[f"{prefix}.{layer}.{p}"] for layer in (1, 2) for p in "wb")
    xv, w1v, b1v, w2v, b2v = x.data, w1.data, b1.data, w2.data, b2.data
    if not (xv.shape[-1] == w1v.shape[0] and w1v.shape[1] == b1v.shape[-1] == w2v.shape[0]
            and w2v.shape[1] == b2v.shape[-1]):
        raise ValueError(f"feed_forward shape mismatch: x{list(xv.shape)}, "
                         f"w1{list(w1v.shape)}, b1{list(b1v.shape)}, "
                         f"w2{list(w2v.shape)}, b2{list(b2v.shape)}")
    rows = xv.reshape(-1, xv.shape[-1])
    per_window = math.prod(xv.shape[1:-1])
    step = max(1, FF_BLOCK_ROWS // per_window) * per_window
    blocks = [slice(lo, lo + step) for lo in range(0, len(rows), step)]

    dtype = np.result_type(xv, w2v)
    out = np.empty((len(rows), w2v.shape[1]), dtype)
    for blk in blocks:
        # ``gelu`` is the module attribute, off the tape: instrumentation
        # that rebinds it times the forward's activation
        h = gelu(_make(_affine(rows[blk], w1v, b1v), (), None)).data
        _affine(h, w2v, b2v, out=out[blk])
    nx, nw1, nb1, nw2, nb2 = x.node, w1.node, b1.node, w2.node, b2.node

    def backward(g):
        g_rows = g.reshape(-1, g.shape[-1])
        h = np.empty((len(rows), w1v.shape[1]), dtype)
        dpre = np.empty_like(h)
        dx = np.empty_like(rows) if nx is not None else None
        for blk in blocks:
            pre = _affine(rows[blk], w1v, b1v)
            t, _ = _gelu_forward(pre, out=h[blk])
            dpre_blk = _gelu_slope(pre, t, out=dpre[blk], du=pre)
            del pre, t
            dpre_blk *= _input_grad(g_rows[blk], w2v)
            if dx is not None:
                _input_grad(dpre_blk, w1v, out=dx[blk])
        _affine_grads(g, h, nw2, nb2, b2v.shape)
        del h
        _affine_grads(dpre.reshape(xv.shape[:-1] + dpre.shape[-1:]), xv, nw1, nb1, b1v.shape)
        if dx is not None:
            _accumulate(nx, dx.reshape(xv.shape))

    return _make(out.reshape(xv.shape[:-1] + out.shape[-1:]), (nx, nw1, nb1, nw2, nb2),
                 backward)


# -- optimizer ---------------------------------------------------------------


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments keyed by (group name, tensor name), plus the step count."""

    lr: float = 1e-3
    step: int = 0
    m: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    v: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)


def check_lr(lr: float):
    """Reject a learning rate that is not a finite number > 0."""
    if not (math.isfinite(lr) and lr > 0.0):
        raise ValueError(f"lr must be a finite number > 0, got {lr}")


def init_adam(groups: list[ParamGroup], lr: float = 1e-3) -> AdamState:
    state = AdamState(lr=lr)
    for group in groups:
        for name, t in group.tensors.items():
            state.m[group.name, name] = np.zeros_like(t.data)
            state.v[group.name, name] = np.zeros_like(t.data)
    return state


def adam_step(groups: list[ParamGroup], state: AdamState) -> AdamState:
    """One bias-corrected Adam update of every tensor in ``groups``, in place.

    A tensor no gradient reached steps with a zero gradient. Every gradient is
    checked for finite values before any parameter changes; the gradients are
    cleared afterwards.
    """
    grads = {}
    for group in groups:
        for name, t in group.tensors.items():
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter "
                                   f"{group.name}/{name}")
            if g.shape != t.data.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape "
                                 f"{t.data.shape} for {group.name}/{name}")
            grads[group.name, name] = (t, g)
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for key, (t, g) in grads.items():
        m = state.m[key]
        v = state.v[key]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        t.data = t.data - (state.lr * mhat / (np.sqrt(vhat) + EPS)).astype(t.data.dtype)
    for group in groups:
        group.zero_grad()
    return state
