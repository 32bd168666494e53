"""Parameter containers, core layers, and the Adam optimizer.

All layers are plain functions over :class:`~domusfm.autodiff.Tensor` values;
parameters live in named :class:`ParamGroup` objects so that the optimizer and
checkpoints operate on whole groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor,
    _accumulate,
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


def linear(x, w, b) -> Tensor:
    """x @ w + b with an explicit conformance check.

    The bias is added into the GEMM output in place. The tape keeps the two
    nodes of ``add(matmul(x, w), b)``, so gradients accumulate in the same
    order; the matmul node's data is the sum, which is safe because its
    backward reads only ``x`` and ``w``.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.shape[-1] != w.shape[0] or w.shape[1] != b.shape[-1]:
        raise ValueError(
            f"linear shape mismatch: x{list(x.shape)} @ w{list(w.shape)} + b{list(b.shape)}"
        )
    h = matmul(x, w)
    data = h.data
    data += b.data
    nh, nb, sb = h.node, b.node, b.shape

    def backward(g):
        if nh is not None:
            _accumulate(nh, g)
        if nb is not None:
            _accumulate(nb, _unbroadcast(g, sb))

    return _make(data, (nh, nb), backward)


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
    scores = matmul(qh, transpose(kh, (0, 1, 3, 2))) * (dh ** -0.5)
    weights = softmax(scores, axis=-1)
    ctx = matmul(weights, vh)  # (b, heads, n, dh)
    merged = reshape(transpose(ctx, (0, 2, 1, 3)), (b, n, d))
    return project(merged, "o")


def feed_forward(x, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Two-layer MLP with GELU, hidden size taken from the stored weights."""
    h = gelu(linear(x, params[f"{prefix}.1.w"], params[f"{prefix}.1.b"]))
    return linear(h, params[f"{prefix}.2.w"], params[f"{prefix}.2.b"])


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
