"""Tape-based reverse-mode automatic differentiation over numpy arrays.

Every operation records a closure that propagates gradients to its inputs;
``Tensor.backward`` replays the tape in reverse topological order and then
frees it. float32 is the working precision; switch to float64 (``precision``)
for finite-difference gradient checking.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

_ACTIVE_DTYPE = np.float32
_GRAD_ENABLED = True


def active_dtype():
    """Dtype new tensors are created with."""
    return _ACTIVE_DTYPE


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the working float dtype, e.g. ``precision("float64")``."""
    global _ACTIVE_DTYPE
    prev = _ACTIVE_DTYPE
    _ACTIVE_DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _ACTIVE_DTYPE = prev


def grad_enabled() -> bool:
    """Whether operations are being recorded on the tape."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Disable tape recording (inference / frozen forward passes)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """N-dimensional float tensor that knows how to backpropagate."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_ACTIVE_DTYPE)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"

    # -- graph -----------------------------------------------------------

    def backward(self):
        """Backpropagate from a scalar tensor; frees the tape afterwards."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            recorded = node._backward is not None
            if recorded and node.grad is not None:
                node._backward(node.grad)
            # Free the tape; only leaf gradients survive for the optimizer.
            node._parents = ()
            node._backward = None
            if recorded:
                node.grad = None

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def parameter(data) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True)


def _wants_grad(*tensors: Tensor) -> bool:
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


def _make(data: np.ndarray, parents: Iterable[Tensor], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    parents = tuple(p for p in parents if p.requires_grad)
    if _GRAD_ENABLED and parents:
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise arithmetic ------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), backward)


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a constant exponent."""
    a = as_tensor(a)
    data = a.data ** p

    def backward(g):
        _accumulate(a, g * p * a.data ** (p - 1.0))

    return _make(data, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * data)

    return _make(data, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g / a.data)

    return _make(np.log(a.data), (a,), backward)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu(a) -> Tensor:
    """Smooth GELU (tanh form); kink-free, so finite differences stay clean.

    Powers are written as products: ``x ** 3`` on float32 goes through the
    generic ``powf`` path, about 80 times slower than two multiplies.
    """
    a = as_tensor(a)
    x = a.data
    u = _GELU_C * (x + _GELU_A * (x * x * x))
    t = np.tanh(u)
    data = 0.5 * x * (1.0 + t)

    def backward(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * (x * x))
        _accumulate(a, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du))

    return _make(data, (a,), backward)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed overflow-free."""
    a = as_tensor(a)
    data = np.logaddexp(0.0, a.data)

    def backward(g):
        _accumulate(a, g / (1.0 + np.exp(-a.data)))

    return _make(data, (a,), backward)


# -- linear algebra ----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        if b.data.ndim == 2 and a.data.ndim > 2:
            # a shared weight: one 2-D GEMM over all rows, not a stack of
            # per-batch products summed afterwards
            k, m = b.data.shape
            gb = a.data.reshape(-1, k).T @ g.reshape(-1, m)
        else:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(a, _unbroadcast(ga, a.data.shape))
        _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _make(data, (a, b), backward)


# -- reductions --------------------------------------------------------------


def tensor_sum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
            return
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, [ax % a.data.ndim for ax in axes])
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(np.asarray(data), (a,), backward)


def tensor_mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= a.data.shape[ax]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# -- shape manipulation ------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _make(data, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    data = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def backward(g):
        _accumulate(a, np.transpose(g, inverse))

    return _make(data, (a,), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(data, tensors, backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    expanded = [reshape(as_tensor(t), t.data.shape[:axis] + (1,) + t.data.shape[axis:])
                for t in tensors]
    return concat(expanded, axis=axis)


def getitem(a, idx) -> Tensor:
    """Basic (non-repeating) indexing: slices, ints, tuples thereof."""
    a = as_tensor(a)
    data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accumulate(a, full)

    return _make(data, (a,), backward)


def take_rows(table, indices: np.ndarray) -> Tensor:
    """Embedding lookup: gather rows of a 2-D table by an integer array."""
    table = as_tensor(table)
    indices = np.asarray(indices)
    data = table.data[indices]

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, indices, g)
        _accumulate(table, full)

    return _make(data, (table,), backward)


# -- normalization / softmax -------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtraction)."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(a, data * (g - inner))

    return _make(data, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def backward(g):
        _accumulate(a, g - np.exp(data) * g.sum(axis=axis, keepdims=True))

    return _make(data, (a,), backward)


def l2_normalize(a, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Rows scaled to unit L2 norm (differentiable composition)."""
    a = as_tensor(a)
    norm = power(tensor_sum(mul(a, a), axis=axis, keepdims=True) + eps, 0.5)
    return div(a, norm)


# -- gradient checking -------------------------------------------------------

GRAD_CHECK_SUBSET = 10_000


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], h: float = 1e-5,
               seed: int = 0) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f`` must rebuild its graph on every call (closure over ``params``).
    Checks every element, or a seeded random subset when the parameter count
    exceeds ``GRAD_CHECK_SUBSET``. Requires float64 parameters.
    """
    params = list(params)
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError("grad_check requires float64 parameters; "
                             "build the computation under precision('float64')")
    for p in params:
        p.zero_grad()
    loss = f()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    for p in params:
        p.zero_grad()

    sizes = [p.data.size for p in params]
    total = int(np.sum(sizes))
    if total > GRAD_CHECK_SUBSET:
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(total, size=GRAD_CHECK_SUBSET, replace=False))
    else:
        chosen = np.arange(total)

    bounds = np.cumsum([0] + sizes)
    max_rel = 0.0
    for flat_index in chosen:
        pi = int(np.searchsorted(bounds, flat_index, side="right") - 1)
        offset = int(flat_index - bounds[pi])
        flat = params[pi].data.reshape(-1)
        orig = flat[offset]
        flat[offset] = orig + h
        fp = f().item()
        flat[offset] = orig - h
        fm = f().item()
        flat[offset] = orig
        numeric = (fp - fm) / (2.0 * h)
        a = float(analytic[pi].reshape(-1)[offset])
        denom = max(abs(a), abs(numeric), 1e-4)
        rel = abs(a - numeric) / denom
        if rel > max_rel:
            max_rel = rel
    return max_rel
