"""Tape-based reverse-mode automatic differentiation over numpy arrays.

Every operation on the tape records a :class:`Node`: the nodes of its inputs
and a closure that propagates gradients to them. ``Tensor.backward`` replays
the tape in reverse topological order and then frees it. A closure keeps only
the arrays its formula reads (the other operand of a product, a softmax's own
output), never the input tensors, so an intermediate that no backward reads is
freed as soon as the op that consumed it returns. float32 is the working
precision; switch to float64 (``precision``) for finite-difference gradient
checking.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

_ACTIVE_DTYPE = np.float32
_GRAD_ENABLED = True


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


class Node:
    """A tensor's entry on the tape: its gradient, its inputs' nodes and its backward.

    A leaf (a parameter) has no parents and no backward; its gradient survives
    ``Tensor.backward`` for the optimizer.
    """

    __slots__ = ("grad", "_parents", "_backward")

    def __init__(self, parents: tuple = (), backward=None):
        self.grad = None
        self._parents = parents
        self._backward = backward


class Tensor:
    """N-dimensional float tensor; ``node`` is its tape entry, None when off the tape."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_ACTIVE_DTYPE)
        self.node = Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value):
        self.node.grad = value

    @property
    def _parents(self) -> tuple:
        return () if self.node is None else self.node._parents

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

    def zero_grad(self):
        if self.node is not None:
            self.node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"

    # -- graph -----------------------------------------------------------

    def backward(self):
        """Backpropagate from a scalar tensor; frees the tape afterwards."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        if self.node is None:
            raise ValueError("backward() requires a tensor on the tape; this one was "
                             "built under no_grad or from constants only")
        topo: list[Node] = []
        visited: set[int] = set()
        stack: list[tuple[Node, bool]] = [(self.node, False)]
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
        self.node.grad = np.ones_like(self.data)
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


def _make(data: np.ndarray, parents: Sequence[Node | None], backward) -> Tensor:
    """A new tensor, on the tape when recording and one of ``parents`` is a node.

    ``backward`` must capture its parents' nodes and the arrays its formula
    reads, not the input tensors: what it captures lives until the tape is
    freed. It runs only when at least one parent is on the tape; an op with two
    or more parents skips the gradient of a parent whose node is None.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    parents = tuple(p for p in parents if p is not None)
    out.node = Node(parents, backward) if _GRAD_ENABLED and parents else None
    return out


def _accumulate(node: Node, g: np.ndarray):
    """Add ``g`` to ``node.grad``; the first gradient is stored without a copy.

    A stored gradient may share memory with another (``add`` hands one array
    to both parents). That is safe because nothing writes into a gradient in
    place: accumulation makes a new array, and no backward writes into its
    incoming ``g``. Views are stored C-contiguous, because later reductions
    sum in layout order; ``order="C"`` keeps 0-d gradients 0-d, unlike
    ``np.ascontiguousarray``.
    """
    if node.grad is None:
        node.grad = np.asarray(g, order="C")
    else:
        node.grad = node.grad + g


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
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape

    def backward(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g, sa))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g, sb))

    return _make(a.data + b.data, (na, nb), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape

    def backward(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g, sa))
        if nb is not None:
            _accumulate(nb, _unbroadcast(-g, sb))

    return _make(a.data - b.data, (na, nb), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape
    # each operand's gradient reads the other operand
    bv = b.data if na is not None else None
    av = a.data if nb is not None else None

    def backward(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g * bv, sa))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g * av, sb))

    return _make(a.data * b.data, (na, nb), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape
    bv = b.data
    av = a.data if nb is not None else None

    def backward(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g / bv, sa))
        if nb is not None:
            _accumulate(nb, _unbroadcast(-g * av / (bv * bv), sb))

    return _make(a.data / b.data, (na, nb), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)
    node = a.node

    def backward(g):
        _accumulate(node, -g)

    return _make(-a.data, (node,), backward)


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a constant exponent."""
    a = as_tensor(a)
    node, x = a.node, a.data

    def backward(g):
        _accumulate(node, g * p * x ** (p - 1.0))

    return _make(x ** p, (node,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    node = a.node
    data = np.exp(a.data)

    def backward(g):
        _accumulate(node, g * data)

    return _make(data, (node,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    node, x = a.node, a.data

    def backward(g):
        _accumulate(node, g / x)

    return _make(np.log(x), (node,), backward)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, gelu(x)) with t = tanh(c * (x + a * x**3)), in two new buffers.

    Powers are written as products: ``x ** 3`` on float32 goes through the
    generic ``powf`` path, about 80 times slower than two multiplies. The
    order is the textbook formula's, except that the factor 0.5 comes last.
    The bits are the same: halving is exact, and where it rounds (subnormal
    ``x``) the other factor, ``1 + t`` or ``1 - t * t``, is exactly 1. Only
    |x| above half the float32 range differs, where ``x * (1 + t)`` overflows.
    """
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x
    y *= 0.5
    return t, y


def _gelu_slope(x: np.ndarray, t: np.ndarray, out: np.ndarray,
                du: np.ndarray) -> np.ndarray:
    """d gelu / d x into ``out``, given ``t`` from ``_gelu_forward``.

    ``du`` is scratch and may be ``x`` itself, which is read for the last
    time when ``du`` is first written.
    """
    np.multiply(t, t, out=out)
    np.subtract(1.0, out, out=out)
    out *= x
    out *= 0.5                      # 0.5 * x * (1 - t**2)
    np.multiply(x, x, out=du)
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C                   # d u / d x
    out *= du
    np.add(t, 1.0, out=du)
    du *= 0.5                       # 0.5 * (1 + t)
    out += du
    return out


def gelu(a) -> Tensor:
    """Smooth GELU (tanh form); kink-free, so finite differences stay clean.

    Forward and backward run in place in buffers they allocate
    (``_gelu_forward``, ``_gelu_slope``).
    """
    a = as_tensor(a)
    node, x = a.node, a.data
    t, data = _gelu_forward(x)

    def backward(g):
        dg = _gelu_slope(x, t, np.empty_like(x), np.empty_like(x))
        dg *= g
        _accumulate(node, dg)

    return _make(data, (node,), backward)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed overflow-free."""
    a = as_tensor(a)
    node, x = a.node, a.data

    def backward(g):
        _accumulate(node, g / (1.0 + np.exp(-x)))

    return _make(np.logaddexp(0.0, x), (node,), backward)


# -- linear algebra ----------------------------------------------------------


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a shared 2-D weight in ``a @ w``: one GEMM over all rows,
    not a stack of per-batch products summed afterwards."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape
    # each operand's gradient reads the other operand
    bt = np.swapaxes(b.data, -1, -2) if na is not None else None
    av = a.data if nb is not None else None

    def backward(g):
        if na is not None:
            _accumulate(na, _unbroadcast(np.matmul(g, bt), sa))
        if nb is not None:
            if len(sb) == 2 and len(sa) > 2:
                gb = _weight_grad(av, g)
            else:
                gb = np.matmul(np.swapaxes(av, -1, -2), g)
            _accumulate(nb, _unbroadcast(gb, sb))

    return _make(np.matmul(a.data, b.data), (na, nb), backward)


# -- reductions --------------------------------------------------------------


def tensor_sum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    node, shape = a.node, a.shape

    def backward(g):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, [ax % len(shape) for ax in axes])
        _accumulate(node, np.broadcast_to(g, shape).copy())

    return _make(np.asarray(a.data.sum(axis=axis, keepdims=keepdims)), (node,), backward)


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
    node, old_shape = a.node, a.shape

    def backward(g):
        _accumulate(node, g.reshape(old_shape))

    return _make(a.data.reshape(shape), (node,), backward)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    node = a.node
    inverse = np.argsort([axis % a.ndim for axis in axes])

    def backward(g):
        _accumulate(node, np.transpose(g, inverse))

    return _make(np.transpose(a.data, axes), (node,), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    nodes = [t.node for t in tensors]
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(node, g[tuple(idx)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), nodes, backward)


def getitem(a, idx) -> Tensor:
    """Basic (non-repeating) indexing: slices, ints, tuples thereof."""
    a = as_tensor(a)
    node, shape, dtype = a.node, a.shape, a.data.dtype

    def backward(g):
        full = np.zeros(shape, dtype)
        full[idx] = g
        _accumulate(node, full)

    return _make(a.data[idx], (node,), backward)


def take_rows(table, indices: np.ndarray) -> Tensor:
    """Embedding lookup: gather rows of a 2-D table by an integer array."""
    table = as_tensor(table)
    indices = np.asarray(indices)
    node, shape, dtype = table.node, table.shape, table.data.dtype

    def backward(g):
        full = np.zeros(shape, dtype)
        np.add.at(full, indices, g)
        _accumulate(node, full)

    return _make(table.data[indices], (node,), backward)


# -- normalization / softmax -------------------------------------------------


def _row_max(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.max(axis=axis, keepdims=True)`` as a loop of elementwise maxima.

    At the attention rows (7 event slots, n_window events) the loop is faster
    than numpy's strided reduction; max is exact in any order, so both give
    the same bits.
    """
    axis %= x.ndim
    lead = (slice(None),) * axis
    m = x[lead + (slice(0, 1),)].copy()
    for j in range(1, x.shape[axis]):
        np.maximum(m, x[lead + (slice(j, j + 1),)], out=m)
    return m


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtraction).

    ``exp(x - max) / sum`` runs in one output buffer; the backward
    ``y * (g - sum(g * y))`` in one buffer of its own.
    """
    a = as_tensor(a)
    node = a.node
    data = a.data - _row_max(a.data, axis)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def backward(g):
        grad = g * data
        inner = grad.sum(axis=axis, keepdims=True)
        np.subtract(g, inner, out=grad)
        grad *= data
        _accumulate(node, grad)

    return _make(data, (node,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    node = a.node
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def backward(g):
        _accumulate(node, g - np.exp(data) * g.sum(axis=axis, keepdims=True))

    return _make(data, (node,), backward)


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
