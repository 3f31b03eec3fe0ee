"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ``np.ndarray`` together with a backward closure and
references to the tensors it was computed from.  Calling ``backward()`` on a
scalar result walks the recorded graph in reverse topological order and
accumulates ``.grad`` on every tensor that participates in the computation.

The op set is exactly what the model needs: broadcasting arithmetic, matmul
(including batched), shape ops, reductions, the usual pointwise
nonlinearities, stable softmax/log-softmax, embedding-style gathers and a
strided 2-d convolution implemented as im2col + matmul.  Everything is pure
numpy; float32 and float64 are both supported and never silently mixed.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# per-thread so concurrent no_grad blocks cannot clobber each other's mode
_grad_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / decoding)."""
    prev = _grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- construction of graph nodes -------------------------------------

    @staticmethod
    def _node(data, parents, backward):
        out = Tensor(data)
        if _grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    # -- autograd ---------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
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
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accum(self, g: np.ndarray):
        self.grad = g if self.grad is None else self.grad + g

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def bw(g):
            a._accum(_unbroadcast(g, a.data.shape))
            b._accum(_unbroadcast(g, b.data.shape))

        return Tensor._node(a.data + b.data, (a, b), bw)

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor._node(-a.data, (a,), lambda g: a._accum(-g))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def bw(g):
            a._accum(_unbroadcast(g * b.data, a.data.shape))
            b._accum(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._node(a.data * b.data, (a, b), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def bw(g):
            a._accum(_unbroadcast(g / b.data, a.data.shape))
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return Tensor._node(a.data / b.data, (a, b), bw)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: float):
        a = self
        n = float(exponent)

        def bw(g):
            a._accum(g * n * a.data ** (n - 1.0))

        return Tensor._node(a.data ** n, (a,), bw)

    def __matmul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ValueError("matmul requires tensors of rank >= 2")

        def bw(g):
            a._accum(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
            b._accum(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

        return Tensor._node(a.data @ b.data, (a, b), bw)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        return Tensor._node(a.data.reshape(shape), (a,), lambda g: a._accum(g.reshape(a.data.shape)))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inv = tuple(np.argsort(axes))
        return Tensor._node(a.data.transpose(axes), (a,), lambda g: a._accum(g.transpose(inv)))

    def __getitem__(self, key):
        a = self

        def bw(g):
            dx = np.zeros_like(a.data)
            dx[key] = g
            a._accum(dx)

        return Tensor._node(a.data[key].copy(), (a,), bw)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self

        def bw(g):
            if axis is None:
                a._accum(np.broadcast_to(g, a.data.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accum(np.broadcast_to(g, a.data.shape).copy())

        return Tensor._node(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= self.data.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def amax(self, axis: int, keepdims: bool = False):
        """Maximum along one axis; gradient flows to the first argmax."""
        a = self
        idx = np.argmax(a.data, axis=axis)

        def bw(g):
            if not keepdims:
                g = np.expand_dims(g, axis)
            dx = np.zeros_like(a.data)
            np.put_along_axis(dx, np.expand_dims(idx, axis), 1.0, axis=axis)
            a._accum(dx * g)

        return Tensor._node(a.data.max(axis=axis, keepdims=keepdims), (a,), bw)


# -- pointwise functions ------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return Tensor._node(np.where(mask, x.data, 0.0), (x,), lambda g: x._accum(g * mask))


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    return Tensor._node(out_data, (x,), lambda g: x._accum(g * out_data))


def log(x: Tensor) -> Tensor:
    return Tensor._node(np.log(x.data), (x,), lambda g: x._accum(g / x.data))


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)
    return Tensor._node(out_data, (x,), lambda g: x._accum(g * (1.0 - out_data * out_data)))


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out_data = np.empty_like(d)
    pos = d >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    return Tensor._node(out_data, (x,), lambda g: x._accum(g * out_data * (1.0 - out_data)))


def gelu(x: Tensor) -> Tensor:
    # tanh approximation; smooth everywhere, which keeps finite-difference
    # gradient checks clean.  One node that replays the composite
    # x * 0.5 * (tanh((x + x*x*x * a) * c) + 1) op by op in both directions, so
    # values and gradients match it bit for bit.  Its node values are named:
    # numpy writes into an unnamed temporary and keeps that memory layout, and
    # the layout orders the sum of a following conv2d's bias gradient.
    d = x.data
    a, c, half, one = (np.asarray(v, dtype=d.dtype)
                       for v in (0.044715, math.sqrt(2.0 / math.pi), 0.5, 1.0))
    t = np.tanh((d + d * d * d * a) * c)

    def bw(g):
        n1, n2, n8 = d * half, d * d, t + one
        g5 = g * n1 * (one - t * t) * c  # reaches x through the + node
        g3 = g5 * a  # reaches x through the x*x*x node
        g2 = g3 * d
        x._accum(g * n8 * half + g5 + g3 * n2 + g2 * d + g2 * d)

    return Tensor._node(d * half * (t + one), (x,), bw)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    mask = (x.data >= lo) & (x.data <= hi)
    return Tensor._node(np.clip(x.data, lo, hi), (x,), lambda g: x._accum(g * mask))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        x._accum(out_data * (g - (g * out_data).sum(axis=axis, keepdims=True)))

    return Tensor._node(out_data, (x,), bw)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bw(g):
        x._accum(g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

    return Tensor._node(out_data, (x,), bw)


# -- gathers -------------------------------------------------------------------


def take_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """Embedding lookup: rows of a (V, E) table selected by an integer array."""
    idx = np.asarray(idx)

    def bw(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx, g)
        table._accum(dt)

    return Tensor._node(table.data[idx], (table,), bw)


def gather_index(x: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one entry along the last axis: out[...] = x[..., idx[...]]."""
    idx = np.asarray(idx)
    out_data = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        dx = np.zeros_like(x.data)
        v = x.data.shape[-1]
        flat = dx.reshape(-1, v)
        np.add.at(flat, (np.arange(flat.shape[0]), idx.ravel()), g.ravel())
        x._accum(dx)

    return Tensor._node(out_data, (x,), bw)


# -- structural helpers ---------------------------------------------------------


def concat(tensors: list, axis: int = 0) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            t._accum(g[tuple(sl)])

    return Tensor._node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def stack(tensors: list, axis: int = 0) -> Tensor:
    expanded = []
    for t in tensors:
        shape = list(t.data.shape)
        shape.insert(axis if axis >= 0 else len(shape) + 1 + axis, 1)
        expanded.append(t.reshape(tuple(shape)))
    return concat(expanded, axis=axis)


# -- convolution -------------------------------------------------------------


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-d convolution, x (B, C, H, W) with w (F, C, kh, kw), im2col + matmul."""
    bsz, cin, h, wdt = x.data.shape
    f, cin_w, kh, kw = w.data.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input has {cin}, kernel expects {cin_w}")
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wdt + 2 * pad - kw) // stride + 1
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(bsz * ho * wo, cin * kh * kw)
    wcol = w.data.reshape(f, -1).T
    out_data = (cols @ wcol).reshape(bsz, ho, wo, f).transpose(0, 3, 1, 2)
    if b is not None:
        out_data = out_data + b.data[None, :, None, None]

    def bw(g):
        gcol = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(bsz * ho * wo, f)
        w._accum((cols.T @ gcol).T.reshape(w.data.shape))
        if b is not None:
            b._accum(g.sum(axis=(0, 2, 3)))
        dcols = (gcol @ wcol.T).reshape(bsz, ho, wo, cin, kh, kw)
        dxp = np.zeros_like(xp)
        for ki in range(kh):
            for kj in range(kw):
                dxp[:, :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride] += dcols[
                    :, :, :, :, ki, kj
                ].transpose(0, 3, 1, 2)
        dx = dxp[:, :, pad : pad + h, pad : pad + wdt] if pad else dxp
        x._accum(dx)

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._node(out_data, parents, bw)


# -- parameter helpers -------------------------------------------------------------


def parameter(data: np.ndarray) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True)


def zero_grads(params) -> None:
    """Clear .grad on tensors; accepts plain tensors or (name, tensor) pairs."""
    for p in params:
        if isinstance(p, tuple):
            p = p[1]
        p.grad = None
