"""Reverse-mode automatic differentiation over dense float64 arrays.

A minimal tape: every operation records its parents and a backward closure,
``Value.backward()`` runs the closures in reverse topological order, handing
each the gradient of its output. A closure refers to its inputs but never to
its own output, so the tape holds no reference cycles and reference counting
frees it as soon as the last result goes out of scope. Only first-order
gradients are supported. All math is 64-bit. The ops here are the ones the
library calls; ops that only the reference implementations use live with
them in ``tests/oracles.py``.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


def _as_array(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class Value:
    """A node in the computation graph: float64 array plus a gradient slot.

    Gradients are materialized lazily; reading ``.grad`` of a node the
    backward pass never reached yields exact zeros.
    """

    __slots__ = ("data", "_grad", "_parents", "_backward")

    # make numpy defer mixed expressions like `ndarray - Value` to our ops
    __array_ufunc__ = None

    def __init__(self, data, _parents=(), _backward=None):
        self.data = _as_array(data)
        self._grad: Array | None = None
        self._parents: tuple[Value, ...] = _parents
        self._backward: Callable[[Array], None] | None = _backward

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad(self) -> Array:
        if self._grad is None:
            return np.zeros_like(self.data)
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Value(shape={self.shape})"

    def _accum(self, g: Array) -> None:
        if self._grad is None:
            # first contribution: a private copy avoids a zeros+add pass
            self._grad = np.array(g, dtype=np.float64)
        else:
            self._grad += g

    def _accum_owned(self, g: Array) -> None:
        """Like _accum for gradients the caller freshly allocated."""
        if self._grad is None:
            self._grad = g
        else:
            self._grad += g

    # -- backward ------------------------------------------------------
    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable node."""
        if self.size != 1:
            raise ValueError("backward() requires a scalar output")
        order: list[Value] = []
        seen: set[int] = set()
        stack: list[tuple[Value, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node._grad is not None:
                node._backward(node._grad)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__


def _data(x) -> Array:
    return x.data if isinstance(x, Value) else _as_array(x)


def _parents_of(*xs) -> tuple[Value, ...]:
    return tuple(x for x in xs if isinstance(x, Value))


# -- binary ops ---------------------------------------------------------

def add(a, b) -> Value:
    ad, bd = _data(a), _data(b)
    out = Value(ad + bd, _parents_of(a, b))

    def _bw(g):
        if isinstance(a, Value):
            a._accum(_unbroadcast(g, ad.shape))
        if isinstance(b, Value):
            b._accum(_unbroadcast(g, bd.shape))

    out._backward = _bw
    return out


def mul(a, b) -> Value:
    ad, bd = _data(a), _data(b)
    out = Value(ad * bd, _parents_of(a, b))

    def _bw(g):
        if isinstance(a, Value):
            a._accum_owned(_unbroadcast(g * bd, ad.shape))
        if isinstance(b, Value):
            b._accum_owned(_unbroadcast(g * ad, bd.shape))

    out._backward = _bw
    return out


def linear(x, W, b) -> Value:
    """Affine map ``x @ W + b`` as one fused node; raises on non-chaining shapes."""
    Wd, bd = _data(W), _data(b)
    xd = _data(x)
    if xd.ndim < 1 or xd.shape[-1] != Wd.shape[0] or bd.shape != (Wd.shape[1],):
        raise ValueError(
            f"linear dimension mismatch: x{xd.shape} W{Wd.shape} b{bd.shape}")
    out = Value(xd @ Wd + bd, _parents_of(x, W, b))

    def _bw(g):
        if isinstance(x, Value):
            x._accum_owned(g @ Wd.T)
        if isinstance(W, Value):
            k = xd.shape[-1]
            W._accum_owned(xd.reshape(-1, k).T @ g.reshape(-1, Wd.shape[1]))
        if isinstance(b, Value):
            b._accum_owned(g.reshape(-1, Wd.shape[1]).sum(axis=0))

    out._backward = _bw
    return out


# -- elementwise --------------------------------------------------------

def _np_sigmoid(d: Array) -> Array:
    # 1 / (1 + e) where d >= 0 and e / (1 + e) elsewhere, e = exp(-|d|) <= 1
    # so neither sign overflows; max(e, d >= 0) picks the numerator without
    # a branch (np.where over both quotients ran ~2.5x slower on [8192, 4])
    e = np.exp(-np.abs(d))
    return np.maximum(e, d >= 0) / (1.0 + e)


def _np_sigmoid_slope(d: Array) -> Array:
    """sigmoid'(d) as e / (1 + e)^2, e = exp(-|d|).

    Exact to rounding at any |d|, where g * (1 - g) from a rounded g is 0
    for d beyond ~37 and off by up to ~10% beyond ~30.
    """
    e = np.exp(-np.abs(d))
    return e / (1.0 + e) ** 2


def sigmoid(x):
    """Elementwise logistic function of an array or scalar; saturates without overflow."""
    d = _as_array(x)
    r = _np_sigmoid(d)
    return r if d.shape else float(r)


def relu(x: Value) -> Value:
    mask = x.data > 0
    out = Value(np.where(mask, x.data, 0.0), (x,))

    def _bw(g):
        x._accum_owned(g * mask)

    out._backward = _bw
    return out


def softplus(x: Value) -> Value:
    out = Value(np.logaddexp(0.0, x.data), (x,))

    def _bw(g):
        x._accum_owned(g * _np_sigmoid(x.data))

    out._backward = _bw
    return out


def smooth_l1(x: Value) -> Value:
    """Elementwise huber: 0.5 x^2 inside |x|<=1, |x|-0.5 outside."""
    d = x.data
    out = Value(np.where(np.abs(d) <= 1.0, 0.5 * d * d, np.abs(d) - 0.5), (x,))

    def _bw(g):
        x._accum_owned(g * np.clip(d, -1.0, 1.0))

    out._backward = _bw
    return out


# -- reductions and shaping ---------------------------------------------

def vsum(x: Value, axis=None, keepdims=False) -> Value:
    out = Value(x.data.sum(axis=axis, keepdims=keepdims), (x,))

    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accum(np.broadcast_to(g, x.shape))

    out._backward = _bw
    return out


def vmax(x: Value, axis: int, keepdims=False) -> Value:
    """Max along one axis; gradient routes to the first maximal element."""
    mx = x.data.max(axis=axis, keepdims=True)
    hit = x.data == mx
    first = hit & (np.cumsum(hit, axis=axis) == 1)
    out = Value(mx if keepdims else np.squeeze(mx, axis=axis), (x,))

    def _bw(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        x._accum_owned(first * g)

    out._backward = _bw
    return out


def reshape(x: Value, shape) -> Value:
    orig = x.shape
    out = Value(x.data.reshape(shape), (x,))

    def _bw(g):
        x._accum(g.reshape(orig))

    out._backward = _bw
    return out


def concat(items: Sequence, axis: int = 0) -> Value:
    datas = [_data(v) for v in items]
    out = Value(np.concatenate(datas, axis=axis), _parents_of(*items))
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for v, lo, hi in zip(items, offsets[:-1], offsets[1:]):
            if isinstance(v, Value):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                v._accum(g[tuple(sl)])

    out._backward = _bw
    return out


def take(x: Value, indices) -> Value:
    """Row gather along axis 0."""
    idx = np.asarray(indices, dtype=np.intp)
    out = Value(x.data[idx], (x,))

    def _bw(g):
        buf = np.zeros_like(x.data)
        np.add.at(buf, idx, g)
        x._accum_owned(buf)

    out._backward = _bw
    return out


# -- oracle ---------------------------------------------------------------

def finite_diff_grad(f: Callable[[Array], float], x, h: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function, one probe per component."""
    x = _as_array(x).copy()
    g = np.zeros_like(x)
    flat, gflat = x.reshape(-1), g.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        fp = float(f(x))
        flat[k] = orig - h
        fm = float(f(x))
        flat[k] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError("non-finite function value in finite differences")
        gflat[k] = (fp - fm) / (2.0 * h)
    return g


def rel_error(a: Array, b: Array) -> float:
    """Worst-component error of two gradient arrays, relative to their scale.

    Arrays whose magnitude sits below the 1e-4 floor are compared
    absolutely against that floor: a relative criterion is meaningless for
    analytically-zero gradients where both sides are pure roundoff.
    """
    a, b = _as_array(a), _as_array(b)
    scale = max(float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)), 1e-4)
    return float(np.max(np.abs(a - b), initial=0.0)) / scale
