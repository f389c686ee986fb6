"""Reverse-mode automatic differentiation over dense float64 arrays.

A minimal tape: every operation defines its backward closure first and then
builds its node whole, ``Value(data, parents, backward)``, which keeps the
Values among the parents in the given order. ``Value.backward()`` runs the
closures in reverse topological order, handing each the gradient of its
output. The backward releases the tape as it walks it: once a node's closure
has passed its gradient on, the node drops its closure, its parents and its
gradient, so the tape is gone when ``backward()`` returns and only leaves
(parameters and inputs) keep ``.grad``. A second backward that reaches a
released node raises RuntimeError. A closure is made before its node exists,
so it cannot refer to it: the tape holds no reference cycles, and reference
counting frees an unwalked tape as soon as its last result goes out of
scope. ``add`` is the one way to add Values. Only first-order
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


def _released(_g: Array) -> None:
    """Backward slot of a node whose tape an earlier backward() released."""
    raise RuntimeError("backward() reached a node that an earlier backward() released")


class Value:
    """A node in the computation graph: float64 array plus a gradient slot.

    Gradients are materialized lazily; reading ``.grad`` of a leaf the
    backward pass never reached yields exact zeros.
    """

    __slots__ = ("data", "_grad", "_parents", "_backward", "__weakref__")

    # make numpy defer mixed expressions like `ndarray - Value` to our ops
    __array_ufunc__ = None

    def __init__(self, data, parents=(), backward=None):
        self.data = _as_array(data)
        self._grad: Array | None = None
        # the Values among the parents, in order: constants get no gradient
        self._parents: tuple[Value, ...] = tuple(p for p in parents if isinstance(p, Value))
        self._backward: Callable[[Array], None] | None = backward

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad(self) -> Array:
        """Accumulated gradient; only leaves keep theirs once backward() returns."""
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
        """Accumulate gradients of this scalar into every reachable leaf.

        Pops the reverse topological order and releases each node once its
        closure has run, so only leaves keep ``.grad``. A later backward that
        reaches a released node raises RuntimeError before any gradient moves.
        """
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
            if node._backward is _released:
                _released(node.data)        # raises before any gradient moves
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is None:
                continue                    # a leaf keeps its gradient
            if node._grad is not None:
                node._backward(node._grad)
            node._backward, node._parents, node._grad = _released, (), None


def _data(x) -> Array:
    return x.data if isinstance(x, Value) else _as_array(x)


# -- binary ops ---------------------------------------------------------

def add(a, b) -> Value:
    ad, bd = _data(a), _data(b)

    def _bw(g):
        if isinstance(a, Value):
            a._accum(_unbroadcast(g, ad.shape))
        if isinstance(b, Value):
            b._accum(_unbroadcast(g, bd.shape))

    return Value(ad + bd, (a, b), _bw)


def mul(a, b) -> Value:
    ad, bd = _data(a), _data(b)

    def _bw(g):
        if isinstance(a, Value):
            a._accum_owned(_unbroadcast(g * bd, ad.shape))
        if isinstance(b, Value):
            b._accum_owned(_unbroadcast(g * ad, bd.shape))

    return Value(ad * bd, (a, b), _bw)


def linear(x, W, b) -> Value:
    """Affine map ``x @ W + b`` as one fused node; raises on non-chaining shapes."""
    Wd, bd = _data(W), _data(b)
    xd = _data(x)
    if xd.ndim < 1 or xd.shape[-1] != Wd.shape[0] or bd.shape != (Wd.shape[1],):
        raise ValueError(
            f"linear dimension mismatch: x{xd.shape} W{Wd.shape} b{bd.shape}")

    def _bw(g):
        if isinstance(x, Value):
            x._accum_owned(g @ Wd.T)
        if isinstance(W, Value):
            k = xd.shape[-1]
            W._accum_owned(xd.reshape(-1, k).T @ g.reshape(-1, Wd.shape[1]))
        if isinstance(b, Value):
            b._accum_owned(g.reshape(-1, Wd.shape[1]).sum(axis=0))

    return Value(xd @ Wd + bd, (x, W, b), _bw)


# -- elementwise --------------------------------------------------------

def sigmoid(d: Array) -> Array:
    """Elementwise logistic function of an array; saturates without overflow."""
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


def relu(x: Value) -> Value:
    mask = x.data > 0

    def _bw(g):
        x._accum_owned(g * mask)

    return Value(np.where(mask, x.data, 0.0), (x,), _bw)


def softplus(x: Value) -> Value:
    def _bw(g):
        x._accum_owned(g * sigmoid(x.data))

    return Value(np.logaddexp(0.0, x.data), (x,), _bw)


def smooth_l1(x: Value) -> Value:
    """Elementwise huber: 0.5 x^2 inside |x|<=1, |x|-0.5 outside."""
    d = x.data

    def _bw(g):
        x._accum_owned(g * np.clip(d, -1.0, 1.0))

    return Value(np.where(np.abs(d) <= 1.0, 0.5 * d * d, np.abs(d) - 0.5), (x,), _bw)


# -- reductions and shaping ---------------------------------------------

def vsum(x: Value) -> Value:
    def _bw(g):
        x._accum(np.broadcast_to(g, x.shape))

    return Value(x.data.sum(), (x,), _bw)


def _segment_starts(row: np.ndarray, n_rows: int) -> np.ndarray:
    """First index of each id's run in ``row``, which must ascend within [0, n_rows)."""
    if row.size and (row[0] < 0 or row[-1] >= n_rows or np.any(np.diff(row) < 0)):
        raise ValueError(f"row ids must be ascending within [0, {n_rows})")
    return np.flatnonzero(np.diff(row, prepend=-1))


def segment_max(x: Value, row, n_rows: int) -> Value:
    """Channelwise max of the rows of x [N, d] per id ``row`` (ascending in
    [0, n_rows)) as [n_rows, d]: zeros for an id with no row, and each
    channel's gradient routes to the id's first maximal row."""
    row = np.asarray(row, dtype=np.intp)
    (n, d), xd = x.shape, x.data
    starts = _segment_starts(row, n_rows)
    out = np.zeros((n_rows, d))
    if n:
        out[row[starts]] = np.maximum.reduceat(xd, starts)
        first = np.minimum.reduceat(np.where(xd == out[row], np.arange(n)[:, None], n), starts)

    def _bw(g):
        buf = np.zeros_like(xd)
        if n:
            buf[first, np.arange(d)] = g[row[starts]]
        x._accum_owned(buf)

    return Value(out, (x,), _bw)


def reshape(x: Value, shape) -> Value:
    orig = x.shape

    def _bw(g):
        x._accum(g.reshape(orig))

    return Value(x.data.reshape(shape), (x,), _bw)


def concat(items: Sequence, axis: int = 0) -> Value:
    datas = [_data(v) for v in items]
    offsets = np.cumsum([0] + [d.shape[axis] for d in datas])

    def _bw(g):
        for v, lo, hi in zip(items, offsets[:-1], offsets[1:]):
            if isinstance(v, Value):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                v._accum(g[tuple(sl)])

    return Value(np.concatenate(datas, axis=axis), items, _bw)


def take(x: Value, indices) -> Value:
    """Row gather along axis 0."""
    idx = np.asarray(indices, dtype=np.intp)

    def _bw(g):
        buf = np.zeros_like(x.data)
        np.add.at(buf, idx, g)
        x._accum_owned(buf)

    return Value(x.data[idx], (x,), _bw)


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
