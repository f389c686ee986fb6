"""Feature-aggregation operators over point neighborhoods of a grid point.

The unified gated attention is the one attention operator: it subsumes the
graph, standard-attention and point-transformer forms through four gate
scalars, and fixing the gates to GRAPH_GATES (1,0,0,0), ATTENTION_GATES
(0,0,1,0) or TRANSFORMER_GATES (1,1,0,1) reproduces the corresponding
operator. Pinned gates are constant gates on the same data path as
trainable ones: the gate pre-activations are still computed, the gate
parameters are still tape parents, and a zero slope gives them exactly
zero gradient. A missing coefficient is a coefficient of one.
``gated_attention_batched`` is the one entry point: it returns a feature
for every grid point of a batch, zeros where a grid point has no neighbor,
and the per-point ``roi_grid_attention(_darp)`` are one-row calls of it
that keep the gather's (distance, id) neighbor order, the order the head
runs. Max pooling is the only other aggregation.

The operator runs folded. With a neighbor's rows x = [f, 1] and
o = [p, 1], k = x K, v = x V and q = o Q, so each logit or gate, a dot of
k, q or q*k with a weight u, is x (K u), o (Q u) or sum_mj x_m o_j C_mj
with C = K diag(u) Q^T; a grid point's feature is Z [V; Q] per head, Z the
sum of wc * [x, gv*o] over its neighbors. The same sums as projecting each
neighbor to d_model first, reassociated as in linear attention
(Katharopoulos et al., arXiv 2006.16236): the weights are multiplied out
once per call and no per-neighbor array is d_model wide.

The softmax and the sums over each grid point's neighbors run on a row
block, as PointNet++ groups a centre's neighbors in a [centres, nsample]
array (Qi et al., arXiv 1706.02413): one line per grid point that owns a
neighbor, as wide as the call's widest row (at most the level's neighbor
cap), each neighbor at its position in its row. Pads carry logit -inf,
zero features and zero coefficient, so they get zero weight and zero
gradient. The softmax max and sum are then reductions over the block's
slot axis, and Z is one batched matmul wc^T Y, as are the adjoint's
dwc = Y dz^T and dY = wc dz. The block is stored position-major,
[K, G, ...]: numpy reduces a leading axis in long contiguous passes, while
reducing the middle axis of a [G, K, 4] array ran 30-40 times slower.
The per-neighbor projections stay on the N neighbors themselves, which
measured faster than projecting the pads too.

The soft radius
coefficient ``soft_radius_coeff`` makes the aggregation radius
differentiable: one formula, and one tape node for a trainable radius. It
needs the neighbors within the widened sampling range r + 5*tau.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .autodiff import Value, _data, _unbroadcast, concat, reshape, vmax
from .autodiff import _np_sigmoid, _np_sigmoid_slope
from .nn import LinearParams, MLPParams, init_linear
from .spatial import PointSet, SpatialIndex


class ContractViolationError(ValueError):
    """A neighbor bundle does not match the radius it claims to cover."""


@dataclass(frozen=True)
class GateOverride:
    """Fixed gate values (positional, key, cross-product, value mixing)."""

    pos: float
    key: float
    cross: float
    value: float

    def __post_init__(self):
        for name in ("pos", "key", "cross", "value"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"gate {name}={v} outside [0,1]")

    @classmethod
    def from_tuple(cls, t) -> "GateOverride":
        return cls(*[float(v) for v in t])


GRAPH_GATES = GateOverride(1.0, 0.0, 0.0, 0.0)
ATTENTION_GATES = GateOverride(0.0, 0.0, 1.0, 0.0)
TRANSFORMER_GATES = GateOverride(1.0, 1.0, 0.0, 1.0)


@dataclass
class AttentionParams:
    """All learnable tensors of the gated attention operator."""

    d_in: int
    d_model: int
    heads: int
    key: LinearParams          # features -> d_model
    value: LinearParams        # features -> d_model
    q_pos: LinearParams        # location offset -> d_model
    w_head: LinearParams       # d_model -> one logit per head
    gate_pos: LinearParams     # d_model -> 1, sigmoid
    gate_key: LinearParams
    gate_cross: LinearParams
    gate_value: LinearParams

    def __post_init__(self):
        self.check_sizes(self.d_model, self.heads)

    @staticmethod
    def check_sizes(d_model: int, heads: int) -> None:
        if d_model < 1:
            raise ValueError(f"d_model must be >= 1, got {d_model}")
        if heads < 1:
            raise ValueError(f"heads must be >= 1, got {heads}")
        if d_model % heads != 0:
            raise ValueError("d_model must be divisible by the head count")

    @property
    def head_width(self) -> int:
        return self.d_model // self.heads

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Value]]:
        for name in ("key", "value", "q_pos", "w_head",
                     "gate_pos", "gate_key", "gate_cross", "gate_value"):
            yield from getattr(self, name).named_parameters(f"{prefix}{name}.")

    def check_finite(self) -> None:
        for name, p in self.named_parameters():
            if not np.all(np.isfinite(p.data)):
                raise FloatingPointError(f"non-finite attention parameter {name}")


def init_attention_params(rng: np.random.Generator, d_in: int,
                          d_model: int = 64, heads: int = 4) -> AttentionParams:
    AttentionParams.check_sizes(d_model, heads)    # before any weight is drawn
    return AttentionParams(
        d_in=d_in, d_model=d_model, heads=heads,
        key=init_linear(rng, d_in, d_model),
        value=init_linear(rng, d_in, d_model),
        q_pos=init_linear(rng, 3, d_model),
        w_head=init_linear(rng, d_model, heads),
        gate_pos=init_linear(rng, d_model, 1),
        gate_key=init_linear(rng, d_model, 1),
        gate_cross=init_linear(rng, d_model, 1),
        gate_value=init_linear(rng, d_model, 1),
    )


@dataclass
class NeighborBundle:
    """Neighbors of one grid point: ids, offsets to the grid point, features."""

    grid_point: np.ndarray
    ids: np.ndarray
    offsets: np.ndarray                 # p_i - p_grid, shape [m,3]
    feats: np.ndarray | Value           # [m,d]
    gather_radius: float | None = None  # radius the ids were collected at

    def __post_init__(self):
        self.grid_point = np.asarray(self.grid_point, dtype=np.float64).reshape(3)
        self.ids = np.asarray(self.ids, dtype=np.int64).reshape(-1)
        self.offsets = np.asarray(self.offsets, dtype=np.float64).reshape(-1, 3)
        m = len(self.ids)
        if self.offsets.shape[0] != m or self.feats.shape[0] != m:
            raise ValueError("bundle arrays disagree on neighbor count")

    def __len__(self) -> int:
        return len(self.ids)

    def distances(self) -> np.ndarray:
        return np.linalg.norm(self.offsets, axis=1)

    @classmethod
    def gather(cls, ps: PointSet, idx: SpatialIndex, grid_point,
               radius: float, max_k: int) -> "NeighborBundle":
        gp = np.asarray(grid_point, dtype=np.float64).reshape(3)
        ids, _ = idx.query(gp, radius, max_k)
        return cls(gp, ids, ps.coords[ids] - gp, ps.feats[ids],
                   gather_radius=radius)

    @classmethod
    def gather_extended(cls, ps: PointSet, idx: SpatialIndex, grid_point,
                        r: float, tau: float, max_k: int) -> "NeighborBundle":
        return cls.gather(ps, idx, grid_point, sampling_range(r, tau), max_k)


# -- radius membership ----------------------------------------------------

def sampling_range(r, tau: float):
    """Gather radius r + 5*tau that soft membership at radius r needs.

    Beyond it the membership weight is below 1 - sigmoid(5) ~ 6.7e-3.
    ``r`` may be a float or an array of radii.
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return r + 5.0 * tau


def soft_radius_coeff(d, r, tau):
    """Soft ball membership 1 - sigmoid((d - r) / tau), computed once.

    ``d`` is a distance or an array of distances; ``r`` a float, an array
    or a Value that broadcasts against ``d``. With a Value ``r`` the result
    is one tape node, differentiable in r.
    """
    if isinstance(tau, Value):
        raise TypeError("tau is a schedule constant, not a learnable value")
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    inv_tau = 1.0 / tau
    z = (np.asarray(d, dtype=np.float64) - _data(r)) * inv_tau
    s = 1.0 - _np_sigmoid(z)
    if not isinstance(r, Value):
        return float(s) if s.ndim == 0 else s

    def _bw(g):
        r._accum_owned(_unbroadcast(g * _np_sigmoid_slope(z) * inv_tau, r.shape))

    return Value(s, (r,), _bw)


def hard_membership(d, r):
    """Indicator of the closed ball: 1 iff d <= r."""
    out = np.where(np.asarray(d, dtype=np.float64) <= r, 1.0, 0.0)
    return float(out) if np.ndim(d) == 0 else out


# -- max pooling --------------------------------------------------------------

def pool_feature(nb: NeighborBundle, mlp: MLPParams) -> Value:
    """Channelwise max over MLP([feature, offset]) of each neighbor."""
    if nb.feats.shape[1] + 3 != mlp.d_in:
        raise ValueError(
            f"pool MLP expects width {nb.feats.shape[1] + 3}, has {mlp.d_in}")
    if len(nb) == 0:
        return Value(np.zeros(mlp.d_out))
    x = concat([nb.feats, nb.offsets], axis=1)
    return vmax(mlp(x), axis=0)


# -- unified gated operator -------------------------------------------------

def _gate_core(offsets: np.ndarray, feats, params: AttentionParams,
               gates: GateOverride | None, coeff, row: np.ndarray,
               n_rows: int) -> Value:
    """The folded operator over slots laid end to end, slot i belonging to
    grid point ``row[i]`` (ascending). One tape node; the backward is its
    hand-derived adjoint.

    Per-slot projections run on the N slots, the softmax and the sums over
    each grid point's slots on the [K, G] row block of the G grid points
    that own a slot, K the widest row (see the module docstring).
    """
    xd = _data(feats)
    n, d_in = xd.shape
    heads, dh = params.heads, params.head_width
    D = d_in + 1
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    counts = np.diff(starts, append=n)
    G, K = len(starts), int(counts.max())
    # block cell of slot i: (position in its row) * G + its row's block line
    cell = np.arange(n) * G + np.repeat(np.arange(G) - starts * G, counts)

    def block(a, fill=0.0):
        out = np.full((K * G, a.shape[1]), fill)
        out[cell] = a
        return out.reshape(K, G, -1)

    def unblock(b):
        return b.reshape(K * G, -1)[cell]

    def block_matmul(a, b):
        """a @ b batched over the G lines, [G, K, c], stored as a [K, G, c] block."""
        out = np.empty((K, G, b.shape[2]))
        np.matmul(a, b, out=out.transpose(1, 0, 2))
        return out

    x1 = np.concatenate([xd, np.ones((n, 1))], axis=1)
    o1 = np.concatenate([offsets, np.ones((n, 1))], axis=1)
    kt = np.vstack([params.key.W.data, params.key.b.data])      # [D, dm]
    qt = np.vstack([params.q_pos.W.data, params.q_pos.b.data])  # [4, dm]
    vqt = np.vstack([params.value.W.data, params.value.b.data, qt])
    wwd = params.w_head.W.data
    gate_lps = (params.gate_key, params.gate_pos, params.gate_value, params.gate_cross)
    # logit weights, then the gate weights
    uk = np.hstack([wwd, params.gate_key.W.data])
    uq = np.hstack([wwd, params.gate_pos.W.data, params.gate_value.W.data])
    uc = np.hstack([wwd, params.gate_cross.W.data])
    # k.u = x (K u), q.u = o (Q u), (q*k).u = sum_j o_j x C_j with
    # C_mjh = sum_d K_md Q_jd u_dh; px holds [K uk | C] as [D, hk + 4*hc]
    hk, hc = uk.shape[1], uc.shape[1]
    kq = kt[:, None, :] * qt[None, :, :]                        # [D, 4, dm]
    px = np.hstack([kt @ uk, (kq @ uc).reshape(D, 4 * hc)])
    pq = qt @ uq
    lx = x1 @ px
    lk = lx[:, :hk]
    lc = np.einsum("njh,nj->nh", lx[:, hk:].reshape(n, 4, hc), o1)
    lq = o1 @ pq
    pre = np.hstack([lk[:, heads:], lq[:, heads:], lc[:, heads:]]) \
        + np.concatenate([lp.b.data for lp in gate_lps])
    # pinned gates are constant gates: their slope, and so the gradient
    # of the gate parameters, is zero; the backward takes slope(pre)
    if gates is None:
        g, slope = _np_sigmoid(pre), _np_sigmoid_slope
    else:
        g, slope = np.array([[gates.key, gates.pos, gates.value, gates.cross]]), np.zeros_like
    gk, gq, gv, gqk = g[:, 0:1], g[:, 1:2], g[:, 2:3], g[:, 3:4]
    lk, lq, lc = lk[:, :heads], lq[:, :heads], lc[:, :heads]
    logits = block(gk * lk + gq * lq + gqk * lc + params.w_head.b.data, -np.inf)
    e = np.exp(logits - logits.max(axis=0))
    w = e / e.sum(axis=0)                                        # [K, G, H]
    # no coefficient is a coefficient of one; pads keep coefficient 0
    sd = block(np.ones((n, 1)) if coeff is None else _data(coeff).reshape(n, 1))
    wc = w * sd
    y = block(np.concatenate([x1, gv * o1], axis=1))             # [K, G, D+4]
    z = np.matmul(wc.transpose(1, 2, 0), y.transpose(1, 0, 2))   # [G, H, D+4]
    m_h = vqt.reshape(D + 4, heads, dh).transpose(1, 0, 2)       # [H, D+4, dh]
    out_data = np.zeros((n_rows, params.d_model))
    out_data[row[starts]] = np.matmul(z.transpose(1, 0, 2), m_h) \
        .transpose(1, 0, 2).reshape(-1, params.d_model)

    lps = (params.key, params.value, params.q_pos, params.w_head) + gate_lps
    x_val, s_val = (v if isinstance(v, Value) else None for v in (feats, coeff))
    parents = [p for lp in lps for p in (lp.W, lp.b)] + \
        [v for v in (x_val, s_val) if v is not None]

    def _bw(gout):
        gz = gout[row[starts]].reshape(-1, heads, dh).transpose(1, 0, 2)
        dvqt = np.matmul(z.transpose(1, 2, 0), gz).transpose(1, 0, 2) \
            .reshape(D + 4, -1)
        dz = np.matmul(gz, m_h.transpose(0, 2, 1)).transpose(1, 0, 2)  # [G, H, D+4]
        dwc = block_matmul(y.transpose(1, 0, 2), dz.transpose(0, 2, 1))  # [K, G, H]
        dy = unblock(block_matmul(wc.transpose(1, 0, 2), dz))    # [N, D+4]
        dw = dwc * sd
        if s_val is not None:
            s_val._accum_owned(unblock(dwc * w).sum(axis=1).reshape(s_val.shape))
        dlogits = unblock(w * (dw - (dw * w).sum(axis=0)))
        params.w_head.b._accum_owned(dlogits.sum(axis=0))
        dgk, dgq, dgqk = (np.einsum("nh,nh->n", dlogits, lv)[:, None]
                          for lv in (lk, lq, lc))
        dgv = np.einsum("nc,nc->n", dy[:, D:], o1)[:, None]
        dpre = np.hstack([dgk, dgq, dgv, dgqk]) * slope(pre)
        for i, lp in enumerate(gate_lps):
            lp.b._accum_owned(dpre[:, i].sum(keepdims=True))
        dlk = np.hstack([dlogits * gk, dpre[:, 0:1]])
        dlq = np.hstack([dlogits * gq, dpre[:, 1:3]])
        dlc = np.hstack([dlogits * gqk, dpre[:, 3:4]])
        # gradient of lx: dlk, and o_j * dlc in the C_j block
        dlx = np.hstack([dlk, (o1[:, :, None] * dlc[:, None, :]).reshape(n, 4 * hc)])
        dpx = x1.T @ dlx
        dpq = o1.T @ dlq
        if x_val is not None:
            x_val._accum_owned((dy[:, :D] + dlx @ px.T)[:, :d_in])
        # chain the small products back to the 16 attention tensors
        dpc = dpx[:, hk:].reshape(D * 4, hc)
        dkq = (dpc @ uc.T).reshape(D, 4, -1)
        dkt = dpx[:, :hk] @ uk.T + np.einsum("mjd,jd->md", dkq, qt)
        dqt = dpq @ uq.T + np.einsum("mjd,md->jd", dkq, kt) + dvqt[D:]
        duk, duq = kt.T @ dpx[:, :hk], qt.T @ dpq
        duc = kq.reshape(D * 4, -1).T @ dpc
        params.w_head.W._accum_owned(duk[:, :heads] + duq[:, :heads] + duc[:, :heads])
        for lp, dgw in zip(gate_lps, (duk[:, heads:], duq[:, heads:heads + 1],
                                      duq[:, heads + 1:], duc[:, heads:])):
            lp.W._accum_owned(dgw)
        for lp, dt in ((params.key, dkt), (params.value, dvqt[:D]),
                       (params.q_pos, dqt)):
            lp.W._accum_owned(dt[:-1])
            lp.b._accum_owned(dt[-1])

    return Value(out_data, tuple(parents), _bw)


def gated_attention_batched(offsets: np.ndarray, feats, params: AttentionParams,
                            gates: GateOverride | None = None, coeff=None,
                            row=None, n_rows: int = 1) -> Value:
    """Unified operator over the neighbors of a batch of grid points.

    offsets: [N,3] array; feats: [N,d] array or Value; coeff: optional [N]
    per-neighbor multiplier applied after the softmax (no
    renormalization). ``row`` is the grid point of each slot, ascending
    within [0, n_rows); by default all N slots belong to grid point 0.
    Returns the [n_rows, d_model] grid features, zero for a grid point
    that owns no slot.
    """
    n = len(offsets)
    row = np.zeros(n, dtype=np.intp) if row is None else np.asarray(row, dtype=np.intp)
    if row.shape != (n,):
        raise ValueError(f"row has shape {row.shape}, expected one entry per slot ({n})")
    if n and (row[0] < 0 or row[-1] >= n_rows or np.any(np.diff(row) < 0)):
        raise ValueError(f"row must ascend within [0, {n_rows})")
    if n == 0:
        return Value(np.zeros((n_rows, params.d_model)))
    return _gate_core(np.asarray(offsets, dtype=np.float64), feats, params,
                      gates, coeff, row, n_rows)


def roi_grid_attention(nb: NeighborBundle, params: AttentionParams,
                       gates: GateOverride | None = None) -> Value:
    """Gated attention over one grid point's neighbors (trainable gates by default).

    A grid point without neighbors gets a zero feature.
    """
    params.check_finite()
    out = gated_attention_batched(nb.offsets, nb.feats, params, gates)
    return reshape(out, (params.d_model,))


def roi_grid_attention_darp(nb: NeighborBundle, params: AttentionParams,
                            r, tau: float,
                            gates: GateOverride | None = None) -> Value:
    """Gated attention with a differentiable soft-radius coefficient.

    The bundle must have been gathered over the widened range r + 5*tau;
    a mismatched gather radius raises ContractViolationError. The output
    is differentiable in r through the membership coefficient only.
    """
    params.check_finite()
    r_now = r.item() if isinstance(r, Value) else float(r)
    cutoff = sampling_range(r_now, tau)
    tol = 1e-9 * max(1.0, cutoff)
    if nb.gather_radius is not None and abs(nb.gather_radius - cutoff) > tol:
        raise ContractViolationError(
            f"bundle gathered at {nb.gather_radius}, operator expects {cutoff}")
    dists = nb.distances()
    if np.any(dists > cutoff + tol):
        raise ContractViolationError(
            f"neighbor at {dists.max():.6g} exceeds sampling range {cutoff:.6g}")
    out = gated_attention_batched(nb.offsets, nb.feats, params, gates,
                                  soft_radius_coeff(dists, r, tau))
    return reshape(out, (params.d_model,))
