"""Reference implementations the production code is checked against.

- ``brute_force_query``: a linear scan over every point, the oracle for
  all radius queries.
- ``BucketIndex`` and ``lexsort_gather_level``: the former spatial index,
  a dict of per-cell id buckets visited by a triple loop, and the former
  level gather, which compared each RoI's grid points with every point of
  its enlarged box and ordered the pairs with a three-key lexsort. The
  sorted-cell gather must reproduce its (row, ids, dist) bitwise.
- ``grid_points``: the standard single-level RoI grid, which a unit-ratio
  pyramid level must reproduce bitwise.
- ``softmax``, ``segment_sum`` and ``vsigmoid``: autodiff ops that only
  these references and the autodiff tests use.
- ``masked_sigmoid``: the logistic function written with a boolean mask
  per sign, which the branch-free ``autodiff._np_sigmoid`` must reproduce
  bitwise.
- ``graph_feature``, ``attention_feature`` and
  ``point_transformer_feature``: the graph, standard-attention and
  point-transformer operators written out on their own. The unified
  gated attention with GRAPH_GATES, ATTENTION_GATES or TRANSFORMER_GATES
  must reproduce each of them (the paper's gate-reduction claim).
- ``batch_query_capped``, ``grouped_gated_attention`` and
  ``grouped_forward_rois``: the head's former forward pass, which queried
  each RoI's grid points against one distance matrix, grouped the grid
  points of a level by exact neighbour count and ran one ``[g, m]`` gated
  attention per group. The ragged per-level path must reproduce its
  scores, residuals and parameter gradients.
- ``slot_gated_attention_batched`` and ``slot_gate_core``: the former
  ragged attention, which projected every slot to ``d_model``-wide key,
  query and value rows and gated them there. The folded operator must
  reproduce its output and every gradient to 1e-12 relative.
"""
from __future__ import annotations

import numpy as np

from pyrhead.autodiff import (Value, add, concat, mul, reshape, take,
                              vsum)
from pyrhead.darp import context_embedding, predict_radius
from pyrhead.geometry import (Box3D, GridSpec, _lattice, _rotate_about,
                              pyramid_grid_points, rot_z)
from pyrhead.operators import (AttentionParams, NeighborBundle,
                               soft_radius_coeff)


def brute_force_query(ps, center, r: float, max_k: int | None = None) -> np.ndarray:
    """Ids within the closed ball, sorted by (distance, id), capped at max_k."""
    center = np.asarray(center, dtype=np.float64).reshape(3)
    if len(ps) == 0:
        return np.empty(0, dtype=np.int64)
    d = np.linalg.norm(ps.coords - center, axis=1)
    ids = np.nonzero(d <= r)[0]
    order = np.lexsort((ids, d[ids]))
    if max_k is not None and order.size > max_k:
        order = order[:max_k]
    return ids[order].astype(np.int64)


class BucketIndex:
    """Uniform hash grid: a dict from integer cell to the ascending ids in it."""

    def __init__(self, ps, cell: float):
        self.ps = ps
        self.cell = float(cell)
        self._buckets: dict[tuple[int, int, int], np.ndarray] = {}
        n = len(ps)
        if n == 0:
            return
        keys = np.floor(ps.coords / self.cell).astype(np.int64)
        order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
        sk = keys[order]
        change = np.nonzero(np.any(sk[1:] != sk[:-1], axis=1))[0] + 1
        starts = np.concatenate(([0], change, [n]))
        for a, b in zip(starts[:-1], starts[1:]):
            self._buckets[tuple(sk[a])] = np.sort(order[a:b])
        self._key_lo, self._key_hi = sk.min(axis=0), sk.max(axis=0)

    def region_ids(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Ascending ids of all points in cells overlapping the box [lo, hi]."""
        if not self._buckets:
            return np.empty(0, dtype=np.int64)
        clo = np.maximum(np.floor(lo / self.cell), self._key_lo).astype(np.int64)
        chi = np.minimum(np.floor(hi / self.cell), self._key_hi).astype(np.int64)
        chunks = []
        for i in range(clo[0], chi[0] + 1):
            for j in range(clo[1], chi[1] + 1):
                for k in range(clo[2], chi[2] + 1):
                    b = self._buckets.get((i, j, k))
                    if b is not None:
                        chunks.append(b)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(chunks))


def lexsort_gather_level(idx: BucketIndex, centers, radius, max_k: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Capped radius gather of [R, c, 3] grid points from each RoI's box."""
    centers = np.asarray(centers, dtype=np.float64)
    n_rois, count = centers.shape[:2]
    radius = np.broadcast_to(np.asarray(radius, dtype=np.float64), (n_rois,))
    rows, ids, dists = [], [], []
    for i, (pts, r) in enumerate(zip(centers, radius)):
        local = idx.region_ids(pts.min(axis=0) - r, pts.max(axis=0) + r)
        if local.size == 0:
            continue
        sub = idx.ps.coords[local]
        d2 = np.zeros((len(pts), len(sub)))
        for axis in range(3):
            diff = pts[:, axis, None] - sub[:, axis]
            d2 += diff * diff
        row, col = np.nonzero(d2 <= r * r * (1.0 + 1e-9))
        dist = np.linalg.norm(pts[row] - sub[col], axis=1)
        inside = dist <= r
        rows.append(row[inside] + i * count)
        ids.append(local[col[inside]])
        dists.append(dist[inside])
    if not rows:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64), np.empty(0)
    row, ids, dist = np.concatenate(rows), np.concatenate(ids), np.concatenate(dists)
    order = np.lexsort((dist, row))
    row, ids, dist = row[order], ids[order], dist[order]
    rank = np.arange(row.size) - np.searchsorted(row, row)
    keep = rank < max_k
    return row[keep], ids[keep], dist[keep]


def grid_points(box: Box3D, grid: GridSpec) -> np.ndarray:
    """Standard RoI-grid: cell centers of an N_w x N_l x N_h lattice in the box."""
    step = box.extents / np.array(grid.sizes, dtype=np.float64)
    pts = step * (_lattice(grid.sizes) + 0.5) + box.corner
    return _rotate_about(pts, box.center, box.yaw)


def masked_sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic function, each sign through its own overflow-free branch."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def vsigmoid(x: Value) -> Value:
    """Elementwise logistic function of a Value, differentiable."""
    y = masked_sigmoid(np.atleast_1d(x.data)).reshape(x.shape)
    out = Value(y, (x,))

    def _bw(g):
        x._accum_owned(g * y * (1.0 - y))

    out._backward = _bw
    return out


def softmax(x, axis: int = -1):
    """Normalized exponentials along ``axis``; shift-invariant by construction."""
    if not isinstance(x, Value):
        d = np.asarray(x, dtype=np.float64)
        if d.shape[axis] == 0:
            raise ValueError("softmax of empty input")
        z = d - d.max(axis=axis, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=axis, keepdims=True)
    if x.shape[axis] == 0:
        raise ValueError("softmax of empty input")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Value(y, (x,))

    def _bw(g):
        x._accum_owned(y * (g - (g * y).sum(axis=axis, keepdims=True)))

    out._backward = _bw
    return out


def segment_sum(x: Value, segment_ids, num_segments: int) -> Value:
    """Sum rows of ``x`` into ``num_segments`` buckets along axis 0."""
    seg = np.asarray(segment_ids, dtype=np.intp)
    data = np.zeros((num_segments,) + x.shape[1:])
    np.add.at(data, seg, x.data)
    out = Value(data, (x,))

    def _bw(g):
        x._accum_owned(g[seg])

    out._backward = _bw
    return out


def _per_head_combine(weights: Value, values: Value, heads: int) -> Value:
    """Sum_i weights[i,h] * values[i, h-th slice]; concatenation over heads."""
    m, dm = values.shape
    dh = dm // heads
    w3 = reshape(weights, (m, heads, 1))
    v3 = reshape(values, (m, heads, dh))
    return reshape(vsum(mul(w3, v3), axis=0), (dm,))


def graph_feature(nb: NeighborBundle, params: AttentionParams) -> Value:
    """Edge-weighted combination: weights from the positional embedding only."""
    if len(nb) == 0:
        return Value(np.zeros(params.d_model))
    v = params.value(nb.feats)
    q = params.q_pos(nb.offsets)
    w = softmax(params.w_head(q), axis=0)
    return _per_head_combine(w, v, params.heads)


def attention_feature(nb: NeighborBundle, params: AttentionParams) -> Value:
    """Standard attention: weights from the query-key elementwise product."""
    if len(nb) == 0:
        return Value(np.zeros(params.d_model))
    k = params.key(nb.feats)
    v = params.value(nb.feats)
    q = params.q_pos(nb.offsets)
    w = softmax(params.w_head(mul(q, k)), axis=0)
    return _per_head_combine(w, v, params.heads)


def point_transformer_feature(nb: NeighborBundle,
                              params: AttentionParams) -> Value:
    """Vector attention with the positional embedding added to key and value."""
    if len(nb) == 0:
        return Value(np.zeros(params.d_model))
    k = params.key(nb.feats)
    v = params.value(nb.feats)
    q = params.q_pos(nb.offsets)
    w = softmax(params.w_head(add(k, q)), axis=0)
    return _per_head_combine(w, add(v, q), params.heads)


def batch_query_capped(idx, centers: np.ndarray, r: float, max_k: int
                       ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per center: the nearest max_k ids within r (ties by id), in id order."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    local = idx.region_ids(centers.min(axis=0) - r, centers.max(axis=0) + r)
    if local.size == 0:
        empty = np.empty(0, dtype=np.int64), np.empty(0)
        return [empty for _ in range(len(centers))]
    sub = idx.ps.coords[local]
    dmat = np.linalg.norm(centers[:, None, :] - sub[None, :, :], axis=2)
    out = []
    for row in range(len(centers)):
        keep = np.nonzero(dmat[row] <= r)[0]
        ids = local[keep]
        d = dmat[row, keep]
        if ids.size > max_k:
            sel = np.lexsort((ids, d))[:max_k]
            ids, d = ids[sel], d[sel]
            order = np.argsort(ids)
            ids, d = ids[order], d[order]
        out.append((ids, d))
    return out


def _gate_core_gm(k: Value, q: Value, v: Value, params, gates, coeff) -> Value:
    """The fused ``[g, m]`` gating, softmax and combination node."""
    kd, qd, vd = k.data, q.data, v.data
    g, m, dm = kd.shape
    heads, dh = params.heads, params.head_width
    qkd = qd * kd
    learned = gates is None
    if learned:
        wgk, bgk = params.gate_key.W.data, params.gate_key.b.data
        wgq, bgq = params.gate_pos.W.data, params.gate_pos.b.data
        wgc, bgc = params.gate_cross.W.data, params.gate_cross.b.data
        wgv, bgv = params.gate_value.W.data, params.gate_value.b.data
        gk = masked_sigmoid(kd @ wgk + bgk)
        gq = masked_sigmoid(qd @ wgq + bgq)
        gqk = masked_sigmoid(qkd @ wgc + bgc)
        gv = masked_sigmoid(qd @ wgv + bgv)
    else:
        gk, gq, gqk, gv = gates.key, gates.pos, gates.cross, gates.value
    a = gk * kd + gq * qd + gqk * qkd
    wwd, bwd = params.w_head.W.data, params.w_head.b.data
    logits = a @ wwd + bwd
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    w = e / e.sum(axis=1, keepdims=True)
    s_val = coeff if isinstance(coeff, Value) else None
    sd = None
    if coeff is not None:
        sd = (coeff.data if s_val is not None else np.asarray(coeff)).reshape(g, m)
        wc = w * sd[:, :, None]
    else:
        wc = w
    val = vd + gv * qd
    val4 = val.reshape(g, m, heads, dh)
    out_data = np.einsum("gmh,gmhd->ghd", wc, val4).reshape(g, dm)

    parents = [k, q, v, params.w_head.W, params.w_head.b]
    if learned:
        for lp in (params.gate_key, params.gate_pos, params.gate_cross,
                   params.gate_value):
            parents.extend((lp.W, lp.b))
    if s_val is not None:
        parents.append(s_val)

    def _bw(gout):
        gh = gout.reshape(g, heads, dh)
        dwc = np.einsum("gmhd,ghd->gmh", val4, gh)
        dval = (wc[:, :, :, None] * gh[:, None, :, :]).reshape(g, m, dm)
        if sd is not None:
            dw = dwc * sd[:, :, None]
            if s_val is not None:
                s_val._accum_owned((dwc * w).sum(axis=2).reshape(s_val.shape))
        else:
            dw = dwc
        dlogits = w * (dw - (dw * w).sum(axis=1, keepdims=True))
        da = dlogits @ wwd.T
        params.w_head.W._accum_owned(a.reshape(-1, dm).T @ dlogits.reshape(-1, heads))
        params.w_head.b._accum_owned(dlogits.sum(axis=(0, 1)))
        dk = da * gk
        dq = da * gq + dval * gv
        dqk = da * gqk
        if learned:
            for lp, gate, inp, dgate in (
                    (params.gate_key, gk, kd, (da * kd).sum(axis=-1, keepdims=True)),
                    (params.gate_pos, gq, qd, (da * qd).sum(axis=-1, keepdims=True)),
                    (params.gate_cross, gqk, qkd, (da * qkd).sum(axis=-1, keepdims=True)),
                    (params.gate_value, gv, qd, (dval * qd).sum(axis=-1, keepdims=True)),
            ):
                dz = dgate * gate * (1.0 - gate)
                lp.W._accum_owned(inp.reshape(-1, dm).T @ dz.reshape(-1, 1))
                lp.b._accum_owned(dz.sum(axis=(0, 1)))
                back = dz @ lp.W.data.T
                if lp is params.gate_key:
                    dk = dk + back
                elif lp is params.gate_cross:
                    dqk = dqk + back
                else:
                    dq = dq + back
        k._accum_owned(dk + dqk * qd)
        q._accum_owned(dq + dqk * kd)
        v._accum_owned(dval)

    return Value(out_data, tuple(parents), _bw)


def grouped_gated_attention(offsets, feats, params, gates=None, coeff=None) -> Value:
    """Unified operator over ``[g, m]`` grid points sharing a neighbour count."""
    k = params.key(feats)
    q = params.q_pos(offsets)
    v = params.value(feats)
    return _gate_core_gm(k, q, v, params, gates, coeff)


def grouped_forward_rois(cfg, params, ps, idx, rois, tau):
    """Fused per-RoI features, grid points grouped by (level, neighbour count)."""
    R = len(rois)
    gates = cfg.gates()
    ctxs = [context_embedding(roi, ps, idx, params.context) for roi in rois]
    ctx_batch = concat([reshape(c, (1, c.size)) for c in ctxs], axis=0)
    derot = [rot_z(roi.yaw) for roi in rois]
    level_feats = []
    for li, lv in enumerate(cfg.pyramid.levels):
        if cfg.darp_enabled:
            r_vec = predict_radius(ctx_batch, li, params.radius)
            gather_r = r_vec.data + 5.0 * tau
        else:
            r_vec = None
            gather_r = np.full(R, lv.r_pre)
        groups: dict[int, list] = {}
        for ri, roi in enumerate(rois):
            pts = pyramid_grid_points(roi, lv)
            gathered = batch_query_capped(idx, pts, gather_r[ri], lv.max_neighbors)
            for gp, (ids, dists) in zip(pts, gathered):
                if ids.size == 0:
                    continue
                groups.setdefault(ids.size, []).append(
                    (ri, (ps.coords[ids] - gp) @ derot[ri], ps.feats[ids], dists))
        chunks: list[Value] = []
        seg: list[int] = []
        for m in sorted(groups):
            rows = groups[m]
            offs = np.stack([row[1] for row in rows])
            feats = np.stack([row[2] for row in rows])
            row_rois = [row[0] for row in rows]
            if cfg.darp_enabled:
                dist = np.stack([row[3] for row in rows])
                r_rows = reshape(take(r_vec, row_rois), (len(rows), 1))
                coeff = soft_radius_coeff(dist, r_rows, tau)
            else:
                coeff = None
            chunks.append(grouped_gated_attention(offs, feats, params.attention[li],
                                                  gates, coeff))
            seg.extend(row_rois)
        if chunks:
            sums = segment_sum(concat(chunks, axis=0), seg, R)
            lvl_mean = mul(sums, 1.0 / lv.grid.count)
        else:
            lvl_mean = Value(np.zeros((R, cfg.d_model)))
        level_feats.append(params.reduce[li](lvl_mean))
    return params.fusion(concat(level_feats, axis=1))


def _slot_gate_backward(lp, gate: np.ndarray, inp: np.ndarray,
                        d_inp: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """Backward of a learned gate that multiplies ``scaled``, row by row."""
    dz = np.einsum("nd,nd->n", d_inp, scaled)[:, None] * gate * (1.0 - gate)
    lp.W._accum_owned(inp.T @ dz)
    lp.b._accum_owned(dz.sum(axis=0))
    return dz @ lp.W.data.T


def slot_gate_core(k: Value, q: Value, v: Value, params, gates, coeff,
                   row: np.ndarray, n_rows: int) -> Value:
    """The former ragged core over ``[N, d_model]`` key, query and value slots."""
    kd, qd, vd = k.data, q.data, v.data
    n, dm = kd.shape
    heads, dh = params.heads, params.head_width
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    seg = np.repeat(np.arange(len(starts)), np.diff(starts, append=n))
    qkd = qd * kd
    learned = gates is None
    if learned:
        gk = masked_sigmoid(kd @ params.gate_key.W.data + params.gate_key.b.data)
        gq = masked_sigmoid(qd @ params.gate_pos.W.data + params.gate_pos.b.data)
        gqk = masked_sigmoid(qkd @ params.gate_cross.W.data + params.gate_cross.b.data)
        gv = masked_sigmoid(qd @ params.gate_value.W.data + params.gate_value.b.data)
    else:
        gk, gq, gqk, gv = gates.key, gates.pos, gates.cross, gates.value
    a = gk * kd + gq * qd + gqk * qkd
    wwd = params.w_head.W.data
    logits = a @ wwd + params.w_head.b.data
    e = np.exp(logits - np.maximum.reduceat(logits, starts, axis=0)[seg])
    w = e / np.add.reduceat(e, starts, axis=0)[seg]
    s_val = coeff if isinstance(coeff, Value) else None
    sd = None
    if coeff is not None:
        sd = (coeff.data if s_val is not None else np.asarray(coeff)).reshape(n, 1)
        wc = w * sd
    else:
        wc = w
    val3 = (vd + gv * qd).reshape(n, heads, dh)
    out_data = np.zeros((n_rows, dm))
    out_data[row[starts]] = np.add.reduceat((wc[:, :, None] * val3).reshape(n, dm),
                                            starts, axis=0)

    parents = [k, q, v, params.w_head.W, params.w_head.b]
    if learned:
        for lp in (params.gate_key, params.gate_pos, params.gate_cross,
                   params.gate_value):
            parents.extend((lp.W, lp.b))
    if s_val is not None:
        parents.append(s_val)

    def _bw(gout):
        gh = gout.reshape(-1, heads, dh)[row]
        dwc = np.einsum("nhd,nhd->nh", val3, gh)
        dval = (wc[:, :, None] * gh).reshape(n, dm)
        dw = dwc
        if sd is not None:
            dw = dwc * sd
            if s_val is not None:
                s_val._accum_owned((dwc * w).sum(axis=1).reshape(s_val.shape))
        dlogits = w * (dw - np.add.reduceat(dw * w, starts, axis=0)[seg])
        da = dlogits @ wwd.T
        params.w_head.W._accum_owned(a.T @ dlogits)
        params.w_head.b._accum_owned(dlogits.sum(axis=0))
        dk = da * gk
        dq = da * gq + dval * gv
        dqk = da * gqk
        if learned:
            dk += _slot_gate_backward(params.gate_key, gk, kd, da, kd)
            dq += _slot_gate_backward(params.gate_pos, gq, qd, da, qd)
            dqk += _slot_gate_backward(params.gate_cross, gqk, qkd, da, qkd)
            dq += _slot_gate_backward(params.gate_value, gv, qd, dval, qd)
        k._accum_owned(dk + dqk * qd)
        q._accum_owned(dq + dqk * kd)
        v._accum_owned(dval)

    return Value(out_data, tuple(parents), _bw)


def slot_gated_attention_batched(offsets, feats, params, gates=None, coeff=None,
                                 row=None, n_rows: int = 1) -> Value:
    """The former batched entry: project every slot to d_model, then gate."""
    n = len(offsets)
    row = np.zeros(n, dtype=np.intp) if row is None else np.asarray(row, dtype=np.intp)
    if n == 0:
        return Value(np.zeros((n_rows, params.d_model)))
    k = params.key(feats)
    q = params.q_pos(offsets)
    v = params.value(feats)
    return slot_gate_core(k, q, v, params, gates, coeff, row, n_rows)
