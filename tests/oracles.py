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
- ``softmax``, ``segment_sum``, ``vsigmoid`` and ``vmax``: autodiff ops
  that only these references and the autodiff tests use.
- ``retaining_backward``: the former tape walk, which ran every closure in
  reverse topological order and left each node its closure, parents and
  gradient. ``Value.backward``, which releases the tape as it walks it,
  must give every leaf the same gradient bitwise.
- ``per_roi_context_embedding``: the former context embedding, one RoI
  at a time, with one ``SpatialIndex.query`` per sphere and a zero branch
  for an empty sphere. The batched embedding must reproduce it.
- ``masked_sigmoid``: the logistic function written with a boolean mask
  per sign, which the branch-free ``autodiff.sigmoid`` must reproduce
  bitwise.
- ``graph_feature``, ``attention_feature`` and
  ``point_transformer_feature``: the graph, standard-attention and
  point-transformer operators written out on their own. The unified
  gated attention with GRAPH_GATES, ATTENTION_GATES or TRANSFORMER_GATES
  must reproduce each of them (the paper's gate-reduction claim).
- ``batch_query_capped``, ``grouped_gated_attention`` and
  ``grouped_forward_rois``: the head's former forward pass, which embedded
  each RoI's context on its own, queried each RoI's grid points against
  one distance matrix, grouped the grid
  points of a level by exact neighbour count and ran one ``[g, m]`` gated
  attention per group. The ragged per-level path must reproduce its
  scores, residuals and parameter gradients.
- ``slot_gated_attention_batched`` and ``slot_gate_core``: the former
  ragged attention, which projected every slot to ``d_model``-wide key,
  query and value rows and gated them there. The folded operator must
  reproduce its output and every gradient to 1e-12 relative.
- ``row_sort_occupancy_features`` and ``loop_sample_shell``: the former
  scene set-up, which counted each cell's points with a row sort
  (``np.unique(cells, axis=0)``) and drew each shell point's face
  coordinates in a Python loop. Scenes generated with the array versions
  must be bitwise equal to scenes generated with these.
- ``loop_evaluate``, ``loop_bucket_of`` and ``pyramid_gathered_ids``: the
  former evaluation, which labelled each detection and folded it into
  running counters and per-bucket dicts, the former bucket lookup, a loop
  over the edges, and the former sparsity gather, which collected the
  point ids of one RoI into a Python set with one gather per level. The
  per-detection rows of ``evaluate`` must reproduce the first's
  ``repr``, ``bucket_of`` the second's labels, and
  ``pyramid_gathered_counts`` the third's set sizes.
- ``clipped_momentum_step``: toy training's update rule written out on
  plain arrays, one formula per line. ``synth.update`` must reproduce its
  norm, parameters and velocity.
- ``box_row``: a ``Box3D`` as the (centre, extents, yaw) row that
  ``synth.infer`` returns and ``derotated_iou`` reads; ``geometry.box_rows``
  must reproduce it bitwise, box by box.
- ``apply_residuals`` and ``residual_target``: the former box codec, one
  RoI at a time on ``Box3D``s. ``head.decode_boxes`` and
  ``head.residual_targets``, one call over all rows, must reproduce their
  boxes and targets bitwise, and the decode its range check.
- ``empty_point_set``, ``save_pset``, ``point_set_json``,
  ``pyramid_config_json`` and ``head_config_json``: fixture writers for
  the forms the program reads but never writes. ``PointSet.load`` (PSET
  and JSON), ``PyramidConfig.from_json`` and ``HeadConfig.from_json``
  must read back what these write.
"""
from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np

from pyrhead.autodiff import Value, add, concat, mul, reshape, take
from pyrhead.darp import predict_radius
from pyrhead.geometry import (Box3D, GridSpec, PyramidConfig, _lattice,
                              pyramid_grid_points, rot_z, wrap_angle)
from pyrhead.head import (CONFIG_SCHEMA_VERSION, HeadConfig, assign_label,
                          derotated_iou, run_head)
from pyrhead.operators import (AttentionParams, NeighborBundle,
                               soft_radius_coeff)
from pyrhead.spatial import PSET_MAGIC, PointSet, build_index, gather_level
from pyrhead.synth import (_FACE_AXES, BUCKET_EDGES, BUCKET_LABELS, FEAT_WIDTH,
                           HIT_IOU, INDEX_CELL, EvalResult)


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
    if box.yaw == 0.0:
        return pts
    return (pts - box.center) @ rot_z(box.yaw).T + box.center


def masked_sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic function, each sign through its own overflow-free branch."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def retaining_backward(root: Value) -> None:
    """Accumulate the gradients of scalar ``root`` into every reachable node,
    keeping the whole tape: no node drops its closure, parents or gradient."""
    if root.size != 1:
        raise ValueError("backward() requires a scalar output")
    order: list[Value] = []
    seen: set[int] = set()
    stack: list[tuple[Value, bool]] = [(root, False)]
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
    root._accum(np.ones_like(root.data))
    for node in reversed(order):
        if node._backward is not None and node._grad is not None:
            node._backward(node._grad)


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


def per_roi_context_embedding(roi: Box3D, ps, idx, params) -> Value:
    """Concatenated per-sphere max-pooled summaries of points near one RoI."""
    center = roi.center
    derot = rot_z(roi.yaw)
    parts = []
    for radius, mlp in zip(params.radii, params.mlps):
        ids = idx.query(center, radius, max_k=len(ps) + 1)[0]   # uncapped
        if ids.size == 0:
            parts.append(Value(np.zeros(mlp.d_out)))
            continue
        x = np.concatenate([ps.feats[ids], (ps.coords[ids] - center) @ derot],
                           axis=1)
        parts.append(vmax(mlp(x), axis=0))
    return concat(parts, axis=0)


def _per_head_combine(weights: Value, values: Value, heads: int) -> Value:
    """Sum_i weights[i,h] * values[i, h-th slice]; concatenation over heads."""
    m, dm = values.shape
    dh = dm // heads
    w3 = reshape(weights, (m, heads, 1))
    v3 = reshape(values, (m, heads, dh))
    return reshape(segment_sum(mul(w3, v3), np.zeros(m, dtype=np.intp), 1), (dm,))


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
    ctxs = [per_roi_context_embedding(roi, ps, idx, params.context) for roi in rois]
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


def loop_sample_shell(rng: np.random.Generator, box: Box3D, n: int,
                      sensor: np.ndarray, noise: float) -> np.ndarray:
    """Sample n points on the faces of the box that face the sensor."""
    rot = rot_z(box.yaw)
    half = 0.5 * box.extents
    visible = []
    areas = []
    for axis, sign in _FACE_AXES:
        normal_local = np.zeros(3)
        normal_local[axis] = sign
        normal = rot @ normal_local
        face_center = box.center + rot @ (normal_local * half)
        if np.dot(normal, sensor - face_center) > 0:
            others = [i for i in range(3) if i != axis]
            visible.append((axis, sign, others))
            areas.append(box.extents[others[0]] * box.extents[others[1]])
    if not visible:  # degenerate sensor position, fall back to all faces
        visible = [(a, s, [i for i in range(3) if i != a]) for a, s in _FACE_AXES]
        areas = [box.extents[o[0]] * box.extents[o[1]] for _, _, o in visible]
    areas = np.asarray(areas) / np.sum(areas)
    choice = rng.choice(len(visible), size=n, p=areas)
    local = np.empty((n, 3))
    for i, c in enumerate(choice):
        axis, sign, others = visible[c]
        local[i, axis] = sign * half[axis]
        local[i, others[0]] = rng.uniform(-half[others[0]], half[others[0]])
        local[i, others[1]] = rng.uniform(-half[others[1]], half[others[1]])
    pts = local @ rot.T + box.center
    return pts + rng.normal(0.0, noise, size=pts.shape)


def row_sort_occupancy_features(coords: np.ndarray, z_extent: float = 4.0
                                ) -> np.ndarray:
    """Local-occupancy features with each size's cells counted by a row sort."""
    n = coords.shape[0]
    feats = np.zeros((n, FEAT_WIDTH))
    if n == 0:
        return feats
    sizes = [0.4, 0.8, 1.6, 3.2]
    logc = np.zeros((n, 4))
    for col, size in enumerate(sizes):
        cells = np.floor(coords / size).astype(np.int64)
        _, inverse, counts = np.unique(cells, axis=0, return_inverse=True,
                                       return_counts=True)
        logc[:, col] = np.log1p(counts[inverse])
    feats[:, 0:4] = logc / 4.0
    feats[:, 4] = coords[:, 2] / z_extent
    feats[:, 5] = (logc[:, 1] <= np.log1p(1)).astype(np.float64)  # isolated
    feats[:, 6] = (logc[:, 2] - logc[:, 1]) / 2.0
    feats[:, 7] = (logc[:, 3] - logc[:, 2]) / 2.0
    return feats


def loop_bucket_of(count: int) -> str:
    for lo, label in zip(BUCKET_EDGES[1:], BUCKET_LABELS[:-1]):
        if count < lo:
            return label
    return BUCKET_LABELS[-1]


def loop_evaluate(head_cfg, params, scenes) -> EvalResult:
    """``synth.evaluate`` as running counters over the detections."""
    correct = 0
    total = 0
    positives = 0
    ious: list[float] = []
    hits = 0
    bucket_tot: dict[str, int] = {}
    bucket_ok: dict[str, int] = {}
    for sc in scenes:
        dets, _ = run_head(head_cfg, params, sc.ps, build_index(sc.ps, INDEX_CELL),
                           sc.proposals, head_cfg.tau_end)
        for det, g in zip(dets, sc.proposal_gt):
            gt = sc.gt_boxes[g]
            label = assign_label(det.proposal, gt, head_cfg.iou_positive)
            ok = int(det.score > 0.5) == label
            correct += ok
            total += 1
            positives += label
            iou = derotated_iou(box_row(det.box), gt)
            ious.append(iou)
            hits += iou >= HIT_IOU
            bucket = loop_bucket_of(int(gt.contains(sc.ps.coords).sum()) if len(sc.ps) else 0)
            bucket_tot[bucket] = bucket_tot.get(bucket, 0) + 1
            bucket_ok[bucket] = bucket_ok.get(bucket, 0) + ok
    if total == 0:
        return EvalResult(0, 0.0, 0.0, 0.0, 0.0, {})
    pos_rate = positives / total
    return EvalResult(
        n=total,
        accuracy=correct / total,
        mean_iou=float(np.mean(ious)),
        hit_rate=hits / total,
        label_base_rate=max(pos_rate, 1.0 - pos_rate),
        bucket_accuracy={b: bucket_ok[b] / bucket_tot[b] for b in sorted(bucket_tot)},
    )


def clipped_momentum_step(data, grads, velocity, lr, step, steps, clip, momentum):
    """(norm, new data, new velocity) of one clipped, annealed momentum step."""
    norm = math.sqrt(sum(float(np.sum(np.square(g))) for g in grads))
    shrink = clip / norm if norm > clip else 1.0
    rate = lr * shrink * (1.0 + math.cos(math.pi * step / steps)) / 2.0
    new_velocity = [momentum * v - rate * g for v, g in zip(velocity, grads)]
    return norm, [d + v for d, v in zip(data, new_velocity)], new_velocity


def box_row(box: Box3D) -> np.ndarray:
    return np.array([*box.center, *box.extents, box.yaw])


def apply_residuals(proposal: Box3D, residuals: np.ndarray) -> Box3D:
    """Shift center, scale extents through exp, add and wrap yaw."""
    res = np.asarray(residuals, dtype=np.float64).reshape(7)
    if not np.all(np.isfinite(res)) or np.any(np.abs(res[3:6]) > 50.0):
        raise RuntimeError(
            f"box residuals out of range: {res}")
    center = proposal.center + res[0:3]
    extents = proposal.extents * np.exp(res[3:6])
    return Box3D.from_center(center, extents, wrap_angle(proposal.yaw + res[6]))


def residual_target(proposal: Box3D, gt: Box3D) -> np.ndarray:
    """The residual vector that would map the proposal exactly onto gt."""
    return np.concatenate([
        gt.center - proposal.center,
        np.log(gt.extents / proposal.extents),
        [wrap_angle(gt.yaw - proposal.yaw)],
    ])


def pyramid_gathered_ids(ps, roi: Box3D, pyramid) -> set[int]:
    """Union of the point ids that every grid point of every level of one
    RoI gathers, one ``gather_level`` per level."""
    ids: set[int] = set()
    for lv in pyramid.levels:
        centers = pyramid_grid_points(roi, lv)[None]
        _, got, _ = gather_level(ps, centers, lv.r_pre, lv.max_neighbors)
        ids.update(got.tolist())
    return ids


# -- fixture writers ---------------------------------------------------------

def empty_point_set(feat_width: int) -> PointSet:
    return PointSet(np.zeros((0, 3)), np.zeros((0, feat_width)))


def save_pset(ps: PointSet, path) -> None:
    """Binary form: magic, u32 n, u32 d, f32 coords, f32 features."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", PSET_MAGIC, len(ps), ps.feat_width))
        fh.write(ps.coords.astype("<f4").tobytes())
        fh.write(ps.feats.astype("<f4").tobytes())


def point_set_json(ps: PointSet) -> str:
    return json.dumps({"coords": ps.coords.tolist(), "feats": ps.feats.tolist()})


def _pyramid_doc(cfg: PyramidConfig) -> dict:
    return {"anchor_mode": cfg.levels[0].anchor_mode,
            "levels": [{"grid": list(lv.grid.sizes), "ratios": list(lv.ratios),
                        "max_neighbors": lv.max_neighbors, "r_pre": lv.r_pre}
                       for lv in cfg.levels]}


def pyramid_config_json(cfg: PyramidConfig) -> str:
    return json.dumps(_pyramid_doc(cfg), indent=2)


def head_config_json(cfg: HeadConfig) -> str:
    """Every field, the pyramid as ``pyramid_config_json`` writes it."""
    doc = {"schema_version": CONFIG_SCHEMA_VERSION}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        doc[f.name] = (_pyramid_doc(v) if isinstance(v, PyramidConfig)
                       else list(v) if isinstance(v, tuple) else v)
    return json.dumps(doc, indent=2)
