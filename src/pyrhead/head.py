"""The pyramid RoI head: per-level grids, predicted radii, gated attention,
level fusion, and classification/box-refinement outputs.

The RoIs of a scene are an array axis through every stage: one context
embedding; per level one grid call, one capped gather and one gated
attention call that returns a feature for every grid point (zeros where it
has no neighbor), summed per RoI; one cls and one reg call; one loss.
The math is that of the per-point operators, up to summation order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .autodiff import (Value, add, concat, mul, reshape, sigmoid, smooth_l1,
                       softplus, take, vsum)
from .darp import (ContextAggregatorParams, RadiusHeadParams, context_embedding,
                   init_context_params, init_radius_head, predict_radius)
from .geometry import (Box3D, PyramidConfig, _config_fields,
                       default_pyramid_config, pyramid_grid_points, rot_z,
                       to_box_frames, wrap_angle)
from .nn import LinearParams, MLPParams, init_linear, init_mlp
from .operators import (AttentionParams, GateOverride, gated_attention_batched,
                        init_attention_params, sampling_range,
                        soft_radius_coeff)
from .spatial import PointSet, SpatialIndex, gather_level

CONFIG_SCHEMA_VERSION = "pyrhead-config/1"


@dataclass
class HeadConfig:
    """Static architecture and loss settings of the pyramid RoI head."""

    pyramid: PyramidConfig = field(default_factory=default_pyramid_config)
    feat_width: int = 8
    d_model: int = 64
    heads: int = 4
    reduce_width: int = 64
    fusion_widths: tuple[int, ...] = (128, 128)
    darp_enabled: bool = True
    context_radii: tuple[float, ...] = (2.4, 4.8)
    context_sphere_width: int = 64
    radius_hidden: int = 64
    r_min: float = 0.05
    tau_start: float = 0.02
    tau_end: float = 0.0001
    iou_positive: float = 0.55
    reg_weight: float = 2.0
    gate_override: tuple[float, float, float, float] | None = None

    @property
    def fusion_out(self) -> int:
        return self.fusion_widths[-1]

    def gates(self) -> GateOverride | None:
        if self.gate_override is None:
            return None
        return GateOverride.from_tuple(self.gate_override)

    def to_json(self) -> str:
        doc = {"schema_version": CONFIG_SCHEMA_VERSION}
        for f in fields(self):
            v = getattr(self, f.name)
            doc[f.name] = (json.loads(v.to_json()) if isinstance(v, PyramidConfig)
                           else list(v) if isinstance(v, tuple) else v)
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "HeadConfig":
        """Config from JSON; an unknown, missing or mistyped field raises ValueError."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("head config must be a JSON object")
        version = doc.pop("schema_version", None)
        if version != CONFIG_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported config schema {version!r}, expected {CONFIG_SCHEMA_VERSION}")
        return cls(**_config_fields(doc, get_type_hints(cls)))


@dataclass
class HeadParams:
    """All learnable state of the head, one attention block per level."""

    attention: list[AttentionParams]
    context: ContextAggregatorParams
    radius: RadiusHeadParams
    reduce: list[LinearParams]
    fusion: MLPParams
    cls_head: LinearParams
    reg_head: LinearParams

    def named_parameters(self):
        for i, a in enumerate(self.attention):
            yield from a.named_parameters(f"attention{i}.")
        yield from self.context.named_parameters("context.")
        yield from self.radius.named_parameters("radius.")
        for i, r in enumerate(self.reduce):
            yield from r.named_parameters(f"reduce{i}.")
        yield from self.fusion.named_parameters("fusion.")
        yield from self.cls_head.named_parameters("cls.")
        yield from self.reg_head.named_parameters("reg.")

    def parameter_groups(self) -> dict[str, list[tuple[str, Value]]]:
        groups: dict[str, list[tuple[str, Value]]] = {}
        for name, p in self.named_parameters():
            groups.setdefault(name.split(".", 1)[0], []).append((name, p))
        return groups

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()


def init_head_params(cfg: HeadConfig, seed: int) -> HeadParams:
    rng = np.random.default_rng(seed)
    levels = cfg.pyramid.levels
    attention = [init_attention_params(rng, cfg.feat_width, cfg.d_model, cfg.heads)
                 for _ in levels]
    context = init_context_params(rng, cfg.feat_width, cfg.context_radii,
                                  cfg.context_sphere_width)
    radius = init_radius_head(rng, context.out_width,
                              [lv.r_pre for lv in levels],
                              hidden=cfg.radius_hidden, r_min=cfg.r_min)
    reduce = [init_linear(rng, cfg.d_model, cfg.reduce_width) for _ in levels]
    fusion = init_mlp(rng, [cfg.reduce_width * len(levels), *cfg.fusion_widths])
    cls_head = init_linear(rng, cfg.fusion_out, 1)
    reg_head = init_linear(rng, cfg.fusion_out, 7)
    return HeadParams(attention, context, radius, reduce, fusion,
                      cls_head, reg_head)


# -- forward ---------------------------------------------------------------

def forward_rois(cfg: HeadConfig, params: HeadParams, ps: PointSet,
                 idx: SpatialIndex, rois: list[Box3D], tau: float
                 ) -> tuple[Value, list[np.ndarray]]:
    """Fused per-RoI features [R, fusion_out] and per-level effective radii.

    Each level is one ragged batch over all RoIs: one grid call, a single
    capped gather that lays the neighbors of every grid point end to end,
    and one gated attention call that returns the feature of every grid
    point, which are summed per RoI. Grid points without a neighbor
    contribute zero to their RoI's level mean.
    """
    R = len(rois)
    gates = cfg.gates()
    if cfg.darp_enabled:
        ctx = context_embedding(rois, ps, idx, params.context)     # [R, W]
    # neighbor offsets are expressed in each RoI's canonical frame so the
    # trained geometry is invariant to box heading
    yaw = np.array([roi.yaw for roi in rois])
    level_feats = []
    radii_used: list[np.ndarray] = []
    for li, lv in enumerate(cfg.pyramid.levels):
        if cfg.darp_enabled:
            r_vec = predict_radius(ctx, li, params.radius)  # [R]
            r_np = r_vec.data.copy()
            gather_r = sampling_range(r_np, tau)
        else:
            r_np = np.full(R, lv.r_pre)
            gather_r = r_np
        radii_used.append(r_np)
        count = lv.grid.count
        centers = pyramid_grid_points(rois, lv)                   # [R*c, 3]
        row, ids, dist = gather_level(ps, centers.reshape(R, count, 3), gather_r,
                                      lv.max_neighbors)
        roi_of = row // count
        offs = to_box_frames(ps.coords[ids] - centers[row], yaw, roi_of)
        coeff = (soft_radius_coeff(dist, take(r_vec, roi_of), tau)
                 if cfg.darp_enabled else None)
        grid = gated_attention_batched(offs, ps.feats[ids], params.attention[li],
                                       gates, coeff, row, R * count)
        sums = vsum(reshape(grid, (R, count, cfg.d_model)), axis=1)
        level_feats.append(params.reduce[li](mul(sums, 1.0 / count)))
    fused = params.fusion(concat(level_feats, axis=1))
    return fused, radii_used


# -- detections --------------------------------------------------------------

@dataclass
class Detection:
    """A refined proposal: score plus box residuals applied to the proposal,
    and row ``row`` of its ``refine`` call's (logits [R], residuals [R, 7])."""

    proposal: Box3D
    box: Box3D
    score: float
    residuals: np.ndarray
    outputs: tuple[Value, Value] | None = None
    row: int = 0


def apply_residuals(proposal: Box3D, residuals: np.ndarray) -> Box3D:
    """Shift center, scale extents through exp, add and wrap yaw."""
    res = np.asarray(residuals, dtype=np.float64).reshape(7)
    if not np.all(np.isfinite(res)) or np.any(np.abs(res[3:6]) > 50.0):
        raise RuntimeError(
            f"box residuals out of range (diverged training?): {res}")
    center = proposal.center + res[0:3]
    extents = proposal.extents * np.exp(res[3:6])
    return Box3D.from_center(center, extents, wrap_angle(proposal.yaw + res[6]))


def refine(rois: list[Box3D], fused: Value, params: HeadParams) -> list[Detection]:
    """Detections of the RoIs from their fused features [R, fusion_out]:
    one cls and one reg call over all rows."""
    logits = reshape(params.cls_head(fused), (len(rois),))
    res = params.reg_head(fused)
    outputs = (logits, res)
    scores = sigmoid(logits.data)
    return [Detection(roi, apply_residuals(roi, res.data[i]), float(scores[i]),
                      res.data[i].copy(), outputs, i)
            for i, roi in enumerate(rois)]


def run_head(cfg: HeadConfig, params: HeadParams, ps: PointSet,
             idx: SpatialIndex, rois: list[Box3D], tau: float
             ) -> tuple[list[Detection], list[np.ndarray]]:
    """Forward the head over all proposals of one scene."""
    if not rois:
        return [], [np.zeros(0) for _ in cfg.pyramid.levels]
    fused, radii = forward_rois(cfg, params, ps, idx, rois, tau)
    return refine(rois, fused, params), radii


# -- geometry helpers for targets and metrics --------------------------------

def axis_aligned_iou(a: Box3D, b: Box3D) -> float:
    """Interval-overlap IoU of the canonical (yaw-ignored) boxes."""
    lo = np.maximum(a.corner, b.corner)
    hi = np.minimum(a.corner + a.extents, b.corner + b.extents)
    inter = float(np.prod(np.maximum(hi - lo, 0.0)))
    union = float(np.prod(a.extents) + np.prod(b.extents)) - inter
    return inter / union if union > 0 else 0.0


def derotated_iou(det: Box3D, gt: Box3D) -> float:
    """Axis-aligned IoU after rotating the detection into the gt yaw frame."""
    center = rot_z(-gt.yaw) @ (det.center - gt.center) + gt.center
    a = Box3D.from_center(center, det.extents, 0.0)
    b = Box3D.from_center(gt.center, gt.extents, 0.0)
    return axis_aligned_iou(a, b)


def assign_label(proposal: Box3D, gt: Box3D, threshold: float) -> int:
    return int(axis_aligned_iou(proposal, gt) >= threshold)


def residual_target(proposal: Box3D, gt: Box3D) -> np.ndarray:
    """The residual vector that would map the proposal exactly onto gt."""
    return np.concatenate([
        gt.center - proposal.center,
        np.log(gt.extents / proposal.extents),
        [wrap_angle(gt.yaw - proposal.yaw)],
    ])


def loss(dets: list[Detection], targets: list[tuple[int, Box3D]],
         cfg: HeadConfig) -> Value:
    """Mean score cross-entropy plus weighted box regression on positives,
    over the detections of one ``run_head`` call, in order."""
    if len(dets) != len(targets):
        raise ValueError("detections and targets must align")
    if not dets:
        return Value(0.0)
    outputs = dets[0].outputs
    if (outputs is None or len(dets) != outputs[0].shape[0]
            or any(d.outputs is not outputs or d.row != i for i, d in enumerate(dets))):
        raise ValueError("loss takes the detections of one run_head call, in order")
    logits, residuals = outputs
    labels = np.array([float(lbl) for lbl, _ in targets])
    bce = mul(vsum(add(softplus(logits), mul(logits, -labels))), 1.0 / len(dets))
    pos = np.flatnonzero(labels)
    if not pos.size:
        return bce
    want = np.array([residual_target(dets[i].proposal, targets[i][1]) for i in pos])
    reg = mul(vsum(smooth_l1(add(take(residuals, pos), -want))), 1.0 / pos.size)
    return add(bce, mul(reg, cfg.reg_weight))
