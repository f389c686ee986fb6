"""The pyramid RoI head: per-level grids, predicted radii, gated attention,
level fusion, and classification/box-refinement outputs.

The RoIs of a scene are an array axis through every stage: one context
embedding; per level one grid call, one capped gather and one gated
attention call that returns each RoI's sum of its grid points' features
(zeros where a grid point has no neighbor); one cls and one reg call; one
loss.
The math is that of the per-point operators, up to summation order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

from .autodiff import (Value, add, concat, mul, reshape, sigmoid, smooth_l1,
                       softplus, take, vsum)
from .darp import (ContextAggregatorParams, RadiusHeadParams, TemperatureSchedule,
                   context_embedding, init_context_params, init_radius_head,
                   predict_radius)
from .geometry import (Box3D, PyramidConfig, _config_fields, box_rows,
                       default_pyramid_config, pyramid_grid_points, rot_z,
                       to_box_frames, wrap_angle)
from .nn import LinearParams, MLPParams, Params, init_linear, init_mlp
from .operators import (AttentionParams, GateOverride, gated_attention_batched,
                        init_attention_params, sampling_range,
                        soft_radius_coeff)
from .spatial import PointSet, SpatialIndex, gather_level

CONFIG_SCHEMA_VERSION = "pyrhead-config/1"


@dataclass
class HeadConfig:
    """Static architecture and loss settings of the pyramid RoI head. Construction
    judges them whole: a bad setting raises ValueError naming its field."""

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

    def __post_init__(self):
        widths = ("feat_width", "reduce_width", "context_sphere_width", "radius_hidden")
        radii = (0.0, *self.context_radii, np.inf)
        r_pre, low = min((lv.r_pre, i) for i, lv in enumerate(self.pyramid.levels))
        rules = [(name, ">= 1", getattr(self, name) >= 1) for name in widths] + [
            ("fusion_widths", "non-empty and >= 1", min(self.fusion_widths, default=0) >= 1),
            ("context_radii", "non-empty, positive, increasing and finite",
             len(radii) > 2 and all(a < b for a, b in zip(radii, radii[1:]))),
            ("r_min", f"> 0 and below level {low}'s r_pre {r_pre}", 0 < self.r_min < r_pre),
            ("iou_positive", "in (0, 1]", 0 < self.iou_positive <= 1),
            ("reg_weight", "finite and >= 0", 0 <= self.reg_weight < np.inf)]
        for name, rule, holds in rules:
            if not holds:
                raise ValueError(f"config field {name!r} must be {rule}, "
                                 f"got {getattr(self, name)!r}")
        AttentionParams.check_sizes(self.d_model, self.heads)
        TemperatureSchedule.check_tau(self.tau_start, self.tau_end)
        try:
            self.gates()
        except ValueError as exc:
            raise ValueError(f"config field 'gate_override': {exc}") from None

    @property
    def fusion_out(self) -> int:
        return self.fusion_widths[-1]

    def gates(self) -> GateOverride | None:
        if self.gate_override is None:
            return None
        return GateOverride.from_tuple(self.gate_override)

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
class HeadParams(Params):
    """All learnable state of the head, one attention block per level."""

    attention: list[AttentionParams]
    context: ContextAggregatorParams
    radius: RadiusHeadParams
    reduce: list[LinearParams]
    fusion: MLPParams
    cls_head: LinearParams
    reg_head: LinearParams

    def parameter_groups(self) -> dict[str, list[tuple[str, Value]]]:
        groups: dict[str, list[tuple[str, Value]]] = {}
        for name, p in self.named_parameters():
            groups.setdefault(name.split(".", 1)[0], []).append((name, p))
        return groups


def init_head_params(cfg: HeadConfig, seed: int) -> HeadParams:
    rng = np.random.default_rng(seed)
    levels = cfg.pyramid.levels
    attention = [init_attention_params(rng, cfg.feat_width, cfg.d_model, cfg.heads)
                 for _ in levels]
    context = init_context_params(rng, cfg.feat_width, cfg.context_radii,
                                  cfg.context_sphere_width)
    radius = init_radius_head(rng, context.out_width, [lv.r_pre for lv in levels],
                              cfg.radius_hidden, cfg.r_min)
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
    and one gated attention call that returns each RoI's sum of its grid
    points' features. Grid points without a neighbor contribute zero to
    their RoI's level mean.
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
        sums = gated_attention_batched(offs, ps.feats[ids], params.attention[li],
                                       gates, coeff, row, R * count, count)
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


def decode_boxes(rows: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Box rows [R, 7] moved by residuals ``res`` [R, 7]: centre + res, extents * exp(res),
    wrapped yaw + res. RuntimeError names the first non-finite or |log-extent| > 50 row."""
    bad = ~np.isfinite(res).all(axis=1) | (np.abs(res[:, 3:6]) > 50.0).any(axis=1)
    if bad.any():
        raise RuntimeError(f"box residuals out of range: {res[bad][0]}")
    return np.hstack([rows[:, 0:3] + res[:, 0:3], rows[:, 3:6] * np.exp(res[:, 3:6]),
                      wrap_angle(rows[:, 6:7] + res[:, 6:7])])


def refine(rois: list[Box3D], fused: Value, params: HeadParams) -> list[Detection]:
    """Detections of the RoIs from their fused features [R, fusion_out]:
    one cls, one reg and one decode call over all rows."""
    logits = reshape(params.cls_head(fused), (len(rois),))
    res = params.reg_head(fused)
    outputs = (logits, res)
    boxes = decode_boxes(box_rows(rois), res.data)
    return [Detection(roi, Box3D.from_center(b[0:3], b[3:6], b[6]), float(score),
                      res.data[i].copy(), outputs, i)
            for i, (roi, b, score) in enumerate(zip(rois, boxes, sigmoid(logits.data)))]


def run_head(cfg: HeadConfig, params: HeadParams, ps: PointSet,
             idx: SpatialIndex, rois: list[Box3D], tau: float
             ) -> tuple[list[Detection], list[np.ndarray]]:
    """Forward the head over all proposals of one scene."""
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


def derotated_iou(box: np.ndarray, gt: Box3D) -> float:
    """Axis-aligned IoU after rotating a (centre, extents, yaw) row into the gt frame."""
    center = rot_z(-gt.yaw) @ (box[0:3] - gt.center) + gt.center
    a = Box3D.from_center(center, box[3:6], 0.0)
    b = Box3D.from_center(gt.center, gt.extents, 0.0)
    return axis_aligned_iou(a, b)


def assign_label(proposal: Box3D, gt: Box3D, threshold: float) -> int:
    return int(axis_aligned_iou(proposal, gt) >= threshold)


def residual_targets(rows: np.ndarray, gt_rows: np.ndarray) -> np.ndarray:
    """The residuals [N, 7] that ``decode_boxes`` maps box rows onto gt rows with."""
    return np.hstack([gt_rows[:, 0:3] - rows[:, 0:3], np.log(gt_rows[:, 3:6] / rows[:, 3:6]),
                      wrap_angle(gt_rows[:, 6:7] - rows[:, 6:7])])


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
    want = residual_targets(box_rows([dets[i].proposal for i in pos]),
                            box_rows([targets[i][1] for i in pos]))
    reg = mul(vsum(smooth_l1(add(take(residuals, pos), -want))), 1.0 / pos.size)
    return add(bce, mul(reg, cfg.reg_weight))
