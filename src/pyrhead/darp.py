"""Density-aware radius prediction: context embedding, radius offset, schedule.

Each RoI summarizes the points inside two fixed context spheres around its
center (one lookup and one max-pool per sphere for all RoIs); a small head
maps it to a per-level radius offset, and the level's radius is r_pre plus
that offset, bounded smoothly to (r_min, 2*r_pre - r_min) by a tanh. The
temperature of the soft membership decays geometrically over training.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Value, concat, reshape, segment_max
from .geometry import Box3D, to_box_frames
from .nn import MLPParams, Params, init_mlp
from .spatial import PointSet, SpatialIndex


@dataclass
class ContextAggregatorParams(Params):
    """Per-sphere MLPs that summarize points around an RoI center."""

    radii: tuple[float, ...]
    mlps: list[MLPParams]

    @property
    def out_width(self) -> int:
        return sum(m.d_out for m in self.mlps)


def init_context_params(rng: np.random.Generator, feat_width: int, radii: tuple[float, ...],
                        sphere_width: int) -> ContextAggregatorParams:
    mlps = [init_mlp(rng, [feat_width + 3, sphere_width]) for _ in radii]
    return ContextAggregatorParams(radii=tuple(radii), mlps=mlps)


# Damps the predicted radius offset (and its gradient): the soft membership
# makes radius gradients spike near the sampling boundary, and an undamped
# head can race to its bound before the rest of the network has fitted
# anything.
OFFSET_SCALE = 0.1


@dataclass
class RadiusHeadParams(Params):
    """Per-level offset MLPs plus the predefined radii they perturb."""

    r_pre: list[float]
    mlps: list[MLPParams]
    r_min: float


def init_radius_head(rng: np.random.Generator, context_width: int, r_pre: list[float],
                     hidden: int, r_min: float) -> RadiusHeadParams:
    # zero-initialized output layer: training starts at the predefined radii
    mlps = [init_mlp(rng, [context_width, hidden, 1], zero_last=True)
            for _ in r_pre]
    return RadiusHeadParams(r_pre=list(r_pre), mlps=mlps, r_min=r_min)


@dataclass(frozen=True)
class TemperatureSchedule:
    tau_start: float
    tau_end: float
    total_steps: int

    def __post_init__(self):
        self.check_tau(self.tau_start, self.tau_end)
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")

    @staticmethod
    def check_tau(tau_start: float, tau_end: float) -> None:
        if not (np.inf > tau_start >= tau_end > 0 and 1.0 / float(tau_end) < np.inf):
            raise ValueError("need a finite tau_start >= tau_end > 0 with a finite "
                             f"1/tau_end, got tau_start={tau_start} and tau_end={tau_end}")


def temperature(step: int, sched: TemperatureSchedule) -> float:
    """Geometric interpolation from tau_start at step 0 to tau_end at the end."""
    if not 0 <= step <= sched.total_steps:
        raise ValueError(f"step {step} outside [0, {sched.total_steps}]")
    frac = step / sched.total_steps
    return sched.tau_start * (sched.tau_end / sched.tau_start) ** frac


def context_embedding(rois, ps: PointSet, idx: SpatialIndex,
                      params: ContextAggregatorParams) -> Value:
    """Concatenated per-sphere max-pooled summaries of points near each RoI,
    [out_width] for one box and [R, out_width] for a sequence of R boxes.

    A sphere without points gives zeros. Point offsets are expressed in
    each RoI's canonical frame so the embedding does not depend on heading.
    """
    boxes = [rois] if isinstance(rois, Box3D) else rois
    centers = np.array([b.center for b in boxes]).reshape(-1, 3)
    yaw = np.array([b.yaw for b in boxes])
    parts = []
    for radius, mlp in zip(params.radii, params.mlps):
        row, ids, _ = idx.balls(centers, radius)
        offs = to_box_frames(ps.coords[ids] - centers[row], yaw, row)
        x = np.concatenate([ps.feats[ids], offs], axis=1)
        parts.append(segment_max(mlp(x), row, len(boxes)))
    ctx = concat(parts, axis=1)
    return reshape(ctx, (params.out_width,)) if isinstance(rois, Box3D) else ctx


def predict_radius(ctx: Value, level: int, params: RadiusHeadParams) -> Value:
    """Effective radius r_pre + s*tanh(OFFSET_SCALE*dr/s), s = r_pre - r_min.

    ``dr`` is the level's MLP output. At dr = 0 this is r_pre with slope
    OFFSET_SCALE; it stays inside (r_min, 2*r_pre - r_min), its gradient
    never drops to zero, and all grid points of the level share it.
    """
    if not 0 <= level < len(params.r_pre):
        raise ValueError(f"level {level} outside the configured pyramid")
    dr = params.mlps[level](ctx)
    dr = reshape(dr, dr.shape[:-1])
    r_pre = params.r_pre[level]
    s = r_pre - params.r_min
    t = np.tanh(dr.data * (OFFSET_SCALE / s))

    def _bw(g):
        dr._accum_owned(g * (OFFSET_SCALE * (1.0 - t * t)))

    return Value(r_pre + s * t, (dr,), _bw)
