"""Density-aware radius prediction: context embedding, radius offset, schedule.

Each RoI summarizes the points inside two fixed context spheres around its
center; a small head maps that summary to a per-level radius offset, and
the level's radius is the predefined radius plus that offset, bounded
smoothly to (r_min, 2*r_pre - r_min) by a tanh. The temperature of the
soft membership decays geometrically over training.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .autodiff import Value, concat, reshape, vmax
from .geometry import Box3D, rot_z
from .nn import MLPParams, init_mlp
from .spatial import PointSet, SpatialIndex


@dataclass
class ContextAggregatorParams:
    """Per-sphere MLPs that summarize points around an RoI center."""

    radii: tuple[float, ...]
    mlps: list[MLPParams]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError(f"context radii must strictly increase: {self.radii}")
        if len(self.mlps) != len(self.radii):
            raise ValueError("one MLP per context sphere required")

    @property
    def out_width(self) -> int:
        return sum(m.d_out for m in self.mlps)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Value]]:
        for i, m in enumerate(self.mlps):
            yield from m.named_parameters(f"{prefix}sphere{i}.")


def init_context_params(rng: np.random.Generator, feat_width: int,
                        radii: tuple[float, ...] = (2.4, 4.8),
                        sphere_width: int = 64) -> ContextAggregatorParams:
    mlps = [init_mlp(rng, [feat_width + 3, sphere_width]) for _ in radii]
    return ContextAggregatorParams(radii=tuple(radii), mlps=mlps)


# Damps the predicted radius offset (and its gradient): the soft membership
# makes radius gradients spike near the sampling boundary, and an undamped
# head can race to its bound before the rest of the network has fitted
# anything.
OFFSET_SCALE = 0.1


@dataclass
class RadiusHeadParams:
    """Per-level offset MLPs plus the predefined radii they perturb."""

    r_pre: list[float]
    mlps: list[MLPParams]
    r_min: float = 0.05

    def __post_init__(self):
        if any(r <= 0 for r in self.r_pre):
            raise ValueError("predefined radii must be positive")
        for level, r in enumerate(self.r_pre):
            if r <= self.r_min:
                raise ValueError(f"level {level}: predefined radius {r} must "
                                 f"exceed r_min={self.r_min}")
        if len(self.mlps) != len(self.r_pre):
            raise ValueError("one radius MLP per pyramid level required")

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Value]]:
        for i, m in enumerate(self.mlps):
            yield from m.named_parameters(f"{prefix}level{i}.")


def init_radius_head(rng: np.random.Generator, context_width: int,
                     r_pre: list[float], hidden: int = 64,
                     r_min: float = 0.05) -> RadiusHeadParams:
    # zero-initialized output layer: training starts at the predefined radii
    mlps = [init_mlp(rng, [context_width, hidden, 1], zero_last=True)
            for _ in r_pre]
    return RadiusHeadParams(r_pre=list(r_pre), mlps=mlps, r_min=r_min)


@dataclass(frozen=True)
class TemperatureSchedule:
    tau_start: float = 0.02
    tau_end: float = 0.0001
    total_steps: int = 1

    def __post_init__(self):
        if not self.tau_start >= self.tau_end > 0:
            raise ValueError("need tau_start >= tau_end > 0")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


def temperature(step: int, sched: TemperatureSchedule) -> float:
    """Geometric interpolation from tau_start at step 0 to tau_end at the end."""
    if not 0 <= step <= sched.total_steps:
        raise ValueError(f"step {step} outside [0, {sched.total_steps}]")
    frac = step / sched.total_steps
    return sched.tau_start * (sched.tau_end / sched.tau_start) ** frac


def context_embedding(roi: Box3D, ps: PointSet, idx: SpatialIndex,
                      params: ContextAggregatorParams) -> Value:
    """Concatenated per-sphere max-pooled summaries of points near the RoI.

    Point offsets are expressed in the RoI's canonical frame so the
    embedding does not depend on box heading.
    """
    center = roi.center
    derot = rot_z(roi.yaw)
    parts = []
    for radius, mlp in zip(params.radii, params.mlps):
        ids = idx.query(center, radius, max_k=None)[0]
        if ids.size == 0:
            parts.append(Value(np.zeros(mlp.d_out)))
            continue
        x = np.concatenate([ps.feats[ids], (ps.coords[ids] - center) @ derot],
                           axis=1)
        parts.append(vmax(mlp(x), axis=0))
    return concat(parts, axis=0)


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
