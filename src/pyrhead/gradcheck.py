"""Finite-difference verification of every reverse-mode gradient path.

Each check rebuilds a scalar loss from leaf parameters, compares the tape
gradient against central differences, and reports the worst relative error
per parameter group. The full-head check runs on a reduced configuration
so every single parameter component can be probed within seconds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import Value, finite_diff_grad, rel_error, vsum, mul
from .darp import context_embedding, init_context_params, init_radius_head, predict_radius
from .geometry import (Box3D, GridSpec, PyramidConfig, PyramidLevelConfig,
                       pyramid_grid_points)
from .head import HeadConfig, assign_label, init_head_params, loss, run_head
from .nn import init_mlp
from .operators import (ATTENTION_GATES, GRAPH_GATES, TRANSFORMER_GATES,
                        NeighborBundle, init_attention_params, pool_feature,
                        roi_grid_attention, roi_grid_attention_darp,
                        sampling_range)
from .spatial import PointSet, build_index
from .synth import INDEX_CELL, SceneConfig, generate_scene

TOLERANCE = 1e-4
FD_STEP = 1e-5


@dataclass
class CheckResult:
    group: str
    max_rel_err: float
    tolerance: float = TOLERANCE

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _compare(make_loss: Callable[[], Value], leaves: dict[str, Value],
             h: float = FD_STEP) -> float:
    """Worst relative error between tape and finite-difference gradients."""
    out = make_loss()
    for p in leaves.values():
        p.zero_grad()
    out.backward()
    worst = 0.0
    for p in leaves.values():
        tape = p.grad.copy()

        def f(x, p=p):
            saved = p.data
            p.data = x
            try:
                return make_loss().item()
            finally:
                p.data = saved

        fd = finite_diff_grad(f, p.data, h)
        worst = max(worst, rel_error(tape, fd))
    return worst


def _projection_loss(vec: Value, direction: np.ndarray) -> Value:
    return vsum(mul(vec, direction))


def _random_bundle(rng: np.random.Generator, m: int, d: int,
                   radius: float = 1.0, margin: float = 0.0,
                   feats_as_value: bool = True) -> NeighborBundle:
    """Neighbors at distances in (0.1, radius - margin), shuffled ids."""
    dirs = rng.normal(size=(m, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dist = rng.uniform(0.1, radius - margin, size=m)
    offsets = dirs * dist[:, None]
    feats = rng.normal(size=(m, d))
    ids = rng.permutation(m * 3)[:m]
    return NeighborBundle(np.zeros(3), ids, offsets,
                          Value(feats) if feats_as_value else feats)


def _operator_checks(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    d = 8
    results = []
    # the graph, attention and point-transformer groups check the unified
    # operator with those gates pinned; "unified" checks the trainable gates
    cases = [
        ("pool", None),
        ("graph", GRAPH_GATES),
        ("attention", ATTENTION_GATES),
        ("point_transformer", TRANSFORMER_GATES),
        ("unified", None),
    ]
    for name, gates in cases:
        m = int(rng.integers(2, 9))
        nb = _random_bundle(rng, m, d)
        u = rng.normal(size=64)
        params = init_attention_params(rng, d, d_model=64, heads=4)
        mlp = init_mlp(rng, [d + 3, 32, 64])
        leaves = {"feats": nb.feats}
        if name == "pool":
            leaves.update(dict(mlp.named_parameters()))
            make = lambda nb=nb, mlp=mlp, u=u: _projection_loss(pool_feature(nb, mlp), u)
        else:
            leaves.update(dict(params.named_parameters()))
            make = lambda nb=nb, p=params, u=u, g=gates: _projection_loss(
                roi_grid_attention(nb, p, g), u)
        results.append(CheckResult(name, _compare(make, leaves)))
    return results


def _darp_checks(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed + 1)
    d = 8
    tau = 1e-3
    r = Value(0.9)
    cutoff = sampling_range(r.item(), tau)
    m = 6
    # keep every neighbor at least 3*tau below the sampling cutoff so the
    # discrete membership cannot flip under the probe step
    nb = _random_bundle(rng, m, d, radius=cutoff, margin=3.0 * tau)
    params = init_attention_params(rng, d, d_model=64, heads=4)
    u = rng.normal(size=64)

    def make():
        return _projection_loss(roi_grid_attention_darp(nb, params, r, tau), u)

    radius_err = _compare(make, {"r": r})
    full_leaves = dict(params.named_parameters())
    full_leaves["feats"] = nb.feats
    full_leaves["r"] = r
    full_err = _compare(make, full_leaves)
    return [CheckResult("darp_radius", radius_err),
            CheckResult("darp_operator", full_err)]


def _radius_head_checks(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed + 2)
    d = 4
    n = 30
    coords = rng.uniform(-2.0, 2.0, size=(n, 3))
    ps = PointSet(coords, rng.normal(size=(n, d)))
    idx = build_index(ps, 1.0)
    roi = Box3D.from_center([0.0, 0.0, 0.0], [1.5, 2.0, 1.0], 0.3)
    ctx_params = init_context_params(rng, d, radii=(1.2, 2.4), sphere_width=8)
    head = init_radius_head(rng, ctx_params.out_width, [0.8, 1.6], hidden=8)
    # zero-initialized output layers would hide scale errors; perturb them
    for mlp in head.mlps:
        mlp.layers[-1].W.data = rng.normal(0.0, 0.1, size=mlp.layers[-1].W.shape)

    def make():
        ctx = context_embedding(roi, ps, idx, ctx_params)
        r0 = predict_radius(ctx, 0, head)
        r1 = predict_radius(ctx, 1, head)
        return mul(r0, 1.0) + mul(r1, 0.5)

    leaves = dict(ctx_params.named_parameters())
    leaves.update(dict(head.named_parameters()))
    return [CheckResult("radius_head", _compare(make, leaves))]


def tiny_head_config() -> HeadConfig:
    """Reduced head so full-coverage finite differences stay fast."""
    pyramid = PyramidConfig([
        PyramidLevelConfig(GridSpec((2, 2, 2)), (1.0, 1.0, 1.0),
                           max_neighbors=4, r_pre=0.8),
        PyramidLevelConfig(GridSpec((1, 1, 1)), (2.0, 2.0, 1.0),
                           max_neighbors=8, r_pre=1.6),
    ])
    # the temperature is deliberately coarse: a tiny tau turns the soft
    # membership into a step, leaving the radius path with underflowed
    # gradients that a finite-difference check could not see either
    return HeadConfig(
        pyramid=pyramid, feat_width=8, d_model=8, heads=2, reduce_width=8,
        fusion_widths=(16,), context_radii=(1.5, 3.0), context_sphere_width=8,
        radius_hidden=8, tau_start=5e-3, tau_end=5e-3,
    )


def _head_scene(seed: int):
    return generate_scene(SceneConfig(
        extent=14.0, z_extent=3.0, n_objects=2, obj_points_min=15,
        obj_points_max=25, clutter_density=0.0, proposals_per_object=1,
        seed=seed))


def _boundary_clearance(scene, head_cfg: HeadConfig, params, idx, tau: float) -> float:
    """Smallest |distance - cutoff| over all (grid point, point) pairs."""
    _, radii = run_head(head_cfg, params, scene.ps, idx, scene.proposals, tau)
    clear = math.inf
    for r, lv in zip(radii, head_cfg.pyramid.levels):
        grid = pyramid_grid_points(scene.proposals, lv)
        d = np.linalg.norm(scene.ps.coords - grid[:, None], axis=2)
        gap = np.abs(d - np.repeat(sampling_range(r, tau), lv.grid.count)[:, None])
        clear = min(clear, float(np.min(gap, initial=math.inf)))
    return clear


def _head_checks(seed: int) -> list[CheckResult]:
    head_cfg = tiny_head_config()
    tau = head_cfg.tau_end
    for attempt in range(32):
        scene = _head_scene(seed + 3 + 1000 * attempt)
        params = init_head_params(head_cfg, seed + 3 + 1000 * attempt)
        # zero-initialized radius output layers would block all gradient
        # into the context path; perturb them so that check is meaningful
        rng = np.random.default_rng(seed + 4 + 1000 * attempt)
        for mlp in params.radius.mlps:
            mlp.layers[-1].W.data = rng.normal(0.0, 0.05,
                                               size=mlp.layers[-1].W.shape)
        idx = build_index(scene.ps, INDEX_CELL)
        if _boundary_clearance(scene, head_cfg, params, idx, tau) <= 2.0 * tau:
            continue
        targets = [(assign_label(p, scene.gt_boxes[g], head_cfg.iou_positive),
                    scene.gt_boxes[g])
                   for p, g in zip(scene.proposals, scene.proposal_gt)]

        def make():
            dets, _ = run_head(head_cfg, params, scene.ps, idx,
                               scene.proposals, tau)
            return loss(dets, targets, head_cfg)

        # require a live radius path, otherwise its check proves nothing
        probe = make()
        params.zero_grad()
        probe.backward()
        radius_peak = max(float(np.max(np.abs(p.grad)))
                          for _, p in params.radius.named_parameters())
        if radius_peak < 1e-5:
            continue
        results = []
        for group, items in params.parameter_groups().items():
            err = _compare(make, dict(items))
            results.append(CheckResult(f"head_loss.{group}", err))
        return results
    raise RuntimeError(
        "no gradcheck scene with boundary clearance and a live radius path")


def run_gradcheck(seed: int = 0) -> list[CheckResult]:
    """The full suite; deterministic for a fixed seed."""
    results = []
    results.extend(_operator_checks(seed))
    results.extend(_darp_checks(seed))
    results.extend(_radius_head_checks(seed))
    results.extend(_head_checks(seed))
    return results


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.group) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.group:<{width}}  max_rel_err={r.max_rel_err:.6e}  "
                     f"tol={r.tolerance:.0e}  {status}")
    return "\n".join(lines) + "\n"
