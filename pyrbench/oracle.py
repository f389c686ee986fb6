"""Output check: run_head against an oracle built from per-point operators.

For each probe RoI the oracle gathers every grid point's neighbours on its
own (``NeighborBundle.gather_extended`` at the predicted radius, or
``NeighborBundle.gather`` at the fixed radius when DARP is off), rotates the
offsets into the RoI frame, aggregates with ``roi_grid_attention_darp`` (or
``roi_grid_attention``), averages per level and applies reduce, fusion and
the cls/reg heads. The batched head must agree to within ``REL_TOL``.
"""
from __future__ import annotations

import numpy as np

from pyrhead.darp import context_embedding, predict_radius
from pyrhead.geometry import pyramid_grid_points, rot_z
from pyrhead.operators import (NeighborBundle, roi_grid_attention,
                               roi_grid_attention_darp)

REL_TOL = 1e-9


def oracle_outputs(cfg, params, ps, idx, roi, tau) -> tuple[float, np.ndarray]:
    """Score and box residuals of one RoI, one grid point at a time."""
    gates = cfg.gates()
    derot = rot_z(roi.yaw)
    ctx = context_embedding(roi, ps, idx, params.context) if cfg.darp_enabled else None
    level_feats = []
    for li, lv in enumerate(cfg.pyramid.levels):
        att = params.attention[li]
        r = predict_radius(ctx, li, params.radius) if cfg.darp_enabled else None
        total = np.zeros(cfg.d_model)
        for gp in pyramid_grid_points(roi, lv):
            if cfg.darp_enabled:
                nb = NeighborBundle.gather_extended(ps, idx, gp, r.item(), tau,
                                                    lv.max_neighbors)
            else:
                nb = NeighborBundle.gather(ps, idx, gp, lv.r_pre, lv.max_neighbors)
            nb = NeighborBundle(gp, nb.ids, nb.offsets @ derot, nb.feats,
                                gather_radius=nb.gather_radius)
            feat = (roi_grid_attention_darp(nb, att, r, tau, gates) if cfg.darp_enabled
                    else roi_grid_attention(nb, att, gates))
            total = total + feat.data
        level_feats.append(params.reduce[li](total * (1.0 / lv.grid.count)).data)
    fused = params.fusion(np.concatenate(level_feats)).data
    logit = params.cls_head(fused).data.item()
    score = 1.0 / (1.0 + np.exp(-logit))
    return float(score), params.reg_head(fused).data.reshape(7)


def _rel(a, b) -> float:
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def check(cfg, params, ps, idx, rois, tau, dets) -> list[str]:
    """Disagreements between run_head's detections and the oracle; empty if none."""
    errors = []
    if len(dets) != len(rois):
        return [f"{len(dets)} detections for {len(rois)} RoIs"]
    for i, (roi, det) in enumerate(zip(rois, dets)):
        score, res = oracle_outputs(cfg, params, ps, idx, roi, tau)
        e_score, e_res = _rel(det.score, score), _rel(det.residuals, res)
        if not e_score <= REL_TOL:
            errors.append(f"roi {i}: score {det.score!r} vs oracle {score!r} "
                          f"(rel {e_score:.3g})")
        if not e_res <= REL_TOL:
            errors.append(f"roi {i}: residuals differ from oracle (rel {e_res:.3g})")
    return errors
