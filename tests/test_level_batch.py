"""The ragged per-level forward against the former grouped forward and
against the per-point operators.

``oracles.grouped_forward_rois`` groups the grid points of a level by exact
neighbour count and runs one ``[g, m]`` attention per group. The head's
forward must reproduce its scores, box residuals and every parameter
gradient, up to summation order. It must also be the composition of the
per-point path: each grid point gathered by ``NeighborBundle`` and
aggregated by ``roi_grid_attention(_darp)`` on its own.
"""
import numpy as np
import pytest

from oracles import batch_query_capped, grouped_forward_rois
from pyrhead.darp import context_embedding, predict_radius
from pyrhead.geometry import (Box3D, GridSpec, PyramidConfig,
                              PyramidLevelConfig, pyramid_grid_points, rot_z)
from pyrhead.head import (HeadConfig, assign_label, init_head_params, loss,
                          refine, run_head)
from pyrhead.operators import (ATTENTION_GATES, GRAPH_GATES, TRANSFORMER_GATES,
                               NeighborBundle, roi_grid_attention,
                               roi_grid_attention_darp)
from pyrhead.spatial import PointSet, build_index
from pyrhead.synth import INDEX_CELL, SceneConfig, generate_scene

REL_TOL = 1e-12
GATES = {
    "learned": None,
    "graph": GRAPH_GATES,
    "attention": ATTENTION_GATES,
    "transformer": TRANSFORMER_GATES,
}


def _gate_tuple(name):
    g = GATES[name]
    return None if g is None else (g.pos, g.key, g.cross, g.value)


def _synth_case(scene_cfg, **cfg_kw):
    scene = generate_scene(scene_cfg, 0)
    cfg = HeadConfig(**cfg_kw)
    targets = [(assign_label(p, scene.gt_boxes[g], cfg.iou_positive), scene.gt_boxes[g])
               for p, g in zip(scene.proposals, scene.proposal_gt)]
    return cfg, scene.ps, build_index(scene.ps, INDEX_CELL), scene.proposals, targets


def _small_config(levels, **kw):
    return HeadConfig(pyramid=PyramidConfig(levels), feat_width=4, d_model=16,
                      heads=2, reduce_width=8, fusion_widths=(16,),
                      context_radii=(1.5, 3.0), context_sphere_width=8,
                      radius_hidden=8, **kw)


def _targets_for(rois):
    return [(i % 2, Box3D.from_center(r.center + 0.1, r.extents, r.yaw))
            for i, r in enumerate(rois)]


def _empty_level_case(**cfg_kw):
    """Level 1 has a tiny radius and no point near any of its grid points."""
    levels = [
        PyramidLevelConfig(GridSpec((3, 3, 2)), (1.0, 1.0, 1.0), max_neighbors=6, r_pre=1.0),
        PyramidLevelConfig(GridSpec((2, 2, 1)), (1.5, 1.5, 1.0), max_neighbors=4, r_pre=0.05),
    ]
    # r_min below the tiny level's r_pre, which a radius head requires
    cfg = _small_config(levels, r_min=0.01, **cfg_kw)
    rng = np.random.default_rng(21)
    rois = [Box3D.from_center([0.0, 0.0, 0.0], [2.0, 3.0, 1.5], 0.3),
            Box3D.from_center([4.0, 1.0, 0.2], [2.5, 2.0, 1.5], -1.1)]
    coords = rng.uniform(-3.0, 7.0, size=(400, 3)) * np.array([1.0, 1.0, 0.4])
    far = np.ones(len(coords), dtype=bool)
    for roi in rois:
        for gp in pyramid_grid_points(roi, levels[1]):
            far &= np.linalg.norm(coords - gp, axis=1) > 0.5
    coords = coords[far]
    ps = PointSet(coords, rng.normal(size=(len(coords), 4)))
    return cfg, ps, build_index(ps, 1.0), rois, _targets_for(rois)


def _ties_case(**cfg_kw):
    """Six points equidistant from one grid point, with a cap of four."""
    levels = [PyramidLevelConfig(GridSpec((2, 2, 2)), (1.0, 1.0, 1.0),
                                 max_neighbors=4, r_pre=1.0)]
    cfg = _small_config(levels, **cfg_kw)
    rng = np.random.default_rng(5)
    roi = Box3D.from_center([0.0, 0.0, 0.0], [2.0, 2.0, 2.0], 0.0)
    gp = pyramid_grid_points(roi, levels[0])[0]
    shell = np.concatenate([np.eye(3), -np.eye(3)]) * 0.25 + gp
    clutter = rng.uniform(-1.5, 1.5, size=(30, 3))
    coords = np.concatenate([clutter[:15], shell, clutter[15:]])
    ps = PointSet(coords, rng.normal(size=(len(coords), 4)))
    rois = [roi, Box3D.from_center([0.3, -0.2, 0.1], [2.0, 2.5, 1.5], 0.7)]
    return cfg, ps, build_index(ps, 0.7), rois, _targets_for(rois)


def _outputs(cfg, params, ps, idx, rois, targets, tau, forward):
    params.zero_grad()
    if forward is None:
        dets, _ = run_head(cfg, params, ps, idx, rois, tau)
    else:
        dets = refine(rois, forward(cfg, params, ps, idx, rois, tau), params)
    loss(dets, targets, cfg).backward()
    scores = np.array([d.score for d in dets])
    residuals = np.stack([d.residuals for d in dets])
    grads = {name: p.grad.copy() for name, p in params.named_parameters()}
    return scores, residuals, grads


def _rel(a, b, floor=1e-300):
    scale = max(float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)), floor)
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def _assert_matches_oracle(case, tau=0.02, seed=0):
    cfg, ps, idx, rois, targets = case
    params = init_head_params(cfg, seed)
    got = _outputs(cfg, params, ps, idx, rois, targets, tau, None)
    want = _outputs(cfg, params, ps, idx, rois, targets, tau, grouped_forward_rois)
    assert _rel(got[0], want[0]) <= REL_TOL
    assert _rel(got[1], want[1]) <= REL_TOL
    # each gradient is measured against its own scale, floored at a
    # thousandth of the largest gradient: a bias that shifts every logit
    # of a grid point alike (w_head.b always; q_pos.b or key.b under some
    # fixed gates) has an analytically zero gradient, and both sides are
    # roundoff of a sum that cancels
    floor = 1e-3 * max(float(np.max(np.abs(g), initial=0.0)) for g in want[2].values())
    worst = {name: _rel(got[2][name], want[2][name], floor) for name in want[2]}
    bad = {k: v for k, v in worst.items() if not v <= REL_TOL}
    assert not bad, bad
    return got


def _counts(cfg, idx, rois, tau):
    """Oracle neighbour counts per level, at the radius the head gathers with."""
    out = []
    for li, lv in enumerate(cfg.pyramid.levels):
        r = lv.r_pre + (5.0 * tau if cfg.darp_enabled else 0.0)
        out.append([len(ids) for roi in rois
                    for ids, _ in batch_query_capped(idx, pyramid_grid_points(roi, lv),
                                                     r, lv.max_neighbors)])
    return out


@pytest.mark.parametrize("gates", sorted(GATES))
@pytest.mark.parametrize("darp", [True, False])
def test_sparse_scene_matches_grouped(darp, gates):
    case = _synth_case(SceneConfig(seed=3), darp_enabled=darp,
                       gate_override=_gate_tuple(gates))
    cfg, _, idx, rois, _ = case
    counts = _counts(cfg, idx, rois, 0.02)
    assert any(c == 0 for level in counts for c in level)   # empty grid points
    _assert_matches_oracle(case, tau=0.02, seed=1)


@pytest.mark.parametrize("gates", ["learned", "transformer"])
def test_dense_scene_with_saturated_caps_matches_grouped(gates):
    case = _synth_case(SceneConfig(seed=81, clutter_density=1.0, n_objects=4),
                       gate_override=_gate_tuple(gates))
    cfg, _, idx, rois, _ = case
    rois = rois[:3]
    case = (*case[:3], rois, case[4][:3])
    counts = _counts(cfg, idx, rois, 1e-4)
    caps = [lv.max_neighbors for lv in cfg.pyramid.levels]
    assert all(any(c == cap for c in level) for level, cap in zip(counts, caps))
    _assert_matches_oracle(case, tau=1e-4, seed=2)


@pytest.mark.parametrize("darp", [True, False])
def test_level_with_every_grid_point_empty_matches_grouped(darp):
    case = _empty_level_case(darp_enabled=darp)
    cfg, _, idx, rois, _ = case
    counts = _counts(cfg, idx, rois, 0.02)
    assert sum(counts[1]) == 0 and sum(counts[0]) > 0
    _, _, grads = _assert_matches_oracle(case, tau=0.02, seed=3)
    assert not np.any(grads["attention1.key.W"])


@pytest.mark.parametrize("gates", ["learned", "graph"])
@pytest.mark.parametrize("darp", [True, False])
def test_equidistant_ties_at_the_cap_match_grouped(darp, gates):
    case = _ties_case(darp_enabled=darp, gate_override=_gate_tuple(gates))
    cfg, ps, idx, rois, _ = case
    lv = cfg.pyramid.levels[0]
    gp = pyramid_grid_points(rois[0], lv)[0]
    d = np.linalg.norm(ps.coords - gp, axis=1)
    assert np.sum(d == 0.25) == 6 and np.sum(d < 0.25) == 0
    _assert_matches_oracle(case, tau=0.01, seed=4)


def _per_point_outputs(cfg, params, ps, idx, roi, tau):
    """Score, box residuals and per-level neighbour counts of one RoI, each
    grid point gathered and aggregated by the per-point operators."""
    gates = cfg.gates()
    derot = rot_z(roi.yaw)
    ctx = context_embedding(roi, ps, idx, params.context)
    level_feats, counts = [], []
    for li, lv in enumerate(cfg.pyramid.levels):
        att = params.attention[li]
        r = predict_radius(ctx, li, params.radius)
        total, level_counts = np.zeros(cfg.d_model), []
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
            level_counts.append(len(nb))
        level_feats.append(params.reduce[li](total * (1.0 / lv.grid.count)).data)
        counts.append(level_counts)
    fused = params.fusion(np.concatenate(level_feats)).data
    score = 1.0 / (1.0 + np.exp(-params.cls_head(fused).data.item()))
    return score, params.reg_head(fused).data.reshape(7), counts


def _assert_head_is_per_point_composition(cfg, scenes, tau, n_rois):
    """run_head against the per-point composition on the first RoIs of
    each scene; returns the per-point neighbour counts of every level."""
    params = init_head_params(cfg, 5)
    rng = np.random.default_rng(6)
    # nonzero radius-head outputs, so each RoI gathers at its own radius
    for mlp in params.radius.mlps:
        mlp.layers[-1].W.data = rng.normal(0.0, 0.3, mlp.layers[-1].W.shape)
    counts = [[] for _ in cfg.pyramid.levels]
    for scene in scenes:
        idx = build_index(scene.ps, INDEX_CELL)
        rois = scene.proposals[:n_rois]
        dets, radii = run_head(cfg, params, scene.ps, idx, rois, tau)
        if cfg.darp_enabled:
            assert len({float(r) for r in radii[0]}) == len(rois)
        for roi, det in zip(rois, dets):
            score, residuals, roi_counts = _per_point_outputs(cfg, params, scene.ps,
                                                              idx, roi, tau)
            assert _rel(det.score, score) <= REL_TOL
            assert _rel(det.residuals, residuals) <= REL_TOL
            for level, c in zip(counts, roi_counts):
                level.extend(c)
    return counts


def test_dense_scenes_equal_per_point_composition():
    cfg = HeadConfig()
    scenes = [generate_scene(SceneConfig(seed=81, clutter_density=1.0, n_objects=4), i)
              for i in range(2)]
    counts = _assert_head_is_per_point_composition(cfg, scenes, cfg.tau_end, 3)
    assert all(max(level) == lv.max_neighbors
               for level, lv in zip(counts, cfg.pyramid.levels))


def test_sparse_scenes_equal_per_point_composition():
    cfg = HeadConfig()
    scenes = [generate_scene(SceneConfig(seed=3), i) for i in range(2)]
    counts = _assert_head_is_per_point_composition(cfg, scenes, cfg.tau_start, 8)
    assert any(c == 0 for level in counts for c in level)


def test_darp_off_pinned_gates_equal_per_point_composition():
    cfg = HeadConfig(darp_enabled=False, gate_override=_gate_tuple("transformer"))
    scenes = [generate_scene(SceneConfig(seed=3), 0)]
    counts = _assert_head_is_per_point_composition(cfg, scenes, cfg.tau_start, 8)
    assert any(c == 0 for level in counts for c in level)
