"""Full-head behavior: cross-implementation pipeline checks, refinement
semantics, loss closed forms, determinism, config JSON."""
import json
import math

import numpy as np
import pytest

from oracles import graph_feature, grid_points
from pyrhead.autodiff import Value, reshape
from pyrhead.geometry import (Box3D, GridSpec, PyramidConfig,
                              PyramidLevelConfig, default_pyramid_config,
                              pyramid_grid_points, rot_z)
from pyrhead.head import (CONFIG_SCHEMA_VERSION, HeadConfig, apply_residuals,
                          assign_label, axis_aligned_iou, derotated_iou,
                          extract_roi_features, init_head_params, loss, refine,
                          run_head)
from pyrhead.nn import init_mlp
from pyrhead.operators import NeighborBundle
from pyrhead.spatial import PointSet, build_index
from pyrhead.synth import INDEX_CELL, SceneConfig, generate_scene

TINY_PYRAMID = PyramidConfig([
    PyramidLevelConfig(GridSpec((3, 3, 3)), (1.0, 1.0, 1.0),
                       max_neighbors=8, r_pre=1.0),
])


def tiny_config(**kw):
    defaults = dict(pyramid=TINY_PYRAMID, feat_width=8, d_model=16, heads=2,
                    reduce_width=8, fusion_widths=(16,),
                    context_radii=(1.5, 3.0), context_sphere_width=8,
                    radius_hidden=8)
    defaults.update(kw)
    return HeadConfig(**defaults)


class TestExtractFeatures:
    def test_empty_scene_matches_zero_feature_pipeline(self):
        cfg = tiny_config()
        params = init_head_params(cfg, 0)
        ps = PointSet.empty(cfg.feat_width)
        idx = build_index(ps, 1.0)
        roi = Box3D.from_center([0, 0, 0], [2, 3, 1.5], 0.3)
        got = extract_roi_features(roi, ps, idx, cfg, params).data
        # independent mini-pipeline: zero grid features through the same maps
        reduced = params.reduce[0](Value(np.zeros((1, cfg.d_model))))
        want = params.fusion(reduced).data.reshape(-1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_single_level_graph_gates_match_manual_pipeline(self):
        rng = np.random.default_rng(13)
        cfg = tiny_config(darp_enabled=False, gate_override=(1.0, 0.0, 0.0, 0.0))
        params = init_head_params(cfg, 13)
        coords = rng.uniform(-2.0, 2.0, size=(50, 3))
        ps = PointSet(coords, rng.normal(size=(50, cfg.feat_width)))
        idx = build_index(ps, 1.0)
        roi = Box3D.from_center([0.2, -0.1, 0.0], [2.0, 3.0, 1.5], 0.4)
        got = extract_roi_features(roi, ps, idx, cfg, params).data

        level = cfg.pyramid.levels[0]
        derot = rot_z(roi.yaw)
        feats = []
        for gp in pyramid_grid_points(roi, level):
            ids, _ = idx.query(gp, level.r_pre, level.max_neighbors)
            nb = NeighborBundle(gp, ids, (ps.coords[ids] - gp) @ derot,
                                ps.feats[ids])
            feats.append(graph_feature(nb, params.attention[0]).data)
        mean = np.mean(feats, axis=0)
        reduced = params.reduce[0](Value(mean.reshape(1, -1)))
        want = params.fusion(reduced).data.reshape(-1)
        scale = max(np.max(np.abs(want)), 1e-12)
        assert np.max(np.abs(got - want)) / scale < 1e-9

    def test_default_pyramid_has_409_grid_points(self):
        cfg = HeadConfig()
        total = sum(lv.grid.count for lv in cfg.pyramid.levels)
        assert total == 409
        roi = Box3D.from_center([5, 5, 1], [2, 4, 1.6], 0.3)
        generated = sum(len(pyramid_grid_points(roi, lv))
                        for lv in cfg.pyramid.levels)
        assert generated == 409

    def test_level1_grid_equals_standard_grid(self):
        cfg = HeadConfig()
        roi = Box3D.from_center([1, 2, 0.5], [2, 4, 1.5], -0.7)
        bottom = cfg.pyramid.levels[0]
        assert np.array_equal(pyramid_grid_points(roi, bottom),
                              grid_points(roi, bottom.grid))

    def test_monotone_context_capture(self):
        # with one shared radius the pyramid gathers a superset of level 1
        rng = np.random.default_rng(3)
        scene = generate_scene(SceneConfig(seed=3))
        idx = build_index(scene.ps, INDEX_CELL)
        cfg = HeadConfig()
        shared_r = 1.6
        roi = scene.proposals[0]
        gathered = [set() for _ in cfg.pyramid.levels]
        for li, lv in enumerate(cfg.pyramid.levels):
            for gp in pyramid_grid_points(roi, lv):
                ids, _ = idx.query(gp, shared_r, lv.max_neighbors)
                gathered[li].update(ids.tolist())
        union_all = set().union(*gathered)
        assert gathered[0] <= union_all
        assert len(union_all) >= len(gathered[0])

    def test_determinism_bit_identical(self):
        cfg = tiny_config()
        scene = generate_scene(SceneConfig(seed=5))
        idx = build_index(scene.ps, INDEX_CELL)
        outs = []
        for _ in range(2):
            params = init_head_params(cfg, 7)
            dets, _ = run_head(cfg, params, scene.ps, idx,
                               scene.proposals, 0.01)
            targets = [(assign_label(p, scene.gt_boxes[g], cfg.iou_positive),
                        scene.gt_boxes[g])
                       for p, g in zip(scene.proposals, scene.proposal_gt)]
            outs.append(loss(dets, targets, cfg).item())
        assert outs[0] == outs[1]


class TestRefine:
    def test_zero_residuals_identity(self):
        roi = Box3D.from_center([1, 2, 3], [2, 4, 1.5], 0.3)
        box = apply_residuals(roi, np.zeros(7))
        np.testing.assert_allclose(box.corner, roi.corner, atol=1e-15)
        np.testing.assert_allclose(box.extents, roi.extents, atol=1e-15)
        assert box.yaw == roi.yaw

    def test_log_width_residual_doubles_extent(self):
        roi = Box3D.from_center([0, 0, 0], [2, 4, 1.5], 0.0)
        res = np.zeros(7)
        res[3] = math.log(2.0)
        box = apply_residuals(roi, res)
        np.testing.assert_allclose(box.extents, [4.0, 4.0, 1.5], atol=1e-12)

    def test_yaw_wraps(self):
        roi = Box3D.from_center([0, 0, 0], [1, 1, 1], 3.0)
        res = np.zeros(7)
        res[6] = 1.0
        assert apply_residuals(roi, res).yaw == pytest.approx(3.0 + 1.0 - 2 * math.pi)

    def test_zero_logit_gives_half_score(self):
        cfg = tiny_config()
        params = init_head_params(cfg, 0)
        params.cls_head.W.data = np.zeros_like(params.cls_head.W.data)
        params.cls_head.b.data = np.zeros(1)
        det = refine(Box3D.from_center([0, 0, 0], [1, 1, 1], 0.0),
                     Value(np.ones(cfg.fusion_out)), params)
        assert det.score == 0.5

    def test_diverged_residuals_raise(self):
        roi = Box3D.from_center([0, 0, 0], [1, 1, 1], 0.0)
        res = np.zeros(7)
        res[4] = 100.0
        with pytest.raises(RuntimeError):
            apply_residuals(roi, res)


class TestLoss:
    def test_perfect_positive_has_zero_regression(self):
        from pyrhead.head import Detection
        gt = Box3D.from_center([0, 0, 0], [2, 4, 1.5], 0.2)
        det = Detection(proposal=gt, box=gt, score=1.0,
                        residuals=np.zeros(7), logit=Value(20.0),
                        residuals_value=Value(np.zeros(7)))
        out = loss([det], [(1, gt)], HeadConfig())
        assert out.item() == pytest.approx(math.log1p(math.exp(-20.0)),
                                           rel=1e-9)

    def test_half_score_gives_ln2_per_sample(self):
        from pyrhead.head import Detection
        gt = Box3D.from_center([0, 0, 0], [2, 4, 1.5], 0.0)
        dets = [Detection(proposal=gt, box=gt, score=0.5,
                          residuals=np.zeros(7), logit=Value(0.0),
                          residuals_value=Value(np.zeros(7)))
                for _ in range(3)]
        out = loss(dets, [(0, gt), (1, gt), (0, gt)], HeadConfig())
        assert out.item() == pytest.approx(math.log(2.0), rel=1e-12)

    def test_empty_batch_zero(self):
        assert loss([], [], HeadConfig()).item() == 0.0

    def test_regression_targets_recover_gt(self):
        from pyrhead.head import residual_target
        rng = np.random.default_rng(0)
        for _ in range(10):
            prop = Box3D.from_center(rng.normal(size=3),
                                     rng.uniform(0.5, 3.0, 3),
                                     rng.uniform(-3, 3))
            gt = Box3D.from_center(rng.normal(size=3),
                                   rng.uniform(0.5, 3.0, 3),
                                   rng.uniform(-3, 3))
            refined = apply_residuals(prop, residual_target(prop, gt))
            np.testing.assert_allclose(refined.corner, gt.corner, atol=1e-9)
            np.testing.assert_allclose(refined.extents, gt.extents, atol=1e-9)
            assert abs(math.remainder(refined.yaw - gt.yaw, 2 * math.pi)) < 1e-9


class TestIoU:
    def test_identical_boxes(self):
        b = Box3D.from_center([0, 0, 0], [2, 3, 1], 0.0)
        assert axis_aligned_iou(b, b) == pytest.approx(1.0)
        assert derotated_iou(b, b) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        a = Box3D.from_center([0, 0, 0], [1, 1, 1], 0.0)
        b = Box3D.from_center([5, 5, 5], [1, 1, 1], 0.0)
        assert axis_aligned_iou(a, b) == 0.0

    def test_half_overlap(self):
        a = Box3D([0, 0, 0], [2, 2, 2], 0.0)
        b = Box3D([1, 0, 0], [2, 2, 2], 0.0)
        assert axis_aligned_iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_derotation_exact_for_shared_yaw(self):
        yaw = 0.8
        a = Box3D.from_center([0, 0, 0], [2, 4, 1], yaw)
        b = Box3D.from_center([0.5, 0.0, 0.0], [2, 4, 1], yaw)
        # after derotation the offset rotates into the gt frame
        off = rot_z(-yaw) @ np.array([0.5, 0.0, 0.0])
        inter = (2 - abs(off[0])) * (4 - abs(off[1])) * 1
        want = inter / (2 * 4 * 1 * 2 - inter)
        assert derotated_iou(a, b) == pytest.approx(want, rel=1e-9)

    def test_assign_label_threshold(self):
        a = Box3D([0, 0, 0], [2, 2, 2], 0.0)
        assert assign_label(a, a, 0.55) == 1
        b = Box3D([1.2, 0, 0], [2, 2, 2], 0.0)
        assert assign_label(b, a, 0.55) == 0


class TestPersistence:
    def test_config_json_round_trip(self):
        cfg = HeadConfig()
        text = cfg.to_json()
        assert CONFIG_SCHEMA_VERSION in text
        back = HeadConfig.from_json(text)
        assert back.to_json() == text

    def test_config_rejects_unknown_schema(self):
        cfg = tiny_config()
        bad = cfg.to_json().replace(CONFIG_SCHEMA_VERSION, "other/9")
        with pytest.raises(ValueError):
            HeadConfig.from_json(bad)

    @pytest.mark.parametrize("edit,field", [
        ({"feat_widht": 8}, "feat_widht"),
        ({"reg_weight": None}, "reg_weight"),
        ({"darp_enabled": "no"}, "darp_enabled"),
        ({"heads": "4"}, "heads"),
        ({"d_model": True}, "d_model"),
        ({"fusion_widths": [128, 1.5]}, "fusion_widths"),
        ({"gate_override": [1.0, 0.0]}, "gate_override"),
        ({"pyramid": [1]}, "pyramid"),
        ({"pyramid": {"levels": []}}, "pyramid.anchor_mode"),
    ], ids=["unknown", "missing", "bool_str", "int_str", "int_bool",
            "tuple_item", "tuple_len", "pyramid", "pyramid_field"])
    def test_config_rejects_bad_field(self, edit, field):
        doc = json.loads(HeadConfig().to_json())
        doc.update(edit)
        if None in edit.values():
            del doc[field]
        with pytest.raises(ValueError, match=repr(field)):
            HeadConfig.from_json(json.dumps(doc))

    def test_config_json_round_trip_with_gates(self):
        cfg = tiny_config(gate_override=(1.0, 0.0, 0.5, 0.0), darp_enabled=False)
        back = HeadConfig.from_json(cfg.to_json())
        assert back == cfg and back.to_json() == cfg.to_json()


class TestTapeFreesItself:
    def test_step_and_forward_leave_no_reference_cycles(self):
        import gc
        cfg = HeadConfig()
        scene = generate_scene(SceneConfig(seed=5))
        idx = build_index(scene.ps, INDEX_CELL)
        params = init_head_params(cfg, 0)
        targets = [(assign_label(p, scene.gt_boxes[g], cfg.iou_positive),
                    scene.gt_boxes[g])
                   for p, g in zip(scene.proposals, scene.proposal_gt)]
        gc.collect()
        gc.disable()
        try:
            dets, _ = run_head(cfg, params, scene.ps, idx, scene.proposals, 0.01)
            loss(dets, targets, cfg).backward()
            run_head(cfg, params, scene.ps, idx, scene.proposals, 0.01)
            del dets
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert any(np.any(p.grad) for _, p in params.named_parameters())
