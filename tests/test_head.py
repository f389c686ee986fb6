"""Full-head behavior: cross-implementation pipeline checks, refinement
semantics, loss closed forms, determinism, config JSON."""
import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import graph_feature, grid_points
from pyrhead import head
from pyrhead.autodiff import Value
from pyrhead.geometry import (Box3D, GridSpec, PyramidConfig,
                              PyramidLevelConfig, box_rows,
                              default_pyramid_config, pyramid_grid_points,
                              rot_z)
from pyrhead.head import (CONFIG_SCHEMA_VERSION, Detection, HeadConfig,
                          assign_label, axis_aligned_iou, decode_boxes,
                          derotated_iou, forward_rois, init_head_params, loss,
                          refine, residual_targets, run_head)
from pyrhead.nn import init_mlp
from pyrhead.operators import GRAPH_GATES, NeighborBundle
from pyrhead.spatial import PointSet, build_index
from pyrhead.synth import (INDEX_CELL, SceneConfig, generate_scene, scene_loss,
                           single_level_baseline)

# first 16 hex digits of the sha256 of each parameter gradient of the
# default head (init seed 0) after one scene_loss backward at tau_end,
# recorded with numpy 2.4.6 on x86-64 from a tape whose ops set each node's
# backward after building it; another BLAS may round the products otherwise
GRAD_DIGESTS = Path(__file__).with_name("head_grad_digests.json")

# traced bytes a training step may leave behind once its backward() returns,
# with its detections alive: a 4-RoI step's tape is several MB
RETAINED_BYTES = 100_000

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


def roi_feature(roi, ps, idx, cfg, params):
    """Fused feature vector of a single RoI at the evaluation temperature."""
    fused, _ = forward_rois(cfg, params, ps, idx, [roi], cfg.tau_end)
    return fused.data.reshape(cfg.fusion_out)


def decode_one(roi, res):
    """``decode_boxes`` of one RoI's box row: the refined (centre, extents, yaw) row."""
    return decode_boxes(box_rows([roi]), np.reshape(res, (1, 7)))[0]


def scene_targets(scene, cfg):
    return [(assign_label(p, scene.gt_boxes[g], cfg.iou_positive), scene.gt_boxes[g])
            for p, g in zip(scene.proposals, scene.proposal_gt)]


class TestExtractFeatures:
    def test_empty_scene_matches_zero_feature_pipeline(self):
        cfg = tiny_config()
        params = init_head_params(cfg, 0)
        ps = oracles.empty_point_set(cfg.feat_width)
        idx = build_index(ps, 1.0)
        roi = Box3D.from_center([0, 0, 0], [2, 3, 1.5], 0.3)
        got = roi_feature(roi, ps, idx, cfg, params)
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
        got = roi_feature(roi, ps, idx, cfg, params)

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
            outs.append(loss(dets, scene_targets(scene, cfg), cfg).item())
        assert outs[0] == outs[1]

    def test_darp_off_never_embeds_context(self, monkeypatch):
        def unused(*args):
            raise AssertionError("context_embedding called with DARP off")

        monkeypatch.setattr(head, "context_embedding", unused)
        cfg = tiny_config(darp_enabled=False)
        scene = generate_scene(SceneConfig(seed=5))
        dets, radii = run_head(cfg, init_head_params(cfg, 0), scene.ps,
                               build_index(scene.ps, INDEX_CELL), scene.proposals, 0.01)
        assert len(dets) == len(scene.proposals)
        assert np.all(radii[0] == TINY_PYRAMID.levels[0].r_pre)


class TestRefine:
    def test_zero_residuals_identity(self):
        roi = Box3D.from_center([1, 2, 3], [2, 4, 1.5], 0.3)
        box = decode_one(roi, np.zeros(7))
        np.testing.assert_allclose(box[0:3], roi.center, atol=1e-15)
        np.testing.assert_allclose(box[3:6], roi.extents, atol=1e-15)
        assert box[6] == roi.yaw

    def test_log_width_residual_doubles_extent(self):
        roi = Box3D.from_center([0, 0, 0], [2, 4, 1.5], 0.0)
        res = np.zeros(7)
        res[3] = math.log(2.0)
        box = decode_one(roi, res)
        np.testing.assert_allclose(box[3:6], [4.0, 4.0, 1.5], atol=1e-12)

    def test_yaw_wraps(self):
        roi = Box3D.from_center([0, 0, 0], [1, 1, 1], 3.0)
        res = np.zeros(7)
        res[6] = 1.0
        assert decode_one(roi, res)[6] == pytest.approx(3.0 + 1.0 - 2 * math.pi)

    def test_zero_logit_gives_half_score(self):
        cfg = tiny_config()
        params = init_head_params(cfg, 0)
        params.cls_head.W.data = np.zeros_like(params.cls_head.W.data)
        params.cls_head.b.data = np.zeros(1)
        rois = [Box3D.from_center([0, 0, 0], [1, 1, 1], 0.0),
                Box3D.from_center([3, 0, 0], [1, 2, 1], 0.5)]
        dets = refine(rois, Value(np.ones((2, cfg.fusion_out))), params)
        assert [d.score for d in dets] == [0.5, 0.5]
        assert [d.proposal for d in dets] == rois and [d.row for d in dets] == [0, 1]

    def test_one_cls_and_reg_call_for_all_rois(self):
        cfg = tiny_config()
        params = init_head_params(cfg, 1)
        rng = np.random.default_rng(1)
        fused = Value(rng.normal(size=(3, cfg.fusion_out)))
        rois = [Box3D.from_center(rng.normal(size=3), [1, 2, 1], y) for y in (0.1, 0.2, 0.3)]
        dets = refine(rois, fused, params)
        logits, residuals = dets[0].outputs
        assert all(d.outputs is dets[0].outputs for d in dets)
        assert logits.shape == (3,) and residuals.shape == (3, 7)
        for i, (roi, det) in enumerate(zip(rois, dets)):
            res = params.reg_head(fused.data[i]).data
            np.testing.assert_allclose(det.residuals, res, rtol=1e-12, atol=1e-15)
            logit = params.cls_head(fused.data[i]).data.item()
            assert det.score == pytest.approx(1 / (1 + math.exp(-logit)), rel=1e-12)
            box = decode_one(roi, res)
            np.testing.assert_allclose(box_rows([det.box])[0], box, rtol=1e-12)

    def test_diverged_residuals_raise(self):
        roi = Box3D.from_center([0, 0, 0], [1, 1, 1], 0.0)
        res = np.zeros(7)
        res[4] = 100.0
        with pytest.raises(RuntimeError):
            decode_one(roi, res)

    def test_detection_boxes_equal_the_per_roi_oracle(self):
        """refine's one decode gives each Detection bitwise the box of the
        former per-RoI decode, on a sparse and a dense scene."""
        for scene_cfg in (SceneConfig(seed=5),
                          SceneConfig(seed=81, clutter_density=1.0, n_objects=4)):
            scene = generate_scene(scene_cfg)
            cfg = HeadConfig()
            dets, _ = run_head(cfg, init_head_params(cfg, 0), scene.ps,
                               build_index(scene.ps, INDEX_CELL), scene.proposals, 0.01)
            for roi, det in zip(scene.proposals, dets):
                want = oracles.apply_residuals(roi, det.residuals)
                assert np.array_equal(det.box.corner, want.corner)
                assert np.array_equal(det.box.extents, want.extents)
                assert det.box.yaw == want.yaw

    @pytest.mark.parametrize("baseline", [False, True], ids=["pyramid", "baseline"])
    def test_zero_rois_give_no_detections_and_empty_radii(self, baseline):
        cfg = single_level_baseline(HeadConfig()) if baseline else HeadConfig()
        scene = generate_scene(SceneConfig(seed=5))
        dets, radii = run_head(cfg, init_head_params(cfg, 0), scene.ps,
                               build_index(scene.ps, INDEX_CELL), [], 0.01)
        assert dets == [] and len(radii) == len(cfg.pyramid.levels)
        assert all(r.shape == (0,) and r.dtype == np.float64 for r in radii)
        assert loss(dets, [], cfg).item() == 0.0


def codec_cases(rng, n):
    """``n`` seeded (proposal, gt, residuals) triples, with yaws at and near
    +-pi and log-extent residuals at the +-50 bound among them."""
    near_pi = [math.pi, -math.pi, np.nextafter(math.pi, 0), np.nextafter(-math.pi, 0),
               math.pi - 1e-9, -math.pi + 1e-9]
    cases = []
    for i in range(n):
        yaws = rng.choice(near_pi, 2) if i % 3 == 0 else rng.uniform(-math.pi, math.pi, 2)
        prop = Box3D.from_center(rng.normal(scale=20.0, size=3),
                                 rng.uniform(0.2, 12.0, 3), yaws[0])
        gt = Box3D.from_center(rng.normal(scale=20.0, size=3),
                               rng.uniform(0.2, 12.0, 3), yaws[1])
        res = rng.normal(scale=2.0, size=7)
        if i % 4 == 1:
            res[3:6] = rng.choice([-50.0, 50.0, np.nextafter(50.0, 0)], 3)
        if i % 5 == 2:
            res[6] = rng.choice([math.pi, -math.pi, 2 * math.pi, 1e-17])
        cases.append((prop, gt, res))
    return cases


class TestBoxCodec:
    """decode_boxes, residual_targets and box_rows against the per-RoI oracles, bitwise."""

    @pytest.mark.parametrize("n", [0, 1, 4000])
    def test_equal_the_per_roi_oracles(self, n):
        cases = codec_cases(np.random.default_rng(2109 + n), n)
        props = [p for p, _, _ in cases]
        gts = [g for _, g, _ in cases]
        res = np.reshape([r for _, _, r in cases], (n, 7))
        rows, gt_rows = box_rows(props), box_rows(gts)
        assert rows.shape == (n, 7) and rows.dtype == np.float64
        decoded = decode_boxes(rows, res)
        targets = residual_targets(rows, gt_rows)
        assert decoded.shape == targets.shape == (n, 7)
        for i, (prop, gt, r) in enumerate(cases):
            assert np.array_equal(rows[i], oracles.box_row(prop))
            want = oracles.apply_residuals(prop, r)
            got = Box3D.from_center(decoded[i, 0:3], decoded[i, 3:6], decoded[i, 6])
            assert np.array_equal(got.corner, want.corner), i
            assert np.array_equal(got.extents, want.extents), i
            assert got.yaw == want.yaw, i
            assert np.array_equal(targets[i], oracles.residual_target(prop, gt)), i

    def test_range_error_names_the_first_bad_row_as_the_oracle_does(self):
        rng = np.random.default_rng(7)
        props = [Box3D.from_center(rng.normal(size=3), [1, 2, 1], 0.1) for _ in range(6)]
        for col, value in ([3, 50.0 + 1e-9], [4, -np.inf], [0, np.nan], [6, np.inf],
                           [5, -51.0]):
            res = rng.normal(size=(6, 7))
            res[:, 3:6] = np.clip(res[:, 3:6], -50.0, 50.0)
            res[2, col] = value
            res[4, 0] = np.nan     # a later bad row is not the one named
            with pytest.raises(RuntimeError) as want:
                oracles.apply_residuals(props[2], res[2])
            with pytest.raises(RuntimeError) as got:
                decode_boxes(box_rows(props), res)
            assert str(got.value) == str(want.value) == f"box residuals out of range: {res[2]}"


def detections(proposal, logits, residuals):
    """Detections of one proposal sharing one (logits, residuals) pair."""
    outputs = (Value(np.asarray(logits, dtype=np.float64)), Value(residuals))
    return [Detection(proposal=proposal, box=proposal, score=0.5,
                      residuals=residuals[i], outputs=outputs, row=i)
            for i in range(len(logits))]


class TestLoss:
    def test_perfect_positive_has_zero_regression(self):
        gt = Box3D.from_center([0, 0, 0], [2, 4, 1.5], 0.2)
        dets = detections(gt, [20.0], np.zeros((1, 7)))
        out = loss(dets, [(1, gt)], HeadConfig())
        assert out.item() == pytest.approx(math.log1p(math.exp(-20.0)),
                                           rel=1e-9)

    def test_half_score_gives_ln2_per_sample(self):
        gt = Box3D.from_center([0, 0, 0], [2, 4, 1.5], 0.0)
        dets = detections(gt, [0.0, 0.0, 0.0], np.zeros((3, 7)))
        out = loss(dets, [(0, gt), (1, gt), (0, gt)], HeadConfig())
        assert out.item() == pytest.approx(math.log(2.0), rel=1e-12)

    def test_regression_mean_over_positives(self):
        gt = Box3D.from_center([0, 0, 0], [2, 4, 1.5], 0.0)
        res = np.zeros((3, 7))
        res[0, 0], res[2, 1] = 0.5, 3.0       # huber 0.125 and 2.5
        dets = detections(gt, [50.0, -50.0, 50.0], res)
        out = loss(dets, [(1, gt), (0, gt), (1, gt)], HeadConfig(reg_weight=2.0))
        assert out.item() == pytest.approx(2.0 * (0.125 + 2.5) / 2, rel=1e-12)
        out.backward()
        want = np.zeros((3, 7))
        want[0, 0], want[2, 1] = 0.5, 1.0
        np.testing.assert_allclose(dets[0].outputs[1].grad, want, rtol=1e-12)

    def test_rejects_detections_mixed_from_two_calls_or_reordered(self):
        cfg = tiny_config()
        params = init_head_params(cfg, 0)
        scene = generate_scene(SceneConfig(seed=5))
        idx = build_index(scene.ps, INDEX_CELL)
        targets = scene_targets(scene, cfg)
        a, _ = run_head(cfg, params, scene.ps, idx, scene.proposals, 0.01)
        b, _ = run_head(cfg, params, scene.ps, idx, scene.proposals, 0.01)
        assert len(a) >= 2
        loss(a, targets, cfg)
        for bad in (b[:1] + a[1:], a[::-1], a[1:] + a[:1]):
            with pytest.raises(ValueError, match="one run_head call, in order"):
                loss(bad, targets, cfg)
        with pytest.raises(ValueError, match="one run_head call, in order"):
            loss(a[:1], targets[:1], cfg)

    def test_empty_batch_zero(self):
        assert loss([], [], HeadConfig()).item() == 0.0

    def test_regression_targets_recover_gt(self):
        rng = np.random.default_rng(0)
        props, gts = [], []
        for _ in range(10):
            props.append(Box3D.from_center(rng.normal(size=3),
                                           rng.uniform(0.5, 3.0, 3),
                                           rng.uniform(-3, 3)))
            gts.append(Box3D.from_center(rng.normal(size=3),
                                         rng.uniform(0.5, 3.0, 3),
                                         rng.uniform(-3, 3)))
        rows, gt_rows = box_rows(props), box_rows(gts)
        refined = decode_boxes(rows, residual_targets(rows, gt_rows))
        np.testing.assert_allclose(refined[:, 0:3], gt_rows[:, 0:3], atol=1e-9)
        np.testing.assert_allclose(refined[:, 3:6], gt_rows[:, 3:6], atol=1e-9)
        for got, gt in zip(refined[:, 6], gts):
            assert abs(math.remainder(got - gt.yaw, 2 * math.pi)) < 1e-9


class TestIoU:
    def test_identical_boxes(self):
        b = Box3D.from_center([0, 0, 0], [2, 3, 1], 0.0)
        assert axis_aligned_iou(b, b) == pytest.approx(1.0)
        assert derotated_iou(oracles.box_row(b), b) == pytest.approx(1.0)

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
        assert derotated_iou(oracles.box_row(a), b) == pytest.approx(want, rel=1e-9)

    def test_assign_label_threshold(self):
        a = Box3D([0, 0, 0], [2, 2, 2], 0.0)
        assert assign_label(a, a, 0.55) == 1
        b = Box3D([1.2, 0, 0], [2, 2, 2], 0.0)
        assert assign_label(b, a, 0.55) == 0


class TestPersistence:
    def test_config_json_round_trip(self):
        cfg = HeadConfig()
        text = oracles.head_config_json(cfg)
        assert CONFIG_SCHEMA_VERSION in text
        back = HeadConfig.from_json(text)
        assert oracles.head_config_json(back) == text

    def test_config_rejects_unknown_schema(self):
        cfg = tiny_config()
        bad = oracles.head_config_json(cfg).replace(CONFIG_SCHEMA_VERSION, "other/9")
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
        doc = json.loads(oracles.head_config_json(HeadConfig()))
        doc.update(edit)
        if None in edit.values():
            del doc[field]
        with pytest.raises(ValueError, match=repr(field)):
            HeadConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("token", [float("nan"), float("inf"), float("-inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    def test_every_numeric_field_rejects_non_finite(self, token):
        """Every number of a head config, down to tuple items and pyramid
        level fields, rejects NaN and the infinities naming its field."""
        doc = json.loads(oracles.head_config_json(HeadConfig()))
        doc["gate_override"] = [1.0, 0.0, 0.0, 0.0]

        def numbers(node, path):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, v in items:
                if isinstance(v, (dict, list)):
                    yield from numbers(v, path + [key])
                elif isinstance(v, (int, float)) and not isinstance(v, bool):
                    yield path + [key]

        paths = list(numbers(doc, []))
        assert ["gate_override", 3] in paths and ["pyramid", "levels", 4, "r_pre"] in paths
        unnamed = []
        for path in paths:
            bad = json.loads(json.dumps(doc))
            node = bad
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = token
            field = next(k for k in reversed(path) if isinstance(k, str))
            try:
                HeadConfig.from_json(json.dumps(bad))
            except ValueError as exc:
                if re.search(rf"\b{field}\b", str(exc)):
                    continue
            unnamed.append(path)
        assert unnamed == []

    def test_config_json_round_trip_with_gates(self):
        cfg = tiny_config(gate_override=(1.0, 0.0, 0.5, 0.0), darp_enabled=False)
        back = HeadConfig.from_json(oracles.head_config_json(cfg))
        assert back == cfg and oracles.head_config_json(back) == oracles.head_config_json(cfg)


def _step(cfg, params, scene, idx):
    """Detections and loss of one training step on ``scene``."""
    dets, _ = run_head(cfg, params, scene.ps, idx, scene.proposals, 0.01)
    return dets, loss(dets, scene_targets(scene, cfg), cfg)


class TestTapeFreesItself:
    def test_step_and_forward_leave_no_reference_cycles(self):
        import gc
        cfg = HeadConfig()
        scene = generate_scene(SceneConfig(seed=5))
        idx = build_index(scene.ps, INDEX_CELL)
        params = init_head_params(cfg, 0)
        targets = scene_targets(scene, cfg)
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

    def test_backward_releases_the_tape_while_detections_live(self, monkeypatch):
        """With the detections still referenced, backward() leaves no attention
        or context node alive; the leaves keep their gradients, and a second
        backward() raises before any gradient moves."""
        nodes = []

        def spy(fn):
            def recorded(*args, **kw):
                out = fn(*args, **kw)
                nodes.append(weakref.ref(out))
                return out
            return recorded

        monkeypatch.setattr(head, "gated_attention_batched", spy(head.gated_attention_batched))
        monkeypatch.setattr(head, "context_embedding", spy(head.context_embedding))
        cfg = HeadConfig()
        scene = generate_scene(SceneConfig(seed=5))
        params = init_head_params(cfg, 0)
        dets, total = _step(cfg, params, scene, build_index(scene.ps, INDEX_CELL))
        assert len(nodes) == len(cfg.pyramid.levels) + 1
        assert all(ref() is not None for ref in nodes)
        total.backward()
        assert all(ref() is None for ref in nodes)
        assert all(node._parents == () for node in dets[0].outputs)
        grads = {name: p.grad.copy() for name, p in params.named_parameters()}
        assert all(np.any(g) for name, g in grads.items() if name.startswith("attention"))
        with pytest.raises(RuntimeError, match="released"):
            total.backward()
        for name, p in params.named_parameters():
            np.testing.assert_array_equal(p.grad, grads[name])

    def test_memory_after_backward_is_back_to_its_pre_forward_level(self):
        """Once backward() returns, traced memory is within RETAINED_BYTES of
        where it stood before the forward, though the detections live on."""
        cfg = HeadConfig()
        scene = generate_scene(SceneConfig(seed=5))
        idx = build_index(scene.ps, INDEX_CELL)
        params = init_head_params(cfg, 0)
        _step(cfg, params, scene, idx)[1].backward()    # the leaves' .grad arrays exist
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dets, total = _step(cfg, params, scene, idx)
            taped = tracemalloc.get_traced_memory()[0] - before
            total.backward()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(dets) == len(scene.proposals)
        assert taped > 1_000_000 and kept < RETAINED_BYTES, (taped, kept)

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    @pytest.mark.parametrize("gates", [None, dataclasses.astuple(GRAPH_GATES)],
                             ids=["learned", "graph"])
    @pytest.mark.parametrize("darp", [True, False], ids=["darp", "fixed"])
    def test_gradients_equal_the_retaining_walk(self, dense, gates, darp):
        """Releasing the tape changes no bit of any parameter gradient."""
        scene = generate_scene(SceneConfig(seed=5) if not dense else
                               SceneConfig(seed=5, clutter_density=1.0, n_objects=4))
        idx = build_index(scene.ps, INDEX_CELL)
        cfg = HeadConfig(darp_enabled=darp, gate_override=gates)
        params = init_head_params(cfg, 0)
        oracles.retaining_backward(_step(cfg, params, scene, idx)[1])
        want = {name: p.grad.copy() for name, p in params.named_parameters()}
        params.zero_grad()
        _step(cfg, params, scene, idx)[1].backward()
        for name, p in params.named_parameters():
            np.testing.assert_array_equal(p.grad, want[name], err_msg=name)

    @pytest.mark.parametrize("name,scene_cfg", [
        ("sparse", SceneConfig(seed=5)),
        ("dense", SceneConfig(seed=81, clutter_density=1.0, n_objects=4)),
    ], ids=["sparse", "dense"])
    def test_gradients_equal_the_recorded_ones(self, name, scene_cfg):
        """Building each node in one call changes no bit of any gradient."""
        cfg = HeadConfig()
        params = init_head_params(cfg, 0)
        scene_loss(cfg, params, generate_scene(scene_cfg), cfg.tau_end)[0].backward()
        got = {k: hashlib.sha256(p.grad.tobytes()).hexdigest()[:16]
               for k, p in params.named_parameters()}
        want = json.loads(GRAD_DIGESTS.read_text())[name]
        assert got == want, sorted(k for k in want if got.get(k) != want[k])
