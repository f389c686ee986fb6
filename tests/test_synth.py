"""Scene generator determinism, sparsity statistics, harness behavior."""
import dataclasses
import json
import math

import numpy as np
import pytest

from pyrhead.geometry import default_pyramid_config
from pyrhead.head import HeadConfig, assign_label
from pyrhead.spatial import build_index
from pyrhead.synth import (SceneConfig, bucket_of, evaluate, generate_scene,
                           generate_scenes, interior_count, occupancy_features,
                           pyramid_gathered_ids, single_level_baseline,
                           sparsity_stats, train_toy)

FAST = SceneConfig(extent=20.0, n_objects=2, obj_points_min=5,
                   obj_points_max=60, clutter_density=0.005,
                   w_range=(2.0, 3.0), l_range=(4.0, 6.0),
                   h_range=(1.4, 2.0), pair_gap=(3.2, 4.0),
                   center_jitter=0.5)


def tiny_head():
    from pyrhead.geometry import GridSpec, PyramidConfig, PyramidLevelConfig
    pyramid = PyramidConfig([
        PyramidLevelConfig(GridSpec((2, 2, 2)), (1.0, 1.0, 1.0),
                           max_neighbors=4, r_pre=0.8),
        PyramidLevelConfig(GridSpec((1, 1, 1)), (2.0, 2.0, 1.0),
                           max_neighbors=8, r_pre=1.6),
    ])
    return HeadConfig(pyramid=pyramid, feat_width=8, d_model=8, heads=2,
                      reduce_width=8, fusion_widths=(16,),
                      context_radii=(1.5, 3.0), context_sphere_width=8,
                      radius_hidden=8)


class TestGeneration:
    def test_empty_config_gives_empty_pointset(self):
        cfg = dataclasses.replace(FAST, n_objects=0, clutter_density=0.0)
        scene = generate_scene(cfg)
        assert len(scene.ps) == 0
        assert scene.gt_boxes == [] and scene.proposals == []

    def test_forced_single_point(self):
        cfg = dataclasses.replace(FAST, n_objects=1, obj_points_min=1,
                                  obj_points_max=1, clutter_density=0.0)
        scene = generate_scene(cfg)
        assert len(scene.ps) == 1

    def test_seed_determinism_bit_identical(self):
        cfg = dataclasses.replace(FAST, seed=42)
        a, b = generate_scene(cfg), generate_scene(cfg)
        np.testing.assert_array_equal(a.ps.coords, b.ps.coords)
        np.testing.assert_array_equal(a.ps.feats, b.ps.feats)
        for ba, bb in zip(a.gt_boxes + a.proposals, b.gt_boxes + b.proposals):
            np.testing.assert_array_equal(ba.corner, bb.corner)
            assert ba.yaw == bb.yaw

    def test_every_box_contains_a_point(self):
        for i in range(10):
            scene = generate_scene(dataclasses.replace(FAST, obj_points_min=1,
                                                       obj_points_max=4), i)
            for box in scene.gt_boxes:
                assert interior_count(box, scene.ps) >= 1

    def test_features_width_and_determinism(self):
        rng = np.random.default_rng(0)
        coords = rng.uniform(0, 10, size=(50, 3))
        a = occupancy_features(coords)
        b = occupancy_features(coords)
        assert a.shape == (50, 8)
        np.testing.assert_array_equal(a, b)


class TestSparsityStats:
    def test_bucket_edges(self):
        assert bucket_of(0) == "0-10"
        assert bucket_of(7) == "0-10"
        assert bucket_of(10) == "10-50"
        assert bucket_of(499) == "100-500"
        assert bucket_of(500) == "500+"

    def test_single_sparse_object_binned(self):
        cfg = dataclasses.replace(FAST, n_objects=1, obj_points_min=7,
                                  obj_points_max=7, clutter_density=0.0,
                                  surface_noise=0.0)
        stats = sparsity_stats([generate_scene(cfg)])
        assert stats.interior.get("0-10", 0) == 1

    def test_empty_scene_set(self):
        stats = sparsity_stats([])
        csv = stats.to_csv()
        assert csv.splitlines()[0] == "bucket,interior_objects,gathered_rois"
        assert all(line.endswith(",0,0") for line in csv.splitlines()[1:])

    def test_gathered_dominates_interior_with_wide_radius(self):
        # one level whose radius covers the whole box from any grid point
        from pyrhead.geometry import GridSpec, PyramidConfig, PyramidLevelConfig
        scene = generate_scene(dataclasses.replace(FAST, clutter_density=0.0))
        wide = PyramidConfig([PyramidLevelConfig(
            GridSpec((2, 2, 2)), (1.0, 1.0, 1.0), max_neighbors=10_000,
            r_pre=30.0)])
        for box in scene.gt_boxes:
            gathered = pyramid_gathered_ids(scene.ps, box, wide)
            assert len(gathered) >= interior_count(box, scene.ps)

    def test_gathered_ids_equal_union_of_capped_scans(self):
        from oracles import brute_force_query
        from pyrhead.geometry import pyramid_grid_points
        pyramid = default_pyramid_config()
        for seed in (0, 4):
            sc = generate_scene(dataclasses.replace(FAST, seed=seed))
            for roi in sc.proposals:
                want = set()
                for lv in pyramid.levels:
                    for gp in pyramid_grid_points(roi, lv):
                        want.update(brute_force_query(sc.ps, gp, lv.r_pre,
                                                      lv.max_neighbors).tolist())
                assert pyramid_gathered_ids(sc.ps, roi, pyramid) == want
                assert want

    def test_csv_shape(self):
        stats = sparsity_stats(generate_scenes(FAST, 3))
        lines = stats.to_csv().strip().splitlines()
        assert len(lines) == 6


class TestTrainToy:
    def test_zero_lr_changes_nothing(self):
        cfg = tiny_head()
        res = train_toy(cfg, FAST, steps=3, lr=0.0, seed=0, n_scenes=2)
        from pyrhead.head import init_head_params
        fresh = init_head_params(cfg, 0)
        for (_, a), (_, b) in zip(res.params.named_parameters(),
                                  fresh.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert res.radii[0] == res.radii[-1]

    def test_records_have_expected_lengths(self):
        cfg = tiny_head()
        res = train_toy(cfg, FAST, steps=4, lr=0.001, seed=0, n_scenes=2)
        assert len(res.losses) == 4 == len(res.grad_norms) == len(res.radii)
        assert all(len(r) == 2 for r in res.radii)
        doc = res.to_json()
        assert '"losses"' in doc
        csv = res.to_csv()
        assert csv.splitlines()[0] == "step,loss,grad_norm,r_level0,r_level1"

    def test_determinism(self):
        cfg = tiny_head()
        a = train_toy(cfg, FAST, steps=3, lr=0.002, seed=1, n_scenes=2)
        b = train_toy(cfg, FAST, steps=3, lr=0.002, seed=1, n_scenes=2)
        assert a.losses == b.losses and a.radii == b.radii

    @pytest.mark.parametrize("clip", [1e-3, 1e6])
    def test_gradient_clipping_bounds_the_step(self, monkeypatch, clip):
        from pyrhead import synth
        from pyrhead.head import init_head_params
        monkeypatch.setattr(synth, "GRAD_CLIP", clip)
        cfg = tiny_head()
        res = train_toy(cfg, FAST, steps=1, lr=0.01, seed=0, n_scenes=1,
                        momentum=0.0)
        fresh = init_head_params(cfg, 0)
        step = math.sqrt(sum(float(np.sum((a.data - b.data) ** 2)) for (_, a), (_, b)
                             in zip(res.params.named_parameters(),
                                    fresh.named_parameters())))
        norm = res.grad_norms[0]           # recorded before clipping
        assert step == pytest.approx(0.01 * min(norm, clip), rel=1e-9)
        assert res.clipped_steps == int(norm > clip)
        assert json.loads(res.to_json())["clipped_steps"] == res.clipped_steps

    def test_learning_rate_anneals_along_half_cosine(self, monkeypatch):
        from pyrhead import synth
        from pyrhead.darp import TemperatureSchedule, temperature
        from pyrhead.head import loss, run_head
        monkeypatch.setattr(synth, "GRAD_CLIP", 1e6)
        cfg = tiny_head()
        one = train_toy(cfg, FAST, steps=1, lr=0.01, seed=0, n_scenes=1, momentum=0.0)
        two = train_toy(cfg, FAST, steps=2, lr=0.01, seed=0, n_scenes=1, momentum=0.0)
        # step 1 of 2 sits halfway along the cosine: half the rate, from
        # the parameters the full-rate first step reached
        sc = generate_scene(FAST, 0)
        tau = temperature(1, TemperatureSchedule(cfg.tau_start, cfg.tau_end, 2))
        dets, _ = run_head(cfg, one.params, sc.ps, build_index(sc.ps, synth.INDEX_CELL),
                           sc.proposals, tau)
        targets = [(assign_label(p, sc.gt_boxes[g], cfg.iou_positive), sc.gt_boxes[g])
                   for p, g in zip(sc.proposals, sc.proposal_gt)]
        one.params.zero_grad()
        loss(dets, targets, cfg).backward()
        for (name, a), (_, b) in zip(one.params.named_parameters(),
                                     two.params.named_parameters()):
            np.testing.assert_allclose(b.data, a.data - 0.005 * a.grad,
                                       rtol=1e-12, atol=1e-15, err_msg=name)

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            train_toy(tiny_head(), FAST, steps=0, lr=0.1, seed=0, n_scenes=1)


class TestEvaluate:
    def test_identity_proposals_score_unit_iou(self):
        cfg = tiny_head()
        from pyrhead.head import init_head_params
        params = init_head_params(cfg, 0)
        # zero the regression head so refinement is the identity
        params.reg_head.W.data = np.zeros_like(params.reg_head.W.data)
        params.reg_head.b.data = np.zeros(7)
        scene = generate_scene(dataclasses.replace(FAST, center_jitter=0.0,
                                                   extent_jitter=(1.0, 1.0),
                                                   yaw_jitter=0.0))
        result = evaluate(cfg, params, [scene])
        assert result.mean_iou == pytest.approx(1.0)
        assert result.hit_rate == 1.0

    def test_untrained_heads_sit_near_base_rate(self):
        # Monte-Carlo over random inits: mean accuracy within 0.1 of the
        # majority-class share
        cfg = tiny_head()
        from pyrhead.head import init_head_params
        scenes = generate_scenes(FAST, 4)
        accs = []
        for seed in range(20):
            params = init_head_params(cfg, seed)
            r = evaluate(cfg, params, scenes)
            accs.append(r.accuracy)
        base = evaluate(cfg, init_head_params(cfg, 0), scenes).label_base_rate
        assert abs(float(np.mean(accs)) - base) <= 0.1

    def test_empty_scene_list(self):
        cfg = tiny_head()
        from pyrhead.head import init_head_params
        result = evaluate(cfg, init_head_params(cfg, 0), [])
        assert result.n == 0 and result.accuracy == 0.0


class TestBaselineConfig:
    def test_single_level_and_fixed_radius(self):
        base = single_level_baseline(HeadConfig())
        assert len(base.pyramid) == 1
        assert base.darp_enabled is False
        assert base.pyramid.levels[0].ratios == (1.0, 1.0, 1.0)
        assert base.pyramid.levels[0].r_pre == 0.8
