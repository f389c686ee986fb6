"""Scene generator determinism, sparsity statistics, harness behavior."""
import dataclasses
import math

import numpy as np
import pytest

import oracles
from pyrhead import synth
from pyrhead.geometry import default_pyramid_config
from pyrhead.head import HeadConfig, init_head_params
from pyrhead.spatial import build_index
from pyrhead.synth import (BUCKET_LABELS, SceneConfig, bucket_of, evaluate,
                           generate_scene, generate_scenes, interior_count,
                           occupancy_features, pyramid_gathered_counts,
                           single_level_baseline, sparsity_stats, train_toy)

FAST = SceneConfig(extent=20.0, n_objects=2, obj_points_min=5,
                   obj_points_max=60, clutter_density=0.005)
# the scene constants FAST scenes are drawn with: smaller objects, closer
# pairs and a tighter centre jitter than the defaults
FAST_CONSTANTS = dict(W_RANGE=(2.0, 3.0), L_RANGE=(4.0, 6.0), H_RANGE=(1.4, 2.0),
                      PAIR_GAP=(3.2, 4.0), CENTER_JITTER=0.5)


@pytest.fixture
def fast(monkeypatch):
    """FAST, with its scene constants set in ``synth``."""
    for name, value in FAST_CONSTANTS.items():
        monkeypatch.setattr(synth, name, value)
    return FAST


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
    def test_empty_config_gives_empty_pointset(self, fast):
        cfg = dataclasses.replace(fast, n_objects=0, clutter_density=0.0)
        scene = generate_scene(cfg)
        assert len(scene.ps) == 0
        assert scene.gt_boxes == [] and scene.proposals == []

    def test_forced_single_point(self, fast):
        cfg = dataclasses.replace(fast, n_objects=1, obj_points_min=1,
                                  obj_points_max=1, clutter_density=0.0)
        scene = generate_scene(cfg)
        assert len(scene.ps) == 1

    def test_seed_determinism_bit_identical(self, fast):
        cfg = dataclasses.replace(fast, seed=42)
        a, b = generate_scene(cfg), generate_scene(cfg)
        np.testing.assert_array_equal(a.ps.coords, b.ps.coords)
        np.testing.assert_array_equal(a.ps.feats, b.ps.feats)
        for ba, bb in zip(a.gt_boxes + a.proposals, b.gt_boxes + b.proposals):
            np.testing.assert_array_equal(ba.corner, bb.corner)
            assert ba.yaw == bb.yaw

    def test_every_box_contains_a_point(self, fast):
        for i in range(10):
            scene = generate_scene(dataclasses.replace(fast, obj_points_min=1,
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

    # the scene grid the array set-up must reproduce bitwise: the default
    # config, dense clutter, objects of 1-4 points and 7 objects of up to
    # 2000 points, scenes 0-5 of each
    @pytest.mark.parametrize("seed", [0, 1, 5, 81, 2002])
    def test_scenes_match_the_row_sort_and_loop_oracles(self, seed, monkeypatch):
        configs = [SceneConfig(seed=seed),
                   SceneConfig(seed=seed, clutter_density=1.0, n_objects=4),
                   SceneConfig(seed=seed, obj_points_min=1, obj_points_max=4),
                   SceneConfig(seed=seed, n_objects=7, obj_points_max=2000)]
        got = [generate_scene(cfg, i) for cfg in configs for i in range(6)]
        monkeypatch.setattr(synth, "occupancy_features",
                            oracles.row_sort_occupancy_features)
        monkeypatch.setattr(synth, "_sample_shell", oracles.loop_sample_shell)
        want = [generate_scene(cfg, i) for cfg in configs for i in range(6)]
        for a, b in zip(got, want):
            assert np.array_equal(a.ps.coords, b.ps.coords)
            assert np.array_equal(a.ps.feats, b.ps.feats)
            assert np.array_equal(a.proposal_gt, b.proposal_gt)
            assert len(a.gt_boxes) == len(b.gt_boxes)
            assert len(a.proposals) == len(b.proposals)
            for ba, bb in zip(a.gt_boxes + a.proposals, b.gt_boxes + b.proposals):
                assert np.array_equal(ba.corner, bb.corner)
                assert np.array_equal(ba.extents, bb.extents)
                assert ba.yaw == bb.yaw


def dict_counts(coords: np.ndarray, size: float) -> np.ndarray:
    """Points sharing each point's cell of the given size, counted in a dict."""
    cells = [tuple(math.floor(v / size) for v in p) for p in coords.tolist()]
    counts: dict[tuple, int] = {}
    for c in cells:
        counts[c] = counts.get(c, 0) + 1
    return np.array([counts[c] for c in cells], dtype=np.int64)


class TestOccupancyCounts:
    BOUNDARIES = np.array([-6.4, -3.2, -1.6, -1.2, -0.8, -0.4, 0.0, 0.4, 0.8,
                           1.2, 1.6, 2.4, 3.2, 4.8, 6.4])

    @pytest.mark.parametrize("case", ["negative", "boundaries", "duplicates",
                                      "one_point", "empty"])
    def test_counts_match_a_dict_of_cells(self, case):
        rng = np.random.default_rng(7)
        if case == "negative":
            coords = rng.uniform(-9.0, 2.0, size=(400, 3))
        elif case == "boundaries":
            coords = rng.choice(self.BOUNDARIES, size=(400, 3))
        elif case == "duplicates":
            coords = np.repeat(rng.uniform(-3.0, 3.0, size=(30, 3)), 5, axis=0)
        elif case == "one_point":
            coords = np.array([[-0.4, 1.6, 3.2]])
        else:
            coords = np.zeros((0, 3))
        feats = occupancy_features(coords)
        assert feats.shape == (len(coords), 8)
        for col, size in enumerate([0.4, 0.8, 1.6, 3.2]):
            assert np.array_equal(feats[:, col],
                                  np.log1p(dict_counts(coords, size)) / 4.0)
        assert np.array_equal(feats, oracles.row_sort_occupancy_features(coords))

    def test_span_that_would_wrap_the_key_raises(self):
        coords = np.array([[0.0, 0.0, 0.0], [1e7, 1e7, 1e7]])
        with pytest.raises(ValueError, match="does not fit in int64"):
            occupancy_features(coords)

    def test_span_beyond_int64_raises_before_the_cast(self):
        # under the suite's error::RuntimeWarning filter, a cast of the
        # 2.5e20 cell index would fail the test with a RuntimeWarning
        coords = np.array([[0.0, 0.0, 0.0], [1e20, 0.0, 0.0]])
        with pytest.raises(ValueError, match="does not fit in int64"):
            occupancy_features(coords)
        # a lone far point spans no cells
        assert np.array_equal(occupancy_features(coords[1:]), occupancy_features(coords[:1]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_coordinate_raises(self, bad):
        # under the suite's error::RuntimeWarning filter: unchecked, inf
        # warns in the cell subtraction and nan in the int64 cast
        for col in range(3):
            coords = np.zeros((4, 3))
            coords[2, col] = bad
            with pytest.raises(ValueError, match="finite coordinates"):
                occupancy_features(coords)


class TestSparsityStats:
    def test_bucket_edges(self):
        assert BUCKET_LABELS[bucket_of(0)] == "0-10"
        assert BUCKET_LABELS[bucket_of(7)] == "0-10"
        assert BUCKET_LABELS[bucket_of(10)] == "10-50"
        assert BUCKET_LABELS[bucket_of(499)] == "100-500"
        assert BUCKET_LABELS[bucket_of(500)] == "500+"
        counts = np.arange(1200)
        assert [BUCKET_LABELS[b] for b in bucket_of(counts)] == \
            [oracles.loop_bucket_of(c) for c in counts.tolist()]

    def test_single_sparse_object_binned(self, fast, monkeypatch):
        monkeypatch.setattr(synth, "SURFACE_NOISE", 0.0)
        cfg = dataclasses.replace(fast, n_objects=1, obj_points_min=7,
                                  obj_points_max=7, clutter_density=0.0)
        interior, _ = sparsity_stats([generate_scene(cfg)])
        assert interior["0-10"] == 1

    def test_csv_shape(self, fast, capsys):
        from pyrhead.cli import run
        interior, gathered = sparsity_stats(generate_scenes(fast, 3))
        assert list(interior) == list(gathered) == list(BUCKET_LABELS)
        assert run(["stats", "--scenes", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert [line.split(",")[0] for line in lines[1:]] == list(BUCKET_LABELS)

    def test_empty_scene_set(self):
        assert sparsity_stats([]) == ({b: 0 for b in BUCKET_LABELS},) * 2

    def test_gathered_dominates_interior_with_wide_radius(self, fast):
        # one level whose radius covers the whole box from any grid point
        from pyrhead.geometry import GridSpec, PyramidConfig, PyramidLevelConfig
        scene = generate_scene(dataclasses.replace(fast, clutter_density=0.0))
        wide = PyramidConfig([PyramidLevelConfig(
            GridSpec((2, 2, 2)), (1.0, 1.0, 1.0), max_neighbors=10_000,
            r_pre=30.0)])
        gathered = pyramid_gathered_counts(scene.ps, scene.gt_boxes, wide)
        for box, n in zip(scene.gt_boxes, gathered):
            assert n >= interior_count(box, scene.ps)

    def test_gathered_ids_equal_union_of_capped_scans(self, fast):
        from oracles import brute_force_query
        from pyrhead.geometry import pyramid_grid_points
        pyramid = default_pyramid_config()
        for seed in (0, 4):
            sc = generate_scene(dataclasses.replace(fast, seed=seed))
            got = pyramid_gathered_counts(sc.ps, sc.proposals, pyramid)
            assert got.shape == (len(sc.proposals),)
            for roi, n in zip(sc.proposals, got):
                want = set()
                for lv in pyramid.levels:
                    for gp in pyramid_grid_points(roi, lv):
                        want.update(brute_force_query(sc.ps, gp, lv.r_pre,
                                                      lv.max_neighbors).tolist())
                assert oracles.pyramid_gathered_ids(sc.ps, roi, pyramid) == want
                assert n == len(want) > 0

    @pytest.mark.parametrize("seed", [0, 81])
    def test_gathered_counts_match_per_roi_oracle(self, seed):
        pyramid = default_pyramid_config()
        configs = [SceneConfig(seed=seed), SceneConfig(seed=seed, clutter_density=1.0),
                   SceneConfig(seed=seed, n_objects=0, clutter_density=0.0)]
        for sc in [generate_scene(cfg, i) for cfg in configs for i in range(3)]:
            got = pyramid_gathered_counts(sc.ps, sc.proposals, pyramid)
            want = [len(oracles.pyramid_gathered_ids(sc.ps, roi, pyramid))
                    for roi in sc.proposals]
            assert got.tolist() == want


class TestTrainToy:
    def test_zero_lr_changes_nothing(self, fast):
        cfg = tiny_head()
        res = train_toy(cfg, fast, steps=3, lr=0.0, seed=0, n_scenes=2)
        from pyrhead.head import init_head_params
        fresh = init_head_params(cfg, 0)
        for (_, a), (_, b) in zip(res.params.named_parameters(),
                                  fresh.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert res.radii[0] == res.radii[-1]

    def test_records_have_expected_lengths(self, fast):
        cfg = tiny_head()
        res = train_toy(cfg, fast, steps=4, lr=0.001, seed=0, n_scenes=2)
        assert len(res.losses) == 4 == len(res.grad_norms) == len(res.radii)
        assert all(len(r) == 2 for r in res.radii)

    def test_determinism(self, fast):
        cfg = tiny_head()
        a = train_toy(cfg, fast, steps=3, lr=0.002, seed=1, n_scenes=2)
        b = train_toy(cfg, fast, steps=3, lr=0.002, seed=1, n_scenes=2)
        assert a.losses == b.losses and a.radii == b.radii

    @pytest.mark.parametrize("steps,n_scenes,built", [(3, 30, 20), (25, 30, 25), (3, 7, 7)])
    def test_builds_only_the_scenes_it_reads(self, fast, monkeypatch, steps, n_scenes,
                                             built):
        """min(n_scenes, max(steps, 20)) scenes are generated, and every
        TrainResult field equals that of a run over the full list."""
        cfg = tiny_head()
        generate = synth.generate_scene
        calls = []

        def counting(scene_cfg, index=0):
            calls.append(index)
            return generate(scene_cfg, index)

        monkeypatch.setattr(synth, "generate_scene", counting)
        got = train_toy(cfg, fast, steps=steps, lr=0.002, seed=1, n_scenes=n_scenes)
        assert calls == list(range(built))
        monkeypatch.setattr(synth, "generate_scenes", lambda scene_cfg, _count: [
            generate(scene_cfg, i) for i in range(n_scenes)])
        want = train_toy(cfg, fast, steps=steps, lr=0.002, seed=1, n_scenes=n_scenes)
        for f in dataclasses.fields(want):
            if f.name != "params":
                assert getattr(got, f.name) == getattr(want, f.name), f.name
        for (_, a), (_, b) in zip(got.params.named_parameters(),
                                  want.params.named_parameters()):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("clip", [1e-3, 1e6])
    def test_gradient_clipping_bounds_the_step(self, fast, monkeypatch, clip):
        from pyrhead import synth
        from pyrhead.head import init_head_params
        monkeypatch.setattr(synth, "GRAD_CLIP", clip)
        monkeypatch.setattr(synth, "MOMENTUM", 0.0)
        cfg = tiny_head()
        res = train_toy(cfg, fast, steps=1, lr=0.01, seed=0, n_scenes=1)
        fresh = init_head_params(cfg, 0)
        step = math.sqrt(sum(float(np.sum((a.data - b.data) ** 2)) for (_, a), (_, b)
                             in zip(res.params.named_parameters(),
                                    fresh.named_parameters())))
        norm = res.grad_norms[0]           # recorded before clipping
        assert step == pytest.approx(0.01 * min(norm, clip), rel=1e-9)
        assert res.clipped_steps == int(norm > clip)

    def test_learning_rate_anneals_along_half_cosine(self, fast, monkeypatch):
        from pyrhead import synth
        from pyrhead.darp import TemperatureSchedule, temperature
        monkeypatch.setattr(synth, "GRAD_CLIP", 1e6)
        monkeypatch.setattr(synth, "MOMENTUM", 0.0)
        cfg = tiny_head()
        one = train_toy(cfg, fast, steps=1, lr=0.01, seed=0, n_scenes=1)
        two = train_toy(cfg, fast, steps=2, lr=0.01, seed=0, n_scenes=1)
        # step 1 of 2 sits halfway along the cosine: half the rate, from
        # the parameters the full-rate first step reached
        sc = generate_scene(fast, 0)
        tau = temperature(1, TemperatureSchedule(cfg.tau_start, cfg.tau_end, 2))
        one.params.zero_grad()
        synth.scene_loss(cfg, one.params, sc, tau)[0].backward()
        for (name, a), (_, b) in zip(one.params.named_parameters(),
                                     two.params.named_parameters()):
            np.testing.assert_allclose(b.data, a.data - 0.005 * a.grad,
                                       rtol=1e-12, atol=1e-15, err_msg=name)

    @pytest.mark.parametrize("baseline", [False, True], ids=["pyramid", "single_level"])
    def test_scene_loss_indexes_its_scene(self, baseline):
        """scene_loss is the loss of run_head on the scene's INDEX_CELL index,
        bitwise, with the radii of that call."""
        from pyrhead.head import loss, run_head
        cfg = single_level_baseline(HeadConfig()) if baseline else HeadConfig()
        params = init_head_params(cfg, 0)
        tau = cfg.tau_start
        for sc in generate_scenes(SceneConfig(seed=5), 3):
            got, radii = synth.scene_loss(cfg, params, sc, tau)
            dets, want_radii = run_head(cfg, params, sc.ps,
                                        build_index(sc.ps, synth.INDEX_CELL),
                                        sc.proposals, tau)
            want = loss(dets, synth.scene_targets(sc, cfg), cfg)
            assert np.array_equal(got.data, want.data)
            assert len(radii) == len(want_radii) == len(cfg.pyramid.levels)
            for r, w in zip(radii, want_radii):
                assert np.array_equal(r, w)

    def test_steps_validation(self, fast):
        with pytest.raises(ValueError):
            train_toy(tiny_head(), fast, steps=0, lr=0.1, seed=0, n_scenes=1)


def linear_with_grads(seed, grad_scale):
    """A 3x2 linear map whose gradients, set by one backward, are random
    draws times ``grad_scale``; returns it and the gradient arrays."""
    from pyrhead.autodiff import add, mul, vsum
    from pyrhead.nn import init_linear
    rng = np.random.default_rng(seed)
    lin = init_linear(rng, 3, 2)
    grads = [rng.normal(size=lin.W.shape) * grad_scale, rng.normal(size=2) * grad_scale]
    add(vsum(mul(lin.W, grads[0])), vsum(mul(lin.b, grads[1]))).backward()
    return lin, grads


class TestUpdate:
    """``synth.update`` against ``oracles.clipped_momentum_step``."""

    @pytest.mark.parametrize("grad_scale,step,steps,carried", [
        (0.1, 0, 10, False),     # below the clip, full rate at step 0
        (50.0, 0, 10, False),    # clipped to GRAD_CLIP
        (0.1, 9, 10, False),     # the anneal at steps - 1
        (50.0, 9, 10, True),     # clipped, annealed, momentum carried over
        (0.0, 3, 10, True),      # zero gradient: only the momentum moves
        (0.0, 3, 10, False),     # zero gradient, zero velocity: nothing moves
    ], ids=["plain", "clipped", "annealed", "carried", "zero_grad_carried", "zero_grad"])
    def test_matches_the_oracle(self, grad_scale, step, steps, carried):
        lin, grads = linear_with_grads(0, grad_scale)
        rng = np.random.default_rng(1)
        tensors = [p for _, p in lin.named_parameters()]
        velocity = [rng.normal(size=p.shape) if carried else np.zeros(p.shape)
                    for p in tensors]
        data = [p.data.copy() for p in tensors]
        norm, want_data, want_velocity = oracles.clipped_momentum_step(
            data, grads, [v.copy() for v in velocity], 0.01, step, steps,
            synth.GRAD_CLIP, synth.MOMENTUM)
        assert (norm > synth.GRAD_CLIP) == (grad_scale == 50.0)
        assert synth.update(lin, velocity, 0.01, step, steps) == pytest.approx(norm, rel=1e-12)
        for p, d, want, v, want_v in zip(tensors, data, want_data, velocity, want_velocity):
            np.testing.assert_allclose(p.data, want, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(v, want_v, rtol=1e-12, atol=1e-15)
            if not carried and grad_scale == 0.0:
                assert np.array_equal(p.data, d)
            assert not p.grad.any()        # the gradient is consumed

    def test_nonfinite_gradient_diverges(self):
        lin, _ = linear_with_grads(0, 1.0)
        lin.b.grad[0] = np.nan
        velocity = [np.zeros(p.shape) for _, p in lin.named_parameters()]
        with pytest.raises(synth.TrainingDiverged,
                           match="diverged at step 4: gradient norm nan"):
            synth.update(lin, velocity, 0.01, 4, 10)


class TestInfer:
    @pytest.mark.parametrize("baseline", [False, True], ids=["pyramid", "single_level"])
    def test_arrays_are_run_heads_detections(self, baseline):
        """infer's arrays equal, bitwise, the detections of run_head at
        tau_end on the scene's INDEX_CELL index; a scene without proposals
        gives empty arrays of the same widths."""
        from pyrhead.head import run_head
        cfg = single_level_baseline(HeadConfig()) if baseline else HeadConfig()
        params = init_head_params(cfg, 0)
        scenes = [*generate_scenes(SceneConfig(seed=5), 3),
                  generate_scene(SceneConfig(n_objects=0))]
        for sc in scenes:
            scores, residuals, boxes = synth.infer(cfg, params, sc)
            dets, _ = run_head(cfg, params, sc.ps, build_index(sc.ps, synth.INDEX_CELL),
                               sc.proposals, cfg.tau_end)
            n = len(sc.proposals)
            assert scores.shape == (n,) and residuals.shape == boxes.shape == (n, 7)
            assert scores.dtype == residuals.dtype == boxes.dtype == np.float64
            assert scores.tolist() == [d.score for d in dets]
            for det, res, box in zip(dets, residuals, boxes):
                assert np.array_equal(res, det.residuals)
                assert np.array_equal(box, oracles.box_row(det.box))


class TestEvaluate:
    def test_identity_proposals_score_unit_iou(self, fast, monkeypatch):
        cfg = tiny_head()
        from pyrhead.head import init_head_params
        params = init_head_params(cfg, 0)
        # zero the regression head so refinement is the identity
        params.reg_head.W.data = np.zeros_like(params.reg_head.W.data)
        params.reg_head.b.data = np.zeros(7)
        monkeypatch.setattr(synth, "CENTER_JITTER", 0.0)
        monkeypatch.setattr(synth, "EXTENT_JITTER", (1.0, 1.0))
        monkeypatch.setattr(synth, "YAW_JITTER", 0.0)
        scene = generate_scene(fast)
        result = evaluate(cfg, params, [scene])
        assert result.mean_iou == pytest.approx(1.0)
        assert result.hit_rate == 1.0

    def test_untrained_heads_sit_near_base_rate(self, fast):
        # Monte-Carlo over random inits: mean accuracy within 0.1 of the
        # majority-class share
        cfg = tiny_head()
        from pyrhead.head import init_head_params
        scenes = generate_scenes(fast, 4)
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

    def test_rows_reproduce_the_counter_loop(self):
        # trained, fresh and baseline heads on the acceptance suite's eval
        # scenes and on scenes without objects or points: every field, and
        # the key types of bucket_accuracy, show in the repr
        cfg, scene_cfg = HeadConfig(), SceneConfig()
        base = single_level_baseline(cfg)
        ev = generate_scenes(dataclasses.replace(scene_cfg, seed=9000), 8)
        no_objects = generate_scene(dataclasses.replace(scene_cfg, n_objects=0))
        no_points = generate_scene(dataclasses.replace(scene_cfg, n_objects=0,
                                                       clutter_density=0.0))
        trained = train_toy(cfg, scene_cfg, steps=12, lr=0.0075, seed=0, n_scenes=4)
        trained_base = train_toy(base, scene_cfg, steps=12, lr=0.0075, seed=0, n_scenes=4)
        heads = [(cfg, trained.params), (cfg, init_head_params(cfg, 0)),
                 (base, trained_base.params)]
        for head_cfg, params in heads:
            for scenes in (ev, [no_objects], [no_points], [no_objects, *ev[:2]], []):
                got = evaluate(head_cfg, params, scenes)
                assert repr(got) == repr(oracles.loop_evaluate(head_cfg, params, scenes))
                assert all(type(k) is str for k in got.bucket_accuracy)


class TestBaselineConfig:
    def test_single_level_and_fixed_radius(self):
        base = single_level_baseline(HeadConfig())
        assert len(base.pyramid.levels) == 1
        assert base.darp_enabled is False
        assert base.pyramid.levels[0].ratios == (1.0, 1.0, 1.0)
        assert base.pyramid.levels[0].r_pre == 0.8
