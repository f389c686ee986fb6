"""Context embedding, radius prediction, and the temperature schedule."""
import math

import numpy as np
import pytest

from pyrhead.autodiff import Value, finite_diff_grad, mul, rel_error
from pyrhead.darp import (OFFSET_SCALE, TemperatureSchedule, context_embedding,
                          init_context_params, init_radius_head,
                          predict_radius, temperature)
from pyrhead.geometry import Box3D, rot_z
from pyrhead.spatial import PointSet, build_index

D = 4


def make_scene(rng, n, span=6.0):
    coords = rng.uniform(-span / 2, span / 2, size=(n, 3))
    return PointSet(coords, rng.normal(size=(n, D)))


class TestContextEmbedding:
    def test_empty_spheres_give_zeros(self):
        rng = np.random.default_rng(0)
        params = init_context_params(rng, D, radii=(2.4, 4.8), sphere_width=8)
        ps = PointSet(np.array([[100.0, 100.0, 100.0]]), np.zeros((1, D)))
        idx = build_index(ps, 1.0)
        roi = Box3D.from_center([0, 0, 0], [2, 2, 2], 0.0)
        ctx = context_embedding(roi, ps, idx, params)
        np.testing.assert_array_equal(ctx.data, np.zeros(16))

    def test_empty_point_set_gives_zeros(self):
        rng = np.random.default_rng(2)
        params = init_context_params(rng, D, radii=(1.5, 3.0), sphere_width=8)
        ps = PointSet.empty(D)
        roi = Box3D.from_center([0, 0, 0], [2, 2, 2], 0.3)
        ctx = context_embedding(roi, ps, build_index(ps, 1.0), params)
        np.testing.assert_array_equal(ctx.data, np.zeros(params.out_width))

    def test_single_inner_point_fills_both_slots(self):
        rng = np.random.default_rng(1)
        params = init_context_params(rng, D, radii=(2.4, 4.8), sphere_width=8)
        point = np.array([[0.5, 0.2, 0.1]])
        feats = rng.normal(size=(1, D))
        ps = PointSet(point, feats)
        idx = build_index(ps, 1.0)
        roi = Box3D.from_center([0, 0, 0], [2, 2, 2], 0.7)
        ctx = context_embedding(roi, ps, idx, params).data
        offsets = (point - roi.center) @ rot_z(roi.yaw)
        x = np.concatenate([feats, offsets], axis=1)
        np.testing.assert_allclose(ctx[:8], params.mlps[0](x).data.reshape(-1),
                                   atol=1e-12)
        np.testing.assert_allclose(ctx[8:], params.mlps[1](x).data.reshape(-1),
                                   atol=1e-12)

    def test_matches_scan_and_max_oracle(self):
        rng = np.random.default_rng(7)
        params = init_context_params(rng, D, radii=(1.5, 3.0), sphere_width=8)
        ps = make_scene(rng, 80)
        idx = build_index(ps, 1.0)
        roi = Box3D.from_center([0.3, -0.2, 0.1], [1.5, 2.0, 1.0], 0.4)
        got = context_embedding(roi, ps, idx, params).data
        derot = rot_z(roi.yaw)
        chunks = []
        for radius, mlp in zip(params.radii, params.mlps):
            d = np.linalg.norm(ps.coords - roi.center, axis=1)
            members = np.nonzero(d <= radius)[0]
            if members.size == 0:
                chunks.append(np.zeros(8))
                continue
            rows = []
            for i in members:
                x = np.concatenate([ps.feats[i],
                                    (ps.coords[i] - roi.center) @ derot])
                rows.append(mlp(x).data)
            chunks.append(np.array(rows).max(axis=0))
        np.testing.assert_allclose(got, np.concatenate(chunks), atol=1e-12)

    def test_context_radii_must_increase(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            init_context_params(rng, D, radii=(4.8, 2.4))


class TestPredictRadius:
    def test_zero_init_returns_predefined(self):
        rng = np.random.default_rng(0)
        head = init_radius_head(rng, 16, [0.8, 1.6, 2.4], hidden=8)
        ctx = Value(rng.normal(size=16))
        for lvl, r_pre in enumerate([0.8, 1.6, 2.4]):
            assert predict_radius(ctx, lvl, head).item() == r_pre

    @pytest.mark.parametrize("bias", [-1e3, -40.0, -3.0, 3.0, 40.0, 1e3])
    def test_radius_stays_inside_bound(self, bias):
        rng = np.random.default_rng(1)
        head = init_radius_head(rng, 16, [0.8, 2.4], hidden=8, r_min=0.05)
        ctx = Value(rng.normal(size=(5, 16)))
        for lvl, r_pre in enumerate(head.r_pre):
            # drive the offset through the output bias, far past either bound
            head.mlps[lvl].layers[-1].b.data = np.array([bias / OFFSET_SCALE])
            r = predict_radius(ctx, lvl, head).data
            assert r.shape == (5,)
            # the open range, up to roundoff once tanh saturates to +-1
            ulp = 1e-15
            assert np.all(r > 0.05 - ulp) and np.all(r < 2 * r_pre - 0.05 + ulp)
            assert np.all(r < r_pre) if bias < 0 else np.all(r > r_pre)
            want = r_pre + (r_pre - 0.05) * np.tanh(bias / (r_pre - 0.05))
            np.testing.assert_allclose(r, want, rtol=1e-14)

    @pytest.mark.parametrize("bias", [-30.0, -1.0, 0.0, 0.5, 30.0])
    def test_bound_gradient_matches_fd_and_never_vanishes(self, bias):
        rng = np.random.default_rng(2)
        head = init_radius_head(rng, 6, [0.8], hidden=4, r_min=0.05)
        out = head.mlps[0].layers[-1]
        # at bias 0 the output layer stays zero, so the offset is exactly 0
        if bias != 0.0:
            out.W.data = rng.normal(0, 0.1, out.W.shape)
        out.b.data = np.array([bias])
        ctx = Value(rng.normal(size=6))
        r = predict_radius(ctx, 0, head)
        r.backward()
        tape = out.b.grad.copy()
        assert tape[0] > 0.0

        def f(x):
            saved = out.b.data
            out.b.data = x
            try:
                return predict_radius(ctx, 0, head).item()
            finally:
                out.b.data = saved

        assert rel_error(tape, finite_diff_grad(f, out.b.data, h=1e-4)) < 1e-6
        if bias == 0.0:
            assert r.item() == 0.8 and tape[0] == OFFSET_SCALE

    def test_r_pre_must_exceed_r_min(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="level 1"):
            init_radius_head(rng, 16, [0.8, 0.05], hidden=8, r_min=0.05)

    def test_level_bounds(self):
        rng = np.random.default_rng(3)
        head = init_radius_head(rng, 16, [0.8], hidden=8)
        with pytest.raises(ValueError):
            predict_radius(Value(np.zeros(16)), 1, head)

    def test_gradient_matches_fd_when_unclamped(self):
        rng = np.random.default_rng(4)
        head = init_radius_head(rng, 12, [0.8, 1.6], hidden=8)
        for mlp in head.mlps:  # perturb the zero-initialized output layers
            mlp.layers[-1].W.data = rng.normal(0, 0.1, mlp.layers[-1].W.shape)
        ctx = Value(rng.normal(size=12))

        def make():
            return mul(predict_radius(ctx, 0, head), 1.0) + \
                mul(predict_radius(ctx, 1, head), 0.5)

        leaves = dict(head.named_parameters())
        leaves["ctx"] = ctx
        out = make()
        for p in leaves.values():
            p.zero_grad()
        out.backward()
        for name, p in leaves.items():
            tape = p.grad.copy()

            def f(x, p=p):
                saved = p.data
                p.data = x
                try:
                    return make().item()
                finally:
                    p.data = saved

            assert rel_error(tape, finite_diff_grad(f, p.data)) < 1e-4, name


class TestRadiusGradientFlow:
    def test_near_boundary_neighbor_drives_radius_head(self):
        # with a neighbor within 5*tau of the effective radius, the loss
        # gradient reaching the radius-head parameters is nonzero
        from pyrhead.autodiff import mul, vsum
        from pyrhead.operators import init_attention_params, NeighborBundle
        from pyrhead.operators import roi_grid_attention_darp

        rng = np.random.default_rng(0)
        tau = 1e-2
        head = init_radius_head(rng, 8, [1.0], hidden=8)
        ctx = Value(rng.normal(size=8))
        r = predict_radius(ctx, 0, head)  # exactly 1.0 at zero init
        offsets = np.array([[1.0 + 2 * tau, 0.0, 0.0], [0.3, 0.1, 0.0]])
        nb = NeighborBundle(np.zeros(3), [0, 1], offsets,
                            rng.normal(size=(2, 4)))
        params = init_attention_params(rng, 4, d_model=16, heads=2)
        out = vsum(mul(roi_grid_attention_darp(nb, params, r, tau),
                       rng.normal(size=16)))
        out.backward()
        norm = sum(float(np.sum(p.grad ** 2))
                   for _, p in head.named_parameters())
        assert norm > 0.0


class TestTemperature:
    def test_endpoints(self):
        sched = TemperatureSchedule(0.02, 0.0001, 1000)
        assert temperature(0, sched) == 0.02
        assert temperature(1000, sched) == pytest.approx(0.0001, rel=1e-12)

    def test_geometric_midpoint(self):
        sched = TemperatureSchedule(0.02, 0.0001, 1000)
        assert temperature(500, sched) == pytest.approx(0.0014142135623730952,
                                                        rel=1e-12)

    def test_log_linear_and_decreasing(self):
        sched = TemperatureSchedule(0.02, 0.0001, 250)
        taus = np.array([temperature(s, sched) for s in range(251)])
        assert np.all(np.diff(taus) < 0)
        logs = np.log(taus)
        want = np.linspace(math.log(0.02), math.log(0.0001), 251)
        assert np.max(np.abs(logs - want)) < 1e-12

    def test_step_out_of_range(self):
        sched = TemperatureSchedule(0.02, 0.0001, 10)
        with pytest.raises(ValueError):
            temperature(-1, sched)
        with pytest.raises(ValueError):
            temperature(11, sched)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TemperatureSchedule(0.0001, 0.02, 10)
        with pytest.raises(ValueError):
            TemperatureSchedule(0.02, 0.0, 10)
