"""Aggregation operators: closed-form cases, gate reductions against the
standalone oracles, soft-radius membership, permutation invariance,
gradients."""
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import attention_feature, graph_feature, point_transformer_feature
from pyrhead.autodiff import Value, finite_diff_grad, mul, rel_error, vsum
from pyrhead.nn import init_mlp
from pyrhead.operators import (ATTENTION_GATES, GRAPH_GATES,
                               TRANSFORMER_GATES, ContractViolationError,
                               GateOverride, NeighborBundle,
                               gated_attention_batched, hard_membership,
                               init_attention_params,
                               pool_feature, roi_grid_attention,
                               roi_grid_attention_darp, soft_radius_coeff)

D_IN = 8


def make_bundle(rng, m, d=D_IN, radius=1.0, margin=0.0, shuffle_ids=True):
    dirs = rng.normal(size=(m, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dist = rng.uniform(0.05, max(radius - margin, 0.06), size=m)
    ids = rng.permutation(m * 3)[:m] if shuffle_ids else np.arange(m)
    return NeighborBundle(np.zeros(3), ids, dirs * dist[:, None],
                          rng.normal(size=(m, d)))


def zero_linear(lp):
    lp.W.data = np.zeros_like(lp.W.data)
    lp.b.data = np.zeros_like(lp.b.data)


class TestPoolFeature:
    def test_singleton_passthrough(self):
        rng = np.random.default_rng(0)
        nb = make_bundle(rng, 1)
        mlp = init_mlp(rng, [D_IN + 3, 16])
        x = np.concatenate([nb.feats, nb.offsets], axis=1)
        np.testing.assert_allclose(pool_feature(nb, mlp).data,
                                   mlp(x).data.reshape(-1), atol=1e-15)

    def test_duplicates_do_not_change_max(self):
        rng = np.random.default_rng(1)
        nb = make_bundle(rng, 1)
        dup = NeighborBundle(nb.grid_point, [0, 1],
                             np.repeat(nb.offsets, 2, axis=0),
                             np.repeat(np.asarray(nb.feats), 2, axis=0))
        mlp = init_mlp(rng, [D_IN + 3, 16])
        np.testing.assert_allclose(pool_feature(dup, mlp).data,
                                   pool_feature(nb, mlp).data, atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        nb = make_bundle(rng, 5)
        mlp = init_mlp(rng, [D_IN + 3, 12, 16])
        got = pool_feature(nb, mlp).data
        per_neighbor = []
        for i in range(5):
            x = np.concatenate([np.asarray(nb.feats)[i], nb.offsets[i]])
            per_neighbor.append(mlp(x).data)
        want = np.array(per_neighbor).max(axis=0)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_empty_returns_zeros(self):
        rng = np.random.default_rng(2)
        mlp = init_mlp(rng, [D_IN + 3, 16])
        nb = NeighborBundle(np.zeros(3), np.zeros(0, int),
                            np.zeros((0, 3)), np.zeros((0, D_IN)))
        np.testing.assert_array_equal(pool_feature(nb, mlp).data, np.zeros(16))

    def test_width_mismatch_raises(self):
        rng = np.random.default_rng(3)
        nb = make_bundle(rng, 2)
        with pytest.raises(ValueError):
            pool_feature(nb, init_mlp(rng, [D_IN + 2, 8]))


def graph_op(nb, params):
    return roi_grid_attention(nb, params, GRAPH_GATES)


def attention_op(nb, params):
    return roi_grid_attention(nb, params, ATTENTION_GATES)


def transformer_op(nb, params):
    return roi_grid_attention(nb, params, TRANSFORMER_GATES)


class TestStandaloneOperators:
    """Closed forms of the unified operator with each operator's gates pinned."""

    def test_graph_singleton_returns_value_embedding(self):
        rng = np.random.default_rng(0)
        nb = make_bundle(rng, 1)
        params = init_attention_params(rng, D_IN)
        want = params.value(np.asarray(nb.feats)).data.reshape(-1)
        np.testing.assert_allclose(graph_op(nb, params).data, want,
                                   atol=1e-12)

    def test_graph_identical_neighbors_average_to_one(self):
        rng = np.random.default_rng(1)
        one = make_bundle(rng, 1, shuffle_ids=False)
        two = NeighborBundle(one.grid_point, [0, 1],
                             np.repeat(one.offsets, 2, axis=0),
                             np.repeat(np.asarray(one.feats), 2, axis=0))
        params = init_attention_params(rng, D_IN)
        np.testing.assert_allclose(graph_op(two, params).data,
                                   graph_op(one, params).data, atol=1e-12)

    def test_attention_singleton(self):
        rng = np.random.default_rng(2)
        nb = make_bundle(rng, 1)
        params = init_attention_params(rng, D_IN)
        want = params.value(np.asarray(nb.feats)).data.reshape(-1)
        np.testing.assert_allclose(attention_op(nb, params).data, want,
                                   atol=1e-12)

    def test_attention_zero_maps_give_mean_value(self):
        rng = np.random.default_rng(3)
        nb = make_bundle(rng, 6)
        params = init_attention_params(rng, D_IN)
        zero_linear(params.q_pos)
        zero_linear(params.key)
        want = params.value(np.asarray(nb.feats)).data.mean(axis=0)
        np.testing.assert_allclose(attention_op(nb, params).data, want,
                                   atol=1e-12)

    def test_transformer_singleton_zero_qpos(self):
        rng = np.random.default_rng(4)
        nb = make_bundle(rng, 1)
        params = init_attention_params(rng, D_IN)
        zero_linear(params.q_pos)
        want = params.value(np.asarray(nb.feats)).data.reshape(-1)
        np.testing.assert_allclose(transformer_op(nb, params).data,
                                   want, atol=1e-12)

    def test_transformer_zero_key_value_gives_qpos(self):
        rng = np.random.default_rng(5)
        nb = make_bundle(rng, 1)
        params = init_attention_params(rng, D_IN)
        zero_linear(params.key)
        zero_linear(params.value)
        want = params.q_pos(nb.offsets).data.reshape(-1)
        np.testing.assert_allclose(transformer_op(nb, params).data,
                                   want, atol=1e-12)


class TestGateReductions:
    @pytest.mark.parametrize("fn,gates", [
        (graph_feature, GRAPH_GATES),
        (attention_feature, ATTENTION_GATES),
        (point_transformer_feature, TRANSFORMER_GATES),
    ])
    def test_unified_matches_standalone(self, fn, gates):
        rng = np.random.default_rng(9)
        for _ in range(25):
            nb = make_bundle(rng, int(rng.integers(1, 16)))
            params = init_attention_params(rng, D_IN)
            want = fn(nb, params).data
            got = roi_grid_attention(nb, params, gates).data
            scale = max(np.max(np.abs(want)), 1e-12)
            assert np.max(np.abs(got - want)) / scale < 1e-6

    def test_empty_returns_zeros(self):
        rng = np.random.default_rng(0)
        params = init_attention_params(rng, D_IN)
        nb = NeighborBundle(np.zeros(3), np.zeros(0, int),
                            np.zeros((0, 3)), np.zeros((0, D_IN)),
                            gather_radius=0.9 + 5e-3)
        np.testing.assert_array_equal(roi_grid_attention(nb, params).data,
                                      np.zeros(64))
        np.testing.assert_array_equal(
            roi_grid_attention_darp(nb, params, Value(0.9), 1e-3).data, np.zeros(64))
        np.testing.assert_array_equal(
            gated_attention_batched(nb.offsets, nb.feats, params, row=[], n_rows=3).data,
            np.zeros((3, 64)))

    @pytest.mark.parametrize("row", [[0, 2, 1], [-1, 0, 0], [0, 1, 3], [0, 1]],
                             ids=["descending", "negative", "past_end", "short"])
    def test_bad_row_raises(self, row):
        rng = np.random.default_rng(2)
        params = init_attention_params(rng, D_IN)
        nb = make_bundle(rng, 3)
        with pytest.raises(ValueError, match="row"):
            gated_attention_batched(nb.offsets, nb.feats, params, row=row, n_rows=3)

    def test_nonfinite_parameter_raises(self):
        rng = np.random.default_rng(1)
        params = init_attention_params(rng, D_IN)
        params.key.W.data[0, 0] = np.nan
        nb = make_bundle(rng, 3)
        with pytest.raises(FloatingPointError):
            roi_grid_attention(nb, params)

    def test_gate_override_validates_range(self):
        with pytest.raises(ValueError):
            GateOverride(1.5, 0.0, 0.0, 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 12))
        nb = make_bundle(rng, m)
        params = init_attention_params(rng, D_IN)
        perm = rng.permutation(m)
        shuffled = NeighborBundle(nb.grid_point, nb.ids[perm],
                                  nb.offsets[perm], np.asarray(nb.feats)[perm])
        for fn in (graph_op, attention_op, transformer_op, roi_grid_attention):
            a, b = fn(nb, params).data, fn(shuffled, params).data
            assert np.max(np.abs(a - b)) < 1e-12


class TestSoftRadius:
    def test_at_boundary_half(self):
        assert soft_radius_coeff(0.9, 0.9, 0.01) == 0.5

    def test_ten_tau_out(self):
        got = soft_radius_coeff(1.0 + 10 * 0.01, 1.0, 0.01)
        assert abs(got - 4.5397868702390376e-05) < 1e-15

    def test_deep_inside_saturates_to_one(self):
        assert abs(soft_radius_coeff(0.0, 1.0, 0.02) - 1.0) < 1e-12

    @pytest.mark.parametrize("z", [-40.0, 40.0])
    def test_radius_gradient_exact_far_from_boundary(self, z):
        # d - r = z * tau exactly, so the gradient in r is sigmoid'(z) / tau;
        # forming g * (1 - g) from a rounded g gives 0 at z = +40
        tau = 0.25
        r = Value(1.0)
        soft_radius_coeff(1.0 + z * tau, r, tau).backward()
        e = math.exp(-40.0)
        want = e / (1.0 + e) ** 2 / tau
        assert abs(r.grad - want) <= 1e-15 * want

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            soft_radius_coeff(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            soft_radius_coeff(1.0, 1.0, -0.1)

    def test_monotone_in_distance_and_radius(self):
        d = np.linspace(0, 3, 400)
        s = soft_radius_coeff(d, 1.0, 0.05)
        assert np.all(np.diff(s) <= 0)
        near = (d > 0.5) & (d < 1.5)  # strictly decreasing off saturation
        assert np.all(np.diff(s[near]) < 0)
        radii = np.linspace(0.2, 2.0, 200)
        s_r = np.array([soft_radius_coeff(1.0, r, 0.05) for r in radii])
        assert np.all(np.diff(s_r) >= 0)
        near_r = (radii > 0.6) & (radii < 1.4)
        assert np.all(np.diff(s_r[near_r]) > 0)

    def test_differentiable_in_r(self):
        d = np.array([0.7, 1.2, 1.5])
        w = np.array([0.5, -1.0, 2.0])
        # a scalar radius, and one radius per slot as forward_rois passes it
        for r0 in (1.2, np.array([0.9, 1.25, 1.45])):
            r = Value(r0)
            out = soft_radius_coeff(d, r, 0.07)
            assert len(out._parents) == 1 and out._parents[0] is r  # one tape node
            assert np.array_equal(out.data, soft_radius_coeff(d, r0, 0.07))
            vsum(mul(out, w)).backward()

            def f(x):
                return float(np.sum(w * soft_radius_coeff(d, x.reshape(np.shape(r0)),
                                                          0.07)))

            fd = finite_diff_grad(f, np.atleast_1d(r0))
            assert r.grad.shape == np.shape(r0)
            assert rel_error(np.atleast_1d(r.grad), fd) < 1e-6


class TestHardMembership:
    def test_boundary_inclusive(self):
        assert hard_membership(1.0, 1.0) == 1.0

    def test_just_outside(self):
        assert hard_membership(1.0 + 1e-12, 1.0) == 0.0

    def test_pointwise_limit_of_soft(self):
        d = np.linspace(0.0, 3.0, 301)
        r = 1.0
        hard = hard_membership(d, r)
        for tau in (1e-2, 1e-4, 1e-6):
            soft = soft_radius_coeff(d, r, tau)
            off_boundary = np.abs(d - r) > 50 * tau
            assert np.max(np.abs(soft[off_boundary] - hard[off_boundary])) < 1e-9


class TestDarpOperator:
    def test_saturated_equals_plain(self):
        rng = np.random.default_rng(0)
        tau = 1e-6
        nb = make_bundle(rng, 5, radius=0.5)
        nb = NeighborBundle(nb.grid_point, nb.ids, nb.offsets, nb.feats,
                            gather_radius=0.9 + 5 * tau)
        params = init_attention_params(rng, D_IN)
        plain = roi_grid_attention(nb, params).data
        soft = roi_grid_attention_darp(nb, params, Value(0.9), tau).data
        scale = max(np.max(np.abs(plain)), 1e-12)
        assert np.max(np.abs(soft - plain)) / scale < 1e-6

    def test_boundary_neighbor_is_halved(self):
        rng = np.random.default_rng(1)
        params = init_attention_params(rng, D_IN)
        nb = NeighborBundle(np.zeros(3), [0], np.array([[0.9, 0.0, 0.0]]),
                            rng.normal(size=(1, D_IN)))
        plain = roi_grid_attention(nb, params).data
        soft = roi_grid_attention_darp(nb, params, Value(0.9), 1e-3).data
        np.testing.assert_allclose(soft, 0.5 * plain, atol=1e-14)

    def test_gather_radius_contract(self):
        rng = np.random.default_rng(2)
        params = init_attention_params(rng, D_IN)
        nb = make_bundle(rng, 4, radius=0.5)
        wrong = NeighborBundle(nb.grid_point, nb.ids, nb.offsets, nb.feats,
                               gather_radius=2.0)
        with pytest.raises(ContractViolationError):
            roi_grid_attention_darp(wrong, params, Value(0.9), 1e-3)

    def test_out_of_range_neighbor_rejected(self):
        rng = np.random.default_rng(3)
        params = init_attention_params(rng, D_IN)
        nb = NeighborBundle(np.zeros(3), [0], np.array([[2.0, 0.0, 0.0]]),
                            rng.normal(size=(1, D_IN)))
        with pytest.raises(ContractViolationError):
            roi_grid_attention_darp(nb, params, Value(0.9), 1e-3)

    def test_radius_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        tau = 1e-3
        r = Value(0.9)
        cutoff = 0.9 + 5 * tau
        # no neighbor within 2*tau of the cutoff: membership cannot flip
        nb = make_bundle(rng, 7, radius=cutoff, margin=3 * tau)
        params = init_attention_params(rng, D_IN)
        u = rng.normal(size=64)

        def make():
            return vsum(mul(roi_grid_attention_darp(nb, params, r, tau), u))

        make().backward()
        tape = r.grad.copy()

        def f(x):
            saved = r.data
            r.data = x
            try:
                return make().item()
            finally:
                r.data = saved

        fd = finite_diff_grad(f, r.data)
        assert rel_error(tape, fd) < 1e-4


class TestOperatorGradients:
    @pytest.mark.parametrize("name", ["pool", "graph", "attention",
                                      "transformer", "unified", "darp",
                                      "sparse_rows"])
    def test_all_gradients_match_fd(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        m = int(rng.integers(2, 8))
        tau, r = 1e-3, Value(0.9)
        nb = make_bundle(rng, m, radius=0.9 + 5 * tau, margin=3 * tau)
        nb = NeighborBundle(nb.grid_point, nb.ids, nb.offsets,
                            Value(np.asarray(nb.feats)))
        params = init_attention_params(rng, D_IN)
        mlp = init_mlp(rng, [D_IN + 3, 16, 32])
        u32, u64 = rng.normal(size=32), rng.normal(size=64)
        # slots of grid points 0, 2 and 3 of five: rows 1 and 4 own none
        row = np.sort(np.r_[0, 2, 3, rng.choice([0, 2, 3], size=m - 3)]) \
            if m >= 3 else np.array([0, 3])
        u_rows = rng.normal(size=(5, 64))

        def sparse_rows():
            out = gated_attention_batched(nb.offsets, nb.feats, params, row=row,
                                          n_rows=5)
            np.testing.assert_array_equal(out.data[[1, 4]], 0.0)
            return vsum(mul(out, u_rows))

        builders = {
            "pool": lambda: vsum(mul(pool_feature(nb, mlp), u32)),
            "graph": lambda: vsum(mul(graph_op(nb, params), u64)),
            "attention": lambda: vsum(mul(attention_op(nb, params), u64)),
            "transformer": lambda: vsum(mul(transformer_op(nb, params), u64)),
            "unified": lambda: vsum(mul(roi_grid_attention(nb, params), u64)),
            "darp": lambda: vsum(mul(
                roi_grid_attention_darp(nb, params, r, tau), u64)),
            "sparse_rows": sparse_rows,
        }
        make = builders[name]
        leaves = {"feats": nb.feats}
        leaves.update(dict(mlp.named_parameters()) if name == "pool"
                      else dict(params.named_parameters()))
        if name == "darp":
            leaves["r"] = r
        out = make()
        for p in leaves.values():
            p.zero_grad()
        out.backward()
        for pname, p in leaves.items():
            tape = p.grad.copy()

            def f(x, p=p):
                saved = p.data
                p.data = x
                try:
                    return make().item()
                finally:
                    p.data = saved

            fd = finite_diff_grad(f, p.data)
            assert rel_error(tape, fd) < 1e-4, pname

    def test_empty_neighborhood_zero_gradient(self):
        rng = np.random.default_rng(0)
        params = init_attention_params(rng, D_IN)
        nb = NeighborBundle(np.zeros(3), np.zeros(0, int),
                            np.zeros((0, 3)), np.zeros((0, D_IN)))
        r = Value(0.9)
        vsum(roi_grid_attention(nb, params)).backward()
        vsum(roi_grid_attention_darp(nb, params, r, 1e-3)).backward()
        for _, p in params.named_parameters():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.data))
        assert r.grad == 0.0
