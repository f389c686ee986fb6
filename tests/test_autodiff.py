"""Engine-level checks: forward values against closed forms and independent
oracles, reverse-mode gradients against central finite differences."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import masked_sigmoid, segment_sum, softmax, vsigmoid
from pyrhead.autodiff import (Value, _np_sigmoid, add, concat, finite_diff_grad,
                              linear, mul, rel_error, reshape, sigmoid,
                              smooth_l1, softplus, take, vmax, vsum)


def fd_against_tape(make_loss, leaves, h=1e-5, tol=1e-4):
    out = make_loss()
    for p in leaves.values():
        p.zero_grad()
    out.backward()
    for name, p in leaves.items():
        tape = p.grad.copy()

        def f(x, p=p):
            saved = p.data
            p.data = x
            try:
                return make_loss().item()
            finally:
                p.data = saved

        fd = finite_diff_grad(f, p.data, h)
        assert rel_error(tape, fd) < tol, name


class TestLinear:
    def test_identity(self):
        y = linear(np.array([[1.0, 0.0]]), np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(y.data, [[1.0, 0.0]])

    def test_zero_input_returns_bias(self):
        W = np.array([[2.0, -1.0], [0.5, 3.0]])
        y = linear(np.array([[0.0, 0.0]]), W, np.array([3.0, 4.0]))
        np.testing.assert_array_equal(y.data, [[3.0, 4.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        n, d = 2, 3
        x, W, b = rng.normal(size=(n, d)), rng.normal(size=(d, d)), rng.normal(size=d)
        expected = np.zeros((n, d))
        for i in range(n):
            for j in range(d):
                acc = b[j]
                for k in range(d):
                    acc += x[i, k] * W[k, j]
                expected[i, j] = acc
        got = linear(x, W, b).data
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            linear(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry_sums_to_one(self):
        xs = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(xs) + sigmoid(-xs), 1.0, atol=1e-15)

    def test_value_at_one(self):
        # 1 / (1 + e^-1) evaluated at high precision
        assert abs(sigmoid(1.0) - 0.7310585786300049) < 1e-15

    def test_saturates_without_nan(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-300)

    @given(st.lists(st.floats(-1e4, 1e4) | st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308]),
        min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_branch_free_equals_masked_bitwise(self, xs):
        d = np.array(xs)
        got, want = _np_sigmoid(d), masked_sigmoid(d)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSoftmax:
    def test_uniform_on_constant(self):
        np.testing.assert_allclose(softmax(np.array([2.5, 2.5, 2.5])),
                                   [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_singleton(self):
        np.testing.assert_array_equal(softmax(np.array([12.3])), [1.0])

    def test_closed_form(self):
        got = softmax(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(got, [0.25, 0.75], atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            softmax(np.zeros(0))
        with pytest.raises(ValueError):
            softmax(Value(np.zeros((2, 0, 3))), axis=1)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
           st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, xs, shift):
        x = np.asarray(xs)
        y = softmax(x)
        assert abs(y.sum() - 1.0) < 1e-12
        assert np.all(y > 0)
        y2 = softmax(x + shift)
        assert np.max(np.abs(y - y2)) < 1e-12


class TestFiniteDiff:
    def test_square(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant_function(self):
        g = finite_diff_grad(lambda x: 4.2, np.arange(5.0))
        np.testing.assert_array_equal(g, np.zeros(5))

    def test_sigmoid_slope_at_zero(self):
        g = finite_diff_grad(lambda x: sigmoid(float(x[0])), np.array([0.0]))
        assert abs(g[0] - 0.25) < 1e-8

    def test_nonfinite_raises(self):
        with pytest.raises(FloatingPointError):
            finite_diff_grad(lambda x: float("nan"), np.array([1.0]))


class TestReverseMode:
    def test_composition_matches_fd(self):
        rng = np.random.default_rng(0)
        x = Value(rng.normal(size=(3, 4)))
        W = Value(rng.normal(size=(4, 5)))
        b = Value(rng.normal(size=5))
        u = rng.normal(size=(3, 5))

        def make():
            h = vsigmoid(linear(x, W, b))
            return vsum(mul(softmax(h, axis=1), u))

        fd_against_tape(make, {"x": x, "W": W, "b": b})

    def test_shared_subexpression_accumulates(self):
        # gradient through a node used twice equals the tree-expanded oracle
        x = Value(1.7)
        w = mul(x, x)
        y = add(mul(w, 3.0), mul(w, 2.0))
        y.backward()
        shared = float(x.grad)

        x2 = Value(1.7)
        tree = add(mul(mul(x2, x2), 3.0), mul(mul(x2, x2), 2.0))
        tree.backward()
        assert shared == float(x2.grad)
        assert abs(shared - 2 * 1.7 * 5.0) < 1e-12

    def test_unreached_parameter_has_zero_grad(self):
        x, unused = Value(2.0), Value(np.ones(3))
        y = mul(x, x)
        y.backward()
        np.testing.assert_array_equal(unused.grad, np.zeros(3))

    def test_max_routes_to_first_argmax(self):
        x = Value(np.array([[1.0, 5.0, 5.0]]))
        vmax(x, axis=1).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Value(np.zeros(3)).backward()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_elementwise_ops_match_fd(self, seed):
        rng = np.random.default_rng(seed)
        x = Value(rng.normal(size=6) * 2.0)

        def make():
            a = softplus(x)
            b = smooth_l1(add(x, 0.3))
            return vsum(add(a, mul(b, 0.7)))

        fd_against_tape(make, {"x": x})

    def test_take_and_segment_sum_match_fd(self):
        rng = np.random.default_rng(4)
        x = Value(rng.normal(size=(5, 3)))
        idx = np.array([0, 2, 2, 4])
        seg = np.array([0, 1, 1, 0])
        u = rng.normal(size=(2, 3))

        def make():
            rows = take(x, idx)
            return vsum(mul(segment_sum(rows, seg, 2), u))

        # oracle value: manual gather and bucket sums
        rows = x.data[idx]
        manual = np.zeros((2, 3))
        for r, s in zip(rows, seg):
            manual[s] += r
        got = segment_sum(take(x, idx), seg, 2)
        np.testing.assert_allclose(got.data, manual, atol=1e-15)
        fd_against_tape(make, {"x": x})

    def test_reshape_concat_mean_match_fd(self):
        rng = np.random.default_rng(5)
        a = Value(rng.normal(size=(2, 3)))
        b = Value(rng.normal(size=(1, 3)))

        def make():
            cat = concat([a, b, np.ones((1, 3))], axis=0)
            return mul(vsum(reshape(cat, (12,))), 1.0 / 12)

        fd_against_tape(make, {"a": a, "b": b})
