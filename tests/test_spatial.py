"""Spatial index exactness against brute-force scans, file round trips."""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_query
from pyrhead.operators import NeighborBundle
from pyrhead.spatial import PointSet, build_index, gather_level


def random_pointset(rng, n, span=20.0):
    return PointSet(rng.uniform(0, span, size=(n, 3)), np.zeros((n, 1)))


class TestBallQuery:
    def test_empty_pointset(self):
        idx = build_index(PointSet.empty(4), cell=1.0)
        assert idx.query([0, 0, 0], 1.0, 8)[0].size == 0

    def test_single_point_at_origin(self):
        ps = PointSet(np.zeros((1, 3)), np.zeros((1, 2)))
        idx = build_index(ps, cell=1.0)
        np.testing.assert_array_equal(idx.query([0, 0, 0], 1.0, 8)[0], [0])

    def test_membership_by_distance(self):
        ps = PointSet(np.array([[0.5, 0, 0], [1.5, 0, 0]]), np.zeros((2, 1)))
        idx = build_index(ps, cell=1.0)
        np.testing.assert_array_equal(idx.query([0, 0, 0], 1.0, 8)[0], [0])

    def test_boundary_point_included(self):
        ps = PointSet(np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 1)))
        idx = build_index(ps, cell=0.7)
        np.testing.assert_array_equal(idx.query([0, 0, 0], 1.0, 4)[0], [0])

    def test_cap_keeps_nearest_by_sort_oracle(self):
        rng = np.random.default_rng(1)
        ps = random_pointset(rng, 20, span=4.0)
        idx = build_index(ps, cell=1.0)
        center = np.array([2.0, 2.0, 2.0])
        got = idx.query(center, 50.0, 5)[0]
        np.testing.assert_array_equal(got, brute_force_query(ps, center, 50.0, 5))

    def test_large_scene_matches_scan(self):
        rng = np.random.default_rng(3)
        ps = random_pointset(rng, 10_000)
        idx = build_index(ps, cell=1.3)
        for _ in range(100):
            center = rng.uniform(0, 20, 3)
            r = float(rng.uniform(0.2, 3.0))
            got = idx.query(center, r, 10**9)[0]
            np.testing.assert_array_equal(np.sort(got),
                                          np.sort(brute_force_query(ps, center, r)))

    def test_ordered_by_distance_then_id(self):
        coords = np.array([[1.0, 0, 0], [0.5, 0, 0], [-0.5, 0, 0]])
        idx = build_index(PointSet(coords, np.zeros((3, 1))), cell=1.0)
        np.testing.assert_array_equal(idx.query([0, 0, 0], 2.0, 8)[0],
                                      [1, 2, 0])

    def test_invalid_args(self):
        idx = build_index(PointSet.empty(1), cell=1.0)
        for bad_r in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="radius"):
                idx.query([0, 0, 0], bad_r, 4)
        with pytest.raises(ValueError, match="max_k"):
            idx.query([0, 0, 0], 1.0, 0)
        with pytest.raises(ValueError):
            build_index(PointSet.empty(1), cell=0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_property_equivalence_and_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 300))
        ps = random_pointset(rng, n, span=8.0)
        idx = build_index(ps, cell=float(rng.uniform(0.4, 3.0)))
        center = rng.uniform(-1, 9, 3)
        r1, r2 = sorted(rng.uniform(0.1, 4.0, 2))
        inner = idx.query(center, r1, 10**9)[0]
        outer = idx.query(center, r2, 10**9)[0]
        np.testing.assert_array_equal(np.sort(inner),
                                      np.sort(brute_force_query(ps, center, r1)))
        np.testing.assert_array_equal(np.sort(outer),
                                      np.sort(brute_force_query(ps, center, r2)))
        assert set(inner.tolist()) <= set(outer.tolist())

    def test_determinism_across_runs(self):
        rng = np.random.default_rng(11)
        ps = random_pointset(rng, 500)
        a = build_index(ps, cell=1.0)
        b = build_index(ps, cell=1.0)
        for _ in range(10):
            c = rng.uniform(0, 20, 3)
            np.testing.assert_array_equal(a.query(c, 2.0, 7)[0],
                                          b.query(c, 2.0, 7)[0])


class TestExtendedQuery:
    def test_tiny_tau_equals_ball_query(self):
        rng = np.random.default_rng(2)
        ps = random_pointset(rng, 200, span=5.0)
        idx = build_index(ps, cell=1.0)
        c = np.array([2.5, 2.5, 2.5])
        got = NeighborBundle.gather_extended(ps, idx, c, 1.0, 1e-15, 64)
        np.testing.assert_array_equal(got.ids, idx.query(c, 1.0, 64)[0])

    def test_range_arithmetic(self):
        tau, r = 0.1, 1.0
        coords = np.array([[r + 4 * tau, 0, 0], [r + 6 * tau, 0, 0]])
        ps = PointSet(coords, np.zeros((2, 1)))
        idx = build_index(ps, cell=1.0)
        got = NeighborBundle.gather_extended(ps, idx, [0, 0, 0], r, tau, 8).ids
        np.testing.assert_array_equal(got, [0])

    def test_matches_scan_at_widened_radius(self):
        rng = np.random.default_rng(11)
        ps = random_pointset(rng, 2000)
        idx = build_index(ps, cell=1.5)
        for _ in range(25):
            c = rng.uniform(0, 20, 3)
            r, tau = float(rng.uniform(0.3, 2.0)), float(rng.uniform(1e-4, 0.2))
            got = NeighborBundle.gather_extended(ps, idx, c, r, tau, 10**9).ids
            np.testing.assert_array_equal(
                np.sort(got), np.sort(brute_force_query(ps, c, r + 5 * tau)))

    def test_tau_must_be_positive(self):
        ps = PointSet.empty(1)
        idx = build_index(ps, cell=1.0)
        with pytest.raises(ValueError):
            NeighborBundle.gather_extended(ps, idx, [0, 0, 0], 1.0, 0.0, 4)


def _gather_rows(idx, centers, radius, max_k):
    """gather_level's flat output split into one (ids, dists) pair per row."""
    centers = np.asarray(centers, float)
    row, ids, dist = gather_level(idx, centers, radius, max_k)
    assert np.all(np.diff(row) >= 0)
    n_rows = centers.shape[0] * centers.shape[1]
    return [(ids[row == i], dist[row == i]) for i in range(n_rows)]


class TestBatchQuery:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_matches_per_center_queries(self, seed):
        rng = np.random.default_rng(seed)
        ps = random_pointset(rng, 1500, span=12.0)
        idx = build_index(ps, cell=1.1)
        centers = rng.uniform(0, 12, size=(4, 10, 3))
        for radius, cap in [(0.5, 4), (1.4, 8), (3.0, 16),
                            (rng.uniform(0.3, 3.0, 4), 6)]:
            r_roi = np.broadcast_to(radius, (4,))
            rows = _gather_rows(idx, centers, radius, cap)
            for c, r, (ids, d) in zip(centers.reshape(-1, 3), np.repeat(r_roi, 10), rows):
                want = brute_force_query(ps, c, r, cap)
                np.testing.assert_array_equal(ids, want)
                np.testing.assert_array_equal(d, np.linalg.norm(ps.coords[want] - c, axis=1))

    def test_boundary_point_and_equidistant_ties(self):
        # one point at exactly r, six at an equal distance inside: the
        # boundary point is kept and the cap keeps the lowest ids among ties
        center = np.array([0.5, 0.5, 0.5])
        shell = np.concatenate([np.eye(3), -np.eye(3)]) * 0.25 + center
        coords = np.concatenate([[center + [1.0, 0.0, 0.0]], shell[::-1],
                                 [center + [0.0, 1.5, 0.0]]])
        ps = PointSet(coords, np.zeros((len(coords), 1)))
        idx = build_index(ps, cell=0.6)
        (ids, d), = _gather_rows(idx, center.reshape(1, 1, 3), 1.0, 10)
        np.testing.assert_array_equal(ids, [1, 2, 3, 4, 5, 6, 0])
        assert d[-1] == 1.0
        np.testing.assert_array_equal(ids, brute_force_query(ps, center, 1.0, 10))
        for cap in (1, 4, 6):
            (ids, _), = _gather_rows(idx, center.reshape(1, 1, 3), 1.0, cap)
            np.testing.assert_array_equal(ids, [1, 2, 3, 4, 5, 6][:cap])
            np.testing.assert_array_equal(ids, brute_force_query(ps, center, 1.0, cap))

    def test_empty_rows_are_absent(self):
        ps = PointSet(np.array([[0.0, 0.0, 0.0]]), np.zeros((1, 1)))
        idx = build_index(ps, cell=1.0)
        centers = np.array([[[5.0, 5.0, 5.0], [0.1, 0.0, 0.0]]])
        row, ids, dist = gather_level(idx, centers, 0.5, 4)
        np.testing.assert_array_equal(row, [1])
        np.testing.assert_array_equal(ids, [0])
        row, ids, dist = gather_level(build_index(PointSet.empty(1), 1.0), centers, 0.5, 4)
        assert row.size == ids.size == dist.size == 0

    def test_invalid_args(self):
        idx = build_index(PointSet.empty(1), cell=1.0)
        with pytest.raises(ValueError, match="max_k"):
            gather_level(idx, np.zeros((1, 1, 3)), 1.0, 0)
        for bad_r in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="radius"):
                gather_level(idx, np.zeros((2, 1, 3)), [1.0, bad_r], 4)


class TestBoundedCellScan:
    """Scan cost is bounded by the occupied cells, not by the radius."""

    def scene(self):
        rng = np.random.default_rng(21)
        ps = random_pointset(rng, 300, span=10.0)
        return ps, build_index(ps, cell=1.0)

    def test_huge_radius_query_is_fast_and_exact(self):
        ps, idx = self.scene()
        for center in ([5.0, 5.0, 5.0], [-3e3, 40.0, 7.0]):
            started = time.perf_counter()
            ids, _ = idx.query(center, 1e4, 64)
            elapsed = time.perf_counter() - started
            np.testing.assert_array_equal(ids, brute_force_query(ps, center, 1e4, 64))
            assert elapsed < 0.05

    def test_huge_radius_gather_is_fast_and_exact(self):
        ps, idx = self.scene()
        centers = np.array([[[5.0, 5.0, 5.0], [-3e3, 40.0, 7.0]]])
        started = time.perf_counter()
        rows = _gather_rows(idx, centers, 1e4, 64)
        elapsed = time.perf_counter() - started
        for c, (ids, _) in zip(centers[0], rows):
            np.testing.assert_array_equal(ids, brute_force_query(ps, c, 1e4, 64))
        assert elapsed < 0.05

    def test_box_outside_occupied_cells_is_empty(self):
        _, idx = self.scene()
        assert idx.region_ids(np.full(3, 50.0), np.full(3, 1e9)).size == 0
        np.testing.assert_array_equal(
            idx.region_ids(np.full(3, -np.inf), np.full(3, np.inf)), np.arange(300))


class TestPointSetIO:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ps = PointSet(rng.normal(size=(17, 3)), rng.normal(size=(17, 5)))
        path = tmp_path / "fixture.pset"
        ps.save(path)
        back = PointSet.load(path)
        assert len(back) == 17 and back.feat_width == 5
        # stored as f32 by format
        np.testing.assert_allclose(back.coords, ps.coords, atol=1e-6)
        np.testing.assert_allclose(back.feats, ps.feats, atol=1e-6)

    def test_binary_header(self, tmp_path):
        ps = PointSet(np.zeros((2, 3)), np.ones((2, 4)))
        path = tmp_path / "h.pset"
        ps.save(path)
        raw = path.read_bytes()
        assert raw[:4] == b"PSET"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 4
        assert len(raw) == 12 + 2 * 3 * 4 + 2 * 4 * 4

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.pset"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError):
            PointSet.load(path)

    def test_json_round_trip(self):
        ps = PointSet([[0, 1, 2], [3, 4, 5]], [[1.0], [2.0]])
        back = PointSet.from_json(ps.to_json())
        np.testing.assert_array_equal(back.coords, ps.coords)
        np.testing.assert_array_equal(back.feats, ps.feats)

    def test_mismatched_rows_raise(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((3, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize("cut, size", [(-5, 12 + 17 * 7 * 4 - 5), (6, 6)])
    def test_truncated_file_names_path_and_sizes(self, tmp_path, cut, size):
        path = tmp_path / "short.pset"
        PointSet(np.zeros((17, 3)), np.ones((17, 4))).save(path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError) as err:
            PointSet.load(path)
        assert str(path) in str(err.value)
        assert f"has {size}" in str(err.value)
        if cut < 0:
            assert f"needs {12 + 17 * 7 * 4} bytes" in str(err.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.pset"
        PointSet(np.zeros((2, 3)), np.ones((2, 4))).save(path)
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(ValueError, match=f"needs {12 + 2 * 7 * 4} bytes, file has {16 + 2 * 7 * 4}"):
            PointSet.load(path)

    def test_nonfinite_features_rejected(self, tmp_path):
        feats = np.ones((2, 4))
        feats[1, 2] = np.nan
        with pytest.raises(ValueError, match="features"):
            PointSet(np.zeros((2, 3)), feats)
        path = tmp_path / "nan.pset"
        PointSet(np.zeros((2, 3)), np.ones((2, 4))).save(path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="features"):
            PointSet.load(path)
