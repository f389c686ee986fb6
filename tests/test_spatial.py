"""Spatial index exactness against brute-force scans, file round trips."""
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import BucketIndex, brute_force_query, lexsort_gather_level
from pyrhead import spatial
from pyrhead.geometry import pyramid_grid_points
from pyrhead.head import HeadConfig
from pyrhead.operators import NeighborBundle
from pyrhead.spatial import PointSet, SpatialIndex, _packed_key, build_index, gather_level
from pyrhead.synth import SceneConfig, generate_scene


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


def _gather_rows(ps, centers, radius, max_k):
    """gather_level's flat output split into one (ids, dists) pair per row."""
    centers = np.asarray(centers, float)
    row, ids, dist = gather_level(ps, centers, radius, max_k)
    assert np.all(np.diff(row) >= 0)
    n_rows = centers.shape[0] * centers.shape[1]
    return [(ids[row == i], dist[row == i]) for i in range(n_rows)]


class TestBatchQuery:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_matches_per_center_queries(self, seed):
        rng = np.random.default_rng(seed)
        ps = random_pointset(rng, 1500, span=12.0)
        centers = rng.uniform(0, 12, size=(4, 10, 3))
        for radius, cap in [(0.5, 4), (1.4, 8), (3.0, 16),
                            (rng.uniform(0.3, 3.0, 4), 6)]:
            r_roi = np.broadcast_to(radius, (4,))
            rows = _gather_rows(ps, centers, radius, cap)
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
        (ids, d), = _gather_rows(ps, center.reshape(1, 1, 3), 1.0, 10)
        np.testing.assert_array_equal(ids, [1, 2, 3, 4, 5, 6, 0])
        assert d[-1] == 1.0
        np.testing.assert_array_equal(ids, brute_force_query(ps, center, 1.0, 10))
        for cap in (1, 4, 6):
            (ids, _), = _gather_rows(ps, center.reshape(1, 1, 3), 1.0, cap)
            np.testing.assert_array_equal(ids, [1, 2, 3, 4, 5, 6][:cap])
            np.testing.assert_array_equal(ids, brute_force_query(ps, center, 1.0, cap))

    def test_empty_rows_are_absent(self):
        ps = PointSet(np.array([[0.0, 0.0, 0.0]]), np.zeros((1, 1)))
        centers = np.array([[[5.0, 5.0, 5.0], [0.1, 0.0, 0.0]]])
        row, ids, dist = gather_level(ps, centers, 0.5, 4)
        np.testing.assert_array_equal(row, [1])
        np.testing.assert_array_equal(ids, [0])
        row, ids, dist = gather_level(PointSet.empty(1), centers, 0.5, 4)
        assert row.size == ids.size == dist.size == 0

    def test_invalid_args(self):
        ps = PointSet.empty(1)
        with pytest.raises(ValueError, match="max_k"):
            gather_level(ps, np.zeros((1, 1, 3)), 1.0, 0)
        for bad_r in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="radius"):
                gather_level(ps, np.zeros((2, 1, 3)), [1.0, bad_r], 4)


@st.composite
def gather_scenes(draw):
    """A cloud, an index cell and a level of RoIs built to hit the edge cases.

    Lattice clouds put points exactly on cell boundaries and on the spheres
    of lattice grid points (a multiple of the largest radius, exact in
    binary); shells add six points equidistant from one grid point, which
    tie at any cap below six; offsets make coordinates negative; one RoI
    may sit far outside the cloud.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([0, 1, 2, 40, 300]))
    r_max = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]))
    cell = r_max * draw(st.sampled_from([0.3, 1.0, 2.5]))
    n_rois, count = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    radius = r_max * np.array(draw(st.lists(st.sampled_from([0.1, 0.25, 0.5, 1.0]),
                                            min_size=n_rois, max_size=n_rois)))
    offset = draw(st.sampled_from([0.0, -7.0, -1e3 * r_max]))
    if draw(st.booleans()):
        coords = rng.integers(-4, 5, size=(n, 3)) * r_max
        centers = rng.integers(-4, 5, size=(n_rois, count, 3)) * r_max
    else:
        coords = rng.uniform(-4, 4, size=(n, 3)) * r_max
        centers = rng.uniform(-4, 4, size=(n_rois, count, 3)) * r_max
    if draw(st.booleans()):
        shell = np.concatenate([np.eye(3), -np.eye(3)]) * radius[0] / 2
        coords = np.concatenate([coords, centers[0, 0] + shell, centers[0, 0] + 2 * shell])
    if draw(st.booleans()):
        centers[-1] += 1e4 * r_max
    ps = PointSet(coords + offset, np.zeros((len(coords), 1)))
    max_k = draw(st.sampled_from([1, 4, 8, 10**6]))
    return ps, cell, centers + offset, radius, max_k


def brute_force_gather(ps, centers, radius, max_k):
    """gather_level's flat (row, ids, dist) from one brute-force query per row."""
    rows, ids, dists = [], [], []
    count = centers.shape[1]
    for i, c in enumerate(centers.reshape(-1, 3)):
        got = brute_force_query(ps, c, radius[i // count], max_k)
        rows.append(np.full(got.size, i, dtype=np.intp))
        ids.append(got)
        dists.append(np.linalg.norm(ps.coords - c, axis=1)[got])
    return np.concatenate(rows), np.concatenate(ids), np.concatenate(dists)


def brute_force_region(ps, cell, lo, hi):
    """Ascending ids of the points whose cell lies in the box's cell range."""
    key = np.floor(ps.coords / cell)
    inside = (key >= np.floor(lo / cell)) & (key <= np.floor(hi / cell))
    return np.nonzero(np.all(inside, axis=1))[0]


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


class TestSortedCellGather:
    """The sorted-cell gather against the former bucket gather and a scan."""

    @given(gather_scenes())
    @settings(max_examples=150, deadline=None)
    def test_matches_bucket_gather_and_brute_force(self, scene):
        ps, cell, centers, radius, max_k = scene
        got = gather_level(ps, centers, radius, max_k)
        _assert_same(got, lexsort_gather_level(BucketIndex(ps, cell), centers, radius, max_k))
        _assert_same(got, brute_force_gather(ps, centers, radius, max_k))

    def test_sphere_and_cell_boundary_points(self):
        # grid point and neighbours on exact multiples of r = cell: every
        # axis neighbour lies on the sphere and on a cell boundary
        r = 0.5
        coords = np.array([[0.0, 0.0, 0.0], [r, 0, 0], [-r, 0, 0], [0, r, 0],
                           [0, -r, 0], [0, 0, r], [0, 0, -r], [r, r, 0]]) - 2 * r
        ps = PointSet(coords, np.zeros((len(coords), 1)))
        centers = np.full((1, 1, 3), -2 * r)
        row, ids, dist = gather_level(ps, centers, r, 10)
        np.testing.assert_array_equal(ids, [0, 1, 2, 3, 4, 5, 6])
        np.testing.assert_array_equal(dist, [0.0] + [r] * 6)
        _assert_same((row, ids, dist),
                     lexsort_gather_level(BucketIndex(ps, r), centers, r, 10))

    def test_packed_key_refuses_sizes_that_wrap(self):
        parts = (np.array([0, 1]), np.array([2, 0]), np.array([1, 3]))
        np.testing.assert_array_equal(_packed_key(parts, (2, 3, 4)),
                                      np.ravel_multi_index(parts, (2, 3, 4)))
        top = tuple(np.array([n - 1]) for n in (2, 2**31, 2**31))
        assert _packed_key(top, (2, 2**31, 2**31))[0] == np.iinfo(np.int64).max
        with pytest.raises(ValueError, match="2 x 2147483649 x 2147483648 values"):
            _packed_key(parts, (2, 2**31 + 1, 2**31))
        with pytest.raises(ValueError, match="does not fit in int64"):
            _packed_key(parts, (2, np.inf, 4.0))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([-np.inf, -1e12, -3.0]),
           st.sampled_from([np.inf, 1e12, 4.0]), st.sampled_from([0.3, 1.0, 2.5]))
    @settings(max_examples=60, deadline=None)
    def test_huge_and_infinite_boxes_match_brute_force(self, seed, lo, hi, cell):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 200))
        ps = PointSet(rng.uniform(-10, 10, size=(n, 3)), np.zeros((n, 1)))
        idx = build_index(ps, cell)
        lo3 = np.array([lo, rng.uniform(-12, 0), lo])
        hi3 = np.array([hi, hi, rng.uniform(0, 12)])
        got = idx.region_ids(lo3, hi3)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, brute_force_region(ps, cell, lo3, hi3))
        np.testing.assert_array_equal(got, BucketIndex(ps, cell).region_ids(lo3, hi3))
        center = rng.uniform(-15, 15, 3)
        for r in (1e4, 1e300):
            ids, d = idx.query(center, r, 64)
            np.testing.assert_array_equal(ids, brute_force_query(ps, center, r, 64))


@pytest.fixture
def passes(monkeypatch):
    """The passes of gather_level's core: per call, its radii, the rows its
    columns belong to and its candidate count."""
    calls = []
    core = spatial._gather_pairs

    def spy(grid, at, r, col_row, starts, counts):
        calls.append(SimpleNamespace(r=r.copy(), rows=np.unique(col_row),
                                     candidates=int(counts.sum())))
        return core(grid, at, r, col_row, starts, counts)

    monkeypatch.setattr(spatial, "_gather_pairs", spy)
    return calls


def _one_row_scene(n_inside, rim):
    """One grid point at the origin with a gather radius of 1 and a cap of 16.

    Its box holds 400 points in the corners beyond the ball, so the first
    pass fires; ``n_inside`` points lie within 0.1 of the grid point, six on
    the axes at distance ``rim`` and five at distance 0.8. Ids interleave the
    groups so that ties at ``rim`` are broken by id across them.
    """
    rng = np.random.default_rng(7)
    corners = rng.uniform(0.75, 1.0, size=(400, 3)) * rng.choice([-1.0, 1.0], size=(400, 3))
    inside = rng.uniform(-0.1, 0.1, size=(n_inside, 3)) / np.sqrt(3)
    axes = np.concatenate([np.eye(3), -np.eye(3)])[::-1] * rim
    beyond = rng.normal(size=(5, 3))
    beyond *= 0.8 / np.linalg.norm(beyond, axis=1, keepdims=True)
    coords = np.concatenate([corners[:200], axes[:3], inside, axes[3:], beyond, corners[200:]])
    return PointSet(coords, np.zeros((len(coords), 1))), np.zeros((1, 1, 3))


class TestTwoPassGather:
    """Rows that fill their cap in a smaller first ball, against the oracle."""

    @pytest.mark.parametrize("max_k", [1, 4, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_clusters_take_the_first_pass(self, passes, seed, max_k):
        rng = np.random.default_rng(seed)
        blobs = rng.uniform(-3, 3, size=(6, 3))
        coords = np.concatenate([b + rng.normal(scale=0.4, size=(400, 3)) for b in blobs]
                                + [rng.uniform(-4, 4, size=(300, 3))])
        ps = PointSet(coords, np.zeros((len(coords), 1)))
        # six RoIs on the clusters, two in the clutter, each with its own radius
        centers = np.concatenate([blobs[:, None] + rng.uniform(-0.5, 0.5, size=(6, 8, 3)),
                                  rng.uniform(-4, 4, size=(2, 8, 3))])
        radius = rng.uniform(0.5, 1.5, size=8)
        got = gather_level(ps, centers, radius, max_k)
        first, rest = passes
        assert first.r.size >= 8
        assert rest.rows.size < 64     # some rows were final after the first pass
        _assert_same(got, lexsort_gather_level(BucketIndex(ps, 1.0), centers, radius, max_k))
        _assert_same(got, brute_force_gather(ps, centers, radius, max_k))

    def _first_radius(self, passes, n_inside):
        """The first ball's radius of _one_row_scene's grid point."""
        ps, centers = _one_row_scene(n_inside, 0.3)
        gather_level(ps, centers, 1.0, 16)
        r1 = passes[0].r[0]
        passes.clear()
        assert 0.1 < r1 < 0.8
        return r1

    def test_cap_filled_by_ties_on_the_first_ball(self, passes):
        # 13 points inside the first ball and six on its sphere: the cap
        # keeps the three lowest ids of the six, and the row is final
        r1 = self._first_radius(passes, 13)
        ps, centers = _one_row_scene(13, r1)
        row, ids, dist = got = gather_level(ps, centers, 1.0, 16)
        first, rest = passes
        assert first.r[0] == r1 and rest.rows.size == 0
        assert np.count_nonzero(dist == r1) == 3
        _assert_same(got, lexsort_gather_level(BucketIndex(ps, 1.0), centers, 1.0, 16))
        _assert_same(got, brute_force_gather(ps, centers, [1.0], 16))

    def test_row_short_of_the_cap_falls_back_to_its_radius(self, passes):
        # 9 inside and six on the sphere of the first ball make 15 < 16, so
        # the row is gathered again at 1 and takes one point at 0.8
        r1 = self._first_radius(passes, 9)
        ps, centers = _one_row_scene(9, r1)
        row, ids, dist = got = gather_level(ps, centers, 1.0, 16)
        first, rest = passes
        assert first.r[0] == r1 and rest.rows.tolist() == [0]
        assert np.count_nonzero(dist == r1) == 6 and dist[-1] > r1
        _assert_same(got, lexsort_gather_level(BucketIndex(ps, 1.0), centers, 1.0, 16))
        _assert_same(got, brute_force_gather(ps, centers, [1.0], 16))

    @pytest.mark.parametrize("max_k", [1, 4])
    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_one_point_sets(self, passes, n, max_k):
        ps = PointSet(np.full((n, 3), 0.25), np.zeros((n, 1)))
        centers = np.array([[[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]])
        got = gather_level(ps, centers, 0.5, max_k)
        assert len(passes) == n
        _assert_same(got, lexsort_gather_level(BucketIndex(ps, 0.5), centers, 0.5, max_k))

    def test_sqrt_of_summed_squares_is_the_norm(self):
        # the core's distances against np.linalg.norm, row by row, bitwise,
        # where squares round, underflow to subnormals or zero, or overflow
        rng = np.random.default_rng(11)
        offsets = np.concatenate([
            rng.normal(size=(300, 3)),
            -rng.uniform(0, 5, size=(50, 3)),
            np.zeros((3, 3)),
            rng.normal(size=(50, 3)) * 1e-160,
            rng.normal(size=(50, 3)) * 1e154,
            rng.normal(size=(100, 3)) * 10.0 ** rng.integers(-170, 170, size=(100, 3)),
            [[1e200, 0.0, 0.0], [0.0, -1e-300, 5e-324], [3.0, -4.0, 0.0]]])
        ps = PointSet(offsets, np.zeros((len(offsets), 1)))
        grid = SpatialIndex(ps, 1e300)
        at = np.array([[0.0, 0.0, 0.0], [0.25, -3.0, 7.5]]).T
        bounds = np.stack([np.full((3, 2), -np.inf), np.full((3, 2), np.inf)])
        with np.errstate(over="ignore"):
            row, ids, dist = spatial._gather_pairs(grid, at, np.full(2, np.inf),
                                                   *grid._columns(bounds)[:3])
            norm = np.linalg.norm(ps.coords[ids] - at.T[row], axis=1)
        assert np.array_equal(np.bincount(row), [len(ps)] * 2)
        assert norm.dtype == dist.dtype
        np.testing.assert_array_equal(dist, norm)
        assert np.isinf(dist).any() and (dist == 0).any() and (dist[dist > 0] < 1e-150).any()

    def _level_gathers(self, passes, scene):
        """Per level of the default pyramid: its rows, the gather of the
        scene's proposals at r_pre and the passes of that gather."""
        out = []
        for lv in HeadConfig().pyramid.levels:
            centers = np.stack([pyramid_grid_points(roi, lv) for roi in scene.proposals])
            passes.clear()
            got = gather_level(scene.ps, centers, lv.r_pre, lv.max_neighbors)
            out.append((centers.shape[0] * centers.shape[1], got, list(passes)))
        return out

    def test_dense_scene_tests_fewer_candidates(self, passes, monkeypatch):
        scene = generate_scene(SceneConfig(seed=0, clutter_density=1.0, n_objects=4), 0)
        two = self._level_gathers(passes, scene)
        monkeypatch.setattr(spatial, "_FIRST_FILL", np.inf)
        one = self._level_gathers(passes, scene)
        assert all(len(p) == 1 for _, _, p in one)
        assert any(len(p) == 2 for _, _, p in two)
        tested = [sum(q.candidates for q in p) for _, _, p in two + one]
        assert sum(tested[:len(two)]) <= 0.8 * sum(tested[len(two):])
        for (_, a, _), (_, b, _) in zip(two, one):
            _assert_same(a, b)

    def test_sparse_scenes_mostly_take_one_pass(self, passes):
        rows = first = 0
        for i in range(5):
            for n_rows, _, p in self._level_gathers(passes, generate_scene(SceneConfig(), i)):
                rows += n_rows
                first += p[0].r.size if len(p) == 2 else 0
        assert first <= 0.1 * rows


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
        ps, _ = self.scene()
        centers = np.array([[[5.0, 5.0, 5.0], [-3e3, 40.0, 7.0]]])
        started = time.perf_counter()
        rows = _gather_rows(ps, centers, 1e4, 64)
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
