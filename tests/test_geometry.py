"""Grid generation against a brute-force oracle, plus pyramid bookkeeping."""
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import grid_points
from pyrhead.geometry import (GRID_REACH, Box3D, GridSpec, PyramidConfig,
                              PyramidLevelConfig, _lattice, default_pyramid_config,
                              pyramid_grid_points, pyramid_point_count,
                              wrap_angle)


def oracle_grid(corner, extents, sizes, ratios=(1, 1, 1), yaw=0.0,
                anchor="corner"):
    """Independent nested-loop lattice plus an explicit rotation matrix."""
    corner = np.asarray(corner, float)
    extents = np.asarray(extents, float)
    center = corner + extents / 2.0
    if anchor == "corner":
        base = corner
    else:
        base = center - 0.5 * np.asarray(ratios) * extents
    pts = []
    for i in range(sizes[0]):
        for j in range(sizes[1]):
            for k in range(sizes[2]):
                p = [
                    ratios[0] * extents[0] / sizes[0] * (0.5 + i) + base[0],
                    ratios[1] * extents[1] / sizes[1] * (0.5 + j) + base[1],
                    ratios[2] * extents[2] / sizes[2] * (0.5 + k) + base[2],
                ]
                pts.append(p)
    pts = np.asarray(pts)
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    return (pts - center) @ rot.T + center


def unit_level_points(box, grid):
    return pyramid_grid_points(box, PyramidLevelConfig(grid))


class TestGridPoints:
    def test_unit_example(self):
        pts = unit_level_points(Box3D([0, 0, 0], [2, 2, 2]), GridSpec((2, 2, 2)))
        expected = {(a, b, c) for a in (0.5, 1.5) for b in (0.5, 1.5)
                    for c in (0.5, 1.5)}
        assert {tuple(p) for p in pts} == expected

    def test_single_cell_is_center(self):
        box = Box3D([1, -2, 0.5], [3, 5, 2], 0.0)
        pts = unit_level_points(box, GridSpec((1, 1, 1)))
        np.testing.assert_allclose(pts[0], box.center, atol=1e-15)

    def test_rotated_against_oracle(self):
        got = unit_level_points(Box3D([1, -1, 0], [4, 2, 1], 0.3), GridSpec((4, 2, 1)))
        want = oracle_grid([1, -1, 0], [4, 2, 1], (4, 2, 1), yaw=0.3)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_points_strictly_inside_with_face_margin(self):
        box = Box3D([0, 0, 0], [2, 4, 6], 0.0)
        grid = GridSpec((2, 4, 3))
        pts = unit_level_points(box, grid)
        lo, hi = box.corner, box.corner + box.extents
        assert np.all(pts > lo) and np.all(pts < hi)
        half_cell = box.extents / np.array(grid.sizes) / 2.0
        for axis in range(3):
            margin = min(pts[:, axis].min() - lo[axis],
                         hi[axis] - pts[:, axis].max())
            assert abs(margin - half_cell[axis]) < 1e-12

    def test_rotation_preserves_pairwise_distances(self):
        box0 = Box3D([0, 1, 2], [2, 3, 1], 0.0)
        box1 = Box3D([0, 1, 2], [2, 3, 1], 1.1)
        a = unit_level_points(box0, GridSpec((3, 3, 2)))
        b = unit_level_points(box1, GridSpec((3, 3, 2)))
        da = np.linalg.norm(a[:, None] - a[None, :], axis=2)
        db = np.linalg.norm(b[:, None] - b[None, :], axis=2)
        assert np.max(np.abs(da - db)) < 1e-12 * max(1.0, da.max())


class TestPyramidGrid:
    def test_unit_ratio_matches_grid_points_bitwise(self):
        box = Box3D([0.3, -1.2, 0.7], [2.5, 4.0, 1.5], 0.4)
        for anchor in ("corner", "center"):
            level = PyramidLevelConfig(GridSpec((3, 4, 2)), (1.0, 1.0, 1.0),
                                       anchor_mode=anchor)
            a = pyramid_grid_points(box, level)
            b = grid_points(box, level.grid)
            assert np.array_equal(a, b)

    def test_corner_anchor_example(self):
        level = PyramidLevelConfig(GridSpec((1, 1, 1)), (2.0, 2.0, 1.0),
                                   anchor_mode="corner")
        pts = pyramid_grid_points(Box3D([0, 0, 0], [2, 2, 2]), level)
        np.testing.assert_allclose(pts[0], [2.0, 2.0, 1.0], atol=1e-15)

    def test_center_anchor_example(self):
        level = PyramidLevelConfig(GridSpec((1, 1, 1)), (2.0, 2.0, 1.0),
                                   anchor_mode="center")
        pts = pyramid_grid_points(Box3D([0, 0, 0], [2, 2, 2]), level)
        np.testing.assert_allclose(pts[0], [1.0, 1.0, 1.0], atol=1e-15)

    def test_lattice_is_built_once_and_read_only(self):
        lattice = _lattice((3, 4, 2))
        assert lattice is _lattice((3, 4, 2))
        want = [(i, j, k) for i in range(3) for j in range(4) for k in range(2)]
        assert np.array_equal(lattice, np.array(want, dtype=np.float64))
        with pytest.raises(ValueError, match="read-only"):
            lattice[0, 0] = 1.0
        level = PyramidLevelConfig(GridSpec((3, 4, 2)), (1.5, 1.2, 1.0))
        box = Box3D([0.3, -1.2, 0.7], [2.5, 4.0, 1.5], 0.4)
        assert np.array_equal(pyramid_grid_points(box, level),
                              pyramid_grid_points(box, level))

    @pytest.mark.parametrize("anchor", ["corner", "center"])
    def test_grid_is_finite_up_to_the_reach_and_refused_beyond(self, anchor):
        level = PyramidLevelConfig(GridSpec((2, 2, 2)), (3.0, 3.0, 1.0), anchor_mode=anchor)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for sign in (1.0, -1.0):
                for yaw in (0.0, math.pi / 4, 3 * math.pi / 4):
                    box = Box3D([sign * GRID_REACH] * 3, [GRID_REACH / 3, GRID_REACH / 3,
                                                          GRID_REACH], yaw)
                    assert np.isfinite(pyramid_grid_points(box, level)).all()
            for corner, extents in (([0.0] * 3, [1e308, 1.0, 1.0]),
                                    ([-1.1 * GRID_REACH, 0.0, 0.0], [1.0] * 3)):
                near = Box3D([0.0] * 3, [1.0] * 3)
                with pytest.raises(ValueError, match=re.escape(
                        f"corner {corner} and extents {extents}, enlarged by ratios "
                        f"(3.0, 3.0, 1.0)")):
                    pyramid_grid_points([near, Box3D(corner, extents)], level)

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_random_configs_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        corner = rng.uniform(-10, 10, 3)
        extents = rng.uniform(0.5, 6.0, 3)
        sizes = tuple(int(v) for v in rng.integers(1, 5, 3))
        ratios = tuple(np.round(rng.uniform(1.0, 3.0, 3), 3))
        yaw = rng.uniform(-math.pi, math.pi - 1e-9)
        anchor = "corner" if rng.integers(2) else "center"
        level = PyramidLevelConfig(GridSpec(sizes), ratios, anchor_mode=anchor)
        got = pyramid_grid_points(Box3D(corner, extents, yaw), level)
        want = oracle_grid(corner, extents, sizes, ratios, yaw, anchor)
        assert np.max(np.abs(got - want)) < 1e-12


class TestPyramidConfig:
    def test_paper_default_count(self):
        assert pyramid_point_count(default_pyramid_config()) == 409

    def test_single_level_count(self):
        cfg = PyramidConfig([PyramidLevelConfig(GridSpec((6, 6, 6)))])
        assert pyramid_point_count(cfg) == 216

    def test_two_level_count(self):
        cfg = PyramidConfig([
            PyramidLevelConfig(GridSpec((6, 6, 6))),
            PyramidLevelConfig(GridSpec((4, 4, 4)), (2.0, 2.0, 1.0)),
        ])
        assert pyramid_point_count(cfg) == 280

    def test_bottom_level_must_be_unit_ratio(self):
        with pytest.raises(ValueError):
            PyramidConfig([PyramidLevelConfig(GridSpec((2, 2, 2)),
                                              (1.5, 1.5, 1.0))])

    def test_ratios_must_not_decrease(self):
        with pytest.raises(ValueError):
            PyramidConfig([
                PyramidLevelConfig(GridSpec((2, 2, 2))),
                PyramidLevelConfig(GridSpec((2, 2, 2)), (2.0, 2.0, 1.0)),
                PyramidLevelConfig(GridSpec((2, 2, 2)), (1.5, 1.5, 1.0)),
            ])

    def test_json_round_trip(self):
        cfg = default_pyramid_config()
        doc = json.loads(oracles.pyramid_config_json(cfg))
        assert set(doc) == {"anchor_mode", "levels"}
        assert set(doc["levels"][0]) == {"grid", "ratios", "max_neighbors",
                                         "r_pre"}
        back = PyramidConfig.from_json(oracles.pyramid_config_json(cfg))
        assert oracles.pyramid_config_json(back) == oracles.pyramid_config_json(cfg)
        assert [lv.grid.sizes for lv in back.levels] == \
               [lv.grid.sizes for lv in cfg.levels]

    def test_mixed_anchor_modes_rejected(self):
        with pytest.raises(ValueError, match=re.escape("levels[2].anchor_mode")):
            PyramidConfig([
                PyramidLevelConfig(GridSpec((2, 2, 2)), anchor_mode="center"),
                PyramidLevelConfig(GridSpec((2, 2, 2)), (2.0, 2.0, 1.0), anchor_mode="center"),
                PyramidLevelConfig(GridSpec((2, 2, 2)), (2.0, 2.0, 1.0), anchor_mode="corner"),
            ])

    @given(st.sampled_from(["center", "corner"]),
           st.lists(st.tuples(st.tuples(*[st.integers(1, 5)] * 3),
                              st.floats(1.0, 4.0), st.floats(1.0, 2.0),
                              st.integers(1, 40), st.floats(0.05, 8.0)),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_every_accepted_pyramid_round_trips(self, anchor, specs):
        rho = sorted(s[1] for s in specs)
        levels = [PyramidLevelConfig(GridSpec(g), (1.0, 1.0, 1.0) if i == 0 else (w, w, h),
                                     cap, r, anchor)
                  for i, ((g, _, h, cap, r), w) in enumerate(zip(specs, rho))]
        cfg = PyramidConfig(levels)
        assert PyramidConfig.from_json(oracles.pyramid_config_json(cfg)) == cfg

    @pytest.mark.parametrize("edit,field", [
        (lambda d: d.clear(), "'anchor_mode' is missing"),
        (lambda d: d.pop("levels"), "'levels' is missing"),
        (lambda d: d.update(extra=1), "unknown config field 'extra'"),
        (lambda d: d["levels"][1].update(typo=1), "'levels[1].typo'"),
        (lambda d: d["levels"][2].pop("r_pre"), "'levels[2].r_pre' is missing"),
        (lambda d: d["levels"][0].update(grid=[2, 2]), "'levels[0].grid'"),
        (lambda d: d["levels"][1].update(ratios=[1.0, 1.0]), "'levels[1].ratios'"),
        (lambda d: d["levels"][2].update(max_neighbors="4"), "'levels[2].max_neighbors'"),
        (lambda d: d["levels"][2].update(max_neighbors=4.0), "'levels[2].max_neighbors'"),
        (lambda d: d["levels"][3].update(r_pre="far"), "'levels[3].r_pre'"),
        (lambda d: d.update(anchor_mode=1), "'anchor_mode'"),
        (lambda d: d.update(levels={}), "'levels'"),
        (lambda d: d["levels"].__setitem__(4, [1]), "'levels[4]' must be a JSON object"),
    ], ids=["empty", "no_levels", "top_unknown", "level_unknown", "level_missing",
            "grid_len", "ratios_len", "int_str", "int_float", "float_str",
            "anchor_type", "levels_type", "level_type"])
    def test_from_json_names_bad_field(self, edit, field):
        doc = json.loads(oracles.pyramid_config_json(default_pyramid_config()))
        edit(doc)
        with pytest.raises(ValueError, match=re.escape(field)):
            PyramidConfig.from_json(json.dumps(doc))

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            PyramidConfig.from_json("[1]")


class TestBox3D:
    def test_yaw_wraps(self):
        assert Box3D([0, 0, 0], [1, 1, 1], math.pi).yaw == pytest.approx(-math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_bad_extents_raise(self):
        with pytest.raises(ValueError):
            Box3D([0, 0, 0], [1, 0, 1])

    def test_contains_respects_rotation(self):
        box = Box3D.from_center([0, 0, 0], [4, 2, 2], math.pi / 2)
        # after 90-degree yaw the long axis lies along y
        assert box.contains(np.array([[0.0, 1.9, 0.0]]))[0]
        assert not box.contains(np.array([[1.9, 0.0, 0.0]]))[0]
