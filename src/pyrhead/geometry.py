"""Oriented 3D boxes and RoI-grid generation, single level and pyramid.

Grid points are laid out on a regular lattice inside the (optionally
enlarged) box in its canonical axis-aligned frame, then rotated about the
box center by the heading angle.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import get_args, get_origin

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(yaw: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return float((yaw + math.pi) % TWO_PI - math.pi)


def rot_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass
class Box3D:
    """Oriented box: bottom-left corner of the canonical frame, extents, yaw.

    The canonical frame is the axis-aligned box [corner, corner + extents];
    yaw rotates it about its own center around the vertical axis.
    """

    corner: np.ndarray
    extents: np.ndarray
    yaw: float = 0.0

    def __post_init__(self):
        self.corner = np.asarray(self.corner, dtype=np.float64).reshape(3)
        self.extents = np.asarray(self.extents, dtype=np.float64).reshape(3)
        self.yaw = float(self.yaw)
        if not (np.isfinite(self.corner).all() and np.isfinite(self.extents).all()
                and math.isfinite(self.yaw)):
            raise ValueError(f"box corner, extents and yaw must be finite, got "
                             f"{self.corner}, {self.extents}, {self.yaw}")
        if not np.all(self.extents > 0):
            raise ValueError(f"box extents must be positive, got {self.extents}")
        self.yaw = wrap_angle(self.yaw)

    @property
    def center(self) -> np.ndarray:
        return self.corner + 0.5 * self.extents

    @classmethod
    def from_center(cls, center, extents, yaw: float = 0.0) -> "Box3D":
        center = np.asarray(center, dtype=np.float64)
        extents = np.asarray(extents, dtype=np.float64)
        return cls(center - 0.5 * extents, extents, yaw)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the oriented box (closed faces)."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        local = (pts - self.center) @ rot_z(self.yaw)  # inverse rotation
        half = 0.5 * self.extents
        return np.all(np.abs(local) <= half + 1e-12, axis=1)


@dataclass(frozen=True)
class GridSpec:
    """Number of grid points along width, length and height."""

    sizes: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if any(s < 1 for s in self.sizes):
            raise ValueError(f"grid sizes must be >= 1, got {self.sizes}")

    @property
    def count(self) -> int:
        a, b, c = self.sizes
        return a * b * c


@dataclass
class PyramidLevelConfig:
    """One pyramid level: grid, enlarging ratios, neighbor cap, base radius."""

    grid: GridSpec
    ratios: tuple[float, float, float] = (1.0, 1.0, 1.0)
    max_neighbors: int = 16
    r_pre: float = 1.6
    anchor_mode: str = "center"

    def __post_init__(self):
        self.ratios = tuple(float(r) for r in self.ratios)
        if any(r < 1.0 for r in self.ratios):
            raise ValueError(f"enlarging ratios must be >= 1, got {self.ratios}")
        if self.max_neighbors < 1:
            raise ValueError("max_neighbors must be >= 1")
        if self.r_pre <= 0:
            raise ValueError("r_pre must be positive")
        if self.anchor_mode not in ("corner", "center"):
            raise ValueError(f"unknown anchor_mode {self.anchor_mode!r}")


@dataclass
class PyramidConfig:
    """Ordered pyramid levels, bottom (ratio-1) level first."""

    levels: list[PyramidLevelConfig] = field(default_factory=list)

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a pyramid needs at least one level")
        if self.levels[0].ratios != (1.0, 1.0, 1.0):
            raise ValueError("bottom pyramid level must have ratios (1,1,1)")
        for lo, hi in zip(self.levels, self.levels[1:]):
            if hi.ratios[0] < lo.ratios[0] or hi.ratios[1] < lo.ratios[1]:
                raise ValueError("width/length ratios must not decrease with level")
        # the JSON form holds one anchor_mode for the whole pyramid
        for i, lv in enumerate(self.levels):
            if lv.anchor_mode != self.levels[0].anchor_mode:
                raise ValueError(f"levels[{i}].anchor_mode is {lv.anchor_mode!r} but "
                                 f"levels[0].anchor_mode is {self.levels[0].anchor_mode!r}; "
                                 "a pyramid has one anchor mode")

    def __len__(self) -> int:
        return len(self.levels)

    def to_json(self) -> str:
        doc = {
            "anchor_mode": self.levels[0].anchor_mode,
            "levels": [
                {
                    "grid": list(lv.grid.sizes),
                    "ratios": list(lv.ratios),
                    "max_neighbors": lv.max_neighbors,
                    "r_pre": lv.r_pre,
                }
                for lv in self.levels
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PyramidConfig":
        """Pyramid from JSON; an unknown, missing or mistyped field raises ValueError."""
        return _config_value("", cls, json.loads(text))


_LEVEL_FIELDS = {"grid": tuple[int, int, int], "ratios": tuple[float, float, float],
                "max_neighbors": int, "r_pre": float}


def _config_fields(doc, types: dict, where: str = "") -> dict:
    """The fields of JSON object ``doc``, each read by ``_config_value``.

    An unknown, missing or mistyped field raises ValueError naming it;
    ``where`` is the dotted path of ``doc`` inside the config.
    """
    if not isinstance(doc, dict):
        what = f"config field {where[:-1]!r}" if where else "config"
        raise ValueError(f"{what} must be a JSON object")
    for key in doc:
        if key not in types:
            raise ValueError(f"unknown config field {where + key!r}")
    for name in types:
        if name not in doc:
            raise ValueError(f"config field {where + name!r} is missing")
    return {name: _config_value(where + name, tp, doc[name]) for name, tp in types.items()}


def _config_value(name: str, tp, v):
    """JSON value ``v`` of config field ``name`` as type ``tp``, or ValueError.

    ``name`` is the field's dotted path, empty for a whole pyramid config.
    """
    args = get_args(tp)
    if type(None) in args:
        if v is None:
            return None
        tp, args = args[0], get_args(args[0])
    if tp is PyramidConfig:
        where = name + "." if name else ""
        doc = _config_fields(v, {"anchor_mode": str, "levels": list}, where)
        levels = []
        for i, lv in enumerate(doc["levels"]):
            f = _config_fields(lv, _LEVEL_FIELDS, f"{where}levels[{i}].")
            levels.append(PyramidLevelConfig(GridSpec(f["grid"]), f["ratios"],
                                             f["max_neighbors"], f["r_pre"],
                                             doc["anchor_mode"]))
        return PyramidConfig(levels)
    if get_origin(tp) is tuple and isinstance(v, list):
        item_types = [args[0]] * len(v) if args[-1] is Ellipsis else args
        if len(item_types) == len(v):
            return tuple(_config_value(name, t, x) for t, x in zip(item_types, v))
    if tp in (bool, str, list) and isinstance(v, tp):
        return v
    if tp is int and isinstance(v, int) and not isinstance(v, bool):
        return v
    if tp is float and isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise ValueError(f"config field {name!r}: {json.dumps(v)} is not a valid "
                     f"{tp if get_origin(tp) else tp.__name__}")


def default_pyramid_config() -> PyramidConfig:
    """Five levels: grids 6^3,4^3,4^3,4^3,1 with growing width/length ratios."""
    grids = [(6, 6, 6), (4, 4, 4), (4, 4, 4), (4, 4, 4), (1, 1, 1)]
    ratios_wl = [1.0, 1.0, 1.5, 2.0, 4.0]
    caps = [8, 16, 16, 16, 32]
    r_pre = [0.8, 1.6, 2.4, 3.2, 6.4]
    levels = [
        PyramidLevelConfig(
            grid=GridSpec(g),
            ratios=(rho, rho, 1.0),
            max_neighbors=cap,
            r_pre=r,
        )
        for g, rho, cap, r in zip(grids, ratios_wl, caps, r_pre)
    ]
    return PyramidConfig(levels)


def _lattice(sizes: tuple[int, int, int]) -> np.ndarray:
    """Integer (i,j,k) triples in lexicographic order, shape [N,3]."""
    nw, nl, nh = sizes
    idx = np.stack(
        np.meshgrid(np.arange(nw), np.arange(nl), np.arange(nh), indexing="ij"),
        axis=-1,
    )
    return idx.reshape(-1, 3).astype(np.float64)


def pyramid_grid_points(boxes, level: PyramidLevelConfig) -> np.ndarray:
    """Grid of one pyramid level, each box enlarged by the level's ratios.

    One box gives [c, 3], a sequence of R boxes [R*c, 3], box by box.
    anchor_mode "corner" keeps the original bottom-left corner so the grid
    grows away from it; "center" recenters the enlarged grid on the box.
    """
    boxes = [boxes] if isinstance(boxes, Box3D) else boxes
    corner = np.array([b.corner for b in boxes]).reshape(-1, 1, 3)
    extents = np.array([b.extents for b in boxes]).reshape(-1, 1, 3)
    center = corner + 0.5 * extents
    rho = np.array(level.ratios, dtype=np.float64)
    step = rho * extents / np.array(level.grid.sizes, dtype=np.float64)
    if level.anchor_mode == "corner" or level.ratios == (1.0, 1.0, 1.0):
        # a unit-ratio centered grid coincides with the corner-anchored one;
        # using the corner keeps the degenerate case bitwise identical
        anchor = corner
    else:
        anchor = center - 0.5 * rho * extents
    pts = step * (_lattice(level.grid.sizes) + 0.5) + anchor
    # p @ rot_z(yaw).T about each center; the .T view keeps one box's product bitwise
    rot = np.array([rot_z(b.yaw) for b in boxes]).reshape(-1, 3, 3)
    return (np.matmul(pts - center, rot.transpose(0, 2, 1)) + center).reshape(-1, 3)


def to_box_frames(offsets: np.ndarray, yaw: np.ndarray, box_of: np.ndarray) -> np.ndarray:
    """Offsets [N, 3] in the canonical frames of boxes with headings ``yaw``
    [R]: ``offsets[i] @ rot_z(yaw[box_of[i]])`` up to rounding."""
    c, s = np.cos(yaw)[box_of], np.sin(yaw)[box_of]
    x, y = offsets[:, 0], offsets[:, 1]
    return np.stack([x * c + y * s, y * c - x * s, offsets[:, 2]], axis=1)


def pyramid_point_count(cfg: PyramidConfig) -> int:
    return sum(lv.grid.count for lv in cfg.levels)
