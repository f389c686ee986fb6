"""Point-of-interest storage and exact radius-bounded neighbor queries.

The index is a sorted-cell grid: point ids sorted by the key of their
cell, so the points of every cell are one run of the sorted ids, found with
``np.searchsorted``. A box lookup takes one such run per occupied (x, y)
column it overlaps, so its cost is bounded by the data however large the
box. ``SpatialIndex.query`` takes one ball's candidates from its box.
``gather_level`` (the capped balls of a pyramid level) bins a point set
at a cell as wide as the largest radius of its call and takes each grid
point's candidates from the cells around it, not from its RoI's whole box.
It gathers in two passes over that binning: grid points whose cells hold
many more points than the cap first search a smaller ball, sized from that
count, and are done if it fills the cap; the rest search their full ball.
Both filter by exact distance, so results are identical to a brute-force scan.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PSET_MAGIC = b"PSET"
# Largest coordinate magnitude of a loaded point or of any query centre:
# squared offsets between such points sum to at most (2e150)^2 * 3 ~ 1.2e301.
MAX_COORD = 1e150


@dataclass
class PointSet:
    """Coordinates [n,3] and per-point feature vectors [n,d]."""

    coords: np.ndarray
    feats: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64).reshape(-1, 3)
        self.feats = np.asarray(self.feats, dtype=np.float64)
        if self.feats.ndim != 2 or self.feats.shape[0] != self.coords.shape[0]:
            raise ValueError(
                f"coords/feats row mismatch: {self.coords.shape} vs {self.feats.shape}")
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("point coordinates must be finite")
        if not np.all(np.isfinite(self.feats)):
            raise ValueError("point features must be finite")

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def feat_width(self) -> int:
        return self.feats.shape[1]

    # -- persistence -----------------------------------------------------
    @classmethod
    def load(cls, path) -> "PointSet":
        """A PSET file (magic, u32 n, u32 d, f32 coords, f32 features), or a
        ``from_json`` one if the name ends in .json; a malformed file, or a
        coordinate of magnitude above MAX_COORD, raises ValueError naming
        the path."""
        path = Path(path)
        try:
            if path.suffix == ".json":
                ps = cls.from_json(path.read_text())
            else:
                raw = path.read_bytes()
                if raw[:4] != PSET_MAGIC:
                    raise ValueError("not a PSET file")
                if len(raw) < 12:
                    raise ValueError(f"PSET header needs 12 bytes, file has {len(raw)}")
                n, d = struct.unpack("<II", raw[4:12])
                expected = 12 + 4 * n * (3 + d)
                if len(raw) != expected:
                    raise ValueError(f"PSET with {n} points of width {d} needs "
                                     f"{expected} bytes, file has {len(raw)}")
                coords = np.frombuffer(raw, dtype="<f4", count=n * 3, offset=12)
                feats = np.frombuffer(raw, dtype="<f4", count=n * d, offset=12 + n * 3 * 4)
                ps = cls(coords.reshape(n, 3).astype(np.float64),
                         feats.reshape(n, d).astype(np.float64))
            if not np.all(np.abs(ps.coords) <= MAX_COORD):
                raise ValueError(f"coordinates must be at most {MAX_COORD:g} in magnitude")
            return ps
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "PointSet":
        """Point set from a JSON object; a missing field, a ``coords`` that is
        not a list of 3-vectors, a ``feats`` whose rows differ in length or
        an entry of either that is not a number (a boolean or a string)
        raises ValueError naming the field."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("point set must be a JSON object with coords and feats")
        for name in ("coords", "feats"):
            if name not in doc:
                raise ValueError(f"point set field {name!r} is missing")
        coords = np.asarray(doc["coords"], dtype=object)
        if coords.size and (coords.ndim != 2 or coords.shape[1] != 3):
            raise ValueError("point set field 'coords' must be a list of 3-vectors")
        feats = np.asarray(doc["feats"], dtype=object)
        if feats.size and feats.ndim != 2:
            raise ValueError("point set field 'feats' must be a list of equal-length vectors")
        for name, entries in (("coords", coords), ("feats", feats)):
            bad = [v for v in entries.flat if type(v) not in (int, float)]
            if bad:
                raise ValueError(f"point set field {name!r} must hold numbers only, "
                                 f"got {bad[0]!r}")
        coords = coords.astype(np.float64).reshape(-1, 3)
        feats = feats.astype(np.float64)
        if feats.size == 0:
            feats = feats.reshape(len(coords), -1) if len(coords) else feats.reshape(0, 0)
        return cls(coords, feats)


class SpatialIndex:
    """Immutable sorted-cell grid over a PointSet.

    Ids are sorted by the linearised key ``(x * ny + y) * nz + z`` of their
    cell, counted from the lowest occupied cell of each axis. So each cell,
    and the z run of each (x, y) column, is one run of the sorted ids.
    """

    def __init__(self, ps: PointSet, cell: float):
        if not cell > 0:
            raise ValueError(f"cell size must be positive, got {cell}")
        self.ps = ps
        self.cell = float(cell)
        # one row per axis: reductions along a row are contiguous
        cells = np.floor(np.ascontiguousarray(ps.coords.T) / self.cell)
        self._origin = cells.min(axis=1) if len(ps) else np.zeros(3)
        self._shape = cells.max(axis=1) - self._origin + 1 if len(ps) else np.zeros(3)
        key = _packed_key(tuple(cells - self._origin[:, None]), self._shape)
        self._order = np.argsort(key)
        self._keys = key[self._order]

    def query(self, center, r: float, max_k: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids and distances of points with ||p - center|| <= r (closed ball).

        Sorted by (distance, id); if more than max_k qualify only the
        nearest max_k are kept.
        """
        center = _checked_ball(np.reshape(center, 3), r, max_k)[0]
        cand = self.region_ids(*_ball_boxes(center, r))
        d = np.linalg.norm(self.ps.coords[cand] - center, axis=1)
        keep = d <= r
        cand, d = cand[keep], d[keep]
        order = np.lexsort((cand, d))[:max_k]
        return cand[order], d[order]

    def region_ids(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Ascending ids of all points in cells overlapping the box [lo, hi]."""
        _, starts, counts, _ = self._columns(np.array([lo, hi], dtype=np.float64)[..., None])
        return np.sort(self._order[_runs(starts, counts)])

    def balls(self, centers, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, ids, dist) of the points within r of each of the [m, 3]
        centers: closed uncapped balls, rows ascending, at the distances
        ``gather_level`` computes."""
        at, r = _checked_ball(np.reshape(centers, (-1, 3)), r)
        at = np.ascontiguousarray(at.T)
        r = np.full(at.shape[1], float(r))
        return _gather_pairs(self, at, r, *self._columns(_ball_boxes(at, r))[:3])

    def _columns(self, bounds: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(box, start, count) of the sorted-id run of each (x, y) column
        whose cells overlap box b, from ``bounds[0, :, b]`` to ``bounds[1, :, b]``,
        and the number of cells each box spans.

        Columns come box by box and are clamped to the occupied cells, so
        infinite bounds are fine; each costs two ``searchsorted`` lookups.
        """
        # cell offsets of the first and one past the last cell per axis;
        # fmax/fmin map a NaN bound to an empty range
        ends = np.floor(bounds / self.cell) - self._origin[:, None]
        ends[1] += 1
        ends = np.fmin(np.fmax(ends, 0), self._shape[:, None])
        x0, y0, z0 = ends[0].astype(np.int64)
        nx, ny, nz = np.fmax(ends[1] - ends[0], 0).astype(np.int64)
        n_cols = nx * ny
        box = np.repeat(np.arange(n_cols.size), n_cols)
        j = _runs(np.zeros_like(n_cols), n_cols)
        x, y = x0[box] + j // ny[box], y0[box] + j % ny[box]
        _, size_y, size_z = self._shape.astype(np.int64)
        col_key = (x * size_y + y) * size_z + z0[box]
        starts = np.searchsorted(self._keys, col_key)
        counts = np.searchsorted(self._keys, col_key + nz[box]) - starts
        return box, starts, counts, n_cols * nz


# Relative widening of a ball's box before the cell lookup: the rounded norm
# that decides membership may admit a point just beyond the exact box.
_BOX_PAD = 1.0 + 1e-9


def _checked_ball(centers, radius, max_k=np.inf) -> tuple[np.ndarray, np.ndarray]:
    """``centers`` [..., 3] and ``radius`` (one or an array) as float64, under the
    rules of every ball: a cap ``max_k`` (none by default) of at least 1, centres
    at most MAX_COORD in magnitude, radii positive and finite. A ValueError names
    the first value that breaks one."""
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    at = np.asarray(centers, dtype=np.float64)
    bad = ~np.all(np.abs(at) <= MAX_COORD, axis=-1)
    if bad.any():
        raise ValueError(f"query centre must be finite and at most {MAX_COORD:g} "
                         f"in magnitude, got {at[bad][0].tolist()}")
    r = np.asarray(radius, dtype=np.float64)
    bad = ~((0 < r) & (r < np.inf))
    if bad.any():
        raise ValueError(f"radius must be positive and finite, got {r[bad][0]}")
    return at, r


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + counts[i]) laid end to end."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


def _packed_key(parts: tuple[np.ndarray, ...], sizes) -> np.ndarray:
    """Row-major int64 key of index tuples with ``0 <= parts[i] < sizes[i]``.

    Raises ValueError, naming the sizes, before the int64 cast if it could wrap.
    """
    if not all(map(math.isfinite, sizes)) or math.prod(map(int, sizes)) > 2**63:
        raise ValueError(f"a sort key over {' x '.join(f'{n:.3g}' for n in sizes)} "
                         "values does not fit in int64")
    key = parts[0].astype(np.int64, copy=False)
    for part, n in zip(parts[1:], sizes[1:]):
        key = key * int(n) + part.astype(np.int64, copy=False)
    return key


def build_index(ps: PointSet, cell: float) -> SpatialIndex:
    return SpatialIndex(ps, cell)


def gather_level(ps: PointSet, centers, radius, max_k: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Capped radius gather for the grid points of many RoIs at once.

    ``centers`` is [R, c, 3] (c grid points for each of R RoIs) and
    ``radius`` one radius per RoI, or a scalar for all. Row ``i*c + j`` is
    grid point j of RoI i. Returns flat (row, ids, dist) arrays sorted by
    row, then distance, then id, keeping the nearest ``max_k`` ids of each
    row; rows without a neighbor do not appear. Distances are bitwise the
    norms that ``SpatialIndex.query`` computes, so boundary decisions agree.

    The points of ``ps`` are binned at a cell as wide as the largest radius,
    so each grid point takes its candidates from the 3 (rarely 4) cells per
    axis that its ball's box overlaps. A row whose box holds many more
    candidates than the cap is gathered first in a smaller ball, sized from
    its candidate count to hold a little more than ``max_k`` points. If that
    ball fills the cap, every point outside it is farther than the row's
    ``max_k``-th neighbour, so its nearest ``max_k`` by (distance, id) are
    final. All other rows are gathered at their full radius, both passes
    from the one binning.
    """
    centers, radius = _checked_ball(centers, radius, max_k)
    if centers.ndim != 3 or centers.shape[2] != 3:
        raise ValueError(f"centers must be [R, c, 3], got shape {centers.shape}")
    n_rois, count = centers.shape[:2]
    if radius.ndim and radius.shape != (n_rois,):
        raise ValueError(f"radius must be a scalar or one value per RoI, got shape "
                         f"{radius.shape} for centers of shape {centers.shape}")
    radius = np.broadcast_to(radius, (n_rois,))
    flat = centers.reshape(-1, 3)
    if len(ps) == 0 or len(flat) == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64), np.empty(0)
    grid = SpatialIndex(ps, float(radius.max()))
    r = np.repeat(radius, count)
    at = np.ascontiguousarray(flat.T)
    col_row, starts, counts, cells = grid._columns(_ball_boxes(at, r))
    # points expected in a ball: its box's candidates times the share of the
    # box that the ball fills
    cand = np.bincount(col_row, weights=counts, minlength=r.size)
    expected = cand * np.fmin(4 / 3 * np.pi * (r / grid.cell) ** 3 / np.fmax(cells, 1), 1.0)
    dense = np.flatnonzero(expected > _FIRST_FILL * max_k / _FIRST_SHRINK ** 3)
    parts = []
    if dense.size:
        r1 = r[dense] * np.cbrt(_FIRST_FILL * max_k / expected[dense])
        at1 = at[:, dense]
        row, ids, dist = _gather_pairs(grid, at1, r1, *grid._columns(_ball_boxes(at1, r1))[:3])
        full = np.bincount(row, minlength=dense.size) >= max_k
        keep = full[row]
        parts.append((dense[row[keep]], ids[keep], dist[keep]))
        final = np.zeros(r.size, dtype=bool)
        final[dense[full]] = True
        rest = ~final[col_row]
        col_row, starts, counts = col_row[rest], starts[rest], counts[rest]
    parts.append(_gather_pairs(grid, at, r, col_row, starts, counts))
    row, ids, dist = map(np.concatenate, zip(*parts))
    # one argsort of a packed (row, distance rank, id) key lays the rows out
    # as blocks, and the first max_k pairs of each block are kept
    values, dist_rank = np.unique(dist, return_inverse=True)
    order = np.argsort(_packed_key((row, dist_rank, ids), (r.size, values.size, len(ps))))
    per_row = np.bincount(row, minlength=r.size)
    kept = np.minimum(per_row, max_k)
    order = order[_runs(np.cumsum(per_row) - per_row, kept)]
    return np.repeat(np.arange(r.size), kept), ids[order], dist[order]


# A row's first ball is sized to hold _FIRST_FILL points per cap slot, and a
# row takes it only where its radius is below _FIRST_SHRINK of the full one.
# Over the gathers of 10 dense and 40 sparse benchmark scenes (seeds 81 and
# 2002), 1.25 and 0.75 cut the dense scenes' distance-tested candidates to
# 0.76-0.77 of one pass and left the sparse ones' at 1.00-1.01; a fill of 1.5
# with 0.9 tested 0.75-0.76 and 1.01-1.04, a fill of 2 tested 0.86-0.87.
_FIRST_FILL = 1.25
_FIRST_SHRINK = 0.75


def _ball_boxes(at: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``_columns`` bounds of the boxes of balls of radius r around ``at`` [3, ...]."""
    return np.stack([at - r * _BOX_PAD, at + r * _BOX_PAD])


def _gather_pairs(grid: SpatialIndex, at: np.ndarray, r: np.ndarray, col_row: np.ndarray,
                  starts: np.ndarray, counts: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, ids, dist) of each point in the given columns of ``grid`` that
    lies within ``r[row]`` of ``at[:, row]``; rows come as the columns do.

    Squared distances are summed in place as ``(x*x + y*y) + z*z``, the sum
    that ``np.linalg.norm`` takes the square root of, so ``np.sqrt`` of them
    equals ``query``'s distances bitwise. They pick a slight superset of the
    ball, and the distance then decides membership.
    """
    pos = _runs(starts, counts)
    rows = np.repeat(col_row, counts)
    by_key = np.ascontiguousarray(grid.ps.coords[grid._order].T)
    d2, off = np.zeros(pos.size), np.empty(pos.size)
    for a in range(3):
        np.take(at[a], rows, out=off)
        off -= by_key[a][pos]
        off *= off
        d2 += off
    # a radius too large to square without overflow admits every candidate
    bound = np.where(r < 1e150, np.square(np.fmin(r, 1e150)) * (1.0 + 1e-9), np.inf)
    np.take(bound, rows, out=off)
    near = np.flatnonzero(d2 <= off)
    dist = np.sqrt(d2[near])
    row = rows[near]
    inside = dist <= r[row]
    return row[inside], grid._order[pos[near[inside]]], dist[inside]
