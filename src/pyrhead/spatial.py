"""Point-of-interest storage and exact radius-bounded neighbor queries.

The index is a uniform hash grid: points are bucketed by integer cell.
``SpatialIndex.region_ids`` is the one cell scan: it visits the cells that
overlap a box, clamped to the range of occupied cells, so its cost is
bounded by the data however large the box. ``SpatialIndex.query`` (one
ball) and ``gather_level`` (the capped balls of a pyramid level) take their
candidates from it and filter by exact Euclidean distance, so results are
identical to a brute-force scan.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PSET_MAGIC = b"PSET"


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

    @classmethod
    def empty(cls, feat_width: int) -> "PointSet":
        return cls(np.zeros((0, 3)), np.zeros((0, feat_width)))

    # -- persistence -----------------------------------------------------
    def save(self, path) -> None:
        """Binary form: magic, u32 n, u32 d, f32 coords, f32 features."""
        n, d = len(self), self.feat_width
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sII", PSET_MAGIC, n, d))
            fh.write(self.coords.astype("<f4").tobytes())
            fh.write(self.feats.astype("<f4").tobytes())

    @classmethod
    def load(cls, path) -> "PointSet":
        raw = Path(path).read_bytes()
        if raw[:4] != PSET_MAGIC:
            raise ValueError(f"{path}: not a PSET file")
        if len(raw) < 12:
            raise ValueError(f"{path}: PSET header needs 12 bytes, file has {len(raw)}")
        n, d = struct.unpack("<II", raw[4:12])
        expected = 12 + 4 * n * (3 + d)
        if len(raw) != expected:
            raise ValueError(f"{path}: PSET with {n} points of width {d} needs "
                             f"{expected} bytes, file has {len(raw)}")
        off = 12
        coords = np.frombuffer(raw, dtype="<f4", count=n * 3, offset=off)
        off += n * 3 * 4
        feats = np.frombuffer(raw, dtype="<f4", count=n * d, offset=off)
        try:
            return cls(coords.reshape(n, 3).astype(np.float64),
                       feats.reshape(n, d).astype(np.float64))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def to_json(self) -> str:
        return json.dumps({"coords": self.coords.tolist(),
                           "feats": self.feats.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "PointSet":
        doc = json.loads(text)
        coords = np.asarray(doc["coords"], dtype=np.float64).reshape(-1, 3)
        feats = np.asarray(doc["feats"], dtype=np.float64)
        if feats.size == 0:
            feats = feats.reshape(len(coords), -1) if len(coords) else feats.reshape(0, 0)
        return cls(coords, feats)


class SpatialIndex:
    """Immutable uniform hash grid over a PointSet."""

    def __init__(self, ps: PointSet, cell: float):
        if cell <= 0:
            raise ValueError("cell size must be positive")
        self.ps = ps
        self.cell = float(cell)
        self._buckets: dict[tuple[int, int, int], np.ndarray] = {}
        n = len(ps)
        if n == 0:
            return
        keys = np.floor(ps.coords / self.cell).astype(np.int64)
        order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
        sk = keys[order]
        change = np.nonzero(np.any(sk[1:] != sk[:-1], axis=1))[0] + 1
        starts = np.concatenate(([0], change, [n]))
        for a, b in zip(starts[:-1], starts[1:]):
            self._buckets[tuple(sk[a])] = np.sort(order[a:b])
        # occupied cell-key bounds: no cell scan ever leaves them
        self._key_lo, self._key_hi = sk.min(axis=0), sk.max(axis=0)

    def query(self, center, r: float, max_k: int | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """Ids and distances of points with ||p - center|| <= r (closed ball).

        Sorted by (distance, id); if more than max_k qualify only the
        nearest max_k are kept.
        """
        if not 0 < r < np.inf:
            raise ValueError(f"query radius must be positive and finite, got {r}")
        if max_k is not None and max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        center = np.asarray(center, dtype=np.float64).reshape(3)
        cand = self.region_ids(center - r, center + r)
        if cand.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        d = np.linalg.norm(self.ps.coords[cand] - center, axis=1)
        keep = d <= r
        cand, d = cand[keep], d[keep]
        order = np.lexsort((cand, d))
        if max_k is not None and order.size > max_k:
            order = order[:max_k]
        return cand[order], d[order]

    def region_ids(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Ascending ids of all points in cells overlapping the box [lo, hi]."""
        if not self._buckets:
            return np.empty(0, dtype=np.int64)
        # clamping in float space keeps infinite bounds meaningful
        clo = np.maximum(np.floor(lo / self.cell), self._key_lo).astype(np.int64)
        chi = np.minimum(np.floor(hi / self.cell), self._key_hi).astype(np.int64)
        chunks = []
        for i in range(clo[0], chi[0] + 1):
            for j in range(clo[1], chi[1] + 1):
                for k in range(clo[2], chi[2] + 1):
                    b = self._buckets.get((i, j, k))
                    if b is not None:
                        chunks.append(b)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(chunks))


def build_index(ps: PointSet, cell: float) -> SpatialIndex:
    return SpatialIndex(ps, cell)


def gather_level(idx: SpatialIndex, centers, radius, max_k: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Capped radius gather for the grid points of many RoIs at once.

    ``centers`` is [R, c, 3] (c grid points for each of R RoIs) and
    ``radius`` one radius per RoI, or a scalar for all. Row ``i*c + j`` is
    grid point j of RoI i. Returns flat (row, ids, dist) arrays sorted by
    row, then distance, then id, keeping the nearest ``max_k`` ids of each
    row; rows without a neighbor do not appear. Distances use the same norm
    ufunc path as ``SpatialIndex.query``, so boundary decisions agree.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    centers = np.asarray(centers, dtype=np.float64)
    n_rois, count = centers.shape[:2]
    radius = np.broadcast_to(np.asarray(radius, dtype=np.float64), (n_rois,))
    if not np.all((0 < radius) & (radius < np.inf)):
        raise ValueError("gather radius must be positive and finite")
    rows, ids, dists = [], [], []
    for i, (pts, r) in enumerate(zip(centers, radius)):
        local = idx.region_ids(pts.min(axis=0) - r, pts.max(axis=0) + r)
        if local.size == 0:
            continue
        sub = idx.ps.coords[local]
        # squared distances pick a slight superset cheaply; the exact norm
        # then decides membership for the survivors only
        d2 = np.zeros((len(pts), len(sub)))
        for axis in range(3):
            diff = pts[:, axis, None] - sub[:, axis]
            d2 += diff * diff
        row, col = np.nonzero(d2 <= r * r * (1.0 + 1e-9))
        dist = np.linalg.norm(pts[row] - sub[col], axis=1)
        inside = dist <= r
        rows.append(row[inside] + i * count)
        ids.append(local[col[inside]])
        dists.append(dist[inside])
    if not rows:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64), np.empty(0)
    row, ids, dist = np.concatenate(rows), np.concatenate(ids), np.concatenate(dists)
    # ids ascend within a row (region_ids is sorted, nonzero is row-major)
    # and lexsort is stable, so equal distances stay in id order
    order = np.lexsort((dist, row))
    row, ids, dist = row[order], ids[order], dist[order]
    rank = np.arange(row.size) - np.searchsorted(row, row)
    keep = rank < max_k
    return row[keep], ids[keep], dist[keep]

