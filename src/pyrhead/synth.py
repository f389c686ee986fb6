"""Synthetic sparse scenes, sparsity statistics, and the toy training harness.

Objects are cuboid shells sampled on sensor-visible faces; per-point
features are handcrafted local-occupancy summaries so the head has fixed
width inputs without any upstream network. Proposals are ground-truth
boxes under configurable jitter. Settings with one value in use are module
constants rather than ``SceneConfig`` fields: the feature width, the index
cell, the alternating proposal jitter scales and the gradient-norm clip of
toy training.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .darp import TemperatureSchedule, temperature
from .geometry import (Box3D, PyramidConfig, default_pyramid_config,
                       pyramid_grid_points, rot_z, wrap_angle)
from .head import (HeadConfig, HeadParams, assign_label, derotated_iou,
                   init_head_params, loss, run_head)
from .spatial import PointSet, SpatialIndex, build_index, gather_level

BUCKET_EDGES = [0, 10, 50, 100, 500]
BUCKET_LABELS = ["0-10", "10-50", "50-100", "100-500", "500+"]
FEAT_WIDTH = 8      # columns of occupancy_features
INDEX_CELL = 2.4    # sorted-cell grid cell of every scene index
# alternating per-proposal noise scale: tight proposals land clearly
# above the positive-label IoU threshold, loose ones clearly below
JITTER_SCALES = (0.35, 1.6)
# global gradient-norm bound of a toy-training step (PV-RCNN's setting in
# OpenPCDet); rare spiky steps are scaled down to it, ordinary ones pass
GRAD_CLIP = 10.0


@dataclass
class SceneConfig:
    """Knobs of the synthetic scene generator."""

    extent: float = 44.0
    z_extent: float = 4.0
    n_objects: int = 2
    obj_points_min: int = 3
    obj_points_max: int = 500
    clutter_density: float = 0.02     # points per cubic meter
    surface_noise: float = 0.02       # sigma of shell jitter, meters
    center_jitter: float = 1.0
    extent_jitter: tuple[float, float] = (0.8, 1.25)
    yaw_jitter: float = 0.2
    proposals_per_object: int = 2
    # truck-sized shells: sparse enough that small fixed-radius balls are
    # frequently empty, the regime the pyramid and predicted radii target
    w_range: tuple[float, float] = (3.5, 5.0)
    l_range: tuple[float, float] = (7.0, 10.0)
    h_range: tuple[float, float] = (2.2, 3.2)
    pair_gap: tuple[float, float] = (5.5, 7.0)
    seed: int = 0

    def __post_init__(self):
        if self.obj_points_min < 1:
            raise ValueError("objects need at least one point")
        if self.extent <= 0 or self.z_extent <= 0:
            raise ValueError("scene extent must be positive")


@dataclass
class Scene:
    ps: PointSet
    gt_boxes: list[Box3D]
    proposals: list[Box3D]
    proposal_gt: np.ndarray  # index of the source gt box per proposal


# -- generation ---------------------------------------------------------------

_FACE_AXES = [(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)]


def _sample_shell(rng: np.random.Generator, box: Box3D, n: int,
                  sensor: np.ndarray, noise: float) -> np.ndarray:
    """Sample n points on the faces of the box that face the sensor."""
    rot = rot_z(box.yaw)
    half = 0.5 * box.extents
    visible = []
    areas = []
    for axis, sign in _FACE_AXES:
        normal_local = np.zeros(3)
        normal_local[axis] = sign
        normal = rot @ normal_local
        face_center = box.center + rot @ (normal_local * half)
        if np.dot(normal, sensor - face_center) > 0:
            others = [i for i in range(3) if i != axis]
            visible.append((axis, sign, others))
            areas.append(box.extents[others[0]] * box.extents[others[1]])
    if not visible:  # degenerate sensor position, fall back to all faces
        visible = [(a, s, [i for i in range(3) if i != a]) for a, s in _FACE_AXES]
        areas = [box.extents[o[0]] * box.extents[o[1]] for _, _, o in visible]
    areas = np.asarray(areas) / np.sum(areas)
    choice = rng.choice(len(visible), size=n, p=areas)
    local = np.empty((n, 3))
    for i, c in enumerate(choice):
        axis, sign, others = visible[c]
        local[i, axis] = sign * half[axis]
        local[i, others[0]] = rng.uniform(-half[others[0]], half[others[0]])
        local[i, others[1]] = rng.uniform(-half[others[1]], half[others[1]])
    pts = local @ rot.T + box.center
    return pts + rng.normal(0.0, noise, size=pts.shape)


def occupancy_features(coords: np.ndarray, z_extent: float = 4.0) -> np.ndarray:
    """Deterministic local-occupancy summary per point, FEAT_WIDTH columns.

    Log-scaled counts of points sharing the point's grid cell at four cell
    sizes, the normalized height, an isolation flag, and two cross-scale
    density contrasts.
    """
    n = coords.shape[0]
    feats = np.zeros((n, FEAT_WIDTH))
    if n == 0:
        return feats
    sizes = [0.4, 0.8, 1.6, 3.2]
    logc = np.zeros((n, 4))
    for col, size in enumerate(sizes):
        cells = np.floor(coords / size).astype(np.int64)
        _, inverse, counts = np.unique(cells, axis=0, return_inverse=True,
                                       return_counts=True)
        logc[:, col] = np.log1p(counts[inverse])
    feats[:, 0:4] = logc / 4.0
    feats[:, 4] = coords[:, 2] / z_extent
    feats[:, 5] = (logc[:, 1] <= np.log1p(1)).astype(np.float64)  # isolated
    feats[:, 6] = (logc[:, 2] - logc[:, 1]) / 2.0
    feats[:, 7] = (logc[:, 3] - logc[:, 2]) / 2.0
    return feats


def generate_scene(cfg: SceneConfig, index: int = 0) -> Scene:
    """One deterministic scene; the rng stream is keyed by (seed, index)."""
    rng = np.random.default_rng([cfg.seed, index])
    sensor = np.array([0.0, 0.0, 1.5])
    gt_boxes: list[Box3D] = []
    obj_points: list[np.ndarray] = []
    margin = max(cfg.l_range[1], cfg.w_range[1]) + cfg.pair_gap[1]
    margin = max(1.0, min(margin, cfg.extent / 2.0 - 1.0))
    anchor_center = None
    anchor_yaw = 0.0
    for oi in range(cfg.n_objects):
        w = rng.uniform(*cfg.w_range)
        length = rng.uniform(*cfg.l_range)
        h = rng.uniform(*cfg.h_range)
        if oi % 2 == 1:
            # objects spawn in same-heading pairs a fixed lateral gap apart
            # (a parked-row layout), so context outside the RoI carries
            # information: this is the partner of the object before it
            gap = rng.uniform(*cfg.pair_gap) * (1 if rng.integers(2) else -1)
            along = rng.uniform(-0.5, 0.5)
            offset = rot_z(anchor_yaw) @ np.array([gap, along, 0.0])
            cx = float(np.clip(anchor_center[0] + offset[0], 2.0,
                               cfg.extent - 2.0))
            cy = float(np.clip(anchor_center[1] + offset[1], 2.0,
                               cfg.extent - 2.0))
            yaw = wrap_angle(anchor_yaw + rng.uniform(-0.05, 0.05))
        else:
            cx = rng.uniform(margin, cfg.extent - margin)
            cy = rng.uniform(margin, cfg.extent - margin)
            yaw = rng.uniform(-math.pi, math.pi)
            anchor_center = np.array([cx, cy])
            anchor_yaw = yaw
        box = Box3D.from_center([cx, cy, 0.5 * h], [w, length, h], yaw)
        lo, hi = math.log(cfg.obj_points_min), math.log(cfg.obj_points_max)
        n_pts = max(1, int(round(math.exp(rng.uniform(lo, hi)))))
        pts = _sample_shell(rng, box, n_pts, sensor, cfg.surface_noise)
        if not box.contains(pts).any():
            pts[0] = box.center  # keep the invariant: every box holds a point
        gt_boxes.append(box)
        obj_points.append(pts)
    volume = cfg.extent * cfg.extent * cfg.z_extent
    n_clutter = int(rng.poisson(cfg.clutter_density * volume))
    clutter = np.column_stack([
        rng.uniform(0.0, cfg.extent, n_clutter),
        rng.uniform(0.0, cfg.extent, n_clutter),
        rng.uniform(0.0, cfg.z_extent, n_clutter),
    ]) if n_clutter else np.zeros((0, 3))
    coords = np.concatenate(obj_points + [clutter], axis=0) if gt_boxes else clutter
    feats = occupancy_features(coords, cfg.z_extent)
    proposals: list[Box3D] = []
    proposal_gt: list[int] = []
    for gi, box in enumerate(gt_boxes):
        for pi in range(cfg.proposals_per_object):
            scale = JITTER_SCALES[pi % len(JITTER_SCALES)]
            cj = scale * cfg.center_jitter
            yj = scale * cfg.yaw_jitter
            elo = 1.0 + scale * (cfg.extent_jitter[0] - 1.0)
            ehi = 1.0 + scale * (cfg.extent_jitter[1] - 1.0)
            center = box.center + rng.uniform(-cj, cj, size=3)
            extents = box.extents * rng.uniform(elo, ehi, size=3)
            yaw = wrap_angle(box.yaw + rng.uniform(-yj, yj))
            proposals.append(Box3D.from_center(center, extents, yaw))
            proposal_gt.append(gi)
    return Scene(PointSet(coords, feats), gt_boxes, proposals,
                 np.asarray(proposal_gt, dtype=np.int64))


def generate_scenes(cfg: SceneConfig, count: int) -> list[Scene]:
    if count < 0:
        raise ValueError(f"scene count must be >= 0, got {count}")
    return [generate_scene(cfg, i) for i in range(count)]


# -- sparsity statistics --------------------------------------------------------

def bucket_of(count: int) -> str:
    for lo, label in zip(BUCKET_EDGES[1:], BUCKET_LABELS[:-1]):
        if count < lo:
            return label
    return BUCKET_LABELS[-1]


def interior_count(box: Box3D, ps: PointSet) -> int:
    if len(ps) == 0:
        return 0
    return int(box.contains(ps.coords).sum())


def pyramid_gathered_ids(ps: PointSet, roi: Box3D,
                         pyramid: PyramidConfig) -> set[int]:
    """Union of point ids collected by every grid point of every level."""
    ids: set[int] = set()
    for lv in pyramid.levels:
        centers = pyramid_grid_points(roi, lv)[None]
        _, got, _ = gather_level(ps, centers, lv.r_pre, lv.max_neighbors)
        ids.update(got.tolist())
    return ids


@dataclass
class SparsityStats:
    interior: dict[str, int]
    gathered: dict[str, int]

    def to_csv(self) -> str:
        lines = ["bucket,interior_objects,gathered_rois"]
        for label in BUCKET_LABELS:
            lines.append(f"{label},{self.interior.get(label, 0)},"
                         f"{self.gathered.get(label, 0)}")
        return "\n".join(lines) + "\n"


def sparsity_stats(scenes: list[Scene],
                   pyramid: PyramidConfig | None = None) -> SparsityStats:
    """Histogram of object interior counts vs per-RoI pyramid-gathered counts."""
    if pyramid is None:
        pyramid = default_pyramid_config()
    interior: dict[str, int] = {}
    gathered: dict[str, int] = {}
    for sc in scenes:
        for box in sc.gt_boxes:
            b = bucket_of(interior_count(box, sc.ps))
            interior[b] = interior.get(b, 0) + 1
        for roi in sc.proposals:
            n = len(pyramid_gathered_ids(sc.ps, roi, pyramid))
            gathered[bucket_of(n)] = gathered.get(bucket_of(n), 0) + 1
    return SparsityStats(interior, gathered)


# -- toy training ----------------------------------------------------------------

@dataclass
class TrainResult:
    steps: int
    lr: float
    seed: int
    losses: list[float]
    grad_norms: list[float]
    radii: list[list[float]]        # per step, mean effective radius per level
    r_pre: list[float]
    untrained_loss: float           # pre-training loss over a scene sample
    clipped_steps: int              # steps whose gradient norm exceeded GRAD_CLIP
    params: HeadParams = field(repr=False)

    # per-step losses vary with the scene on deck, so the trained endpoint
    # is window-averaged (up to 20 steps) rather than a single sample
    @property
    def final_loss(self) -> float:
        k = min(20, len(self.losses))
        return float(np.mean(self.losses[-k:]))

    def max_radius_shift(self) -> float:
        return max(abs(r - p) for r, p in zip(self.radii[-1], self.r_pre))

    def to_json(self) -> str:
        doc = {
            "steps": self.steps,
            "lr": self.lr,
            "seed": self.seed,
            "untrained_loss": self.untrained_loss,
            "clipped_steps": self.clipped_steps,
            "losses": self.losses,
            "grad_norms": self.grad_norms,
            "radii": self.radii,
            "r_pre": self.r_pre,
        }
        return json.dumps(doc, indent=2)

    def to_csv(self) -> str:
        levels = len(self.r_pre)
        header = "step,loss,grad_norm," + ",".join(
            f"r_level{i}" for i in range(levels))
        lines = [header]
        for i, (lo, gn, rr) in enumerate(zip(self.losses, self.grad_norms,
                                             self.radii)):
            lines.append(f"{i},{lo!r},{gn!r}," + ",".join(repr(r) for r in rr))
        return "\n".join(lines) + "\n"


class TrainingDiverged(RuntimeError):
    """Training left the finite range; the learning rate is the usual cause."""


def train_toy(head_cfg: HeadConfig, scene_cfg: SceneConfig, steps: int,
              lr: float, seed: int, n_scenes: int = 200, momentum: float = 0.9
              ) -> TrainResult:
    """Momentum SGD on the head loss over a deterministic scene set.

    The learning rate anneals from ``lr`` towards 0 along a half cosine
    over the run, and each step's gradient is scaled by
    min(1, GRAD_CLIP / norm) before the momentum update; ``grad_norms``
    records the norm before clipping. The radius trajectory records the
    per-level effective radius averaged over the step's RoIs. Raises
    ValueError unless ``lr`` is finite and >= 0 and 0 <= ``momentum`` < 1,
    and TrainingDiverged if the loss or the gradient norm goes non-finite
    or the box residuals leave their range.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if n_scenes < 1:
        raise ValueError(f"n_scenes must be >= 1, got {n_scenes}")
    if not 0 <= lr < np.inf:
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if head_cfg.feat_width != FEAT_WIDTH:
        raise ValueError(f"config field 'feat_width' is {head_cfg.feat_width}, "
                         f"but the scenes have {FEAT_WIDTH} features per point")
    cfg2 = dataclasses.replace(scene_cfg, seed=scene_cfg.seed + seed)
    scenes = generate_scenes(cfg2, n_scenes)
    indexes = [build_index(sc.ps, INDEX_CELL) for sc in scenes]
    params = init_head_params(head_cfg, seed)
    sched = TemperatureSchedule(head_cfg.tau_start, head_cfg.tau_end, steps)

    def scene_loss(sc: Scene, idx: SpatialIndex, tau: float):
        dets, step_radii = run_head(head_cfg, params, sc.ps, idx,
                                    sc.proposals, tau)
        targets = [(assign_label(p, sc.gt_boxes[g], head_cfg.iou_positive),
                    sc.gt_boxes[g])
                   for p, g in zip(sc.proposals, sc.proposal_gt)]
        return loss(dets, targets, head_cfg), step_radii

    # reference level before any update, over a sample of the scene set
    probe = min(20, len(scenes))
    untrained = float(np.mean([
        scene_loss(scenes[i], indexes[i], sched.tau_start)[0].item()
        for i in range(probe)]))
    velocity = {name: np.zeros_like(p.data)
                for name, p in params.named_parameters()}
    losses: list[float] = []
    grad_norms: list[float] = []
    radii: list[list[float]] = []
    clipped_steps = 0
    r_pre = [lv.r_pre for lv in head_cfg.pyramid.levels]
    for step in range(steps):
        sc = scenes[step % len(scenes)]
        idx = indexes[step % len(scenes)]
        tau = temperature(step, sched)
        try:
            step_loss, step_radii = scene_loss(sc, idx, tau)
        except RuntimeError as exc:  # from apply_residuals
            raise TrainingDiverged(
                f"training diverged at step {step}: box residuals out of range") from exc
        value = step_loss.item()
        if not math.isfinite(value):
            raise TrainingDiverged(f"training diverged at step {step}: loss {value}")
        params.zero_grad()
        step_loss.backward()
        named = list(params.named_parameters())
        norm = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for _, p in named))
        if not math.isfinite(norm):
            raise TrainingDiverged(f"training diverged at step {step}: gradient norm {norm}")
        scale = min(1.0, GRAD_CLIP / norm) if norm > 0 else 1.0
        clipped_steps += scale < 1.0
        step_lr = lr * scale * 0.5 * (1.0 + math.cos(math.pi * step / steps))
        for name, p in named:
            v = velocity[name]
            v *= momentum
            v -= step_lr * p.grad
            p.data = p.data + v
        losses.append(value)
        grad_norms.append(norm)
        radii.append([float(np.mean(r)) if r.size else float(rp)
                      for r, rp in zip(step_radii, r_pre)])
    return TrainResult(steps, lr, seed, losses, grad_norms, radii, r_pre,
                       untrained, clipped_steps, params)


# -- evaluation -------------------------------------------------------------------

@dataclass
class EvalResult:
    n: int
    accuracy: float
    mean_iou: float
    hit_rate: float                # IoU >= threshold among all proposals
    label_base_rate: float         # majority-class share of the labels
    bucket_accuracy: dict[str, float]


def evaluate(head_cfg: HeadConfig, params: HeadParams, scenes: list[Scene],
             iou_threshold: float = 0.7) -> EvalResult:
    """Classification accuracy and refined-box IoU at the final temperature."""
    correct = 0
    total = 0
    positives = 0
    ious: list[float] = []
    hits = 0
    bucket_tot: dict[str, int] = {}
    bucket_ok: dict[str, int] = {}
    for sc in scenes:
        dets, _ = run_head(head_cfg, params, sc.ps, build_index(sc.ps, INDEX_CELL),
                           sc.proposals, head_cfg.tau_end)
        for det, g in zip(dets, sc.proposal_gt):
            gt = sc.gt_boxes[g]
            label = assign_label(det.proposal, gt, head_cfg.iou_positive)
            pred = int(det.score > 0.5)
            ok = pred == label
            correct += ok
            total += 1
            positives += label
            iou = derotated_iou(det.box, gt)
            ious.append(iou)
            hits += iou >= iou_threshold
            bucket = bucket_of(interior_count(gt, sc.ps))
            bucket_tot[bucket] = bucket_tot.get(bucket, 0) + 1
            bucket_ok[bucket] = bucket_ok.get(bucket, 0) + ok
    if total == 0:
        return EvalResult(0, 0.0, 0.0, 0.0, 0.0, {})
    pos_rate = positives / total
    return EvalResult(
        n=total,
        accuracy=correct / total,
        mean_iou=float(np.mean(ious)),
        hit_rate=hits / total,
        label_base_rate=max(pos_rate, 1.0 - pos_rate),
        bucket_accuracy={b: bucket_ok[b] / bucket_tot[b] for b in sorted(bucket_tot)},
    )


def single_level_baseline(cfg: HeadConfig) -> HeadConfig:
    """Fixed-radius one-level head: the standard RoI-grid without the pyramid."""
    bottom = cfg.pyramid.levels[0]
    return dataclasses.replace(
        cfg,
        pyramid=PyramidConfig([dataclasses.replace(bottom)]),
        darp_enabled=False,
    )
