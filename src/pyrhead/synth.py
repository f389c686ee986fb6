"""Synthetic sparse scenes, sparsity statistics, and the toy training harness.

Objects are cuboid shells sampled on sensor-visible faces; per-point
features are handcrafted local-occupancy summaries so the head has fixed
width inputs without any upstream network. Proposals are ground-truth
boxes under jitter. Settings with one value in use are module constants
rather than ``SceneConfig`` fields: the feature width, the index cell, the
object size ranges (W_RANGE, L_RANGE, H_RANGE), the pair gap (PAIR_GAP),
the shell noise (SURFACE_NOISE), the proposal jitter (CENTER_JITTER,
EXTENT_JITTER, YAW_JITTER) and its alternating scales, the hit IoU of
``evaluate``, and the momentum (MOMENTUM) and gradient-norm clip of toy
training.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .darp import TemperatureSchedule, temperature
from .geometry import (Box3D, PyramidConfig, box_rows, default_pyramid_config,
                       pyramid_grid_points, rot_z, wrap_angle)
from .head import (HeadConfig, HeadParams, assign_label, derotated_iou,
                   init_head_params, loss, run_head)
from .spatial import PointSet, _packed_key, build_index, gather_level

BUCKET_EDGES = [0, 10, 50, 100, 500]
BUCKET_LABELS = ["0-10", "10-50", "50-100", "100-500", "500+"]
FEAT_WIDTH = 8      # columns of occupancy_features
INDEX_CELL = 2.4    # sorted-cell grid cell of every scene index
# truck-sized shells: sparse enough that small fixed-radius balls are
# frequently empty, the regime the pyramid and predicted radii target
W_RANGE, L_RANGE, H_RANGE = (3.5, 5.0), (7.0, 10.0), (2.2, 3.2)
PAIR_GAP = (5.5, 7.0)        # lateral gap between the objects of a pair
SURFACE_NOISE = 0.02         # sigma of shell jitter, meters
# proposal noise at scale 1
CENTER_JITTER = 1.0          # centre shift per axis, meters
EXTENT_JITTER = (0.8, 1.25)  # extent factor range
YAW_JITTER = 0.2             # yaw shift, radians
# alternating per-proposal noise scale: tight proposals land clearly
# above the positive-label IoU threshold, loose ones clearly below
JITTER_SCALES = (0.35, 1.6)
HIT_IOU = 0.7                # refined-box IoU that counts as a hit in evaluate
# global gradient-norm bound of a toy-training step (PV-RCNN's setting in
# OpenPCDet); rare spiky steps are scaled down to it, ordinary ones pass
GRAD_CLIP = 10.0
MOMENTUM = 0.9               # momentum of toy-training SGD


@dataclass
class SceneConfig:
    """Knobs of the synthetic scene generator."""

    extent: float = 44.0
    z_extent: float = 4.0
    n_objects: int = 2
    obj_points_min: int = 3
    obj_points_max: int = 500
    clutter_density: float = 0.02     # points per cubic meter
    proposals_per_object: int = 2
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
    axis, sign, others = (np.array(v)[choice] for v in zip(*visible))
    rows = np.arange(n)
    local = np.empty((n, 3))
    local[rows, axis] = sign * half[axis]
    # Generator.uniform's arithmetic on its row-major draws, so bitwise the same
    lo, hi = -half[others], half[others]
    local[rows[:, None], others] = lo + (hi - lo) * rng.random((n, 2))
    pts = local @ rot.T + box.center
    return pts + rng.normal(0.0, noise, size=pts.shape)


def occupancy_features(coords: np.ndarray, z_extent: float = 4.0) -> np.ndarray:
    """Deterministic local-occupancy summary per point, FEAT_WIDTH columns.

    Log-scaled counts of points sharing the point's grid cell at four cell
    sizes, the normalized height, an isolation flag, and two cross-scale
    density contrasts. The sizes 0.4 * 2**k double exactly in binary, so
    one sorted int64 key (the 3.2 cell, then each finer cell's octant)
    holds every size's cells as runs whose lengths are the counts; a span
    whose key could wrap, or a non-finite coordinate, raises ValueError.
    """
    n = coords.shape[0]
    feats = np.zeros((n, FEAT_WIDTH))
    if n == 0:
        return feats
    if not np.all(np.isfinite(coords)):
        raise ValueError("occupancy_features needs finite coordinates")
    cells = np.floor(coords.T / 0.4)
    cells -= np.floor(cells.min(axis=1, keepdims=True) / 8) * 8  # keeps the 3.2 boundaries
    top = np.floor(cells * 0.125)  # floats until _packed_key checks the span
    low = (cells - 8 * top).astype(np.int64)
    octants = [4 * x + 2 * y + z for x, y, z in (low >> k & 1 for k in (2, 1, 0))]
    key = _packed_key((*top, *octants), (*(top.max(axis=1) + 1), 8, 8, 8))
    order = np.argsort(key)
    key = key[order]
    logc = np.empty((4, n))
    for col in range(4):  # keys are >= 0, so -1 pads mark both ends as edges
        run = np.diff(np.flatnonzero(np.diff(key >> 3 * col, prepend=-1, append=-1)))
        logc[col, order] = np.log1p(np.repeat(run, run))
    feats[:, 0:4] = logc.T / 4.0
    feats[:, 4] = coords[:, 2] / z_extent
    feats[:, 5] = (logc[1] <= np.log1p(1)).astype(np.float64)  # isolated
    feats[:, 6] = (logc[2] - logc[1]) / 2.0
    feats[:, 7] = (logc[3] - logc[2]) / 2.0
    return feats


def generate_scene(cfg: SceneConfig, index: int = 0) -> Scene:
    """One deterministic scene; the rng stream is keyed by (seed, index)."""
    rng = np.random.default_rng([cfg.seed, index])
    sensor = np.array([0.0, 0.0, 1.5])
    gt_boxes: list[Box3D] = []
    obj_points: list[np.ndarray] = []
    margin = max(L_RANGE[1], W_RANGE[1]) + PAIR_GAP[1]
    margin = max(1.0, min(margin, cfg.extent / 2.0 - 1.0))
    anchor_center = None
    anchor_yaw = 0.0
    for oi in range(cfg.n_objects):
        w = rng.uniform(*W_RANGE)
        length = rng.uniform(*L_RANGE)
        h = rng.uniform(*H_RANGE)
        if oi % 2 == 1:
            # objects spawn in same-heading pairs a fixed lateral gap apart
            # (a parked-row layout), so context outside the RoI carries
            # information: this is the partner of the object before it
            gap = rng.uniform(*PAIR_GAP) * (1 if rng.integers(2) else -1)
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
        pts = _sample_shell(rng, box, n_pts, sensor, SURFACE_NOISE)
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
            cj = scale * CENTER_JITTER
            yj = scale * YAW_JITTER
            elo = 1.0 + scale * (EXTENT_JITTER[0] - 1.0)
            ehi = 1.0 + scale * (EXTENT_JITTER[1] - 1.0)
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


def scene_targets(scene: Scene, cfg: HeadConfig) -> list[tuple[int, Box3D]]:
    """(label, gt box) of each proposal of the scene, in proposal order."""
    return [(assign_label(p, scene.gt_boxes[g], cfg.iou_positive), scene.gt_boxes[g])
            for p, g in zip(scene.proposals, scene.proposal_gt)]


def scene_loss(cfg: HeadConfig, params: HeadParams, scene: Scene, tau: float):
    """Head loss over all proposals of the scene against ``scene_targets``,
    and the per-level effective radii of the ``run_head`` call on the
    scene's index at INDEX_CELL."""
    dets, radii = run_head(cfg, params, scene.ps, build_index(scene.ps, INDEX_CELL),
                           scene.proposals, tau)
    return loss(dets, scene_targets(scene, cfg), cfg), radii


def infer(cfg: HeadConfig, params: HeadParams, scene: Scene
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores [R], box residuals [R, 7] and refined boxes [R, 7] (centre,
    extents, yaw) of the scene's proposals, from the ``run_head`` call at
    ``tau_end`` on the scene's index at INDEX_CELL."""
    dets, _ = run_head(cfg, params, scene.ps, build_index(scene.ps, INDEX_CELL),
                       scene.proposals, cfg.tau_end)
    return (np.array([d.score for d in dets]),
            np.reshape([d.residuals for d in dets], (-1, 7)), box_rows([d.box for d in dets]))


# -- sparsity statistics --------------------------------------------------------

def bucket_of(counts):
    """Index into BUCKET_LABELS of the bucket of each point count."""
    return np.searchsorted(BUCKET_EDGES[1:], counts, side="right")


def _bucket_histogram(counts) -> dict[str, int]:
    """Number of the counts in each bucket, keyed by BUCKET_LABELS."""
    n = np.bincount(bucket_of(counts), minlength=len(BUCKET_LABELS))
    return {label: int(k) for label, k in zip(BUCKET_LABELS, n)}


def interior_count(box: Box3D, ps: PointSet) -> int:
    return int(box.contains(ps.coords).sum())


def pyramid_gathered_counts(ps: PointSet, rois: list[Box3D],
                            pyramid: PyramidConfig) -> np.ndarray:
    """Per RoI, the number of distinct point ids that the grid points of
    all levels gather: one capped gather per level over all RoIs."""
    keys = []
    for lv in pyramid.levels:
        count = lv.grid.count
        centers = pyramid_grid_points(rois, lv).reshape(len(rois), count, 3)
        row, ids, _ = gather_level(ps, centers, lv.r_pre, lv.max_neighbors)
        keys.append(row // count * len(ps) + ids)
    roi_of = np.unique(np.concatenate(keys)) // max(len(ps), 1)
    return np.bincount(roi_of, minlength=len(rois))


def sparsity_stats(scenes: list[Scene]) -> tuple[dict[str, int], dict[str, int]]:
    """(interior, gathered) bucket histograms: of the interior point counts
    of the objects, and of the per-RoI pyramid-gathered counts of the
    default pyramid."""
    pyramid = default_pyramid_config()
    interior = [interior_count(box, sc.ps) for sc in scenes for box in sc.gt_boxes]
    gathered = [pyramid_gathered_counts(sc.ps, sc.proposals, pyramid) for sc in scenes]
    return _bucket_histogram(interior), _bucket_histogram(
        np.concatenate([np.zeros(0, dtype=np.int64), *gathered]))


# -- toy training ----------------------------------------------------------------

@dataclass
class TrainResult:
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


class TrainingDiverged(RuntimeError):
    """Training left the finite range; the learning rate is the usual cause."""


def update(params: HeadParams, velocity: list[np.ndarray], lr: float, step: int,
           steps: int) -> float:
    """Step ``step`` of ``steps``: momentum SGD (MOMENTUM, ``velocity`` in
    ``named_parameters`` order, updated in place) at ``lr`` annealed along a
    half cosine, on the gradients of ``params`` scaled by min(1, GRAD_CLIP /
    norm). Clears the gradients and returns their norm; raises
    TrainingDiverged if it is not finite."""
    tensors = [p for _, p in params.named_parameters()]
    norm = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in tensors))
    if not math.isfinite(norm):
        raise TrainingDiverged(f"training diverged at step {step}: gradient norm {norm}")
    scale = min(1.0, GRAD_CLIP / norm) if norm > 0 else 1.0
    step_lr = lr * scale * 0.5 * (1.0 + math.cos(math.pi * step / steps))
    for p, v in zip(tensors, velocity):
        v *= MOMENTUM
        v -= step_lr * p.grad
        p.data = p.data + v
        p.zero_grad()
    return norm


def train_toy(head_cfg: HeadConfig, scene_cfg: SceneConfig, steps: int,
              lr: float, seed: int, n_scenes: int = 200) -> TrainResult:
    """Steps of ``scene_loss`` on the next scene of a deterministic set, its
    backward and ``update``; ``grad_norms`` records the norm before clipping,
    ``radii`` the per-level effective radius averaged over the step's RoIs.
    Raises ValueError unless ``lr`` is finite and >= 0, and TrainingDiverged
    if the loss or the gradient norm goes non-finite or the box residuals
    leave their range."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if n_scenes < 1:
        raise ValueError(f"n_scenes must be >= 1, got {n_scenes}")
    if not 0 <= lr < np.inf:
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    if head_cfg.feat_width != FEAT_WIDTH:
        raise ValueError(f"config field 'feat_width' is {head_cfg.feat_width}, "
                         f"but the scenes have {FEAT_WIDTH} features per point")
    params = init_head_params(head_cfg, seed)
    sched = TemperatureSchedule(head_cfg.tau_start, head_cfg.tau_end, steps)
    cfg2 = dataclasses.replace(scene_cfg, seed=scene_cfg.seed + seed)
    # scene i depends on (seed, i) alone, so only the scenes read are built
    scenes = generate_scenes(cfg2, min(n_scenes, max(steps, 20)))
    # reference level before any update, over the first 20 scenes
    untrained = float(np.mean([scene_loss(head_cfg, params, sc, sched.tau_start)[0].item()
                               for sc in scenes[:20]]))
    velocity = [np.zeros_like(p.data) for _, p in params.named_parameters()]
    losses: list[float] = []
    grad_norms: list[float] = []
    radii: list[list[float]] = []
    r_pre = [lv.r_pre for lv in head_cfg.pyramid.levels]
    for step in range(steps):
        try:
            step_loss, step_radii = scene_loss(head_cfg, params, scenes[step % n_scenes],
                                               temperature(step, sched))
        except RuntimeError as exc:  # from decode_boxes
            raise TrainingDiverged(
                f"training diverged at step {step}: box residuals out of range") from exc
        value = step_loss.item()
        if not math.isfinite(value):
            raise TrainingDiverged(f"training diverged at step {step}: loss {value}")
        step_loss.backward()
        grad_norms.append(update(params, velocity, lr, step, steps))
        losses.append(value)
        radii.append([float(np.mean(r)) if r.size else float(rp)
                      for r, rp in zip(step_radii, r_pre)])
    return TrainResult(losses, grad_norms, radii, r_pre, untrained,
                       sum(norm > GRAD_CLIP for norm in grad_norms), params)


# -- evaluation -------------------------------------------------------------------

@dataclass
class EvalResult:
    n: int
    accuracy: float
    mean_iou: float
    hit_rate: float                # IoU >= HIT_IOU among all proposals
    label_base_rate: float         # majority-class share of the labels
    bucket_accuracy: dict[str, float]


def evaluate(head_cfg: HeadConfig, params: HeadParams, scenes: list[Scene]) -> EvalResult:
    """Classification accuracy and refined-box IoU of ``infer``'s outputs,
    reduced once from one row per proposal: correct, label, IoU, gt bucket."""
    rows = []
    for sc in scenes:
        scores, _, boxes = infer(head_cfg, params, sc)
        gt_bucket = bucket_of([interior_count(gt, sc.ps) for gt in sc.gt_boxes])
        targets = scene_targets(sc, head_cfg)
        rows += [(int(score > 0.5) == label, label, derotated_iou(box, gt), gt_bucket[g])
                 for score, box, (label, gt), g in zip(scores, boxes, targets, sc.proposal_gt)]
    if not rows:
        return EvalResult(0, 0.0, 0.0, 0.0, 0.0, {})
    ok, label, iou, bucket = map(np.array, zip(*rows))
    pos_rate = float(np.mean(label))
    tot = np.bincount(bucket, minlength=len(BUCKET_LABELS))
    right = np.bincount(bucket, weights=ok, minlength=len(BUCKET_LABELS))
    return EvalResult(
        n=len(rows),
        accuracy=float(np.mean(ok)),
        mean_iou=float(np.mean(iou)),
        hit_rate=float(np.mean(iou >= HIT_IOU)),
        label_base_rate=max(pos_rate, 1.0 - pos_rate),
        # keyed in label order, as sorted() orders the label strings
        bucket_accuracy={BUCKET_LABELS[b]: float(right[b] / tot[b])
                         for b in np.argsort(BUCKET_LABELS) if tot[b]},
    )


def single_level_baseline(cfg: HeadConfig) -> HeadConfig:
    """Fixed-radius one-level head: the standard RoI-grid without the pyramid."""
    bottom = cfg.pyramid.levels[0]
    return dataclasses.replace(
        cfg,
        pyramid=PyramidConfig([dataclasses.replace(bottom)]),
        darp_enabled=False,
    )
