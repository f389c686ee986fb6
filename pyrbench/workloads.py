"""The benchmark's workloads: seeded scene pools and the op each one times.

Each op calls the head through module attributes (``head.run_head``,
``spatial.build_index``) so the tracer's wrappers apply to these calls too.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pyrhead import head, spatial, synth
from pyrhead.darp import TemperatureSchedule, temperature
from pyrhead.head import HeadConfig
from pyrhead.synth import SceneConfig

CELL = 2.4          # index cell size, as synth.scene_index uses
LR = 0.0075
MOMENTUM = 0.9
PROBE_ROIS = 2      # RoIs of the first scene that the output check recomputes


@dataclass(frozen=True)
class Workload:
    """A scene config and how the default head's ops go through its scene pool.

    Ops take the pool's scenes in turn and start over at its end. A training
    op is one momentum-SGD step taken from the parameters and momentum saved
    at the end of set-up, with tau at the scene's place in a schedule that
    decays over one pass of the pool. So an op's cost depends on its scene
    alone, not on how many ops came before it: a faster program repeats the
    same steps instead of reaching later, different ones, and no run trains
    long enough to diverge (seed 46 diverges near step 70 at this learning
    rate when steps accumulate).
    """

    name: str
    train: bool
    pool: int       # scenes generated at set-up
    warmup: int     # untimed ops at the end of set-up
    scene_cfg: Callable[[int], SceneConfig]


WORKLOADS = {
    # the acceptance operating point: tape backward and grouped attention
    "train_sparse": Workload(
        "train_sparse", True, 400, 8,
        lambda seed: SceneConfig(seed=seed)),
    # forward only on fresh dense scenes: index build plus saturated gathers
    "infer_dense": Workload(
        "infer_dense", False, 100, 2,
        lambda seed: SceneConfig(seed=seed, clutter_density=1.0, n_objects=4)),
}


class State:
    """Everything a workload's ops read and update."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.cfg = HeadConfig()
        scene_cfg = wl.scene_cfg(seed)
        self.scenes = [synth.generate_scene(scene_cfg, i) for i in range(wl.pool)]
        self.indexes = ([spatial.build_index(sc.ps, CELL) for sc in self.scenes]
                        if wl.train else None)
        self.params = head.init_head_params(self.cfg, seed)
        self.sched = TemperatureSchedule(self.cfg.tau_start, self.cfg.tau_end,
                                         max(wl.pool - 1, 1))
        self.velocity = {name: np.zeros_like(p.data)
                         for name, p in self.params.named_parameters()}
        self.done = 0       # ops taken, which picks the next scene
        self.tau = self.cfg.tau_start if wl.train else self.cfg.tau_end
        self._saved = None

    def save(self) -> None:
        """Keep the parameters and momentum that every timed op starts from."""
        self._saved = ({n: p.data for n, p in self.params.named_parameters()},
                       {n: v.copy() for n, v in self.velocity.items()})

    def restore(self) -> None:
        if self._saved is None:
            return
        data, velocity = self._saved
        for name, p in self.params.named_parameters():
            p.data = data[name]     # updates rebind p.data, never write into it
        for name, v in self.velocity.items():
            v[...] = velocity[name]


def setup(wl: Workload, seed: int) -> State:
    """Scene pool, indexes (training), parameters and the untimed warm-up ops."""
    st = State(wl, seed)
    for _ in range(wl.warmup):
        run_op(st)
    if wl.train:
        st.save()
    st.done = 0
    return st


def no_span(_key):
    return nullcontext()


def run_op(st: State, span=no_span, scene: int | None = None):
    """One op: a training step or one inference scene.

    The op takes scene ``scene`` of the pool (by default the next one) and
    returns (rois, detections, loss, squared gradient norm).
    """
    k = (st.done if scene is None else scene) % len(st.scenes)
    sc = st.scenes[k]
    st.done += 1
    if not st.wl.train:
        idx = spatial.build_index(sc.ps, CELL)
        dets, _ = head.run_head(st.cfg, st.params, sc.ps, idx, sc.proposals, st.tau)
        return len(sc.proposals), dets, 0.0, 0.0
    # one momentum-SGD step, as synth.train_toy takes it
    st.tau = temperature(k, st.sched)
    dets, _ = head.run_head(st.cfg, st.params, sc.ps, st.indexes[k], sc.proposals, st.tau)
    targets = [(head.assign_label(p, sc.gt_boxes[g], st.cfg.iou_positive), sc.gt_boxes[g])
               for p, g in zip(sc.proposals, sc.proposal_gt)]
    total = head.loss(dets, targets, st.cfg)
    value = total.item()
    if not math.isfinite(value):
        raise FloatingPointError(f"non-finite loss {value} on scene {k}")
    st.params.zero_grad()
    total.backward()
    with span("synth.update"):
        sq = 0.0
        for name, p in st.params.named_parameters():
            g = p.grad
            sq += float(np.sum(g * g))
            v = st.velocity[name]
            v *= MOMENTUM
            v -= LR * g
            p.data = p.data + v
    return len(sc.proposals), dets, value, sq


def outputs_finite(dets, value: float, sq: float) -> bool:
    """False if the loss, the gradient, a score or a box is not finite."""
    if not (math.isfinite(value) and math.isfinite(sq)):
        return False
    for d in dets:
        box = d.box
        if not (math.isfinite(d.score) and np.all(np.isfinite(d.residuals))
                and np.all(np.isfinite(box.corner)) and np.all(np.isfinite(box.extents))
                and math.isfinite(box.yaw)):
            return False
    return True


def probe(st: State):
    """The probe RoIs of the first scene, its index, tau and run_head's output."""
    sc = st.scenes[0]
    idx = spatial.build_index(sc.ps, CELL)
    rois = sc.proposals[:PROBE_ROIS]
    dets, _ = head.run_head(st.cfg, st.params, sc.ps, idx, rois, st.tau)
    return sc.ps, idx, rois, dets
