"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""
import dataclasses
import math
import subprocess
import sys
import time

import numpy as np

from pyrhead.autodiff import Value
from pyrhead.geometry import (Box3D, GridSpec, PyramidLevelConfig,
                              default_pyramid_config, pyramid_grid_points,
                              pyramid_point_count)
from pyrhead.gradcheck import run_gradcheck
from pyrhead.head import HeadConfig
from oracles import attention_feature, graph_feature, point_transformer_feature
from pyrhead.operators import (ATTENTION_GATES, GRAPH_GATES,
                               TRANSFORMER_GATES, NeighborBundle,
                               hard_membership, init_attention_params,
                               roi_grid_attention, soft_radius_coeff)
from pyrhead.spatial import PointSet, build_index
from pyrhead.synth import (SceneConfig, evaluate, generate_scenes,
                           single_level_baseline, train_toy)

# toy-training operating point (criterion 6)
TRAIN_STEPS = 500
TRAIN_LR = 0.0075
TRAIN_SCENES = 200
TRAIN_SEEDS = (0, 1, 2, 3, 4)
EVAL_SCENES = 60


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}  {detail}")


def test_gate_reduction_equivalence():
    """Unified operator with pinned gates matches the standalone operators."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = [(graph_feature, GRAPH_GATES), (attention_feature, ATTENTION_GATES),
             (point_transformer_feature, TRANSFORMER_GATES)]
    for fn, gates in cases:
        for _ in range(100):
            m = int(rng.integers(1, 33))
            d = 64
            dirs = rng.normal(size=(m, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            offsets = dirs * rng.uniform(0.05, 1.0, size=(m, 1))
            nb = NeighborBundle(np.zeros(3), rng.permutation(3 * m)[:m],
                                offsets, rng.normal(size=(m, d)))
            params = init_attention_params(rng, d, d_model=64, heads=4)
            want = fn(nb, params).data
            got = roi_grid_attention(nb, params, gates).data
            scale = max(float(np.max(np.abs(want))), 1e-12)
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 30.0
    report("gate-reduction-equivalence", ok,
           f"max_rel_err={worst:.3e} (<1e-6), runtime={elapsed:.1f}s (<30s)")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_gradient_suite():
    """Reverse-mode vs central differences for every operator, the radius,
    the radius head, and the full head loss."""
    started = time.perf_counter()
    results = run_gradcheck(seed=0)
    elapsed = time.perf_counter() - started
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 120.0
    detail = f"groups={len(results)}, worst={worst:.3e} (<1e-4), " \
             f"runtime={elapsed:.1f}s (<120s)"
    report("gradient-suite", ok, detail)
    for r in results:
        assert r.passed, f"{r.group}: {r.max_rel_err:.3e}"
    assert elapsed < 120.0


def test_soft_hard_radius_consistency():
    """The soft membership approximates the hard indicator away from the
    boundary at low temperature."""
    tau = 1e-4
    r = 1.0
    d = np.linspace(0.0, 3.0 * r, 10_000)
    soft = soft_radius_coeff(d, r, tau)
    hard = hard_membership(d, r)
    off_boundary = np.abs(d - r) > 10 * tau
    worst = float(np.max(np.abs(soft[off_boundary] - hard[off_boundary])))
    ok = worst < 1e-3
    report("soft-hard-radius-consistency", ok, f"max|s-p|={worst:.3e} (<1e-3)")
    assert ok


def test_geometry_oracle():
    """Grid generation equals a brute-force lattice+rotation oracle; the
    default pyramid has exactly 409 grid points."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        corner = rng.uniform(-20, 20, 3)
        extents = rng.uniform(0.3, 8.0, 3)
        sizes = tuple(int(v) for v in rng.integers(1, 7, 3))
        ratios = tuple(rng.uniform(1.0, 4.0, 3))
        yaw = float(rng.uniform(-math.pi, math.pi - 1e-9))
        anchor = "corner" if rng.integers(2) else "center"
        box = Box3D(corner, extents, yaw)
        level = PyramidLevelConfig(GridSpec(sizes), ratios, anchor_mode=anchor)
        got = pyramid_grid_points(box, level)
        # oracle: nested loops, explicit rotation matrix
        center = corner + extents / 2.0
        base = corner if anchor == "corner" else \
            center - 0.5 * np.asarray(ratios) * extents
        want = []
        for i in range(sizes[0]):
            for j in range(sizes[1]):
                for k in range(sizes[2]):
                    want.append([
                        ratios[0] * extents[0] / sizes[0] * (0.5 + i) + base[0],
                        ratios[1] * extents[1] / sizes[1] * (0.5 + j) + base[1],
                        ratios[2] * extents[2] / sizes[2] * (0.5 + k) + base[2],
                    ])
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        want = (np.asarray(want) - center) @ rot.T + center
        worst = max(worst, float(np.max(np.abs(got - want))))
    count = pyramid_point_count(default_pyramid_config())
    ok = worst < 1e-12 and count == 409
    report("geometry-oracle", ok,
           f"max_abs_err={worst:.2e} (<1e-12), default grid points={count} (=409)")
    assert worst < 1e-12
    assert count == 409


def test_spatial_index_exactness():
    """Hash-grid queries equal brute-force scans on random scenes."""
    rng = np.random.default_rng(7)
    scenes = 0
    for _ in range(100):
        n = int(np.exp(rng.uniform(np.log(10), np.log(100_000))))
        span = float(rng.uniform(10, 80))
        coords = rng.uniform(0, span, size=(n, 3))
        ps = PointSet(coords, np.zeros((n, 1)))
        idx = build_index(ps, cell=float(rng.uniform(0.5, 4.0)))
        for _ in range(4):
            center = rng.uniform(-2, span + 2, 3)
            r = float(rng.uniform(0.2, 5.0))
            tau = float(rng.uniform(1e-4, 0.1))
            got = idx.query(center, r, 10**9)[0]
            d = np.linalg.norm(coords - center, axis=1)
            want = np.nonzero(d <= r)[0]
            assert set(got.tolist()) == set(want.tolist())
            got_e = NeighborBundle.gather_extended(ps, idx, center, r, tau, 10**9).ids
            want_e = np.nonzero(d <= r + 5 * tau)[0]
            assert set(got_e.tolist()) == set(want_e.tolist())
        scenes += 1
    report("spatial-index-exactness", True, f"{scenes} scenes, id sets equal")


def test_toy_training():
    """Loss halves, the pyramid beats the fixed-radius single-level baseline
    by >= 5 accuracy points, a learned radius moves, on seeds 0..4."""
    started = time.perf_counter()
    head_cfg = HeadConfig()
    base_cfg = single_level_baseline(head_cfg)
    scene_cfg = SceneConfig()
    ev_scenes = generate_scenes(
        dataclasses.replace(scene_cfg, seed=9000), EVAL_SCENES)
    rows = []
    all_ok = True
    for seed in TRAIN_SEEDS:
        res = train_toy(head_cfg, scene_cfg, steps=TRAIN_STEPS, lr=TRAIN_LR,
                        seed=seed, n_scenes=TRAIN_SCENES)
        acc = evaluate(head_cfg, res.params, ev_scenes).accuracy
        res_b = train_toy(base_cfg, scene_cfg, steps=TRAIN_STEPS, lr=TRAIN_LR,
                          seed=seed, n_scenes=TRAIN_SCENES)
        acc_b = evaluate(base_cfg, res_b.params, ev_scenes).accuracy
        halved = res.final_loss < 0.5 * res.untrained_loss
        gap = acc - acc_b
        moved = res.max_radius_shift() > 1e-3
        ok = halved and gap >= 0.05 and moved
        all_ok &= ok
        rows.append(f"seed {seed}: loss {res.untrained_loss:.3f}->"
                    f"{res.final_loss:.3f} halved={halved}, acc {acc:.3f} vs "
                    f"baseline {acc_b:.3f} gap={gap:+.3f}, "
                    f"radius_shift={res.max_radius_shift():.4f} moved={moved}")
    elapsed = time.perf_counter() - started
    all_ok &= elapsed < 600.0
    report("toy-training", all_ok, f"runtime={elapsed:.0f}s (<600s)")
    for row in rows:
        print("  " + row)
    assert all_ok, "\n".join(rows) + f"\nruntime={elapsed:.0f}s"


def _cli(args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run([sys.executable, "-m", "pyrhead"] + args,
                          capture_output=True, env=full_env)
    return proc.returncode, proc.stdout


def test_determinism_across_runs_and_threads(tmp_path):
    """gradcheck and train-toy outputs are byte-identical for the same seed
    under --threads 1 and --threads 4."""
    outputs = {}
    for name, threads in [("g1", "1"), ("g4", "4")]:
        out = tmp_path / f"{name}.txt"
        code, stdout = _cli(["gradcheck", "--seed", "1", "--threads", threads,
                             "--out", str(out)])
        assert code == 0, stdout
        outputs[name] = out.read_bytes() + stdout
    gradcheck_ok = outputs["g1"] == outputs["g4"]
    for name, threads in [("t1", "1"), ("t4", "4")]:
        out = tmp_path / f"{name}.json"
        code, stdout = _cli(["train-toy", "--seed", "2", "--steps", "30",
                             "--scenes", "12", "--lr", "0.002",
                             "--threads", threads, "--out", str(out)])
        assert code == 0, stdout
        outputs[name] = out.read_bytes() + stdout
    train_ok = outputs["t1"] == outputs["t4"]
    ok = gradcheck_ok and train_ok
    report("determinism", ok,
           f"gradcheck identical={gradcheck_ok}, train-toy identical={train_ok}")
    assert ok


def test_microbenchmark_ball_query():
    """10^5 points, 4096 queries at r=2.4 in under a second, single thread."""
    rng = np.random.default_rng(0)
    n, q, r = 100_000, 4096, 2.4
    side = float(n) ** (1.0 / 3.0)  # one point per cubic meter
    ps = PointSet(rng.uniform(0, side, size=(n, 3)), np.zeros((n, 1)))
    idx = build_index(ps, cell=r)
    queries = rng.uniform(0, side, size=(q, 3))
    started = time.perf_counter()
    total = 0
    for c in queries:
        total += idx.query(c, r, max_k=64)[0].size
    elapsed = time.perf_counter() - started
    ok = elapsed < 1.0
    report("microbenchmark-ball-query", ok,
           f"{q} queries in {elapsed:.3f}s (<1s), mean hits {total / q:.1f}")
    assert ok
