"""Tests of the benchmark itself: seeded inputs, the output check, the hooks.

Run from the repository root: ``python3 -m pytest -q pyrbench``.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pyrbench import oracle, tracer, workloads  # noqa: E402
from pyrbench.run import measure  # noqa: E402
from pyrhead.geometry import pyramid_point_count  # noqa: E402

# small pools keep set-up cheap; two warm-up steps move the trained radii
SMALL = {name: dataclasses.replace(wl, pool=3, warmup=2)
         for name, wl in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_scenes(name):
    a, b, c = (workloads.State(SMALL[name], seed) for seed in (7, 7, 8))
    for sa, sb in zip(a.scenes, b.scenes):
        np.testing.assert_array_equal(sa.ps.coords, sb.ps.coords)
        np.testing.assert_array_equal(sa.ps.feats, sb.ps.feats)
        for pa, pb in zip(sa.proposals, sb.proposals):
            np.testing.assert_array_equal(pa.corner, pb.corner)
            assert pa.yaw == pb.yaw
    for (_, pa), (_, pb) in zip(a.params.named_parameters(), b.params.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    assert not np.array_equal(a.scenes[0].ps.coords, c.scenes[0].ps.coords)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_output_check_passes_and_catches_a_perturbed_output(name):
    st = workloads.setup(SMALL[name], 3)
    ps, idx, rois, dets = workloads.probe(st)
    assert oracle.check(st.cfg, st.params, ps, idx, rois, st.tau, dets) == []
    d = dets[1]
    bad_score = dets[:1] + [dataclasses.replace(d, score=d.score * (1 + 1e-6))]
    bad_res = dets[:1] + [dataclasses.replace(d, residuals=d.residuals + 1e-6)]
    for bad in (bad_score, bad_res):
        errors = oracle.check(st.cfg, st.params, ps, idx, rois, st.tau, bad)
        assert len(errors) == 1 and errors[0].startswith("roi 1:")


def test_every_hook_finds_its_target():
    tr = tracer.Tracer()
    hooked = {f"{layer}.{name}" for layer, names in tr.hooked.items() for name in names}
    for layer in tracer.LAYERS:
        assert tr.hooked[layer], layer
    for role, names in tracer.ROLE_NAMES.items():
        for name in names:
            assert f"{role.split('.')[0]}.{name}" in hooked, (role, name)
    for layer, quals in tracer.METHODS.items():
        for qual in quals:
            assert f"{layer}.{qual}" in hooked


def test_a_layer_without_calls_fails_loudly():
    with pytest.raises(tracer.HookError, match="never called"):
        tracer.LayerTotals().check_called()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_ops_reach_every_layer_and_unhook(name):
    wl = SMALL[name]
    st = workloads.setup(wl, 1)
    tr, totals = tracer.Tracer(), tracer.LayerTotals()
    m = measure(st, 0.0, 4, tr, totals)
    assert m.failed == 0 and len(m.lat_s) == 4
    assert m.rois_by[True] > 0 and m.rois_by[False] > 0
    totals.check_called()
    got = {k: v for k, (v, _) in totals.metrics().items()}
    for key in ("spatial.gather_ms", "spatial.neighbors", "spatial.candidates",
                "geometry.grid_points", "darp.context_ms", "operators.attend_calls",
                "operators.slots", "head.forward_ms", "head.forward_self_ms",
                "head.refine_ms"):
        assert got[key] > 0, key
    assert 0 < got["spatial.hit_ratio"] <= 1
    assert got["operators.slot_fill"] == 1.0
    assert got["geometry.grid_points"] == \
        len(st.scenes[0].proposals) * pyramid_point_count(st.cfg.pyramid)
    trained = ("autodiff.backward_ms", "autodiff.tape_nodes", "synth.update_ms",
               "head.loss_ms")
    assert all((got[k] > 0) == wl.train for k in trained)
    assert (got["spatial.build_ms"] > 0) == (not wl.train)
    darp = ("darp.radius_ms", "operators.soft_radius_ms")
    assert all((got[k] > 0) == st.cfg.darp_enabled for k in darp)
    assert not hasattr(workloads.head.run_head, "__wrapped__")
    assert not hasattr(workloads.spatial.SpatialIndex.query, "__wrapped__")


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    st = workloads.setup(SMALL["train_sparse"], 1)
    totals = tracer.LayerTotals()
    measure(st, 0.0, 2, tracer.Tracer(), totals)
    traced = set(totals.metrics()) | {"trace.rois_per_s_traced",
                                      "trace.rois_per_s_untraced", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    mapped = {m for layer in json.loads((ROOT / "pyrbench" / "metric_map.json")
                                        .read_text())["layers"].values()
              for m in layer["metrics"]}
    assert mapped <= traced


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "pyrbench", tmp_path / "pyrbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "pyrbench/run.py", "--workload", "train_sparse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
