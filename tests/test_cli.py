"""CLI contract: outputs, exit codes, determinism, config diagnostics."""
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pyrhead.cli import run
from pyrhead.head import CONFIG_SCHEMA_VERSION


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridgen:
    def test_unit_cube_grid(self, capsys):
        code, out, _ = invoke(["gridgen", "--box", "0,0,0,2,2,2,0",
                               "--grid", "2,2,2"], capsys)
        assert code == 0
        pts = json.loads(out)["levels"][0]
        assert len(pts) == 8
        got = {tuple(p) for p in pts}
        assert got == {(a, b, c) for a in (0.5, 1.5) for b in (0.5, 1.5)
                       for c in (0.5, 1.5)}

    def test_csv_format(self, capsys):
        code, out, _ = invoke(["gridgen", "--box", "0,0,0,1,1,1,0",
                               "--grid", "1,1,1", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,x,y,z"
        assert len(lines) == 2

    def test_pyramid_config_file(self, tmp_path, capsys):
        from pyrhead.geometry import default_pyramid_config
        cfg = tmp_path / "pyr.json"
        cfg.write_text(default_pyramid_config().to_json())
        code, out, _ = invoke(["gridgen", "--box", "0,0,0,2,4,2,0.3",
                               "--config", str(cfg)], capsys)
        assert code == 0
        levels = json.loads(out)["levels"]
        assert sum(len(lv) for lv in levels) == 409

    def test_malformed_box(self, capsys):
        code, _, err = invoke(["gridgen", "--box", "1,2,3"], capsys)
        assert code == 2
        assert "--box" in err


class TestAttend:
    @pytest.mark.parametrize("op", ["graph", "attention", "transformer"])
    def test_unified_with_graph_gates_matches_graph(self, op, capsys):
        # each named op is the unified operator with pinned gates; both must
        # match the standalone oracle of that operator
        import oracles
        from pyrhead.cli import _fixture_scene
        from pyrhead.operators import NeighborBundle, init_attention_params
        from pyrhead.spatial import build_index
        gates, oracle = {
            "graph": ("1,0,0,0", oracles.graph_feature),
            "attention": ("0,0,1,0", oracles.attention_feature),
            "transformer": ("1,1,0,1", oracles.point_transformer_feature)}[op]
        base = ["--seed", "5", "--radius", "1.4", "--grid-point", "0,0,0"]
        code, out_op, _ = invoke(["attend", "--op", op] + base, capsys)
        assert code == 0
        code, out_unified, _ = invoke(
            ["attend", "--op", "unified", "--gates", gates] + base, capsys)
        assert code == 0
        ps = _fixture_scene(5)
        nb = NeighborBundle.gather(ps, build_index(ps, 1.4), [0, 0, 0], 1.4, 16)
        params = init_attention_params(np.random.default_rng(5), ps.feat_width)
        want = oracle(nb, params).data
        assert len(nb) > 1
        scale = max(np.max(np.abs(want)), 1e-12)
        for out in (out_op, out_unified):
            got = np.array(json.loads(out)["f_grid"])
            assert np.max(np.abs(got - want)) / scale < 1e-6

    def test_scene_fixture_json(self, tmp_path, capsys):
        from pyrhead.spatial import PointSet
        rng = np.random.default_rng(0)
        ps = PointSet(rng.uniform(-1, 1, (20, 3)), rng.normal(size=(20, 8)))
        fixture = tmp_path / "scene.json"
        fixture.write_text(ps.to_json())
        code, out, _ = invoke(["attend", "--op", "pool", "--scene",
                               str(fixture), "--radius", "2.0"], capsys)
        assert code == 0
        assert len(json.loads(out)["f_grid"]) == 64

    def test_darp_op_runs(self, capsys):
        code, out, _ = invoke(["attend", "--op", "darp", "--seed", "2",
                               "--radius", "1.0", "--tau", "0.01"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["op"] == "darp" and len(doc["f_grid"]) == 64

    @pytest.mark.parametrize("op", ["attention", "transformer", "unified"])
    def test_remaining_ops_run(self, op, capsys):
        code, out, _ = invoke(["attend", "--op", op, "--seed", "4",
                               "--radius", "1.5"], capsys)
        assert code == 0
        assert len(json.loads(out)["f_grid"]) == 64

    def test_csv_output(self, capsys):
        code, out, _ = invoke(["attend", "--op", "graph", "--seed", "1",
                               "--radius", "1.5", "--format", "csv"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 64


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(["nonsense"]) == 2

    def test_unknown_flag_rejected(self, capsys):
        assert run(["gridgen", "--box", "0,0,0,1,1,1,0", "--bogus", "1"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run(["gridgen"]) == 2

    @pytest.mark.parametrize("edit,want", [
        (lambda d: d.clear(), "config field 'anchor_mode' is missing"),
        (lambda d: d["levels"][1].update(typo=1), "unknown config field 'levels[1].typo'"),
        (lambda d: d["levels"][0].update(grid=[2, 2]),
         "config field 'levels[0].grid': [2, 2] is not a valid tuple[int, int, int]"),
        (lambda d: d.update(extra=1) or d["levels"][2].update(max_neighbors="4"),
         "unknown config field 'extra'"),
        (lambda d: d["levels"][2].update(max_neighbors="4"),
         "config field 'levels[2].max_neighbors': \"4\" is not a valid int"),
    ], ids=["empty", "level_typo", "grid_len", "top_extra", "int_str"])
    def test_gridgen_rejects_bad_pyramid_config(self, tmp_path, capsys, edit, want):
        from pyrhead.geometry import default_pyramid_config
        doc = json.loads(default_pyramid_config().to_json())
        edit(doc)
        cfg = tmp_path / "pyr.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = invoke(["gridgen", "--box", "0,0,0,1,1,1,0",
                                 "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {want}"]

    def test_malformed_json_config_line_column(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{\n  "levels": [\n    {"grid" [6,6,6]}\n  ]\n}\n')
        code, _, err = invoke(["gridgen", "--box", "0,0,0,1,1,1,0",
                               "--config", str(bad)], capsys)
        assert code == 2
        assert "line 3" in err and "column" in err

    def test_attend_rejects_zero_max_k(self, capsys):
        for op in ("unified", "darp"):
            code, out, err = invoke(["attend", "--op", op, "--max-k", "0"], capsys)
            assert code == 2 and out == ""
            assert "max_k" in err

    @pytest.mark.parametrize("argv,config,scene,field", [
        (["attend", "--op", "unified", "--heads", "0"], None, None, "heads"),
        (["train-toy", "--steps", "1", "--scenes", "1"], {"heads": 0}, None, "heads"),
        (["train-toy", "--steps", "1", "--scenes", "0"], None, None, "n_scenes"),
        (["stats", "--scenes", "-1"], None, None, "scene count"),
        (["attend", "--op", "darp", "--tau", "nan"], None, None, "tau"),
        (["train-toy", "--steps", "1", "--scenes", "1", "--lr", "nan"], None, None, "lr"),
        (["train-toy", "--steps", "1", "--scenes", "1", "--momentum", "-5"], None, None,
         "momentum"),
        (["attend", "--op", "unified", "--d-model", "0"], None, None, "d_model"),
        (["gridgen", "--box", "0,0,nan,1,1,1,0"], None, None, "finite"),
        (["gridgen", "--box", "0,0,0,1,1,inf,0"], None, None, "finite"),
        (["gridgen", "--box", "0,0,0,1,1,1,nan"], None, None, "finite"),
        (["gridgen", "--box", "0,0,0,1,1,1,0", "--grid", "1.7,1,1"], None, None, "--grid"),
        (["attend", "--op", "graph"], None, "[1, 2]", "JSON object"),
        (["attend", "--op", "graph"], None, "null", "JSON object"),
        (["attend", "--op", "graph", "--radius", "nan"], None, None, "--radius"),
    ], ids=["attend_heads_0", "config_heads_0", "train_scenes_0",
            "stats_scenes_neg", "darp_tau_nan", "train_lr_nan",
            "train_momentum_neg", "attend_d_model_0", "gridgen_corner_nan",
            "gridgen_extent_inf", "gridgen_yaw_nan", "gridgen_grid_fraction",
            "attend_scene_list", "attend_scene_null", "attend_radius_nan"])
    def test_bad_input_exits_two_with_one_error_line(self, tmp_path, capsys,
                                                     argv, config, scene, field):
        if config is not None:
            from pyrhead.head import HeadConfig
            doc = json.loads(HeadConfig().to_json())
            doc.update(config)
            path = tmp_path / "head.json"
            path.write_text(json.dumps(doc))
            argv = argv + ["--config", str(path)]
        if scene is not None:
            path = tmp_path / "scene.json"
            path.write_text(scene)
            argv = argv + ["--scene", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = invoke(argv, capsys)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert field in err

    @pytest.mark.parametrize("op", ["pool", "graph", "attention", "transformer"])
    def test_attend_rejects_gates_for_ops_without_them(self, capsys, op):
        code, out, err = invoke(["attend", "--op", op, "--gates", "1,0,0,0"], capsys)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "--gates" in err and op in err

    @pytest.mark.parametrize("defect", ["truncated", "trailing", "nan_feature"])
    def test_attend_rejects_bad_pset(self, tmp_path, capsys, defect):
        from pyrhead.spatial import PointSet
        path = tmp_path / "scene.pset"
        PointSet(np.zeros((5, 3)), np.ones((5, 8))).save(path)
        raw = path.read_bytes()
        size = 12 + 5 * 11 * 4
        if defect == "truncated":
            raw, want = raw[:-3], f"needs {size} bytes, file has {size - 3}"
        elif defect == "trailing":
            raw, want = raw + b"\0" * 8, f"needs {size} bytes, file has {size + 8}"
        else:
            raw = raw[:-4] + np.array([np.nan], dtype="<f4").tobytes()
            want = "features must be finite"
        path.write_bytes(raw)
        code, out, err = invoke(["attend", "--op", "graph", "--scene", str(path)], capsys)
        assert code == 2 and out == ""
        assert str(path) in err and want in err

    def test_help_includes_schema_version(self, capsys):
        assert run(["--help"]) == 0
        assert CONFIG_SCHEMA_VERSION in capsys.readouterr().out

    def test_subcommand_help_includes_schema_version(self, capsys):
        assert run(["gradcheck", "--help"]) == 0
        assert CONFIG_SCHEMA_VERSION in capsys.readouterr().out


class TestStatsAndTrain:
    def test_stats_csv(self, tmp_path, capsys):
        out_file = tmp_path / "stats.csv"
        code, _, _ = invoke(["stats", "--scenes", "2", "--seed", "3",
                             "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "bucket,interior_objects,gathered_rois"
        assert len(lines) == 6

    def test_stats_accepts_threads_as_a_no_op(self, capsys):
        outs = []
        for threads in ("1", "4"):
            code, out, _ = invoke(["stats", "--scenes", "2", "--seed", "3",
                                   "--threads", threads], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_train_toy_writes_metrics_and_is_deterministic(self, tmp_path,
                                                           capsys):
        args = ["train-toy", "--steps", "3", "--scenes", "2", "--lr", "0.001",
                "--seed", "1", "--format", "json"]
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code, stdout, _ = invoke(args + ["--out", str(path)], capsys)
            assert code == 0
            summary = json.loads(stdout)
            assert {"initial_loss", "final_loss", "max_radius_shift"} <= \
                set(summary)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("lr,steps,scenes", [("50", "40", "4"), ("1e6", "2", "2")])
    def test_diverged_training_exits_two(self, tmp_path, capsys, lr, steps, scenes):
        code, out, err = invoke(["train-toy", "--lr", lr, "--steps", steps,
                                 "--scenes", scenes,
                                 "--out", str(tmp_path / "m.json")], capsys)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "training diverged" in err and "--lr" in err

    @pytest.mark.parametrize("edit,field", [
        ({"feat_width": 11}, "feat_width"),
        ({"feat_widht": 8}, "feat_widht"),
        ({"darp_enabled": "no"}, "darp_enabled"),
    ])
    def test_train_toy_rejects_bad_config(self, tmp_path, capsys, edit, field):
        from pyrhead.head import HeadConfig
        doc = json.loads(HeadConfig().to_json())
        doc.update(edit)
        cfg = tmp_path / "head.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = invoke(["train-toy", "--config", str(cfg), "--steps", "1",
                                 "--scenes", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and field in err

    def test_train_toy_csv_format(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        code, _, _ = invoke(["train-toy", "--steps", "2", "--scenes", "1",
                             "--lr", "0.001", "--format", "csv",
                             "--out", str(path)], capsys)
        assert code == 0
        assert path.read_text().startswith("step,loss,grad_norm")


@pytest.mark.parametrize("command,flag", [
    ("gridgen", "--seed"), ("gridgen", "--threads"),
    ("attend", "--config"), ("attend", "--threads"),
    ("gradcheck", "--config"),
    ("stats", "--config"), ("stats", "--format"),
])
def test_rejects_shared_flag_it_does_not_read(capsys, command, flag):
    required = {"gridgen": ["--box", "0,0,0,1,1,1,0"], "attend": ["--op", "unified"]}
    value = {"--seed": "1", "--threads": "2", "--config": "c.json", "--format": "json"}
    code, out, err = invoke([command, *required.get(command, []), flag, value[flag]],
                            capsys)
    assert code == 2 and out == ""
    assert flag in err


class TestGradcheckWiring:
    def test_failure_maps_to_exit_one(self, monkeypatch, capsys):
        from pyrhead import cli as cli_mod
        from pyrhead.gradcheck import CheckResult
        monkeypatch.setattr(cli_mod, "run_gradcheck",
                            lambda seed: [CheckResult("stub", 1.0)])
        assert cli_mod.run(["gradcheck", "--format", "csv"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_success_maps_to_exit_zero(self, monkeypatch, capsys):
        from pyrhead import cli as cli_mod
        from pyrhead.gradcheck import CheckResult
        monkeypatch.setattr(cli_mod, "run_gradcheck",
                            lambda seed: [CheckResult("stub", 1e-9)])
        assert cli_mod.run(["gradcheck", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True


class TestOutputDeterminism:
    def test_attend_byte_identical(self, capsys):
        args = ["attend", "--op", "unified", "--seed", "11", "--radius", "1.3"]
        outs = []
        for _ in range(2):
            assert run(args) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_gridgen_byte_identical(self, capsys):
        args = ["gridgen", "--box", "0.1,0.2,0.3,2,3,1.5,0.4",
                "--grid", "3,2,2", "--ratios", "1.5,1.5,1"]
        outs = []
        for _ in range(2):
            assert run(args) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestModuleEntry:
    def test_public_names_resolve(self):
        import pyrhead
        missing = [name for name in pyrhead.__all__ if not hasattr(pyrhead, name)]
        assert missing == []

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pyrhead", "gridgen",
             "--box", "0,0,0,2,2,2,0", "--grid", "1,1,1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        pts = json.loads(proc.stdout)["levels"][0]
        assert pts == [[1.0, 1.0, 1.0]]
