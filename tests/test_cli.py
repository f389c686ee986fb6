"""CLI contract: outputs, exit codes, determinism, config diagnostics."""
import csv
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracles
from pyrhead.cli import run
from pyrhead.head import CONFIG_SCHEMA_VERSION

NAN, INF = float("nan"), float("inf")   # written as NaN and Infinity by json.dumps
TRAIN_1 = ("--steps", "1", "--scenes", "1")


def level2_ratio_nan(doc):
    doc["pyramid"]["levels"][2]["ratios"] = [NAN, 1.5, 1.0]


def level2_r_pre_inf(doc):
    doc["pyramid"]["levels"][2]["r_pre"] = INF


def level0_grid_huge(doc):
    doc["pyramid"]["levels"][0]["grid"] = [1000, 1000, 1000]


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
        cfg.write_text(oracles.pyramid_config_json(default_pyramid_config()))
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
        params = init_attention_params(np.random.default_rng(5), ps.feat_width, 64, 4)
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
        fixture.write_text(oracles.point_set_json(ps))
        code, out, _ = invoke(["attend", "--op", "pool", "--scene",
                               str(fixture), "--radius", "2.0"], capsys)
        assert code == 0
        assert len(json.loads(out)["f_grid"]) == 64

    @pytest.mark.parametrize("op", ["graph", "darp"])
    def test_scene_without_feature_columns(self, tmp_path, capsys, op):
        """Keys then come from the bias alone; no weight draw divides by zero."""
        fixture = tmp_path / "scene.json"
        fixture.write_text(json.dumps({"coords": [[0, 0, 0], [0.5, 0, 0]],
                                       "feats": [[], []]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = invoke(["attend", "--op", op, "--scene", str(fixture)], capsys)
        assert code == 0
        assert json.loads(out)["neighbors"] == 2

    def test_darp_op_runs(self, capsys):
        code, out, _ = invoke(["attend", "--op", "darp", "--seed", "2",
                               "--radius", "1.0", "--tau", "0.01"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["op"] == "darp" and len(doc["f_grid"]) == 64

    def test_darp_far_neighbours_saturate_at_the_smallest_tau(self, capsys):
        # (d - r) / tau overflows for every fixture point; under the suite's
        # error::RuntimeWarning filter a warning would fail the run
        code, out, err = invoke(["attend", "--op", "darp", "--tau", "1e-300",
                                 "--radius", "1e150"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["neighbors"] == 16

    @pytest.mark.parametrize("tau", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("op", ["pool", "graph", "attention", "transformer",
                                    "unified", "darp"])
    def test_bad_tau_exits_two_whatever_the_op(self, op, tau, capsys):
        # only darp reads --tau, but every op rejects a bad one the same way
        code, out, err = invoke(["attend", "--op", op, "--tau", tau], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: --tau must be positive and finite, "
                                    f"got {float(tau)}"]

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


class TestHugeCoordinates:
    """Coordinates and centres beyond spatial.MAX_COORD = 1e150 are rejected
    where they enter, so squared offsets never overflow; sizes too large for
    an int64 sort key are rejected before any cast."""

    @pytest.mark.parametrize("argv,scene,want", [
        (["--grid-point", "1e200,0,0", "--radius", "2e200", "--max-k", "64"], None,
         "query centre must be finite and at most 1e+150"),
        (["--grid-point", "1e155,0,0", "--radius", "2e155"], None,
         "query centre must be finite and at most 1e+150"),
        (["--radius", "1"], '{"coords": [[1e20, 0, 0], [0, 0, 0]], "feats": [[1], [1]]}',
         "a sort key over 1e+20 x 1 x 1 values does not fit in int64"),
        ([], '{"coords": [[0, 0, 0], [0, -2e150, 0]], "feats": [[1], [1]]}',
         "coordinates must be at most 1e+150 in magnitude"),
    ], ids=["centre_1e200", "centre_1e155", "scene_point_1e20", "scene_point_2e150"])
    def test_exits_two_with_one_error_line(self, tmp_path, capsys, argv, scene, want):
        if scene is not None:
            path = tmp_path / "scene.json"
            path.write_text(scene)
            argv = argv + ["--scene", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = invoke(["attend", "--op", "graph", *argv], capsys)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and want in err

    def test_centre_at_the_bound_finds_every_point(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = invoke(["attend", "--op", "graph", "--grid-point", "1e150,0,0",
                                   "--radius", "2e150", "--max-k", "64"], capsys)
        assert code == 0
        assert json.loads(out)["neighbors"] == 64


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
        doc = json.loads(oracles.pyramid_config_json(default_pyramid_config()))
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

    def test_malformed_head_config_line_column(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{\n  "schema_version": "pyrhead-config/1",\n  "heads" 4\n}\n')
        code, out, err = invoke(["train-toy", *TRAIN_1, "--config", str(bad)], capsys)
        assert code == 2 and out == ""
        assert err == (f"error: {bad}: invalid JSON at line 3, column 11: "
                       "Expecting ':' delimiter\n")

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
        (["attend", "--op", "unified", "--d-model", "0"], None, None, "d_model"),
        (["gridgen", "--box", "0,0,nan,1,1,1,0"], None, None, "finite"),
        (["gridgen", "--box", "0,0,0,1,1,inf,0"], None, None, "finite"),
        (["gridgen", "--box", "0,0,0,1,1,1,nan"], None, None, "finite"),
        (["gridgen", "--box", "0,0,0,1,1,1,0", "--grid", "1.7,1,1"], None, None, "--grid"),
        (["attend", "--op", "graph"], None, "[1, 2]", "JSON object"),
        (["attend", "--op", "graph"], None, "null", "JSON object"),
        (["attend", "--op", "graph", "--radius", "nan"], None, None, "--radius"),
        (["attend", "--op", "darp", "--grid-point", "nan,0,0"], None, None,
         "centre must be finite"),
        (["attend", "--op", "graph", "--grid-point", "0,inf,0"], None, None,
         "centre must be finite"),
        (["attend", "--op", "graph"], None, "{}", "'coords' is missing"),
        (["attend", "--op", "graph"], None, '{"coords": [[0, 0, 0]]}', "'feats' is missing"),
        (["attend", "--op", "graph"], None, '{"coords": [1, 2], "feats": []}',
         "'coords' must be a list of 3-vectors"),
        (["attend", "--op", "graph"], None, '{"coords": [[0, 0, "x"]], "feats": [[1]]}',
         "'coords' must hold numbers only, got 'x'"),
        (["attend", "--op", "graph"], None, '{"coords": [[0, 0,', "line 1"),
        (["stats", "--scenes", "1", "--seed", "-1"], None, None, "--seed"),
        (["train-toy", "--steps", "1", "--scenes", "1", "--seed", "-1"], None, None,
         "--seed"),
        (["attend", "--op", "graph", "--seed", "-1"], None, None, "--seed"),
        (["gradcheck", "--seed", "-1"], None, None, "--seed"),
        (["gridgen", "--box", "0,0,0,1,1,1,0"], level2_ratio_nan, None, "ratios"),
        (["gridgen", "--box", "0,0,0,1,1,1,0"], level2_r_pre_inf, None, "r_pre"),
        (["train-toy", *TRAIN_1], level2_ratio_nan, None, "ratios"),
        (["train-toy", *TRAIN_1], level2_r_pre_inf, None, "r_pre"),
        (["train-toy", *TRAIN_1], {"context_radii": [NAN, 4.8]}, None, "'context_radii'"),
        (["train-toy", *TRAIN_1], {"context_radii": [2.4, INF]}, None, "'context_radii'"),
        (["train-toy", *TRAIN_1], {"context_radii": []}, None, "'context_radii'"),
        (["train-toy", *TRAIN_1], {"reduce_width": 0}, None, "'reduce_width'"),
        (["train-toy", *TRAIN_1], {"context_sphere_width": 0}, None,
         "'context_sphere_width'"),
        (["train-toy", *TRAIN_1], {"radius_hidden": 0}, None, "'radius_hidden'"),
        (["train-toy", *TRAIN_1], {"fusion_widths": [128, 0]}, None, "'fusion_widths'"),
        (["train-toy", *TRAIN_1], {"r_min": -1}, None, "'r_min'"),
        (["train-toy", *TRAIN_1], {"iou_positive": 2}, None, "'iou_positive'"),
        (["gridgen", "--box", "0,0,0,1,1,1,0", "--grid", "100000,100000,100000"], None,
         None, "points, more than"),
        (["gridgen", "--box", "0,0,0,1,1,1,0", "--grid", "1000,1000,1000"], None,
         None, "grid sizes (1000, 1000, 1000)"),
        (["attend", "--op", "darp", "--radius", "1", "--tau", "1e308"], None, None,
         "--tau"),
        (["attend", "--op", "darp", "--tau", "1e-320"], None, None, "--tau"),
        (["gridgen", "--box", "0,0,0,10,1,1,0", "--grid", "2,1,1", "--ratios", "1e308,1,1"],
         None, None, "ratios (1e+308, 1.0, 1.0)"),
        (["gridgen", "--box", "1e308,0,0,1e308,1,1,0", "--grid", "2,1,1", "--ratios",
          "2,1,1"], None, None, "corner [1e+308, 0.0, 0.0]"),
        (["attend", "--op", "graph"], None, '{"coords": [[0, 0, 0], [1, 0, 0]], '
         '"feats": [[1, 2], [3]]}', "'feats' must be a list of equal-length vectors"),
        (["attend", "--op", "graph"], None, '{"coords": [[0, 0, 0]], "feats": [[1, true]]}',
         "'feats' must hold numbers only, got True"),
        (["gridgen", "--box", "0,0,0,2,2,2,0.3", "--anchor", "corner", "--grid", "9,9,9"],
         {}, None, "excludes --grid, --anchor"),
    ], ids=["attend_heads_0", "config_heads_0", "train_scenes_0",
            "stats_scenes_neg", "darp_tau_nan", "train_lr_nan",
            "attend_d_model_0", "gridgen_corner_nan",
            "gridgen_extent_inf", "gridgen_yaw_nan", "gridgen_grid_fraction",
            "attend_scene_list", "attend_scene_null", "attend_radius_nan",
            "darp_grid_point_nan", "attend_grid_point_inf",
            "attend_scene_no_coords", "attend_scene_no_feats", "attend_scene_flat_coords",
            "attend_scene_text_coord", "attend_scene_bad_json",
            "stats_seed_neg", "train_seed_neg", "attend_seed_neg", "gradcheck_seed_neg",
            "gridgen_ratio_nan", "gridgen_r_pre_inf", "train_ratio_nan", "train_r_pre_inf",
            "train_context_radius_nan", "train_context_radius_inf",
            "train_context_radii_empty", "train_reduce_width_0",
            "train_context_sphere_width_0", "train_radius_hidden_0",
            "train_fusion_width_0", "train_r_min_neg", "train_iou_positive_2",
            "gridgen_grid_huge", "gridgen_grid_1000", "darp_sampling_range_inf",
            "darp_tau_reciprocal_inf", "gridgen_ratio_overflow", "gridgen_corner_overflow",
            "attend_scene_ragged_feats", "attend_scene_bool_feat",
            "gridgen_config_with_level_flags"])
    def test_bad_input_exits_two_with_one_error_line(self, tmp_path, capsys,
                                                     argv, config, scene, field):
        if config is not None:
            from pyrhead.head import HeadConfig
            doc = json.loads(oracles.head_config_json(HeadConfig()))
            if callable(config):
                config(doc)
            else:
                doc.update(config)
            if argv[0] == "gridgen":  # the pyramid part alone
                doc = doc["pyramid"]
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
        if scene is not None:
            assert f"error: {path}: " in err

    def test_gridgen_grid_beyond_reach_writes_no_out_file(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = invoke(["gridgen", "--box", "0,0,0,10,1,1,0", "--grid", "2,1,1",
                                   "--ratios", "1e308,1,1", "--out", str(out)], capsys)
        assert code == 2 and err.startswith("error: box with corner")
        assert not out.exists()

    def test_gridgen_config_with_level_flags_writes_no_out_file(self, tmp_path, capsys):
        from pyrhead.geometry import default_pyramid_config
        config = tmp_path / "pyramid.json"
        config.write_text(oracles.pyramid_config_json(default_pyramid_config()))
        out = tmp_path / "grid.json"
        code, _, err = invoke(["gridgen", "--box", "0,0,0,2,2,2,0.3", "--config", str(config),
                               "--ratios", "1,1,1", "--out", str(out)], capsys)
        assert code == 2 and err == ("error: --config sets the pyramid levels and "
                                     "excludes --ratios\n")
        assert not out.exists()

    def test_memory_error_exits_two_with_one_error_line(self, capsys, monkeypatch):
        from pyrhead import cli

        def no_memory(*args):
            raise MemoryError("Unable to allocate 22.4 GiB")

        monkeypatch.setattr(cli, "sparsity_stats", no_memory)
        code, out, err = invoke(["stats", "--scenes", "1"], capsys)
        assert (code, out, err) == (2, "", "error: Unable to allocate 22.4 GiB\n")

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
        oracles.save_pset(PointSet(np.zeros((5, 3)), np.ones((5, 8))), path)
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


class TestNegativeListValues:
    """A comma-list value that starts with a minus sign may follow its flag
    as its own argument, as well as joined on with "="."""

    @pytest.mark.parametrize("argv,flag,value,code", [
        (["gridgen", "--grid", "2,1,1"], "--box", "-1,0,0,2,2,2,0", 0),
        (["gridgen", "--box", "0,0,0,1,1,1,0", "--format", "csv"], "--box", "-.5,0,0,1,1,1,0",
         0),
        (["gridgen", "--box", "0,0,0,1,1,1,0"], "--grid", "-1,2,2", 2),
        (["gridgen", "--box", "0,0,0,1,1,1,0"], "--ratios", "-.5,1,1", 2),
        (["attend", "--op", "graph"], "--grid-point", "-0.5,0,0", 0),
        (["attend", "--op", "unified"], "--gates", "-0.0,1,0.5,1", 0),
        (["attend", "--op", "darp"], "--gates", "-1,0,0,0", 2),
    ], ids=["box", "box_dot", "grid", "ratios", "grid_point", "gates", "gates_bad"])
    def test_spaced_form_equals_the_joined_form(self, capsys, argv, flag, value, code):
        spaced = invoke([*argv, flag, value], capsys)
        joined = invoke([*argv, f"{flag}={value}"], capsys)
        assert spaced == joined and spaced[0] == code

    @pytest.mark.parametrize("argv", [
        ["gridgen", "--box", "--format", "csv"],
        ["gridgen", "--box", "0,0,0,1,1,1,0", "--grid"],
        ["gridgen", "--box", "0,0,0,1,1,1,0", "--grid", "--ratios", "-1,1,1"],
        ["attend", "--op", "graph", "--grid-point", "--seed", "-1"],
    ], ids=["box_then_flag", "grid_last", "grid_then_list_flag", "grid_point_then_seed"])
    def test_missing_value_still_exits_two_with_one_error_line(self, capsys, argv):
        code, out, err = invoke(argv, capsys)
        errors = [line for line in err.splitlines() if "error:" in line]
        assert code == 2 and out == ""
        assert len(errors) == 1 and errors[0].endswith("expected one argument")


class TestStatsAndTrain:
    def test_stats_csv(self, tmp_path, capsys):
        from pyrhead.synth import (BUCKET_LABELS, SceneConfig, generate_scenes,
                                   sparsity_stats)
        out_file = tmp_path / "stats.csv"
        code, out, _ = invoke(["stats", "--scenes", "2", "--seed", "3",
                               "--out", str(out_file)], capsys)
        assert code == 0 and out == ""
        lines = out_file.read_text().splitlines()
        assert lines[0] == "bucket,interior_objects,gathered_rois"
        interior, gathered = sparsity_stats(generate_scenes(SceneConfig(seed=3), 2))
        assert lines[1:] == [f"{b},{interior[b]},{gathered[b]}" for b in BUCKET_LABELS]

    def test_stats_without_scenes(self, capsys):
        code, out, _ = invoke(["stats", "--scenes", "0"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "bucket,interior_objects,gathered_rois" and len(lines) == 6
        assert all(line.endswith(",0,0") for line in lines[1:])

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
            assert json.loads(path.read_text())["clipped_steps"] == summary["clipped_steps"]
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("lr,steps,scenes", [("50", "40", "4"), ("1e6", "2", "2")])
    def test_diverged_training_exits_two(self, tmp_path, capsys, lr, steps, scenes):
        """It leaves an existing --out file as it was."""
        path = tmp_path / "m.json"
        path.write_text("earlier run\n")
        code, out, err = invoke(["train-toy", "--lr", lr, "--steps", steps,
                                 "--scenes", scenes, "--out", str(path)], capsys)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "training diverged" in err and "--lr" in err
        assert path.read_text() == "earlier run\n"

    @pytest.mark.parametrize("edit,field", [
        ({"feat_width": 11}, "feat_width"),
        ({"feat_widht": 8}, "feat_widht"),
        ({"darp_enabled": "no"}, "darp_enabled"),
        ({"context_radii": [NAN, 4.8]}, "'context_radii'"),
        ({"context_radii": [4.8, 2.4]}, "'context_radii'"),
        ({"r_min": 1.0}, "r_min"),
        ({"tau_end": 0.0}, "tau_end"),
        ({"heads": 3}, "heads"),
        ({"gate_override": [2, 0, 0, 0]}, "'gate_override'"),
        ({"reg_weight": NAN}, "'reg_weight'"),
        ({"reg_weight": -1}, "'reg_weight'"),
        ({"reg_weight": INF}, "'reg_weight'"),
        ({"tau_start": INF}, "tau_start"),
        (level0_grid_huge, "grid sizes (1000, 1000, 1000)"),
        ({"tau_end": 1e-320}, "tau_end=1e-320"),
    ])
    def test_train_toy_rejects_bad_config(self, tmp_path, capsys, monkeypatch, edit, field):
        """A bad config exits 2 before any training scene is generated."""
        from pyrhead import synth
        from pyrhead.head import HeadConfig

        def no_scenes(*args, **kwargs):
            raise AssertionError("scenes generated before the config was checked")

        monkeypatch.setattr(synth, "generate_scenes", no_scenes)
        doc = json.loads(oracles.head_config_json(HeadConfig()))
        if callable(edit):
            edit(doc)
        else:
            doc.update(edit)
        cfg = tmp_path / "head.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = invoke(["train-toy", "--config", str(cfg), "--steps", "1",
                                 "--scenes", "200"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and field in err
        assert len(err.splitlines()) == 1

    def test_train_toy_csv_format(self, tmp_path, capsys):
        from pyrhead.head import HeadConfig
        path = tmp_path / "m.csv"
        code, _, _ = invoke(["train-toy", "--steps", "2", "--scenes", "1",
                             "--lr", "0.001", "--format", "csv",
                             "--out", str(path)], capsys)
        assert code == 0
        levels = len(HeadConfig().pyramid.levels)
        header, *rows = path.read_text().splitlines()
        assert header == "step,loss,grad_norm," + ",".join(
            f"r_level{i}" for i in range(levels))
        assert [row.split(",")[0] for row in rows] == ["0", "1"]
        assert all(len(row.split(",")) == 3 + levels for row in rows)

    @pytest.mark.parametrize("command", [
        ["train-toy", *TRAIN_1], ["stats", "--scenes", "1"], ["gradcheck"],
        ["gridgen", "--box", "0,0,0,1,1,1,0"], ["attend", "--op", "graph"]],
        ids=["train_toy", "stats", "gradcheck", "gridgen", "attend"])
    @pytest.mark.parametrize("target", ["missing/m.out", "."], ids=["no_dir", "a_dir"])
    def test_unwritable_out_exits_two_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       command, target):
        from pyrhead import cli, synth

        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for module, name in [(synth, "generate_scenes"), (cli, "generate_scenes"),
                             (cli, "run_gradcheck"), (cli, "pyramid_grid_points"),
                             (cli, "build_index")]:
            monkeypatch.setattr(module, name, no_work)
        out = tmp_path / target
        code, stdout, err = invoke([*command, "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert err == f"error: --out {out} must name a file in an existing directory\n"
        assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command,flag", [
    ("gridgen", "--seed"), ("gridgen", "--threads"),
    ("attend", "--config"), ("attend", "--threads"),
    ("gradcheck", "--config"),
    ("stats", "--config"), ("stats", "--format"), ("stats", "--threads"),
    ("train-toy", "--momentum"),
])
def test_rejects_shared_flag_it_does_not_read(capsys, command, flag):
    required = {"gridgen": ["--box", "0,0,0,1,1,1,0"], "attend": ["--op", "unified"]}
    value = {"--seed": "1", "--threads": "2", "--config": "c.json", "--format": "json",
             "--momentum": "0.9"}
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
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows == [{"group": "stub", "max_rel_err": "1.0",
                         "tolerance": "0.0001", "passed": "false"}]

    @pytest.mark.parametrize("err,code,status", [(1e-9, 0, "PASS"), (1.0, 1, "FAIL")])
    def test_csv_file_and_status_line(self, monkeypatch, capsys, tmp_path, err, code,
                                      status):
        from pyrhead import cli as cli_mod
        from pyrhead.gradcheck import CheckResult
        monkeypatch.setattr(cli_mod, "run_gradcheck",
                            lambda seed: [CheckResult("a.b", 1e-9), CheckResult("c", err)])
        out = tmp_path / "g.csv"
        assert cli_mod.run(["gradcheck", "--format", "csv", "--out", str(out)]) == code
        assert capsys.readouterr().out == f"{status}\n"
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["group"] for r in rows] == ["a.b", "c"]
        assert [float(r["max_rel_err"]) for r in rows] == [1e-9, err]
        assert {r["tolerance"] for r in rows} == {repr(1e-4)}
        assert [r["passed"] for r in rows] == ["true", "true" if code == 0 else "false"]

    def test_no_head_scene_exits_one_with_one_error_line(self, monkeypatch, capsys):
        from pyrhead import gradcheck
        monkeypatch.setattr(gradcheck, "HEAD_SCENE_ATTEMPTS", 0)
        code, out, err = invoke(["gradcheck", "--seed", "0"], capsys)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: seed 0: ")

    def test_seed_96_finds_a_head_scene(self, monkeypatch):
        """Its 42nd candidate is the first to qualify, past the old bound of 32."""
        from pyrhead import gradcheck
        tried = []
        scene = gradcheck._head_scene

        def spy(scene_seed):
            tried.append(scene_seed)
            return scene(scene_seed)

        monkeypatch.setattr(gradcheck, "_head_scene", spy)
        gradcheck._head_case(96)
        assert len(tried) == 42

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
