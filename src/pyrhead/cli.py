"""Command-line interface: grid generation, operator evaluation, gradient
checks, toy training and sparsity statistics.

Exit codes: 0 success, 1 check failure, 2 usage or config error (a
diverged training run included).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .autodiff import Value
from .geometry import Box3D, GridSpec, PyramidConfig, PyramidLevelConfig, pyramid_grid_points
from .gradcheck import NoGradcheckScene, run_gradcheck
from .head import CONFIG_SCHEMA_VERSION, HeadConfig
from .nn import init_mlp
from .operators import (ATTENTION_GATES, GRAPH_GATES, TRANSFORMER_GATES,
                        GateOverride, NeighborBundle, init_attention_params,
                        pool_feature, roi_grid_attention,
                        roi_grid_attention_darp)
from .spatial import PointSet, build_index
from .synth import (SceneConfig, TrainingDiverged, generate_scenes,
                    sparsity_stats, train_toy)

USAGE_ERROR = 2
CHECK_FAILURE = 1

# attend ops that are the unified operator with its gates pinned
PINNED_GATES = {"graph": GRAPH_GATES, "attention": ATTENTION_GATES,
                "transformer": TRANSFORMER_GATES}


class CliError(Exception):
    """Invalid invocation or configuration; maps to exit code 2."""


def _parse_list(text: str, n: int, what: str, kind=float) -> list:
    parts = text.split(",")
    if len(parts) != n:
        raise CliError(f"{what} expects {n} comma-separated values, got {text!r}")
    try:
        return [kind(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"bad {what}: {exc}") from None


def _load_config(path: str, from_json):
    """``from_json`` of the text of config file ``path``; an unreadable file
    or invalid JSON raises CliError naming the path."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    try:
        return from_json(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None


def _write_out(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _fixture_scene(seed: int) -> PointSet:
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-2.0, 2.0, size=(64, 3))
    feats = rng.normal(size=(64, 8))
    return PointSet(coords, feats)


# -- subcommands -------------------------------------------------------------

def cmd_gridgen(args) -> int:
    box_vals = _parse_list(args.box, 7, "--box")
    box = Box3D(box_vals[0:3], box_vals[3:6], box_vals[6])
    if args.config:
        levels = _load_config(args.config, PyramidConfig.from_json).levels
    else:
        grid = _parse_list(args.grid, 3, "--grid", int)
        ratios = _parse_list(args.ratios, 3, "--ratios")
        levels = [PyramidLevelConfig(GridSpec(tuple(grid)), tuple(ratios),
                                     anchor_mode=args.anchor)]
    per_level = [pyramid_grid_points(box, lv).tolist() for lv in levels]
    if args.format == "csv":
        lines = ["level,x,y,z"]
        for li, pts in enumerate(per_level):
            lines.extend(f"{li},{p[0]!r},{p[1]!r},{p[2]!r}" for p in pts)
        _write_out(args, "\n".join(lines) + "\n")
    else:
        _write_out(args, json.dumps({"levels": per_level}, indent=2) + "\n")
    return 0


def cmd_attend(args) -> int:
    if args.gates and args.op not in ("unified", "darp"):
        raise CliError(f"--gates applies to --op unified or darp, not {args.op}")
    if not 0 < args.radius < math.inf:
        raise CliError(f"--radius must be positive and finite, got {args.radius}")
    rng = np.random.default_rng(args.seed)
    ps = PointSet.load(args.scene) if args.scene else _fixture_scene(args.seed)
    idx = build_index(ps, cell=max(args.radius, 0.5))
    gp = _parse_list(args.grid_point, 3, "--grid-point")
    gates = (GateOverride.from_tuple(_parse_list(args.gates, 4, "--gates"))
             if args.gates else None)
    params = init_attention_params(rng, ps.feat_width, args.d_model, args.heads)
    if args.op == "darp":
        nb = NeighborBundle.gather_extended(ps, idx, gp, args.radius, args.tau,
                                            args.max_k)
        out = roi_grid_attention_darp(nb, params, Value(args.radius), args.tau,
                                      gates)
    else:
        nb = NeighborBundle.gather(ps, idx, gp, args.radius, args.max_k)
        if args.op == "pool":
            mlp = init_mlp(rng, [ps.feat_width + 3, 64, args.d_model])
            out = pool_feature(nb, mlp)
        else:
            out = roi_grid_attention(nb, params, PINNED_GATES.get(args.op, gates))
    doc = {"op": args.op, "neighbors": len(nb), "f_grid": out.data.tolist()}
    if args.format == "csv":
        _write_out(args, "\n".join(repr(v) for v in out.data.tolist()) + "\n")
    else:
        _write_out(args, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_gradcheck(args) -> int:
    try:
        results = run_gradcheck(args.seed)
    except NoGradcheckScene as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CHECK_FAILURE
    ok = all(r.passed for r in results)
    if args.format == "csv":
        rows = [f"{r.group},{r.max_rel_err!r},{r.tolerance!r},{str(r.passed).lower()}"
                for r in results]
        _write_out(args, "\n".join(["group,max_rel_err,tolerance,passed", *rows]) + "\n")
    else:
        doc = {"seed": args.seed,
               "groups": [{"group": r.group, "max_rel_err": r.max_rel_err,
                           "tolerance": r.tolerance, "passed": r.passed}
                          for r in results],
               "passed": ok}
        _write_out(args, json.dumps(doc, indent=2) + "\n")
    if args.out:
        sys.stdout.write("PASS\n" if ok else "FAIL\n")
    return 0 if ok else CHECK_FAILURE


def cmd_train_toy(args) -> int:
    head_cfg = (_load_config(args.config, HeadConfig.from_json) if args.config
                else HeadConfig())
    scene_cfg = SceneConfig()
    try:
        result = train_toy(head_cfg, scene_cfg, steps=args.steps, lr=args.lr,
                           seed=args.seed, n_scenes=args.scenes)
    except TrainingDiverged as exc:
        raise CliError(f"{exc}; lower --lr (was {args.lr})") from None
    text = result.to_csv() if args.format == "csv" else result.to_json() + "\n"
    _write_out(args, text)
    if args.out:
        summary = {"initial_loss": result.untrained_loss,
                   "final_loss": result.final_loss,
                   "max_radius_shift": result.max_radius_shift(),
                   "clipped_steps": result.clipped_steps}
        sys.stdout.write(json.dumps(summary) + "\n")
    return 0


def cmd_stats(args) -> int:
    scene_cfg = SceneConfig(seed=args.seed)
    scenes = generate_scenes(scene_cfg, args.scenes)
    table = sparsity_stats(scenes)
    _write_out(args, table.to_csv())
    return 0


# -- parser -------------------------------------------------------------------

# Flags that several subcommands share; each subcommand takes only those it reads.
SHARED_FLAGS = {
    "config": dict(help="JSON config path"),
    "seed": dict(type=int, default=0, help="rng seed"),
    "out": dict(help="output file (stdout if omitted)"),
    "format": dict(choices=("json", "csv"), default="json"),
    "threads": dict(type=int, default=1,
                    help="no effect: the work runs on one thread"),
}


def build_parser() -> argparse.ArgumentParser:
    epilog = f"Config schema version: {CONFIG_SCHEMA_VERSION}"
    parser = argparse.ArgumentParser(
        prog="pyrhead",
        description="Pyramid RoI head toolbox: grids, point attention, "
                    "learnable radii.",
        epilog=epilog,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, *names):
        for name in names:
            p.add_argument(f"--{name}", **SHARED_FLAGS[name])

    p = sub.add_parser("gridgen", help="print RoI grid points for a box",
                       epilog=epilog)
    shared(p, "config", "out", "format")
    p.add_argument("--box", required=True,
                   help="corner_x,corner_y,corner_z,W,L,H,yaw")
    p.add_argument("--grid", default="2,2,2", help="points per axis, e.g. 6,6,6")
    p.add_argument("--ratios", default="1,1,1", help="enlarging ratios")
    p.add_argument("--anchor", choices=("center", "corner"), default="center")
    p.set_defaults(fn=cmd_gridgen)

    p = sub.add_parser("attend", help="run one aggregation operator on a scene",
                       epilog=epilog)
    shared(p, "seed", "out", "format")
    p.add_argument("--op", required=True,
                   choices=("pool", "graph", "attention", "transformer",
                            "unified", "darp"))
    p.add_argument("--scene", help="PSET or JSON point-set fixture")
    p.add_argument("--grid-point", default="0,0,0")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.01)
    p.add_argument("--max-k", type=int, default=16)
    p.add_argument("--gates",
                   help="fixed gates pos,key,cross,value (--op unified or darp)")
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.set_defaults(fn=cmd_attend)

    p = sub.add_parser("gradcheck",
                       help="compare tape gradients with finite differences",
                       epilog=epilog)
    shared(p, "seed", "out", "format", "threads")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="train the head on synthetic scenes",
                       epilog=epilog)
    shared(p, "config", "seed", "out", "format", "threads")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.0075)
    p.add_argument("--scenes", type=int, default=200)
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("stats", help="sparsity histograms as CSV",
                       epilog=epilog)
    shared(p, "seed", "out")
    p.add_argument("--scenes", type=int, default=20)
    p.set_defaults(fn=cmd_stats)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        if getattr(args, "seed", 0) < 0:
            raise CliError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except (CliError, ValueError, KeyError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
