"""Command-line interface: grid generation, operator evaluation, gradient
checks, toy training and sparsity statistics.

Exit codes: 0 success, 1 check failure, 2 usage or config error (a
diverged training run included).
"""
from __future__ import annotations

import argparse
import json
import re
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
                        _check_tau, pool_feature, roi_grid_attention,
                        roi_grid_attention_darp, sampling_range)
from .spatial import PointSet, _checked_ball, build_index
from .synth import (BUCKET_LABELS, SceneConfig, TrainingDiverged,
                    generate_scenes, sparsity_stats, train_toy)

USAGE_ERROR = 2
CHECK_FAILURE = 1

# comma-list flags whose value may start with a minus sign, which argparse
# takes for a flag unless the value is joined on with "="
LIST_FLAGS = ("--box", "--grid", "--ratios", "--grid-point", "--gates")
NEGATIVE_VALUE = re.compile(r"-[0-9.]")

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


def _join_list_values(argv: list[str]) -> list[str]:
    """``argv`` with each LIST_FLAGS flag followed by a negative value, as in
    ``--box -1,0,0,2,2,2,0``, joined into its ``--box=-1,0,0,2,2,2,0`` form."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in LIST_FLAGS and NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


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


def _write(args, doc, header, rows) -> None:
    """Write a subcommand's result to ``--out`` or stdout: ``doc`` as
    indented JSON, or for ``--format csv`` the ``header`` line (none if
    None) and one line per row, values comma-joined with floats in ``repr``
    form and booleans as ``true`` or ``false``."""
    if args.format == "csv":
        lines = [",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in row)
                 for row in rows]
        text = "\n".join(lines if header is None else [header, *lines]) + "\n"
    else:
        text = json.dumps(doc, indent=2) + "\n"
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
        given = [f"--{flag}" for flag in ("grid", "ratios", "anchor")
                 if getattr(args, flag) is not None]
        if given:
            raise CliError(f"--config sets the pyramid levels and excludes {', '.join(given)}")
        levels = _load_config(args.config, PyramidConfig.from_json).levels
    else:
        grid = _parse_list("2,2,2" if args.grid is None else args.grid, 3, "--grid", int)
        ratios = _parse_list("1,1,1" if args.ratios is None else args.ratios, 3, "--ratios")
        levels = [PyramidLevelConfig(GridSpec(tuple(grid)), tuple(ratios),
                                     anchor_mode=args.anchor or "center")]
    per_level = [pyramid_grid_points(box, lv).tolist() for lv in levels]
    _write(args, {"levels": per_level}, "level,x,y,z",
           ((li, *p) for li, pts in enumerate(per_level) for p in pts))
    return 0


def cmd_attend(args) -> int:
    if args.gates and args.op not in ("unified", "darp"):
        raise CliError(f"--gates applies to --op unified or darp, not {args.op}")
    try:
        gp = _checked_ball(_parse_list(args.grid_point, 3, "--grid-point"), args.radius,
                           args.max_k)[0]
        _check_tau(args.tau)            # every op, though only darp reads tau
        if args.op == "darp":
            sampling_range(args.radius, args.tau)
    except ValueError as exc:           # label the rules' radius and tau with their flags
        raise CliError(re.sub(r"\b(radius|tau)\b", r"--\1", str(exc))) from None
    rng = np.random.default_rng(args.seed)
    ps = PointSet.load(args.scene) if args.scene else _fixture_scene(args.seed)
    idx = build_index(ps, cell=max(args.radius, 0.5))
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
    f_grid = out.data.tolist()
    _write(args, {"op": args.op, "neighbors": len(nb), "f_grid": f_grid}, None,
           ((v,) for v in f_grid))
    return 0


def cmd_gradcheck(args) -> int:
    try:
        results = run_gradcheck(args.seed)
    except NoGradcheckScene as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CHECK_FAILURE
    ok = all(r.passed for r in results)
    rows = [(r.group, r.max_rel_err, r.tolerance, r.passed) for r in results]
    header = "group,max_rel_err,tolerance,passed"
    _write(args, {"seed": args.seed,
                  "groups": [dict(zip(header.split(","), row)) for row in rows],
                  "passed": ok}, header, rows)
    if args.out:
        sys.stdout.write("PASS\n" if ok else "FAIL\n")
    return 0 if ok else CHECK_FAILURE


def cmd_train_toy(args) -> int:
    head_cfg = (_load_config(args.config, HeadConfig.from_json) if args.config
                else HeadConfig())
    try:
        result = train_toy(head_cfg, SceneConfig(), steps=args.steps, lr=args.lr,
                           seed=args.seed, n_scenes=args.scenes)
    except TrainingDiverged as exc:
        raise CliError(f"{exc}; lower --lr (was {args.lr})") from None
    doc = {"steps": args.steps, "lr": args.lr, "seed": args.seed,
           "untrained_loss": result.untrained_loss, "clipped_steps": result.clipped_steps,
           "losses": result.losses, "grad_norms": result.grad_norms,
           "radii": result.radii, "r_pre": result.r_pre}
    header = "step,loss,grad_norm," + ",".join(
        f"r_level{i}" for i in range(len(result.r_pre)))
    _write(args, doc, header, ((i, loss, norm, *radii) for i, (loss, norm, radii)
                               in enumerate(zip(result.losses, result.grad_norms,
                                                result.radii))))
    if args.out:
        summary = {"initial_loss": result.untrained_loss,
                   "final_loss": result.final_loss,
                   "max_radius_shift": result.max_radius_shift(),
                   "clipped_steps": result.clipped_steps}
        sys.stdout.write(json.dumps(summary) + "\n")
    return 0


def cmd_stats(args) -> int:
    interior, gathered = sparsity_stats(
        generate_scenes(SceneConfig(seed=args.seed), args.scenes))
    _write(args, None, "bucket,interior_objects,gathered_rois",
           ((b, interior[b], gathered[b]) for b in BUCKET_LABELS))
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

    def command(name, fn, text, *flags, **defaults):
        """Subparser ``name`` that runs ``fn``, with the named SHARED_FLAGS."""
        p = sub.add_parser(name, help=text, epilog=epilog)
        for flag in flags:
            p.add_argument(f"--{flag}", **SHARED_FLAGS[flag])
        p.set_defaults(fn=fn, **defaults)
        return p

    p = command("gridgen", cmd_gridgen, "print RoI grid points for a box",
                "config", "out", "format")
    p.add_argument("--box", required=True,
                   help="corner_x,corner_y,corner_z,W,L,H,yaw")
    # the one level's flags default in cmd_gridgen, which refuses them with --config
    p.add_argument("--grid", help="points per axis, e.g. 6,6,6 (default 2,2,2)")
    p.add_argument("--ratios", help="enlarging ratios (default 1,1,1)")
    p.add_argument("--anchor", choices=("center", "corner"), help="(default center)")

    p = command("attend", cmd_attend, "run one aggregation operator on a scene",
                "seed", "out", "format")
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

    command("gradcheck", cmd_gradcheck, "compare tape gradients with finite differences",
            "seed", "out", "format", "threads")

    p = command("train-toy", cmd_train_toy, "train the head on synthetic scenes",
                "config", "seed", "out", "format", "threads")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.0075)
    p.add_argument("--scenes", type=int, default=200)

    # stats writes CSV only: its format is fixed, not a flag
    p = command("stats", cmd_stats, "sparsity histograms as CSV", "seed", "out",
                format="csv")
    p.add_argument("--scenes", type=int, default=20)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_list_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        if getattr(args, "seed", 0) < 0:
            raise CliError(f"--seed must be >= 0, got {args.seed}")
        # checked before any work, but the file is first opened to write it
        if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
            raise CliError(f"--out {args.out} must name a file in an existing directory")
        return args.fn(args)
    except (CliError, ValueError, KeyError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
