"""Benchmark of the pyramid RoI head: training on sparse scenes and
inference on dense ones.

Run from the root of a source checkout:

    python3 pyrbench/run.py --workload train_sparse --seed 1 --seconds 40 --trace 0

One process, one closed-loop client: each op starts when the previous one
ends. An op is one training step on one scene or one inference scene. The
run splits ``--seconds`` and ``MIN_OPS`` into ``SETUP_REPEATS`` segments.
Each segment sets the workload up afresh from the seed, and then times ops,
which go on through the scene pool where the last segment stopped. So the
set-ups, whose median is ``setup_s``, are spread over the whole run rather
than packed at its start. The run then checks run_head against the
per-point oracle. With ``--trace 1`` each scene runs twice, once with
per-layer hooks installed, and the per-layer metrics and the tracing
overhead are printed instead of the end-to-end ones.

The last stdout line is the result object; the line before it holds the
environment block and the failure fraction.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-ups in a run. Host speed drifts over tens of seconds: on a shared 2-core
# machine, the median of three set-ups packed at the start of a run spread
# 14-29% IQR/median over ten seeds, and the median of five spread over the
# run 10-11%.
SETUP_REPEATS = 5
MIN_OPS = 100       # at least ten samples beyond the p90
# One BLAS thread. On a shared 2-core machine, four runs of one train_sparse
# seed ranged over 34.8-47.0 RoIs/s with OpenBLAS's default of one thread
# per core, and over 38.6-41.8 RoIs/s with one thread.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Measurement:
    """Latencies and RoI counts of the timed ops, split by tracing."""

    def __init__(self):
        self.lat_s: list[float] = []
        self.rois = 0
        self.failed = 0
        self.time_s = {True: 0.0, False: 0.0}
        self.rois_by = {True: 0, False: 0}


def traced_slot(i: int) -> bool:
    # A traced run takes each scene twice, once with hooks and once without,
    # in ABBA order so neither side always runs second.
    return i % 4 in (1, 2)


def measure(st, seconds: float, min_ops: int, tracer=None, totals=None,
            m: Measurement | None = None) -> Measurement:
    """Time ops for ``seconds`` and at least ``min_ops`` ops, counting failures.

    The ops are added to ``m`` if given; a traced run's scene and ABBA slot
    then go on from the ops already in it.
    """
    from pyrbench import workloads

    m = Measurement() if m is None else m
    first_error = True
    deadline = time.perf_counter() + seconds
    i = len(m.lat_s)
    stop = i + min_ops
    while time.perf_counter() < deadline or i < stop:
        on = tracer is not None and traced_slot(i)
        if on:
            tracer.install()
        ok, n, dets, value, sq = False, 0, [], 0.0, 0.0
        st.restore()
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op") if on else nullcontext():
                n, dets, value, sq = workloads.run_op(
                    st, tracer.span if on else workloads.no_span,
                    None if tracer is None else i // 2)
            ok = True
        except Exception:  # a failed op is counted, and the loop goes on
            if first_error:
                traceback.print_exc(file=sys.stderr)
                first_error = False
        dt = time.perf_counter() - t0
        if on:
            tracer.uninstall()
            totals.add_op(tracer)
            tracer.reset()      # untraced ops must not run with this op's tape held
        ok = ok and workloads.outputs_finite(dets, value, sq)
        m.lat_s.append(dt)
        m.time_s[on] += dt
        if ok:
            m.rois += n
            m.rois_by[on] += n
        else:
            m.failed += 1
        i += 1
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    load_before = os.getloadavg()
    if not (ROOT / "src" / "pyrhead" / "__init__.py").is_file():
        print(f"error: no pyrhead sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.environ.update({var: "1" for var in BLAS_ENV})   # before numpy loads
    from pyrbench import envinfo, oracle, tracer, workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tr = totals = None
    if args.trace:
        tr = tracer.Tracer()
        totals = tracer.LayerTotals()
    m = Measurement()
    setup_s = []
    st = None
    for _ in range(SETUP_REPEATS):
        done = 0 if st is None else st.done
        st = None
        gc.collect()    # each set-up starts without the last one's garbage
        t0 = time.perf_counter()
        st = workloads.setup(wl, args.seed)
        setup_s.append(time.perf_counter() - t0)
        st.done = done
        measure(st, args.seconds / SETUP_REPEATS, -(-MIN_OPS // SETUP_REPEATS),
                tr, totals, m)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if args.trace:
        totals.check_called()

    try:
        ps, idx, rois, dets = workloads.probe(st)
        errors = oracle.check(st.cfg, st.params, ps, idx, rois, st.tau, dets)
    except Exception as exc:  # a head that raises on the probe fails the check
        errors = [f"probe raised {exc!r}"]
    for e in errors:
        print(f"output check: {e}", file=sys.stderr)

    attempted = len(m.lat_s)
    if args.trace:
        traced = m.rois_by[True] / m.time_s[True]
        untraced = m.rois_by[False] / m.time_s[False]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in totals.metrics().items()}
        metrics["trace.rois_per_s_traced"] = {"value": traced, "unit": "1/s"}
        metrics["trace.rois_per_s_untraced"] = {"value": untraced, "unit": "1/s"}
        metrics["trace.overhead_frac"] = {"value": 1.0 - traced / untraced, "unit": "ratio"}
    else:
        lat_ms = [1e3 * t for t in m.lat_s]
        metrics = {
            "rois_per_s": {"value": m.rois / sum(m.lat_s), "unit": "1/s"},
            "scene_ms_p50": {"value": statistics.median(lat_ms), "unit": "ms"},
            "scene_ms_p90": {"value": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
                             "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        }
    summary = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "failed_frac": {"value": m.failed / attempted, "unit": "ratio"},
        "setup_s_each": setup_s,
        "env": envinfo.environment(ROOT, load_before),
    }
    print(json.dumps(summary))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
