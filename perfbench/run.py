"""Benchmark of minmaxloc: one command, four workloads, checked outputs.

Run from the root of a checkout:

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/run.py \
        --workload central --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``setup_s``, ``run_s``, ``peak_rss_mb``,
``certified_rmse``, ``rmse``); with ``--trace 1`` they are the per-layer
ones from ``tracing.py`` plus the tracing overhead.  The result and, for
traced runs, every recorded span are also written under
``perfbench/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 2  # extra set-ups in fresh processes; setup_s is the median of 1 + this


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("central", "distributed", "sweep", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import minmaxloc
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import minmaxloc from {SRC}: {exc}")
    if SRC not in Path(minmaxloc.__file__).resolve().parents:
        raise SystemExit(f"perfbench: minmaxloc was imported from outside {SRC}")
    import workloads

    return workloads


def set_up(workloads, args, tracer=None):
    """Build the inputs and run the warm-up; seconds since the process began,
    so the import of the package counts too."""
    wl = workloads.WORKLOADS[args.workload]
    if tracer is not None:
        tracer.install()
    inputs = wl.build(args.seed)
    wl.warm_up()
    if tracer is not None:
        tracer.uninstall()
    return wl, inputs, time.perf_counter() - T_START


def probe_setup(args) -> float:
    """Set-up time of a fresh process with the same arguments."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def timed_pass(wl, inputs):
    t0 = time.perf_counter()
    ops = wl.run_pass(inputs)
    return time.perf_counter() - t0, ops


def verify(workloads, wl, passes):
    """Check every pass, the determinism across passes, and the self-test."""
    problems = []
    for k, ops in enumerate(passes):
        problems += [f"pass {k}: {p}" for p in wl.check(ops)]
    keys = {dataclasses.astuple(wl.totals(ops)) for ops in passes}
    if len(keys) > 1:
        problems.append(f"identical passes gave different outputs: {sorted(keys)}")
    problems += [f"self-test: {m}" for m in workloads.self_test(wl, passes[0])]
    return problems


def end_to_end(wl, passes, run_times, setup_s):
    totals = wl.totals(passes[0])
    n = max(totals.sensors, 1)
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(run_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "certified_rmse": ((totals.certified_sq / n) ** 0.5, "dist"),
        "rmse": ((totals.error_sq / n) ** 0.5, "dist"),
    }


def per_layer(tracer, traced_phases, run_times, traced_times):
    import tracing

    per_pass = [tracer.phase_metrics(ph) for ph in traced_phases]
    setup = tracer.phase_metrics("setup")
    metrics = {}
    unsteady = []
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        if name.startswith("trace."):
            continue
        values = [m[name] for m in per_pass]
        if unit == "count" and len(set(values)) > 1:
            unsteady.append(f"{name}: {values}")
        value = values[0] if unit == "count" else statistics.median(values)
        if name == "model.scenario_s":
            value += setup[name]
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(run_times), "s"
    )
    metrics["trace.absent_hooks"] = (len(tracer.absent), "count")
    return metrics, unsteady


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    if args.setup_probe:
        *_, elapsed = set_up(workloads, args)
        print(repr(elapsed))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    wl, inputs, setup0 = set_up(workloads, args, tracer)
    if tracer is not None and tracer.absent:
        print(f"perfbench: absent hooks: {', '.join(tracer.absent)}", file=sys.stderr)

    # Untraced passes give run_s; a traced run alternates them with traced
    # passes so both see the same machine state, and the difference is the
    # tracing overhead.  Whole passes run until the measured time is within
    # half a round of --seconds, so the run length does not jump by a whole
    # pass when a pass takes just under or over a fraction of the budget.
    passes, run_times, traced_times, traced_phases = [], [], [], []
    t_loop = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        dt, ops = timed_pass(wl, inputs)
        passes.append(ops)
        run_times.append(dt)
        if tracer is not None:
            tracer.phase = f"pass{len(traced_phases)}"
            tracer.install()
            try:
                dt, ops = timed_pass(wl, inputs)
            finally:
                tracer.uninstall()
            passes.append(ops)
            traced_times.append(dt)
            traced_phases.append(tracer.phase)
        now = time.perf_counter()
        if now - t_loop + 0.5 * (now - t_round) >= args.seconds:
            break

    problems = verify(workloads, wl, passes)
    if tracer is None:
        probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(wl, passes, run_times, statistics.median([setup0] + probes))
    else:
        metrics, unsteady = per_layer(tracer, traced_phases, run_times, traced_times)
        problems += [f"count differs between identical traced passes: {u}" for u in unsteady]
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    all_ops = [op for ops in passes for op in ops]
    result = {
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": sum(op.failed for op in all_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
