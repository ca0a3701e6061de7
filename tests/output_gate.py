"""Output gate: record the solver's outputs on fixed inputs, or compare two records.

A change to the solver must keep its outputs: statuses, ``worst_case_value``
to 1e-6 relative and positions to 1e-5 (ROADMAP aim 3).  Run it on the
parent commit and on the change, each from its own checkout, with one BLAS
thread, then compare; ``--compare`` exits 1 when the gate fails:

    OPENBLAS_NUM_THREADS=1 python tests/output_gate.py --out before.json
    OPENBLAS_NUM_THREADS=1 python tests/output_gate.py --out after.json
    python tests/output_gate.py --compare before.json after.json

The solves come in families:

* ``central``: the two networks of the ``central`` benchmark workload;
* ``twenty``: 20 sensors at range 0.5, ``UniformError(0.02)``, seeds 0-19;
* ``large``: 50 sensors at range 0.3 (seed 50) and 100 at range 0.25
  (seed 100), ``UniformError(0.02)``;
* ``fixtures``: the single-sensor ``ORACLE_FIXTURES``;
* ``exact``: 10 sensors at range 0.5 with exact measurements, seeds 0-39;
* ``distributed``: the ``distributed`` workload's network at error seeds
  1-13, the same network at error seed 1 with ``epsilon`` 1e-2, so that
  nodes take the shortcut of a radius already below it, and 400 sensors at
  range 0.125 with geometry and error seed 7, ``UniformError(0.02)``, run by
  ``dist.run_dis_minmax``: round counts and the final ``rmse_upper_bound``;
* ``baseline``: the ``sweep`` workload's nine trials, each scenario fitted by
  ``experiment.baseline_least_squares`` with the trial's seeds: its RMSE,
  whether it converged and its Gauss-Newton iteration count;
* ``grid``: the four grid oracles of ``geom`` on the ``oracle`` workload's
  ten fixtures at its resolution, and on the ring of radii 1 and 2 at the
  CLI's default resolution 1e-3, the grid with the most column extremes:
  the Chebyshev center and radius, the projection and the largest distance
  of the truth and of a fixed probe point, and the relaxed center and
  value, or the message of the ``EmptyRegionError`` a call raised.

Each central record holds a solve's status, iterations, ``worst_case_value``
and positions.  The comparison prints, per family, the status flips in each
direction, the largest relative deviation of ``worst_case_value``, the
largest position deviation (both over solves whose status is unchanged, each
with the solve that has it) and every changed round or iteration count.
The gate fails on any status flip (a distributed or baseline fit that
converges on one side only counts as one), any changed round or baseline
iteration count, a relative deviation of ``worst_case_value`` or
``rmse_upper_bound`` above 1e-6, a position or baseline RMSE deviation above
1e-5, and any changed ``grid`` output: the oracles promise the exhaustive
scan's answers bit for bit.  A family that only one record holds is
reported and not compared.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(HERE)]

ANCHORS4 = ((0.3, 0.3), (-0.3, 0.3), (0.3, -0.3), (-0.3, -0.3))
VALUE_TOL = 1e-6  # relative, on worst_case_value and rmse_upper_bound
POSITION_TOL = 1e-5  # on positions and the baseline's RMSE


def network(n, sensing_range, seed, gamma=0.02):
    from minmaxloc import model

    cfg = model.ScenarioConfig(n_sensors=n, anchor_positions=ANCHORS4, sensing_range=sensing_range)
    scen = model.generate_scenario(cfg, seed=seed)
    if gamma == 0.0:
        return scen
    return model.apply_errors(scen, model.UniformError(gamma), seed=seed)


def central_inputs():
    """(family, label, scenario, intervals) for every central solve."""
    import workloads
    from fixtures import ORACLE_FIXTURES

    for k, scen in enumerate(workloads.WORKLOADS["central"].build(workloads.FIXED_SEED)):
        yield "central", f"central-{k}", scen, None
    for seed in range(20):
        yield "twenty", f"twenty-{seed}", network(20, 0.5, seed), None
    yield "large", "large-50", network(50, 0.3, 50), None
    yield "large", "large-100", network(100, 0.25, 100), None
    for name, ((scen, bounds), _) in ORACLE_FIXTURES.items():
        yield "fixtures", name, scen, bounds
    for seed in range(40):
        yield "exact", f"exact-{seed}", network(10, 0.5, seed, gamma=0.0), None


def record() -> dict:
    from minmaxloc import central

    out: dict = {}
    for family, label, scen, bounds in central_inputs():
        est = central.solve_minmax_sdp(scen, bounds)
        out.setdefault(family, {})[label] = {
            "status": est.solver_status.value,
            "iterations": est.iterations,
            "worst_case_value": est.worst_case_value,
            "positions": {str(i): list(p) for i, p in sorted(est.positions.items())},
        }
        print(family, label, est.solver_status.value, est.iterations, file=sys.stderr)
    for label, res in distributed_runs():
        out.setdefault("distributed", {})[label] = {
            "rounds": len(res.rounds) - 1,
            "converged": res.converged,
            "rmse_upper_bound": res.rounds[-1].rmse_upper_bound,
        }
        print("distributed", label, len(res.rounds) - 1, file=sys.stderr)
    for label, res, value in baseline_fits():
        out.setdefault("baseline", {})[label] = {
            "rmse": value,
            "converged": res.converged,
            "iterations": res.iterations,
        }
        print("baseline", label, res.converged, res.iterations, file=sys.stderr)
    out["grid"] = grid_outputs()
    return out


def distributed_runs():
    """(label, result) for every ``distributed`` record."""
    import workloads
    from minmaxloc import dist

    dist_workload = workloads.WORKLOADS["distributed"]
    for seed in range(1, 14):
        (scen,) = dist_workload.build(seed)
        yield f"seed-{seed}", dist.run_dis_minmax(scen)
    (scen,) = dist_workload.build(1)
    yield "seed-1-eps-1e-2", dist.run_dis_minmax(scen, dist.DisMinMaxConfig(epsilon=1e-2))
    yield "n400", dist.run_dis_minmax(workloads.network(400, 0.125, 7, 0.02, 7))


PROBE = (0.31, -0.17)  # a fixed point to project and measure from


def grid_inputs():
    """(label, region, truth, resolution) for every ``grid`` record."""
    import workloads
    from fixtures import NONCONVEX_FIXTURES
    from minmaxloc import geom

    for fx in workloads.WORKLOADS["oracle"].build(workloads.FIXED_SEED):
        yield fx.name, fx.region, fx.scenario.true_positions[0], workloads.Oracle.RESOLUTION
    scen, bounds = NONCONVEX_FIXTURES["ring"]
    reg = geom.single_sensor_region(scen, bounds)
    yield "ring-1e-3", reg, scen.true_positions[0], geom.DEFAULT_RESOLUTION


def grid_outputs() -> dict:
    """Every grid oracle's answer on each input of :func:`grid_inputs`."""
    from minmaxloc import geom

    def outcome(call):
        try:
            return call()
        except geom.EmptyRegionError as exc:
            return {"empty": str(exc)}

    def chebyshev(reg, h):
        res = geom.grid_chebyshev_center(reg, resolution=h)
        return {"center": list(res.center), "radius": res.radius}

    def relaxed(reg, h):
        center, value = geom.relaxed_center_value(reg, resolution=h)
        return {"center": list(center), "value": value}

    out = {}
    for label, reg, truth, h in grid_inputs():
        rec = {
            "chebyshev": outcome(lambda: chebyshev(reg, h)),
            "relaxed": outcome(lambda: relaxed(reg, h)),
        }
        for name, p in (("truth", truth), ("probe", PROBE)):
            rec[f"project-{name}"] = outcome(
                lambda: list(geom.project_to_region(reg, p, resolution=h))
            )
            rec[f"max_distance-{name}"] = outcome(
                lambda: geom.grid_max_distance(reg, p, resolution=h)
            )
        out[label] = rec
        print("grid", label, file=sys.stderr)
    return out


def baseline_fits():
    """(label, BaselineResult, RMSE) for each trial of the ``sweep`` workload,
    with the scenario and seeds that ``experiment.run_experiment`` gives it."""
    import workloads
    from minmaxloc import experiment, model

    spec = workloads.WORKLOADS["sweep"].build(workloads.FIXED_SEED)
    for i, gamma in enumerate(spec.sweep_values):
        for trial in range(spec.trials):
            seed = {
                role: experiment.trial_seed(spec.master_seed, i, trial, role)
                for role in ("scenario", "errors", "baseline")
            }
            scen = model.generate_scenario(spec.scenario, seed=seed["scenario"])
            scen = model.apply_errors(scen, spec.error_model(gamma), seed=seed["errors"])
            res = experiment.baseline_least_squares(scen, seed=seed["baseline"])
            value = experiment.rmse(res.positions, scen.true_positions)
            yield f"gamma={gamma}-trial={trial}", res, value


def rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def largest(devs) -> tuple:
    """The largest of (deviation, label) pairs, and " at <label>" naming the
    solve that has it, or "" when no deviation is positive."""
    dev, label = max(devs, key=lambda d: d[0], default=(0.0, ""))
    return dev, f" at {label}" if dev > 0.0 else ""


def compare(before: dict, after: dict) -> bool:
    """Print the comparison family by family; True when the gate passes."""
    ok = True
    for family in sorted(set(before) ^ set(after)):
        print(f"{family}: in one record only, not compared")
    for family in [f for f in before if f in after]:
        a, b = before[family], after[family]
        missing = sorted(set(a) ^ set(b))
        if missing:
            print(f"{family}: runs in one record only: {', '.join(missing)}")
            ok = False
        labels = [k for k in a if k in b]
        if family == "grid":
            ok &= compare_grid({k: a[k] for k in labels}, {k: b[k] for k in labels})
            continue
        if family in ("distributed", "baseline"):
            ok &= compare_runs(family, {k: a[k] for k in labels}, {k: b[k] for k in labels})
            continue
        flips = Counter(
            (a[k]["status"], b[k]["status"]) for k in labels if a[k]["status"] != b[k]["status"]
        )
        kept = [k for k in labels if a[k]["status"] == b[k]["status"]]
        values = {k: (a[k]["worst_case_value"], b[k]["worst_case_value"]) for k in kept}
        value_dev, value_at = largest((rel(u, v), k) for k, (u, v) in values.items())
        value_abs = max((abs(u - v) for u, v in values.values()), default=0.0)
        pos_dev, pos_at = largest(
            (math.dist(p, b[k]["positions"][i]), k)
            for k in kept
            for i, p in a[k]["positions"].items()
        )
        iters = sum(b[k]["iterations"] - a[k]["iterations"] for k in labels)
        print(
            f"{family}: {len(a)} solves, {sum(flips.values())} status flips, "
            f"worst_case_value rel dev {value_dev:.1e}{value_at} (abs {value_abs:.1e}), "
            f"position dev {pos_dev:.1e}{pos_at}, "
            f"iterations {iters:+d} in total"
        )
        for (s, t), n in sorted(flips.items()):
            print(f"  {s} -> {t}: {n}")
        ok &= not flips and value_dev <= VALUE_TOL and pos_dev <= POSITION_TOL
    return ok


def compare_runs(family: str, a: dict, b: dict) -> bool:
    """The ``distributed`` or ``baseline`` family: convergence, counts and
    the one value per run."""
    count, value, tol, measure = {
        "distributed": ("rounds", "rmse_upper_bound", VALUE_TOL, rel),
        "baseline": ("iterations", "rmse", POSITION_TOL, lambda u, v: abs(u - v)),
    }[family]
    flips = [k for k in a if a[k]["converged"] != b[k]["converged"]]
    changed = [
        f"{k}: {a[k][count]} -> {b[k][count]} {count}" for k in a if a[k][count] != b[k][count]
    ]
    dev, at = largest((measure(a[k][value], b[k][value]), k) for k in a)
    print(f"{family}: {len(a)} runs, {len(flips)} convergence flips, {value} dev {dev:.1e}{at}")
    print(f"  {count} kept" if not changed else "  " + "; ".join(changed))
    return not flips and not changed and dev <= tol


def compare_grid(a: dict, b: dict) -> bool:
    """The ``grid`` family: every oracle output equal, key for key."""
    changed = [
        f"{k}: {key}"
        for k in a
        for key in sorted(set(a[k]) | set(b[k]))
        if a[k].get(key) != b[k].get(key)
    ]
    print(f"grid: {len(a)} fixtures, {len(changed)} changed outputs")
    for line in changed:
        print(f"  {line}")
    return not changed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--out", help="write this checkout's outputs to a JSON file")
    g.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = p.parse_args(argv)
    if args.out:
        Path(args.out).write_text(json.dumps(record(), indent=1))
    else:
        before, after = (json.loads(Path(f).read_text()) for f in args.compare)
        if not compare(before, after):
            print("output gate FAILED")
            return 1
        print("output gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
