"""Output gate: record the solver's outputs on fixed inputs, or compare two records.

A change to the solver must keep its outputs: statuses, ``worst_case_value``
to 1e-6 relative and positions to 1e-5 (ROADMAP aim 3).  Run it on the
parent commit and on the change, each from its own checkout, with one BLAS
thread, then compare:

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
  1-13, run by ``dist.run_dis_minmax``: round counts and the final
  ``rmse_upper_bound``.

Each record holds a solve's status, iterations, ``worst_case_value`` and
positions.  The comparison prints, per family, the status flips in each
direction, the largest relative deviation of ``worst_case_value``, the
largest position deviation (both over solves whose status is unchanged) and
every changed round count.  pytest does not collect this file.
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
    import workloads
    from minmaxloc import central, dist

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
    dist_workload = workloads.WORKLOADS["distributed"]
    for seed in range(1, 14):
        (scen,) = dist_workload.build(seed)
        res = dist.run_dis_minmax(scen)
        out.setdefault("distributed", {})[f"seed-{seed}"] = {
            "rounds": len(res.rounds) - 1,
            "converged": res.converged,
            "rmse_upper_bound": res.rounds[-1].rmse_upper_bound,
        }
        print("distributed", seed, len(res.rounds) - 1, file=sys.stderr)
    return out


def rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def compare(before: dict, after: dict) -> None:
    for family in before:
        a, b = before[family], after.get(family, {})
        if family == "distributed":
            changed = [
                f"{label}: {a[label]['rounds']} -> {b[label]['rounds']} rounds"
                for label in a
                if b[label]["rounds"] != a[label]["rounds"]
            ]
            dev = max(rel(a[k]["rmse_upper_bound"], b[k]["rmse_upper_bound"]) for k in a)
            print(f"{family}: {len(a)} runs, rmse_upper_bound rel dev {dev:.1e}")
            print("  round counts kept" if not changed else "  " + "; ".join(changed))
            continue
        flips = Counter(
            (a[k]["status"], b[k]["status"]) for k in a if a[k]["status"] != b[k]["status"]
        )
        kept = [k for k in a if a[k]["status"] == b[k]["status"]]
        values = [(a[k]["worst_case_value"], b[k]["worst_case_value"]) for k in kept]
        value_dev = max((rel(u, v) for u, v in values), default=0.0)
        value_abs = max((abs(u - v) for u, v in values), default=0.0)
        pos_dev = max(
            (
                math.dist(p, b[k]["positions"][i])
                for k in kept
                for i, p in a[k]["positions"].items()
            ),
            default=0.0,
        )
        iters = sum(b[k]["iterations"] - a[k]["iterations"] for k in a)
        print(
            f"{family}: {len(a)} solves, {sum(flips.values())} status flips, "
            f"worst_case_value rel dev {value_dev:.1e} (abs {value_abs:.1e}), "
            f"position dev {pos_dev:.1e}, "
            f"iterations {iters:+d} in total"
        )
        for (s, t), n in sorted(flips.items()):
            print(f"  {s} -> {t}: {n}")


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
        compare(before, after)
    return 0


if __name__ == "__main__":
    sys.exit(main())
