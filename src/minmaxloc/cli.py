"""Command line front end.

Subcommands:

* ``generate``      random scenario, optionally with measurement errors, to JSON
* ``solve-central`` centralized estimate plus certificate, to JSON
* ``solve-dist``    distributed run, to a JSON-lines round trace
* ``oracle``        grid Chebyshev search on a single-sensor scenario, to JSON
* ``experiment``    Monte Carlo sweep driven by a spec file, to CSV and JSON
* ``validate``      scenario sanity report

Exit codes: 0 success; 1 usage problems, malformed inputs, or a failed
validation; 2 numerical failure (solver did not certify, distributed run
did not converge, scenario generation gave up); 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import List, Optional

from . import central, dist, experiment, geom, model

DEFAULT_ANCHORS = ((0.3, 0.3), (-0.3, 0.3), (0.3, -0.3), (-0.3, -0.3))


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so main can return 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _read_scenario(path: str) -> model.NetworkScenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    try:
        return model.scenario_from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise _UsageError(f"{path} is not a scenario file: {exc}") from exc


def _check_number(flag: str, value: Optional[float], positive: bool) -> None:
    """Reject a numeric flag that is non-finite, negative, or zero when
    ``positive``; an absent flag (None) passes."""
    if value is None:
        return
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        kind = "positive" if positive else "nonnegative"
        raise _UsageError(f"{flag} must be finite and {kind}, got {value}")


def _cmd_generate(args) -> int:
    if args.sigma is not None and args.gamma is not None:
        raise _UsageError("--gamma and --sigma are mutually exclusive")
    if args.ratio is not None and args.sigma is None:
        raise _UsageError("--ratio needs --sigma (mixture of Gaussian inliers)")
    if args.n_sensors < 1:
        raise _UsageError("--n-sensors must be at least 1")
    if args.seed < 0:
        raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
    _check_number("--range", args.range, positive=True)
    for flag, value in (("--gamma", args.gamma), ("--sigma", args.sigma), ("--ratio", args.ratio)):
        _check_number(flag, value, positive=False)
    config = model.ScenarioConfig(
        n_sensors=args.n_sensors,
        anchor_positions=DEFAULT_ANCHORS,
        sensing_range=args.range,
    )
    scen = model.generate_scenario(config, seed=args.seed)
    if args.gamma is not None:
        scen = model.apply_errors(scen, model.UniformError(gamma=args.gamma), seed=args.seed)
    elif args.ratio is not None:
        scen = model.apply_errors(
            scen, model.MixtureError(sigma=args.sigma, ratio=args.ratio), seed=args.seed
        )
    elif args.sigma is not None:
        scen = model.apply_errors(scen, model.GaussianError(sigma=args.sigma), seed=args.seed)
    _write_text(args.out, model.scenario_to_json(scen))
    return 0


def _cmd_solve_central(args) -> int:
    scen = _read_scenario(args.scenario)
    est = central.solve_minmax_sdp(scen)
    _write_text(args.out, central.estimate_to_json(est))
    if est.solver_status != central.SolveStatus.OPTIMAL:
        print(f"solver status: {est.solver_status.value}", file=sys.stderr)
        return 2
    return 0


def _cmd_solve_dist(args) -> int:
    scen = _read_scenario(args.scenario)
    try:
        config = dist.DisMinMaxConfig(epsilon=args.epsilon, max_rounds=args.max_rounds)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    result = dist.run_dis_minmax(scen, config)
    _write_text(args.out, dist.trace_to_jsonl(result))
    if not result.converged:
        print(
            f"not all nodes localized within {args.max_rounds} rounds",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_oracle(args) -> int:
    _check_number("--resolution", args.resolution, positive=True)
    scen = _read_scenario(args.scenario)
    if len(scen.sensors) != 1 or scen.sensor_edges:
        raise _UsageError("the oracle handles single-sensor scenarios only")
    reg = geom.single_sensor_region(scen, model.build_feasibility_intervals(scen))
    cheb = geom.grid_chebyshev_center(reg, resolution=args.resolution)
    (rx, ry), rval = geom.relaxed_center_value(reg, resolution=args.resolution)
    doc = {
        "chebyshev_center": list(cheb.center),
        "chebyshev_radius": cheb.radius,
        "relaxed_center": [rx, ry],
        "relaxed_value": rval,
        "resolution": args.resolution,
    }
    _write_text(args.out, json.dumps(doc, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    try:
        with open(args.spec) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read {args.spec}: {exc}") from exc
    except ValueError as exc:
        raise _UsageError(f"{args.spec} is not JSON: {exc}") from exc
    try:
        spec = experiment.spec_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"bad experiment spec {args.spec}: {exc}") from exc
    try:
        if args.trials is not None:
            spec = dataclasses.replace(spec, trials=args.trials)
        if args.seed is not None:
            spec = dataclasses.replace(spec, master_seed=args.seed)
    except ValueError as exc:
        raise _UsageError(f"bad override: {exc}") from exc
    report = experiment.run_experiment(spec)
    experiment.emit_outputs(
        report, csv_path=args.out + ".csv", json_path=args.out + ".json"
    )
    failed = sum(1 for t in report.trials if t.failures)
    print(
        f"{len(report.trials)} trials ({failed} with failures) -> "
        f"{args.out}.csv, {args.out}.json"
    )
    return 0


def _cmd_validate(args) -> int:
    scen = _read_scenario(args.scenario)
    report = model.validate_scenario(scen)
    print(f"connected: {report.connected}")
    print(f"anchors_noncollinear: {report.anchors_noncollinear}")
    for w in report.warnings:
        print(f"warning: {w}")
    return 0 if report.ok else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="minmaxloc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random scenario as JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-sensors", type=int, default=10)
    p.add_argument("--range", type=float, default=0.5, help="sensing range")
    p.add_argument("--gamma", type=float, help="apply uniform errors with this bound")
    p.add_argument("--sigma", type=float, help="apply Gaussian errors (bound 3*sigma)")
    p.add_argument("--ratio", type=float, help="outlier ratio for the mixture model")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve-central", help="centralized estimate with certificate")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_solve_central)

    p = sub.add_parser("solve-dist", help="distributed run, JSON-lines trace")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--epsilon", type=float, default=dist.DisMinMaxConfig.epsilon)
    p.add_argument("--max-rounds", type=int, default=dist.DisMinMaxConfig.max_rounds)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_solve_dist)

    p = sub.add_parser("oracle", help="grid Chebyshev center of one sensor's region")
    p.add_argument("scenario", help="single-sensor scenario JSON file")
    p.add_argument("--resolution", type=float, default=geom.DEFAULT_RESOLUTION)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("experiment", help="run a Monte Carlo sweep from a spec file")
    p.add_argument("spec", help="experiment spec JSON file")
    p.add_argument("--out", required=True, help="output prefix for .csv and .json")
    p.add_argument("--trials", type=int, help="override the spec's trial count")
    p.add_argument("--seed", type=int, help="override the spec's master seed")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("validate", help="sanity-check a scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
