"""Monte Carlo experiment driver and a nonlinear least-squares baseline.

The driver sweeps one error-model parameter (uniform bound, Gaussian sigma,
or outlier ratio), runs each configured estimator on freshly generated
scenarios, and collects RMSE plus certificate values into a report that
serializes to CSV and JSON.

Reproducibility contract: every random draw derives from the master seed
through ``trial_seed(master, sweep_index, trial, role)``, so any single
trial can be replayed in isolation.  Wall-clock runtimes are the only
report fields that vary between identical runs.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from . import central, dist
from .model import (
    GaussianError,
    MixtureError,
    NetworkScenario,
    Point2,
    ScenarioConfig,
    UniformError,
    apply_errors,
    generate_scenario,
)
from .sdp import SolveStatus

ESTIMATORS = ("minmax_sdp", "dis_minmax", "baseline")
ERROR_FAMILIES = ("uniform", "gaussian", "mixture")

_ROLES = {"scenario": 0, "errors": 1, "baseline": 2}

# What scenario generation and the estimators raise on bad data or a failed
# solve (geom.EmptyRegionError is a ValueError).  A trial records these as
# failures; any other exception is a programming error and propagates.
_TRIAL_ERRORS = (ValueError, RuntimeError, np.linalg.LinAlgError, FloatingPointError)


def trial_seed(master: int, sweep_index: int, trial: int, role: str) -> int:
    """Derived seed for one role of one trial.

    role is "scenario", "errors", or "baseline"; the derivation is
    SeedSequence(master, spawn_key=(sweep_index, trial, role_code)) with
    role codes 0, 1, 2 in that order.
    """
    ss = np.random.SeedSequence(
        entropy=master, spawn_key=(sweep_index, trial, _ROLES[role])
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def rmse(estimates: Mapping[int, Point2], truth: Mapping[int, Point2]) -> float:
    """Root mean squared position error over a common sensor set."""
    if set(estimates) != set(truth):
        raise ValueError(
            f"estimate/truth key mismatch: {sorted(estimates)} vs {sorted(truth)}"
        )
    total = 0.0
    for i, (ex, ey) in estimates.items():
        tx, ty = truth[i]
        total += (ex - tx) ** 2 + (ey - ty) ** 2
    return math.sqrt(total / len(truth))


# --- nonlinear least-squares baseline ----------------------------------------


@dataclass
class BaselineResult:
    """Damped Gauss-Newton output.

    ``objective_history`` lists the objective at the start plus after every
    accepted step, so it is non-increasing by construction.
    """

    positions: Dict[int, Point2]
    converged: bool
    iterations: int
    objective: float
    objective_history: List[float]


class _RangeResiduals:
    """The range residuals of a scenario's edges, by index arithmetic.

    Built once per fit.  The points are the sensors, in ``order``, then the
    anchors; each edge ``(a, b)`` of ``scenario.all_edges()`` is a row with
    the point indices ``head`` (sensor a) and ``tail`` (b), and ``meas``
    holds the measured ranges in the same order.
    """

    def __init__(self, scenario: NetworkScenario, order: List[int]):
        index = {s: k for k, s in enumerate(order)}
        anchors = list(scenario.anchors)
        point = {a: len(order) + k for k, a in enumerate(anchors)}
        point.update(index)
        edges = scenario.all_edges()
        self.head = np.array([index[a] for a, _ in edges], dtype=np.intp)
        self.tail = np.array([point[b] for _, b in edges], dtype=np.intp)
        self.meas = np.array([scenario.measurements[e] for e in edges], dtype=float)
        xy = [scenario.anchors[a] for a in anchors]
        self.anchor_xy = np.array(xy, dtype=float).reshape(-1, 2)
        self.n = len(order)

    def residuals(self, flat: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(r, diff, d): the residuals ``d - meas``, and each edge's
        difference vector and length, which ``jacobian`` takes."""
        points = np.concatenate([flat.reshape(-1, 2), self.anchor_xy])
        diff = points[self.head] - points[self.tail]
        d = np.hypot(diff[:, 0], diff[:, 1])
        return d - self.meas, diff, d

    def jacobian(self, diff: np.ndarray, d: np.ndarray) -> np.ndarray:
        """dr/d(flat): the unit vector of each edge at its sensor head and
        its negation at a sensor tail.  A row whose length is below 1e-12
        stays zero, as its direction is undefined."""
        jac = np.zeros((len(d), self.n, 2))
        rows = np.flatnonzero(~(d < 1e-12))
        unit = diff[rows] / d[rows, None]
        jac[rows, self.head[rows]] = unit
        sensor = self.tail[rows] < self.n
        jac[rows[sensor], self.tail[rows[sensor]]] = -unit[sensor]
        return jac.reshape(len(d), 2 * self.n)


def _random_init(scenario: NetworkScenario, rng: np.random.Generator) -> np.ndarray:
    ax = [p[0] for p in scenario.anchors.values()]
    ay = [p[1] for p in scenario.anchors.values()]
    pad = scenario.sensing_range
    n = len(scenario.sensors)
    xs = rng.uniform(min(ax) - pad, max(ax) + pad, n)
    ys = rng.uniform(min(ay) - pad, max(ay) + pad, n)
    flat = np.empty(2 * n)
    flat[0::2] = xs
    flat[1::2] = ys
    return flat


def baseline_least_squares(
    scenario: NetworkScenario,
    seed: int,
    init: Optional[Mapping[int, Point2]] = None,
    max_iters: int = 500,
    grad_tol: float = 1e-9,
) -> BaselineResult:
    """Classical range-based least squares, as a comparison point.

    Minimizes the sum of squared residuals (measured range minus estimated
    range) over all edges with a damped Gauss-Newton iteration started from
    a seeded uniform draw over the anchor bounding box padded by the
    sensing range (or from ``init`` when given).  Stops at gradient norm
    ``grad_tol`` or after ``max_iters`` accepted steps; on non-convergence
    the best iterate found is returned with ``converged`` False.
    """
    order = list(scenario.sensors)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0xBA5E,))
    )
    if init is None:
        flat = _random_init(scenario, rng)
    else:
        flat = np.array([c for i in order for c in init[i]], dtype=float)

    ranges = _RangeResiduals(scenario, order)
    r, diff, d = ranges.residuals(flat)
    value = float(r @ r)
    history = [value]
    eye = np.eye(flat.size)
    lam = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        jac = ranges.jacobian(diff, d)
        jtr = jac.T @ r
        if np.linalg.norm(2.0 * jtr) <= grad_tol:
            converged = True
            iterations -= 1
            break
        gram = jac.T @ jac
        stepped = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(gram + lam * eye, -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial_flat = flat + step
            # a trial step needs the objective only
            trial = ranges.residuals(trial_flat)
            trial_value = float(trial[0] @ trial[0])
            if trial_value <= value:
                flat, value = trial_flat, trial_value
                r, diff, d = trial
                history.append(value)
                lam = max(lam / 3.0, 1e-12)
                stepped = True
                break
            lam *= 10.0
        if not stepped:
            break  # damping exhausted; current iterate is the best seen

    positions = {
        s: (float(flat[2 * k]), float(flat[2 * k + 1])) for k, s in enumerate(order)
    }
    return BaselineResult(
        positions=positions,
        converged=converged,
        iterations=iterations,
        objective=value,
        objective_history=history,
    )


# --- experiment specification and report --------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a scenario family, an error family, and its swept values.

    ``sweep_values`` means the uniform error bound for family "uniform",
    the Gaussian sigma for "gaussian", and the outlier ratio for "mixture"
    (whose inlier sigma is ``mixture_sigma``).
    """

    scenario: ScenarioConfig
    error_family: str
    sweep_values: Tuple[float, ...]
    estimators: Tuple[str, ...] = ESTIMATORS
    trials: int = 20
    master_seed: int = 0
    mixture_sigma: float = 0.02
    epsilon: float = dist.DisMinMaxConfig.epsilon
    max_rounds: int = dist.DisMinMaxConfig.max_rounds

    def __post_init__(self):
        if self.error_family not in ERROR_FAMILIES:
            raise ValueError(f"unknown error family {self.error_family!r}")
        if not self.sweep_values:
            raise ValueError("sweep_values must not be empty")
        unknown = [e for e in self.estimators if e not in ESTIMATORS]
        if unknown or not self.estimators:
            raise ValueError(f"unknown estimators {unknown}")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        dist.DisMinMaxConfig(epsilon=self.epsilon, max_rounds=self.max_rounds)

    def error_model(self, sweep_value: float):
        if self.error_family == "uniform":
            return UniformError(gamma=sweep_value)
        if self.error_family == "gaussian":
            return GaussianError(sigma=sweep_value)
        return MixtureError(sigma=self.mixture_sigma, ratio=sweep_value)


@dataclass
class TrialResult:
    sweep_value: float
    trial: int
    seeds: Dict[str, int]
    rmse_central: Optional[float] = None
    worst_case_value: Optional[float] = None
    rmse_distributed_by_round: List[float] = field(default_factory=list)
    rmse_upper_bound_by_round: List[float] = field(default_factory=list)
    dist_rounds: Optional[int] = None
    dist_converged: Optional[bool] = None
    rmse_baseline: Optional[float] = None
    baseline_converged: Optional[bool] = None
    runtimes: Dict[str, float] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)

    def final_rmse(self, estimator: str) -> Optional[float]:
        if estimator == "minmax_sdp":
            return self.rmse_central
        if estimator == "dis_minmax":
            if self.rmse_distributed_by_round:
                return self.rmse_distributed_by_round[-1]
            return None
        return self.rmse_baseline


@dataclass(frozen=True)
class AggregateRow:
    sweep_value: float
    estimator: str
    mean_rmse: float
    stdev_rmse: float
    count: int


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    trials: List[TrialResult]
    aggregates: List[AggregateRow]


def _aggregate(spec: ExperimentSpec, trials: List[TrialResult]) -> List[AggregateRow]:
    rows = []
    for v in spec.sweep_values:
        for name in spec.estimators:
            vals = [
                t.final_rmse(name)
                for t in trials
                if t.sweep_value == v and t.final_rmse(name) is not None
            ]
            if not vals:
                continue
            rows.append(
                AggregateRow(
                    sweep_value=v,
                    estimator=name,
                    mean_rmse=statistics.fmean(vals),
                    stdev_rmse=statistics.stdev(vals) if len(vals) > 1 else 0.0,
                    count=len(vals),
                )
            )
    return rows


def _run_one_trial(
    spec: ExperimentSpec, sweep_index: int, trial: int
) -> TrialResult:
    v = spec.sweep_values[sweep_index]
    seeds = {
        role: trial_seed(spec.master_seed, sweep_index, trial, role)
        for role in _ROLES
    }
    out = TrialResult(sweep_value=v, trial=trial, seeds=seeds)

    try:
        scen = generate_scenario(spec.scenario, seed=seeds["scenario"])
        scen = apply_errors(scen, spec.error_model(v), seed=seeds["errors"])
    except _TRIAL_ERRORS as exc:
        out.failures["scenario"] = f"{type(exc).__name__}: {exc}"
        return out

    truth = scen.true_positions
    for name in spec.estimators:
        t0 = time.perf_counter()
        try:
            if name == "minmax_sdp":
                est = central.solve_minmax_sdp(scen)
                if est.solver_status != SolveStatus.OPTIMAL:
                    out.failures[name] = f"solver status {est.solver_status.value}"
                else:
                    out.rmse_central = rmse(est.positions, truth)
                    out.worst_case_value = est.worst_case_value
            elif name == "dis_minmax":
                res = dist.run_dis_minmax(
                    scen,
                    dist.DisMinMaxConfig(
                        epsilon=spec.epsilon, max_rounds=spec.max_rounds
                    ),
                )
                for rec in res.rounds:
                    ests = {i: s.estimate for i, s in rec.states.items()}
                    out.rmse_distributed_by_round.append(rmse(ests, truth))
                    out.rmse_upper_bound_by_round.append(rec.rmse_upper_bound)
                out.dist_rounds = len(res.rounds) - 1
                out.dist_converged = res.converged
            else:
                res = baseline_least_squares(scen, seed=seeds["baseline"])
                out.rmse_baseline = rmse(res.positions, truth)
                out.baseline_converged = res.converged
        except _TRIAL_ERRORS as exc:
            out.failures[name] = f"{type(exc).__name__}: {exc}"
        out.runtimes[name] = time.perf_counter() - t0
    return out


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute the full sweep; per-trial failures are recorded, not raised."""
    trials: List[TrialResult] = []
    for sweep_index in range(len(spec.sweep_values)):
        for trial in range(spec.trials):
            trials.append(_run_one_trial(spec, sweep_index, trial))
    return ExperimentReport(
        spec=spec, trials=trials, aggregates=_aggregate(spec, trials)
    )


# --- serialization ------------------------------------------------------------

CSV_COLUMNS = (
    "sweep_value",
    "estimator",
    "trial",
    "rmse",
    "worst_case_value",
    "rounds",
    "seconds",
)


def report_to_csv_rows(report: ExperimentReport) -> List[Dict[str, object]]:
    """One row per trial x estimator, in sweep/trial/estimator order.

    Timing lands in the ``seconds`` column; every other column is
    deterministic for a fixed spec.
    """
    rows = []
    for t in report.trials:
        for name in report.spec.estimators:
            rows.append(
                {
                    "sweep_value": t.sweep_value,
                    "estimator": name,
                    "trial": t.trial,
                    "rmse": t.final_rmse(name),
                    "worst_case_value": t.worst_case_value
                    if name == "minmax_sdp"
                    else None,
                    "rounds": t.dist_rounds if name == "dis_minmax" else None,
                    "seconds": t.runtimes.get(name),
                }
            )
    return rows


def spec_from_dict(doc: Mapping) -> ExperimentSpec:
    sc = doc["scenario"]
    config = ScenarioConfig(
        n_sensors=int(sc["n_sensors"]),
        anchor_positions=tuple((float(x), float(y)) for x, y in sc["anchor_positions"]),
        sensing_range=float(sc["sensing_range"]),
        area=tuple(tuple(float(c) for c in ax) for ax in sc["area"]),
    )
    return ExperimentSpec(
        scenario=config,
        error_family=doc["error_family"],
        sweep_values=tuple(float(v) for v in doc["sweep_values"]),
        estimators=tuple(doc.get("estimators", ExperimentSpec.estimators)),
        trials=int(doc.get("trials", ExperimentSpec.trials)),
        master_seed=int(doc.get("master_seed", ExperimentSpec.master_seed)),
        mixture_sigma=float(doc.get("mixture_sigma", ExperimentSpec.mixture_sigma)),
        epsilon=float(doc.get("epsilon", ExperimentSpec.epsilon)),
        max_rounds=int(doc.get("max_rounds", ExperimentSpec.max_rounds)),
    )


def report_to_json(report: ExperimentReport) -> str:
    """The report as JSON, keyed and ordered by the dataclass fields."""
    return json.dumps(asdict(report), indent=2)


def report_from_json(text: str) -> ExperimentReport:
    doc = json.loads(text)
    return ExperimentReport(
        spec=spec_from_dict(doc["spec"]),
        trials=[TrialResult(**t) for t in doc["trials"]],
        aggregates=[AggregateRow(**a) for a in doc["aggregates"]],
    )


def emit_outputs(
    report: ExperimentReport,
    csv_path: Optional[str] = None,
    json_path: Optional[str] = None,
) -> None:
    """Write the CSV rows and/or the full JSON report.

    I/O problems are re-raised with the offending path in the message.
    """
    if csv_path is not None:
        try:
            with open(csv_path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
                writer.writeheader()
                for row in report_to_csv_rows(report):
                    writer.writerow(
                        {k: ("" if v is None else v) for k, v in row.items()}
                    )
        except OSError as exc:
            raise OSError(f"cannot write CSV to {csv_path}: {exc}") from exc
    if json_path is not None:
        try:
            with open(json_path, "w") as fh:
                fh.write(report_to_json(report))
                fh.write("\n")
        except OSError as exc:
            raise OSError(f"cannot write JSON report to {json_path}: {exc}") from exc
