"""Release acceptance gate.

Nine checks, one test each, every test printing a single scorecard line of
the form ``[acceptance N] label: PASS (...)``.  Run

    pytest tests/test_acceptance.py -v -s

to see the lines as they appear.  What the checks cover:

1. Certified squared radii never grow across rounds (raw solver values,
   before clamping), over thirty seeded networks of up to twenty sensors,
   in under five minutes.
2. Whenever every realized error is within the assumed bound, the truth
   lies inside both certificates: the summed squared central error is at
   most the worst-case value, and each node's error is within its radius
   at every round.
3. The lifted program and the multiplier-side program reach the same
   optimum on ten small networks.
4. On five single-sensor fixtures the worst-case value dominates the grid
   oracle's squared radius, and the sampled worst-case distance of the
   recovered estimate stays below the certified value.
5. On five fixtures with hollow or disconnected feasible sets, the
   projected estimate's worst-case radius lands between one and two grid
   oracle radii.
6. A ten-sensor exactly-measured network is recovered to 1e-4 by both the
   central and the distributed solver, with a near-zero certificate.
7. Sweeping the error bound upward on twenty-sensor networks keeps the
   mean RMSE bounded and non-decreasing, allowing one inversion per sweep
   if it stays within a standard error.
8. Fifty- and hundred-sensor networks localize every node within fifty
   rounds while the RMSE upper bound never increases.
9. Re-running each pipeline with identical seeds reproduces identical
   numbers (wall-clock fields excluded).
"""

import math
import time
from typing import List, Tuple

import pytest

from fixtures import NONCONVEX_FIXTURES, ORACLE_FIXTURES, trilateration_instance
from minmaxloc import central, dist, experiment, geom, model
from minmaxloc.sdp import SolveStatus, SolverConfig, solve
from primal_sdp import assemble_primal_sdp

ANCHORS4 = ((0.3, 0.3), (-0.3, 0.3), (0.3, -0.3), (-0.3, -0.3))
GRID_RES = 1e-3
GAMMA_SWEEP = (0.02, 0.04, 0.06, 0.08, 0.1)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {label}: {verdict} ({detail})")
    assert ok, f"acceptance {num}, {label}: {detail}"


def _gaussian_scenario(
    n: int, scen_seed: int, err_seed: int, sensing: float = 0.5
) -> model.NetworkScenario:
    cfg = model.ScenarioConfig(
        n_sensors=n, anchor_positions=ANCHORS4, sensing_range=sensing
    )
    scen = model.generate_scenario(cfg, seed=scen_seed)
    return model.apply_errors(scen, model.GaussianError(sigma=0.02), seed=err_seed)


def _sq_error(est: Tuple[float, float], truth: Tuple[float, float]) -> float:
    return (est[0] - truth[0]) ** 2 + (est[1] - truth[1]) ** 2


def _in_bound(scen: model.NetworkScenario) -> bool:
    return all(abs(e) <= scen.gamma for e in scen.realized_errors().values())


@pytest.fixture(scope="module")
def seeded_runs() -> Tuple[List[Tuple[model.NetworkScenario, dist.DisMinMaxResult]], float]:
    """Thirty distributed runs on networks of 10 to 20 sensors, plus elapsed time."""
    t0 = time.perf_counter()
    runs = []
    for k in range(30):
        scen = _gaussian_scenario(10 + k % 11, 100 + k, 1000 + k)
        runs.append((scen, dist.run_dis_minmax(scen)))
    return runs, time.perf_counter() - t0


def test_certified_radii_never_grow(seeded_runs):
    runs, elapsed = seeded_runs
    worst_slack = -math.inf
    node_rounds = 0
    for _, run in runs:
        prev = {}
        for rec in run.rounds:
            for s, st in rec.states.items():
                if s in prev:
                    allowed = 1e-6 * (1.0 + prev[s])
                    worst_slack = max(worst_slack, st.raw_radius_sq - prev[s] - allowed)
                    node_rounds += 1
                prev[s] = st.raw_radius_sq
    ok = len(runs) >= 30 and worst_slack <= 0.0 and elapsed < 300.0
    _report(
        1,
        "certified radii never grow",
        ok,
        f"{len(runs)} networks, {node_rounds} node-rounds, "
        f"worst slack {worst_slack:.2e}, {elapsed:.1f}s",
    )


def test_certificates_contain_truth_when_errors_in_bound(seeded_runs):
    runs, _ = seeded_runs
    in_bound = [(scen, run) for scen, run in runs if _in_bound(scen)]

    dist_violations = 0
    for scen, run in in_bound:
        for rec in run.rounds:
            for s, st in rec.states.items():
                if _sq_error(st.estimate, scen.true_positions[s]) > st.radius_sq:
                    dist_violations += 1

    central_violations = 0
    for scen, _ in in_bound:
        est = central.solve_minmax_sdp(scen)
        total = sum(
            _sq_error(est.positions[s], scen.true_positions[s]) for s in scen.sensors
        )
        good = (
            est.solver_status == SolveStatus.OPTIMAL
            and total <= est.worst_case_value * (1.0 + 1e-6) + 1e-8
        )
        if not good:
            central_violations += 1

    ok = bool(in_bound) and dist_violations == 0 and central_violations == 0
    _report(
        2,
        "truth inside both certificates",
        ok,
        f"{len(in_bound)} of {len(runs)} trials in bound, "
        f"{dist_violations} distributed and {central_violations} central violations",
    )


def test_both_program_forms_agree():
    worst_rel = 0.0
    for k in range(10):
        scen = _gaussian_scenario(3 + k % 3, 300 + k, 1300 + k, sensing=0.7)
        est = central.solve_minmax_sdp(scen)
        problem, _ = assemble_primal_sdp(scen)
        lifted = solve(problem)
        assert est.solver_status == SolveStatus.OPTIMAL
        assert lifted.status == SolveStatus.OPTIMAL
        lifted_value = -lifted.objective_value
        denom = 1.0 + abs(lifted_value) + abs(est.worst_case_value)
        worst_rel = max(worst_rel, abs(lifted_value - est.worst_case_value) / denom)
    ok = worst_rel <= 1e-6
    _report(
        3,
        "lifted and multiplier optima agree",
        ok,
        f"10 networks of up to 5 sensors, worst relative gap {worst_rel:.2e}",
    )


def test_single_sensor_worst_case_matches_grid_oracle():
    # The grid radius carries up to sqrt(2) * resolution of discretization
    # bias in either direction, so the dominance check gets the same
    # 2 * resolution slack the projection check uses.  Fixtures with a known
    # closed-form optimum are also checked against it without slack.
    failures = []
    for name, ((scen, bounds), analytic) in ORACLE_FIXTURES.items():
        est = central.solve_minmax_sdp(scen, intervals=bounds)
        region = geom.single_sensor_region(scen, bounds)
        cheb = geom.grid_chebyshev_center(region, resolution=GRID_RES)
        sampled = geom.grid_max_distance(region, est.positions[0], resolution=GRID_RES)
        certified = math.sqrt(est.worst_case_value)
        good = (
            est.solver_status == SolveStatus.OPTIMAL
            and certified >= cheb.radius - 2 * GRID_RES
            and sampled <= certified * (1.0 + 1e-4)
            and (analytic is None or est.worst_case_value >= analytic - 1e-7)
        )
        if not good:
            failures.append(name)
    _report(
        4,
        "single-sensor grid oracle agreement",
        not failures,
        f"{len(ORACLE_FIXTURES)} fixtures at resolution {GRID_RES:g}"
        + (f", failing: {failures}" if failures else ""),
    )


def test_projected_estimate_within_twice_oracle_radius():
    failures = []
    ratios = []
    for name, (scen, bounds) in NONCONVEX_FIXTURES.items():
        est = central.solve_minmax_sdp(scen, intervals=bounds)
        region = geom.single_sensor_region(scen, bounds)
        cheb = geom.grid_chebyshev_center(region, resolution=GRID_RES)
        projected = geom.project_to_region(region, est.positions[0], resolution=GRID_RES)
        reachable = geom.grid_max_distance(region, projected, resolution=GRID_RES)
        ratios.append(reachable / cheb.radius)
        good = (
            est.solver_status == SolveStatus.OPTIMAL
            and cheb.radius - 2 * GRID_RES <= reachable <= 2 * cheb.radius + 2 * GRID_RES
        )
        if not good:
            failures.append(name)
    _report(
        5,
        "projected estimate within twice the oracle radius",
        not failures,
        f"{len(NONCONVEX_FIXTURES)} fixtures, radius ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + (f", failing: {failures}" if failures else ""),
    )


def test_exact_measurements_recover_truth():
    scen = trilateration_instance()

    est = central.solve_minmax_sdp(scen, config=SolverConfig(feas_tol=1e-6))
    central_err = max(
        math.dist(est.positions[s], scen.true_positions[s]) for s in scen.sensors
    )

    run = dist.run_dis_minmax(scen)
    last = run.rounds[-1].states
    dist_err = max(
        math.dist(last[s].estimate, scen.true_positions[s]) for s in scen.sensors
    )

    ok = (
        est.solver_status == SolveStatus.OPTIMAL
        and central_err <= 1e-4
        and est.worst_case_value <= 1e-6
        and run.converged
        and dist_err <= 1e-4
    )
    _report(
        6,
        "exact measurements recover truth",
        ok,
        f"central error {central_err:.1e}, worst-case value "
        f"{est.worst_case_value:.1e}, distributed error {dist_err:.1e} "
        f"after {len(run.rounds) - 1} rounds",
    )


def test_rmse_stays_bounded_and_trends_upward():
    cfg = model.ScenarioConfig(
        n_sensors=20, anchor_positions=ANCHORS4, sensing_range=0.5
    )
    spec = experiment.ExperimentSpec(
        scenario=cfg,
        error_family="uniform",
        sweep_values=GAMMA_SWEEP,
        estimators=("minmax_sdp",),
        trials=20,
        master_seed=2026,
    )
    report = experiment.run_experiment(spec)
    failed = sum(1 for t in report.trials if t.failures)

    rows = {row.sweep_value: row for row in report.aggregates}
    means = [rows[g].mean_rmse for g in GAMMA_SWEEP]
    errs = [rows[g].stdev_rmse / math.sqrt(rows[g].count) for g in GAMMA_SWEEP]

    inversions = []
    for k in range(len(means) - 1):
        if means[k + 1] < means[k]:
            drop = means[k] - means[k + 1]
            inversions.append(drop <= math.hypot(errs[k], errs[k + 1]))

    ok = (
        failed == 0
        and means[-1] < 0.3
        and len(inversions) <= 1
        and all(inversions)
    )
    _report(
        7,
        "rmse bounded and non-decreasing across error levels",
        ok,
        f"means {', '.join(f'{m:.4f}' for m in means)}, "
        f"{len(inversions)} inversion(s), {failed} failed trials",
    )


def test_large_networks_localize_quickly():
    details = []
    ok = True
    for n, sensing, scen_seed, err_seed in ((50, 0.5, 21, 1021), (100, 0.3, 22, 1022)):
        cfg = model.ScenarioConfig(
            n_sensors=n, anchor_positions=ANCHORS4, sensing_range=sensing
        )
        scen = model.generate_scenario(cfg, seed=scen_seed)
        scen = model.apply_errors(scen, model.GaussianError(sigma=0.02), seed=err_seed)
        run = dist.run_dis_minmax(
            scen, config=dist.DisMinMaxConfig(epsilon=1e-6, max_rounds=50)
        )
        bounds = [rec.rmse_upper_bound for rec in run.rounds]
        non_increasing = all(
            bounds[i + 1] <= bounds[i] + 1e-12 for i in range(len(bounds) - 1)
        )
        all_localized = all(st.localized for st in run.rounds[-1].states.values())
        ok = ok and run.converged and all_localized and non_increasing
        details.append(
            f"n={n}: {len(run.rounds) - 1} rounds, bound "
            f"{bounds[0]:.4f} -> {bounds[-1]:.4f}"
        )
    _report(8, "large networks localize within fifty rounds", ok, "; ".join(details))


def test_identical_seeds_reproduce_identical_numbers():
    # Distributed pipeline, as exercised by checks 1, 2, and 8.
    scen_a = _gaussian_scenario(15, 100, 1000)
    scen_b = _gaussian_scenario(15, 100, 1000)
    trace_a = dist.trace_to_jsonl(dist.run_dis_minmax(scen_a))
    trace_b = dist.trace_to_jsonl(dist.run_dis_minmax(scen_b))
    dist_same = scen_a == scen_b and trace_a == trace_b

    # Central pipeline, as exercised by checks 2 through 6.
    est_a = central.solve_minmax_sdp(scen_a)
    est_b = central.solve_minmax_sdp(scen_b)
    central_same = (
        est_a.positions == est_b.positions
        and est_a.worst_case_value == est_b.worst_case_value
    )

    # Grid oracle, as exercised by checks 4 and 5.
    scen_g, bounds_g = NONCONVEX_FIXTURES["islands"]
    region = geom.single_sensor_region(scen_g, bounds_g)
    oracle_same = geom.grid_chebyshev_center(
        region, resolution=GRID_RES
    ) == geom.grid_chebyshev_center(region, resolution=GRID_RES)

    # Sweep driver with every estimator, as exercised by check 7.
    cfg = model.ScenarioConfig(
        n_sensors=5, anchor_positions=ANCHORS4, sensing_range=0.7
    )
    spec = experiment.ExperimentSpec(
        scenario=cfg,
        error_family="uniform",
        sweep_values=(0.02, 0.1),
        trials=2,
        master_seed=77,
    )
    rep_a = experiment.run_experiment(spec)
    rep_b = experiment.run_experiment(spec)
    sweep_same = rep_a.aggregates == rep_b.aggregates
    for ta, tb in zip(rep_a.trials, rep_b.trials):
        sweep_same = (
            sweep_same
            and ta.seeds == tb.seeds
            and ta.failures == tb.failures
            and all(ta.final_rmse(e) == tb.final_rmse(e) for e in spec.estimators)
            and ta.rmse_distributed_by_round == tb.rmse_distributed_by_round
            and ta.rmse_upper_bound_by_round == tb.rmse_upper_bound_by_round
        )

    ok = dist_same and central_same and oracle_same and sweep_same
    _report(
        9,
        "identical seeds give identical outputs",
        ok,
        f"distributed={dist_same}, central={central_same}, "
        f"oracle={oracle_same}, sweep={sweep_same}",
    )
