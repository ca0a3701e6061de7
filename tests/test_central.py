import json
import math

import numpy as np
import pytest

from fixtures import ORACLE_FIXTURES, single_sensor_fixture
from minmaxloc import central, geom, model
from minmaxloc.sdp import SolveStatus, solve
from primal_sdp import assemble_primal_sdp, sample_feasible_positions

ANCHORS4 = ((0.3, 0.3), (-0.3, 0.3), (0.3, -0.3), (-0.3, -0.3))


@pytest.fixture(scope="module")
def solved_fixtures():
    out = {}
    for name, ((scen, bounds), analytic) in ORACLE_FIXTURES.items():
        out[name] = (scen, bounds, central.solve_minmax_sdp(scen, intervals=bounds))
    return out


def test_variable_count_single_sensor():
    scen, bounds = single_sensor_fixture(
        {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (0.0, 1.0)},
        {1: (0.4, 0.6), 2: (0.7, 0.9), 3: (0.6, 0.8)},
    )
    problem, idx = central.assemble_dual_sdp(scen, bounds)
    assert problem.num_vars == 7
    assert problem.blocks[0].dim == 3
    assert problem.blocks[1].dim == 2
    assert sum(1 for b in problem.blocks if b.dim == 1) == 6


def test_lmi_size_matches_network():
    cfg = model.ScenarioConfig(
        n_sensors=50, anchor_positions=ANCHORS4, sensing_range=0.5
    )
    scen = model.generate_scenario(cfg, seed=11)
    problem, idx = central.assemble_dual_sdp(scen)
    assert problem.blocks[0].dim == 101
    assert problem.num_vars == 1 + 2 * len(scen.sensor_edges) + 2 * len(scen.anchor_edges)


def test_diamond_analytic_value(solved_fixtures):
    scen, bounds, est = solved_fixtures["diamond"]
    assert est.solver_status == SolveStatus.OPTIMAL
    assert est.worst_case_value == pytest.approx(1.0, rel=1e-6)
    x, y = est.positions[0]
    assert abs(x) < 1e-6 and abs(y) < 1e-6


def test_disc_analytic_value(solved_fixtures):
    scen, bounds, est = solved_fixtures["disc"]
    assert est.worst_case_value == pytest.approx(0.9995**2, rel=1e-6)
    x, y = est.positions[0]
    assert abs(x) < 1e-6 and abs(y) < 1e-6


def test_lens_analytic_value(solved_fixtures):
    scen, bounds, est = solved_fixtures["lens"]
    assert est.worst_case_value == pytest.approx(0.75, rel=1e-6)
    x, y = est.positions[0]
    assert abs(x) < 1e-6 and abs(y) < 1e-6


def test_corner_matches_grid_oracle(solved_fixtures):
    scen, bounds, est = solved_fixtures["corner"]
    region = geom.single_sensor_region(scen, bounds)
    (gx, gy), gval = geom.relaxed_center_value(region, resolution=1e-3)
    x, y = est.positions[0]
    assert math.hypot(x - gx, y - gy) <= 2e-3
    assert est.worst_case_value == pytest.approx(gval, abs=5e-3)
    cheb = geom.grid_chebyshev_center(region, resolution=1e-3)
    assert est.worst_case_value >= cheb.radius**2


def test_offset_matches_grid_oracle(solved_fixtures):
    scen, bounds, est = solved_fixtures["offset"]
    region = geom.single_sensor_region(scen, bounds)
    _, gval = geom.relaxed_center_value(region, resolution=1e-3)
    assert est.worst_case_value == pytest.approx(gval, abs=5e-3)


def test_estimate_never_beats_certificate_on_feasible_grid(solved_fixtures):
    for name, (scen, bounds, est) in solved_fixtures.items():
        region = geom.single_sensor_region(scen, bounds)
        worst = geom.grid_max_distance(
            region, est.positions[0], resolution=2e-3
        )
        assert worst <= math.sqrt(est.worst_case_value) * (1 + 1e-4), name


def test_true_error_within_certificate():
    cfg = model.ScenarioConfig(
        n_sensors=5, anchor_positions=ANCHORS4, sensing_range=0.5
    )
    scen = model.generate_scenario(cfg, seed=7)
    scen = model.apply_errors(scen, model.GaussianError(sigma=0.02), seed=7)
    errs = scen.realized_errors()
    assert max(abs(v) for v in errs.values()) <= scen.gamma, "pick a seed with in-bound errors"
    est = central.solve_minmax_sdp(scen)
    assert est.solver_status == SolveStatus.OPTIMAL
    sq = sum(
        (est.positions[i][0] - scen.true_positions[i][0]) ** 2
        + (est.positions[i][1] - scen.true_positions[i][1]) ** 2
        for i in scen.sensors
    )
    assert sq <= est.worst_case_value * (1 + 1e-6) + 1e-8


def test_sampled_configurations_within_certificate():
    cfg = model.ScenarioConfig(
        n_sensors=2, anchor_positions=ANCHORS4, sensing_range=1.0
    )
    scen = model.generate_scenario(cfg, seed=3)
    scen = model.apply_errors(scen, model.UniformError(gamma=0.1), seed=3)
    est = central.solve_minmax_sdp(scen)
    samples = sample_feasible_positions(scen, n_samples=50, seed=5)
    assert samples.shape[0] > 0
    order = list(scen.sensors)
    for config in samples:
        sq = sum(
            (config[t, 0] - est.positions[i][0]) ** 2
            + (config[t, 1] - est.positions[i][1]) ** 2
            for t, i in enumerate(order)
        )
        assert sq <= est.worst_case_value * (1 + 1e-6) + 1e-8


@pytest.mark.parametrize("n_sensors,seed", [(2, 21), (3, 22), (5, 23)])
def test_strong_duality(n_sensors, seed):
    cfg = model.ScenarioConfig(
        n_sensors=n_sensors, anchor_positions=ANCHORS4, sensing_range=0.7
    )
    scen = model.generate_scenario(cfg, seed=seed)
    scen = model.apply_errors(scen, model.GaussianError(sigma=0.02), seed=seed)
    est = central.solve_minmax_sdp(scen)
    primal_problem, _ = assemble_primal_sdp(scen)
    primal = solve(primal_problem)
    assert primal.status == SolveStatus.OPTIMAL
    primal_value = -primal.objective_value
    denom = 1.0 + abs(primal_value) + abs(est.worst_case_value)
    assert abs(primal_value - est.worst_case_value) / denom <= 1e-6


def test_unanchored_scenario_rejected():
    scen = model.NetworkScenario(
        sensors=(0, 1),
        anchors={2: (0.0, 0.0)},
        true_positions={0: (0.1, 0.0), 1: (0.2, 0.0)},
        sensor_edges=((0, 1),),
        anchor_edges=(),
        measurements={(0, 1): 0.1},
        gamma=0.05,
        sensing_range=1.0,
    )
    with pytest.raises(ValueError):
        central.assemble_dual_sdp(scen)
    with pytest.raises(ValueError):
        assemble_primal_sdp(scen)


def test_multipliers_cover_all_edges(solved_fixtures):
    scen, bounds, est = solved_fixtures["diamond"]
    assert set(est.multipliers) == set(scen.anchor_edges)
    for lo, up in est.multipliers.values():
        assert lo >= -1e-8 and up >= -1e-8


def test_recovery_identity_case():
    scen, bounds = single_sensor_fixture(
        {1: (0.2, 0.7), 2: (-0.4, 0.1)}, {1: (0.0, 1.0), 2: (0.0, 1.0)}
    )
    problem, idx = central.assemble_dual_sdp(scen, bounds)
    x = np.zeros(problem.num_vars)
    x[idx.phi(0)] = 0.4
    x[idx.phi(1)] = 0.6
    positions, healthy = central.recover_estimate(scen, idx, x)
    assert healthy
    ex = 0.4 * 0.2 + 0.6 * (-0.4)
    ey = 0.4 * 0.7 + 0.6 * 0.1
    assert positions[0] == pytest.approx((ex, ey), abs=1e-9)


def test_recovery_flags_degenerate_multipliers():
    scen, bounds = single_sensor_fixture({1: (0.0, 0.0)}, {1: (0.0, 1.0)})
    problem, idx = central.assemble_dual_sdp(scen, bounds)
    _, healthy = central.recover_estimate(scen, idx, np.zeros(problem.num_vars))
    assert not healthy


def test_exact_measurements_pin_single_sensor():
    anchors = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (0.0, 1.0)}
    truth = (0.3, 0.4)
    dists = {k: math.hypot(truth[0] - a[0], truth[1] - a[1]) for k, a in anchors.items()}
    scen, bounds = single_sensor_fixture(
        anchors, {k: (d, d) for k, d in dists.items()}, truth=truth
    )
    est = central.solve_minmax_sdp(scen, intervals=bounds)
    assert est.positions[0] == pytest.approx(truth, abs=1e-4)
    assert est.worst_case_value <= 1e-6


def test_estimate_json_schema(solved_fixtures):
    _, _, est = solved_fixtures["diamond"]
    doc = json.loads(central.estimate_to_json(est))
    assert set(doc) == {"positions", "worst_case_value", "solver_status", "solve_seconds"}
    assert doc["solver_status"] == "optimal"
    assert doc["positions"]["0"] == list(est.positions[0])


def test_solve_is_deterministic():
    cfg = model.ScenarioConfig(
        n_sensors=4, anchor_positions=ANCHORS4, sensing_range=0.6
    )
    scen = model.generate_scenario(cfg, seed=17)
    scen = model.apply_errors(scen, model.GaussianError(sigma=0.02), seed=17)
    a = central.solve_minmax_sdp(scen)
    b = central.solve_minmax_sdp(scen)
    assert a.worst_case_value == b.worst_case_value
    assert a.positions == b.positions


def test_sampler_output_is_feasible_and_deterministic():
    scen, bounds = ORACLE_FIXTURES["lens"][0]
    s1 = sample_feasible_positions(scen, bounds, n_samples=40, seed=9)
    s2 = sample_feasible_positions(scen, bounds, n_samples=40, seed=9)
    assert s1.shape == (40, 1, 2)
    assert np.array_equal(s1, s2)
    for (u, k), b in bounds.items():
        a = np.asarray(scen.anchors[k])
        d = np.hypot(s1[:, 0, 0] - a[0], s1[:, 0, 1] - a[1])
        assert (d >= b.lower - 1e-12).all() and (d <= b.upper + 1e-12).all()
