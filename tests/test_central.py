import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixtures import NONCONVEX_FIXTURES, ORACLE_FIXTURES, realized_errors, single_sensor_fixture
from minmaxloc import central, dist, geom, model, sdp
from minmaxloc.sdp import SolveStatus, solve
from primal_sdp import assemble_primal_sdp, sample_feasible_positions
from reference_central import assemble_interleaved_dual_sdp, recover_interleaved_estimate
from reference_dist import NODE_SOLVER, chebyshev_dual
from reference_sdp import SparseProducts, dense_coeff

ANCHORS4 = ((0.3, 0.3), (-0.3, 0.3), (0.3, -0.3), (-0.3, -0.3))


@pytest.fixture(scope="module")
def solved_fixtures():
    out = {}
    for name, ((scen, bounds), analytic) in ORACLE_FIXTURES.items():
        out[name] = (scen, bounds, central.solve_minmax_sdp(scen, intervals=bounds))
    return out


def three_anchor_sensor():
    return single_sensor_fixture(
        {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (0.0, 1.0)},
        {1: (0.4, 0.6), 2: (0.7, 0.9), 3: (0.6, 0.8)},
    )


def test_variable_count_single_sensor():
    scen, bounds = three_anchor_sensor()
    problem, idx = central.assemble_dual_sdp(scen, bounds)
    assert problem.num_vars == 8
    assert problem.blocks[0].dim == 2
    assert problem.blocks[1].dim == 2
    assert problem.blocks[2].dim == 1
    assert sum(1 for b in problem.blocks if b.dim == 1) == 1
    assert len(problem.pairs) == 3


def test_single_sensor_program_pairs_each_interval():
    # with one sensor Mt - I is a 1x1 block, a row that holds every
    # multiplier; each interval's two are negated in it, so they still form
    # one class, and the Newton system has t_x, t_y and one unknown per
    # interval
    scen, bounds = three_anchor_sensor()
    problem, _ = central.assemble_dual_sdp(scen, bounds)
    _, classes = sdp._compile(problem)
    assert classes.size == 2 + len(scen.anchor_edges)


def test_lmi_size_matches_network():
    cfg = model.ScenarioConfig(
        n_sensors=50, anchor_positions=ANCHORS4, sensing_range=0.5
    )
    scen = model.generate_scenario(cfg, seed=11)
    problem, idx = central.assemble_dual_sdp(scen)
    assert [b.dim for b in problem.blocks] == [51, 51, 50]
    assert problem.num_vars == 2 + 2 * len(scen.sensor_edges) + 2 * len(scen.anchor_edges)


def test_newton_system_has_one_unknown_per_interval(monkeypatch):
    # t_x and t_y plus one class per measured interval: the two multipliers
    # of an interval share a class, so every Cholesky factor is that size
    cfg = model.ScenarioConfig(n_sensors=8, anchor_positions=ANCHORS4, sensing_range=0.5)
    scen = model.apply_errors(
        model.generate_scenario(cfg, seed=4), model.UniformError(0.02), seed=4
    )
    problem, _ = central.assemble_dual_sdp(scen)
    unknowns = 2 + len(scen.sensor_edges) + len(scen.anchor_edges)
    assert problem.num_vars == 2 * unknowns - 2
    sizes = []
    factor = sdp._POTRF

    def recording(a, *args, **kwargs):
        sizes.append(a.shape)
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(sdp, "_POTRF", recording)
    assert solve(problem).status == SolveStatus.OPTIMAL
    assert sizes and set(sizes) == {(unknowns, unknowns)}


def test_duplicated_sensor_edge_matches_single_copy():
    # NetworkScenario rejects an edge listed twice when it is built, but its
    # lists can still be edited afterwards; the solver then gives each
    # copy's interval its own pair, the copies share no class, and the
    # feasible set and so the estimate are those of the single listing
    cfg = model.ScenarioConfig(n_sensors=8, anchor_positions=ANCHORS4, sensing_range=0.5)
    scen = model.apply_errors(
        model.generate_scenario(cfg, seed=4), model.UniformError(0.02), seed=4
    )
    twice = dataclasses.replace(scen, sensor_edges=list(scen.sensor_edges))
    twice.sensor_edges = sorted(scen.sensor_edges + scen.sensor_edges[:1])
    problem, _ = central.assemble_dual_sdp(twice)
    _, classes = sdp._compile(problem)
    assert classes.size == 2 + len(twice.sensor_edges) + len(twice.anchor_edges)

    want = central.solve_minmax_sdp(scen)
    got = central.solve_minmax_sdp(twice)
    assert want.solver_status == got.solver_status == SolveStatus.OPTIMAL
    assert got.worst_case_value == pytest.approx(want.worst_case_value, rel=1e-6)
    for i in scen.sensors:
        assert math.dist(got.positions[i], want.positions[i]) <= 1e-5


def twenty_sensor_network(seed):
    cfg = model.ScenarioConfig(n_sensors=20, anchor_positions=ANCHORS4, sensing_range=0.5)
    return model.apply_errors(
        model.generate_scenario(cfg, seed=seed), model.UniformError(0.02), seed=seed
    )


def test_coordinate_blocks_equal_interleaved_blocks():
    # reordered x-first, the stacked block [[M, f], [f^T, t]] is
    # [[Mt, 0, f_x], [0, Mt, f_y], [f_x^T, f_y^T, t_x + t_y]], read off the
    # two coordinate blocks, and the stacked M - I is (Mt - I) kron I_2
    scen = twenty_sensor_network(8)
    n = len(scen.sensors)
    split, idx = central.assemble_dual_sdp(scen)
    stacked, _ = assemble_interleaved_dual_sdp(scen)
    x = np.random.default_rng(8).uniform(0.0, 1.0, split.num_vars)
    xs = x[:-1].copy()
    xs[0] += x[idx.t_y]

    bx, by, ball = (b.evaluate(x) for b in split.blocks[:3])
    mt = bx[:n, :n]
    assert np.array_equal(by[:n, :n], mt)
    want = np.zeros((2 * n + 1, 2 * n + 1))
    want[:n, :n] = want[n:-1, n:-1] = mt
    want[-1, :n] = want[:n, -1] = bx[-1, :n]
    want[-1, n:-1] = want[n:-1, -1] = by[-1, :n]
    want[-1, -1] = bx[-1, -1] + by[-1, -1]
    order = np.r_[0 : 2 * n : 2, 1 : 2 * n : 2, 2 * n]
    got = stacked.blocks[0].evaluate(xs)[np.ix_(order, order)]
    assert np.abs(got - want).max() <= 1e-14
    assert np.abs(ball - (mt - np.eye(n))).max() <= 1e-14
    assert np.abs(stacked.blocks[1].evaluate(xs) - np.kron(ball, np.eye(2))).max() <= 1e-14

    # the same objective over the multipliers, t = t_x + t_y, and the same pairs
    assert np.array_equal(split.objective[:-1], stacked.objective)
    assert split.objective[idx.t_y] == 1.0
    assert np.array_equal(split.pairs, stacked.pairs)


@pytest.mark.parametrize(
    "case", sorted(ORACLE_FIXTURES) + [f"uniform-{seed}" for seed in range(5)]
)
def test_coordinate_program_solves_like_interleaved_program(case):
    if case in ORACLE_FIXTURES:
        scen, bounds = ORACLE_FIXTURES[case][0]
    else:
        scen, bounds = twenty_sensor_network(int(case.split("-")[1])), None
    # both SDP forms, called directly: solve_minmax_sdp takes one sensor to
    # the QP instead
    split, _ = central.assemble_dual_sdp(scen, bounds)
    sol = solve(split)
    est_positions, est_value = central.recover_estimate(scen, split, sol.x)
    problem, _ = assemble_interleaved_dual_sdp(scen, bounds)
    ref = solve(problem)
    assert sol.status == SolveStatus.OPTIMAL
    # the stacked form keeps the stall its solves had before the split: at
    # seed 1 with two BLAS threads it ends numerical_failure at a relative
    # gap of 1.1e-8, just above the tolerance, so it must be optimal or
    # stalled that close to the optimum
    assert ref.status == SolveStatus.OPTIMAL or ref.gap <= 1e-7
    assert max(est_value, 0.0) == pytest.approx(max(ref.objective_value, 0.0), rel=1e-6)
    positions = recover_interleaved_estimate(scen, problem, ref.x)
    for i in scen.sensors:
        assert math.dist(est_positions[i], positions[i]) <= 1e-5


def test_rank_one_terms_rebuild_class_coefficients():
    # every class coefficient of the three central blocks has a support of
    # one or two indices; the batched eigendecomposition pads the former to
    # two, and sum_r sign_r u_r u_r^T must still give the coefficient back
    problem, _ = central.assemble_dual_sdp(twenty_sensor_network(3))
    blocks, _ = sdp._compile(problem)
    widths = set()
    for compiled in blocks[:3]:
        assert compiled.rank1
        block = problem.blocks[compiled.src]
        u = compiled.U
        term_cls = np.arange(len(u))  # row c < classes holds class c's first term
        for c, r in compiled.extras:
            term_cls[r] = c
        g = compiled.sign * (term_cls == np.arange(len(compiled.cls))[:, None])
        first = compiled.vars[np.unique(compiled.var_cls, return_index=True)[1]]
        for c, k in enumerate(first):  # each class enters through its first member
            want = dense_coeff(block, k)
            widths.add(int(np.any(want, axis=0).sum()))
            assert np.abs((u.T * g[c]) @ u - want).max() <= 1e-14
    assert widths == {1, 2}


@pytest.mark.parametrize("path", ["rank_one", "dense_stack"])
def test_compiled_central_blocks_match_dense_coefficients(path, monkeypatch):
    # combine, adjoint and abs_adjoint use the block's entry arrays on both
    # paths
    if path == "dense_stack":
        monkeypatch.setattr(sdp, "_DENSE_DIM_LIMIT", 10**6)
    problem, _ = central.assemble_dual_sdp(twenty_sensor_network(3))
    blocks, classes = sdp._compile(problem)
    work = sdp._Workspace(blocks, classes.size)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(problem.num_vars)

    def close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    for compiled in blocks[:3]:
        assert compiled.rank1 == (path == "rank_one")
        assert compiled.var_cls is not None  # the block's pairs share classes
        block = problem.blocks[compiled.src]
        dense = [dense_coeff(block, k) for k in compiled.vars]
        u = rng.standard_normal((block.dim, block.dim))
        u = u + u.T
        close(compiled.combine(y), sum(y[k] * a for k, a in zip(compiled.vars, dense)))
        close(compiled.adjoint(u), np.array([np.tensordot(a, u) for a in dense]))
        close(
            compiled.abs_adjoint(u), np.array([np.sum(np.abs(a) * np.abs(u)) for a in dense])
        )
        # the Schur term <A_k, W A_j W> = s_k s_j K[c_k, c_j], the two-term
        # anchor classes of the x and y blocks included
        x = rng.standard_normal((block.dim, block.dim))
        w = x @ x.T / block.dim + np.eye(block.dim)
        stack = np.array(dense)
        want = stack.reshape(len(dense), -1) @ (w @ stack @ w).reshape(len(dense), -1).T
        s, c = compiled.var_sign, compiled.var_cls
        k_cls = compiled.schur(w, work)
        close(s[:, None] * s[None, :] * k_cls[np.ix_(c, c)], want)


def test_coefficient_products_equal_the_sparse_reference():
    # combine, adjoint and abs_adjoint add each output's entries in the
    # order of a compressed-row product, so they equal scipy.sparse's
    # products bit for bit: on the three central blocks (rank-one path) and
    # on a per-node block (dense-stack path)
    refs = [((0.1, 0.2), 0.0, 0.04), ((0.3, -0.1), 0.01, 0.05), ((-0.2, 0.4), 0.02, 0.09)]
    cases = []
    for problem, count in (
        (central.assemble_dual_sdp(twenty_sensor_network(3))[0], 3),
        (chebyshev_dual(refs), 1),
    ):
        blocks, _ = sdp._compile(problem)
        cases += [(problem, compiled) for compiled in blocks[:count]]
    assert [compiled.rank1 for _, compiled in cases] == [True, True, True, False]
    rng = np.random.default_rng(5)
    for problem, compiled in cases:
        ref = SparseProducts(problem.blocks[compiled.src], compiled)
        for _ in range(3):
            y = rng.standard_normal(problem.num_vars)
            u = rng.standard_normal((compiled.dim, compiled.dim))
            u = u + u.T
            assert np.array_equal(compiled.combine(y), ref.combine(y))
            assert np.array_equal(compiled.adjoint(u), ref.adjoint(u))
            assert np.array_equal(compiled.abs_adjoint(u), ref.abs_adjoint(u))


def test_newton_system_allocates_less_than_a_class_matrix():
    # the 40-sensor network of the central benchmark: its Newton system is
    # built and factored in the solve's workspace, so what it allocates on
    # the way stays below one class matrix
    cfg = model.ScenarioConfig(n_sensors=40, anchor_positions=ANCHORS4, sensing_range=0.4)
    seed = np.random.SeedSequence(1, spawn_key=(1,)).generate_state(1, dtype=np.uint64)[0]
    scen = model.apply_errors(
        model.generate_scenario(cfg, seed=41), model.UniformError(0.02), seed=int(seed)
    )
    problem, _ = central.assemble_dual_sdp(scen)
    blocks, classes = sdp._compile(problem)
    assert all(b.rank1 for b in blocks[:3])
    work = sdp._Workspace(blocks, classes.size)
    s_blk, z_blk = zip(*(b.start() for b in blocks))
    r_s = [b.a0 - s for b, s in zip(blocks, s_blk)]
    r_z = problem.objective.copy()
    for b, z in zip(blocks, z_blk):
        r_z[b.vars] -= b.adjoint(z)
    scal = [b.scaling(s, z) for b, s, z in zip(blocks, s_blk, z_blk)]
    tracemalloc.start()
    try:
        newton = sdp._NewtonSystem(blocks, classes, work, scal, z_blk, r_s, r_z)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert newton.chol is not None
    assert peak - kept < classes.size**2 * 8


def test_stalled_network_ends_optimal():
    # 30 sensors whose solve once stalled at a relative gap of 3e-8
    cfg = model.ScenarioConfig(n_sensors=30, anchor_positions=ANCHORS4, sensing_range=0.5)
    scen = model.apply_errors(
        model.generate_scenario(cfg, seed=31),
        model.UniformError(0.02),
        seed=3890642289391122579,
    )
    est = central.solve_minmax_sdp(scen)
    assert est.solver_status == SolveStatus.OPTIMAL


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
    errs = realized_errors(scen)
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
    truth = {0: (0.1, 0.0), 1: (0.2, 0.0), 2: (0.2, 0.1)}
    cases = [
        # no anchor edge at all
        ((0, 1), ((0, 1),), (), [0, 1]),
        # sensors 1 and 2 only see each other, beside an anchored sensor 0
        ((0, 1, 2), ((1, 2),), ((0, 3),), [1, 2]),
    ]
    for sensors, sensor_edges, anchor_edges, unanchored in cases:
        scen = model.NetworkScenario(
            sensors=sensors,
            anchors={3: (0.0, 0.0)},
            true_positions={i: truth[i] for i in sensors},
            sensor_edges=sensor_edges,
            anchor_edges=anchor_edges,
            measurements={},
            gamma=0.05,
            sensing_range=1.0,
        )
        scen.measurements = {e: scen.true_distance(e) for e in scen.all_edges()}
        named = re.escape(f"sensors {unanchored}")
        assert any(re.match(named, w) for w in model.validate_scenario(scen).warnings)
        with pytest.raises(ValueError, match=named):
            central.assemble_dual_sdp(scen)
        with pytest.raises(ValueError, match=named):
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
    positions, value = central.recover_estimate(scen, problem, x)
    ex = 0.4 * 0.2 + 0.6 * (-0.4)
    ey = 0.4 * 0.7 + 0.6 * 0.1
    assert positions[0] == pytest.approx((ex, ey), abs=1e-9)
    # Mt = 1, so the value is |f|^2 + h with h = sum phi (upper^2 - |a|^2)
    h = 0.4 * (1.0 - 0.2**2 - 0.7**2) + 0.6 * (1.0 - 0.4**2 - 0.1**2)
    assert value == pytest.approx(ex * ex + ey * ey + h, abs=1e-12)


def test_recovery_flags_degenerate_multipliers():
    scen, bounds = single_sensor_fixture({1: (0.0, 0.0)}, {1: (0.0, 1.0)})
    problem, idx = central.assemble_dual_sdp(scen, bounds)
    _, value = central.recover_estimate(scen, problem, np.zeros(problem.num_vars))
    assert value == math.inf


@pytest.mark.parametrize("seed", range(6))
def test_certificate_bounds_exact_network_whatever_the_status(seed):
    # With exact measurements some solves stall: with one BLAS thread seed 0
    # ends numerical_failure with objective 2.7e-10 and certificate 8.4e-11.
    # The value read from the multipliers bounds the true error all the same;
    # seed 2 clears it by only 1.4e-12.
    cfg = model.ScenarioConfig(n_sensors=10, anchor_positions=ANCHORS4, sensing_range=0.5)
    scen = model.generate_scenario(cfg, seed=seed)
    est = central.solve_minmax_sdp(scen)
    sq = sum(math.dist(est.positions[i], scen.true_positions[i]) ** 2 for i in scen.sensors)
    assert est.worst_case_value >= sq


@pytest.mark.parametrize("name", [*ORACLE_FIXTURES, "twenty-sensor"])
def test_perturbed_multipliers_still_certify_their_estimate(name):
    # Weak duality holds at any multipliers with Mt > 0, not only at the
    # optimum: a perturbed x encodes another estimate, and its value bounds
    # every feasible configuration around that estimate.  Multipliers pushed
    # below zero are read as zero; taken as they are, they void the bound.
    if name == "twenty-sensor":
        scen = twenty_sensor_network(3)
        bounds = model.build_feasibility_intervals(scen)
    else:
        (scen, bounds), _ = ORACLE_FIXTURES[name]
    problem, _ = central.assemble_dual_sdp(scen, bounds)
    x = solve(problem).x
    _, optimum = central.recover_estimate(scen, problem, x)
    configs = sample_feasible_positions(scen, bounds, n_samples=200, seed=11, max_draws=10**5)
    if name == "twenty-sensor":  # in-bound errors: the truth is feasible
        truth = np.array([scen.true_positions[i] for i in scen.sensors])
        configs = np.concatenate([configs, truth[None]])
    assert len(configs) > 0

    u = np.random.default_rng(7).uniform(-1.0, 1.0, x.shape)
    for perturbed in (x * (1.0 + 0.1 * u), x * (1.0 + 0.1 * u) - 0.1 * (u < -0.3)):
        positions, value = central.recover_estimate(scen, problem, perturbed)
        assert optimum * (1 - 1e-6) <= value < math.inf
        estimate = np.array([positions[i] for i in scen.sensors])
        assert np.max(np.sum((configs - estimate) ** 2, axis=(1, 2))) <= value


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
    assert set(doc) == {
        "positions", "worst_case_value", "solver_status", "solve_seconds",
        "iterations", "gap", "residual_primal", "residual_dual",
    }
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


# --- the one-sensor QP ------------------------------------------------------------

# closed-form maximizer y and value t - |y|^2 of each fixture's relaxed program
QP_OPTIMA = {
    "ring": ((0.0, 0.0), 4.0),
    "lens": ((0.0, 0.0), 0.75),
    "disc": ((0.0, 0.0), 0.9995**2),
    "diamond": ((0.0, 0.0), 1.0),
    "crescent": ((0.0, 0.0), 1.21),
    "horseshoe": ((0.0, 0.0), 1.44),
    "kidney": ((0.9, 0.0), 1.44),
    "islands": ((0.0, 0.0), 0.3225),
}


@pytest.mark.parametrize("name", sorted(QP_OPTIMA))
def test_one_sensor_solve_reaches_closed_form_optimum(name):
    fx = {**{k: v[0] for k, v in ORACLE_FIXTURES.items()}, **NONCONVEX_FIXTURES}
    scen, bounds = fx[name]
    center, value = QP_OPTIMA[name]
    est = central.solve_minmax_sdp(scen, intervals=bounds)
    assert est.solver_status == SolveStatus.OPTIMAL
    assert est.worst_case_value == pytest.approx(value, rel=1e-12)
    assert math.dist(est.positions[0], center) <= 1e-12
    assert est.gap <= 1e-12 and est.residual_primal <= 1e-12 and est.residual_dual <= 1e-12


def intervals_around(truth, draws):
    """(p, lower, upper) references whose intervals hold |truth - p|."""
    out = []
    for px, py, below, above in draws:
        d = math.hypot(truth[0] - px, truth[1] - py)
        out.append(((px, py), max(d - below, 0.0), d + above))
    return out


def per_node_sdp_center(refs):
    """Status of the per-node SDP, and the center and value its multipliers
    certify (value inf when they certify none)."""
    problem = chebyshev_dual(refs)
    sol = solve(problem, NODE_SOLVER)
    lam = np.maximum(sol.x, 0.0)
    lam[0] = 0.0
    lmi = problem.blocks[0].evaluate(lam)
    cert = central.certify(lmi[:1, :1], -lmi[2:3, :2], float(problem.objective @ lam))
    if cert is None:
        return sol.status, None, math.inf
    return sol.status, tuple(cert[0][0]), cert[1]


coordinate = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    truth=st.tuples(coordinate, coordinate),
    # every interval is at least 0.01 wide: with exact intervals the SDP
    # reference stalls by rounding luck
    draws=st.lists(
        st.tuples(coordinate, coordinate, st.floats(0.0, 0.5), st.floats(0.01, 0.5)),
        min_size=1,
        max_size=8,
    ),
)
def test_qp_meets_kkt_conditions_and_matches_per_node_sdp(truth, draws):
    intervals = intervals_around(truth, draws)
    refs = [(p, lower**2, upper**2) for p, lower, upper in intervals]
    qp = central.chebyshev_qp(refs)
    assert qp.consistent
    p = np.array([r[0] for r in refs])
    lower_sq, upper_sq = np.array([r[1:] for r in refs]).T
    y = np.array(qp.position)
    nu = qp.phi - qp.omega
    scale = 1.0 + np.abs(nu).sum()
    # stationarity: sum nu = 1 and y = sum nu p
    assert abs(nu.sum() - 1.0) <= 1e-9
    assert np.abs(nu @ p - y).max() <= 1e-9 * scale
    # primal feasibility of the lifted distances, signs, complementarity
    lifted = qp.value + np.sum((y - p) ** 2, axis=1)
    tol = 1e-9 * (1.0 + upper_sq.max())
    assert np.all(lifted >= lower_sq - tol) and np.all(lifted <= upper_sq + tol)
    assert qp.omega.min() >= -1e-12 and qp.phi.min() >= -1e-12
    assert np.abs(qp.omega * (lifted - lower_sq)).max() <= tol * scale
    assert np.abs(qp.phi * (upper_sq - lifted)).max() <= tol * scale
    # the value bounds the truth's distance, as every consistent point's
    assert math.dist(qp.position, truth) ** 2 <= qp.value * (1 + 1e-9) + 1e-12

    status, _, sdp_value = per_node_sdp_center(refs)
    # weak duality at any multipliers; equality at an optimal solve, whose
    # gap and residuals the solver measures relative to 1 + |value|
    assert sdp_value >= qp.value * (1 - 1e-9) - 1e-12
    if status == SolveStatus.OPTIMAL:
        assert abs(sdp_value - qp.value) <= 1e-6 * (1.0 + qp.value)

    # the distributed estimator's two per-node solves certify the center
    # that the SDP's multipliers do: an initial estimate over the references
    # as anchors, and a round over the first as the node's own ball and the
    # others as neighbors.  The SDP's center y has the bound V >= V* +
    # |y - y*|^2 (the bound at y over the point (y*, t*) of the relaxed
    # set), so where V exceeds the exact V* it may stand sqrt(V - V*) off:
    # 2.4e-5 for the ball of radius 1 at the origin and the annulus [0.5, 1]
    # around (0, 1), whose center is (0, 0.5) by symmetry
    anchors = {k: ref for k, (ref, _, _) in enumerate(intervals)}
    table = {(-1, k): dist.BoundEntry(lo, up, 1) for k, (_, lo, up) in enumerate(intervals)}
    cases = [(refs, lambda: dist.initial_estimate(-1, table, anchors))]
    if len(intervals) > 1:
        own = dist.NodeState(anchors[0], refs[0][2], False, 0, refs[0][2])
        nbrs = {k: dist.NodeState(anchors[k], 0.0, True, 0, 0.0) for k in range(1, len(refs))}
        bounds = {(-1, k): model.IntervalBound(lo, up) for k, (_, lo, up) in enumerate(intervals)}
        node_refs = [(own.estimate, 0.0, own.radius_sq)] + refs[1:]
        cases.append((node_refs, lambda: dist.iterate_node(-1, nbrs, own, bounds)))
    for case_refs, run in cases:
        status, center, value = per_node_sdp_center(case_refs)
        if status != SolveStatus.OPTIMAL:
            continue
        state = run()
        assert abs(state.raw_radius_sq - max(value, 0.0)) <= 1e-6 * (1.0 + value)
        if state.radius_sq == state.raw_radius_sq:
            excess = math.sqrt(max(value - state.raw_radius_sq, 0.0))
            assert math.dist(state.estimate, center) <= 1e-5 + excess


def test_working_set_reaches_the_full_enumeration_answer(monkeypatch):
    rng = np.random.default_rng(5)
    cases = []
    for trial in range(60):
        truth = rng.uniform(-1.0, 1.0, 2)
        refs = []
        for _ in range(rng.integers(9, 30)):
            p = rng.uniform(-1.0, 1.0, 2)
            d = math.dist(p, truth)
            # every third case may miss the truth from above, and be inconsistent
            below, above = rng.uniform(0.0, 0.3), rng.uniform(-0.05 if trial % 3 == 0 else 0.0, 0.3)
            refs.append((tuple(p), max(d - below, 0.0) ** 2, max(d + above, 0.0) ** 2))
        cases.append(refs)
    working = [central.chebyshev_qp(refs) for refs in cases]
    monkeypatch.setattr(central, "_WORKING_REFS", 10**6)
    full = [central.chebyshev_qp(refs) for refs in cases]
    assert {qp.consistent for qp in full} == {True, False}
    for w, f in zip(working, full):
        assert w.consistent == f.consistent
        if f.consistent:
            assert math.dist(w.position, f.position) <= 1e-12
            assert w.value == pytest.approx(f.value, rel=1e-12, abs=1e-15)
            np.testing.assert_allclose(w.phi - w.omega, f.phi - f.omega, atol=1e-9)
    assert sum(qp.active_sets for qp in working) < sum(qp.active_sets for qp in full) / 4


def test_one_sensor_exact_measurements_recover_truth():
    rng = np.random.default_rng(21)
    for _ in range(200):
        anchors = {k: tuple(rng.uniform(-1.0, 1.0, 2)) for k in range(1, rng.integers(4, 6))}
        truth = tuple(rng.uniform(-1.0, 1.0, 2))
        dists = {k: math.dist(truth, a) for k, a in anchors.items()}
        scen, bounds = single_sensor_fixture(
            anchors, {k: (d, d) for k, d in dists.items()}, truth=truth
        )
        est = central.solve_minmax_sdp(scen, intervals=bounds)
        assert est.solver_status == SolveStatus.OPTIMAL
        assert math.dist(est.positions[0], truth) <= 1e-10
        assert est.worst_case_value <= 1e-10


def test_one_sensor_inconsistency_needs_no_sdp(monkeypatch):
    def no_sdp(*args, **kwargs):
        raise AssertionError("a one-sensor solve ran the SDP")

    monkeypatch.setattr(sdp, "solve", no_sdp)
    monkeypatch.setattr(central, "solve", no_sdp)
    # a value below zero: no point is about 5 from one anchor and within
    # 0.075 of another half a unit away
    far, _ = single_sensor_fixture(
        {1: (0.0, 0.0), 2: (0.5, 0.0)}, {1: (5.0, 5.1), 2: (0.0, 0.075)}
    )
    # an empty linear set: two anchors at one place, disjoint intervals
    apart, _ = single_sensor_fixture(
        {1: (0.2, 0.1), 2: (0.2, 0.1)}, {1: (1.0, 1.1), 2: (2.0, 2.1)}
    )
    for scen in (far, apart):
        est = central.solve_minmax_sdp(scen)
        assert est.solver_status == SolveStatus.NUMERICAL_FAILURE
    qp = central.chebyshev_qp([((0.2, 0.1), 1.0, 1.21), ((0.2, 0.1), 4.0, 4.41)])
    assert not qp.consistent
    # consistent data solve without the SDP too
    scen, bounds = ORACLE_FIXTURES["corner"][0]
    assert central.solve_minmax_sdp(scen, intervals=bounds).solver_status == SolveStatus.OPTIMAL


def test_one_sensor_without_anchor_edge_is_rejected():
    scen = model.NetworkScenario(
        sensors=(0,),
        anchors={3: (0.0, 0.0)},
        true_positions={0: (0.1, 0.0)},
        sensor_edges=(),
        anchor_edges=(),
        measurements={},
        gamma=0.05,
        sensing_range=1.0,
    )
    with pytest.raises(ValueError, match=re.escape("sensors [0] have no path to an anchor")):
        central.solve_minmax_sdp(scen)
