import gc
import importlib.util
import json
import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_dist
from fixtures import (
    ORACLE_FIXTURES,
    realized_errors,
    relay_chain_instance,
    single_sensor_fixture,
    trilateration_instance,
)
from minmaxloc import central, dist, geom, model, sdp
from minmaxloc.dist import BoundEntry, DisMinMaxConfig, NodeState

ANCHORS4 = ((0.3, 0.3), (-0.3, 0.3), (0.3, -0.3), (-0.3, -0.3))
ANCHOR_MAP = {10: (0.3, 0.3), 11: (-0.3, 0.3), 12: (0.3, -0.3), 13: (-0.3, -0.3)}


def noisy_scenario():
    cfg = model.ScenarioConfig(
        n_sensors=10, anchor_positions=ANCHORS4, sensing_range=0.5
    )
    scen = model.generate_scenario(cfg, seed=7)
    return model.apply_errors(scen, model.GaussianError(sigma=0.02), seed=70)


@pytest.fixture(scope="module")
def noisy_run():
    scen = noisy_scenario()
    return scen, dist.run_dis_minmax(scen)


# --- bound propagation ------------------------------------------------------


def test_direct_and_anchor_relay_entries():
    # Sensor at the origin measures anchor 10 only; anchor 11 is reached by
    # relaying through 10, whose distance to 11 is known exactly (0.4).
    scen = model.NetworkScenario(
        sensors=(0,),
        anchors={10: (0.5, 0.0), 11: (0.5, 0.4)},
        true_positions={0: (0.0, 0.0)},
        sensor_edges=(),
        anchor_edges=((0, 10),),
        measurements={(0, 10): 0.5},
        gamma=0.1,
        sensing_range=1.0,
    )
    table = dist.propagate_distance_bounds(
        scen, model.build_feasibility_intervals(scen)
    )
    direct = table[(0, 10)]
    assert (direct.lower, direct.upper, direct.hops) == (0.4, 0.6, 1)
    relayed = table[(0, 11)]
    assert relayed.hops == 2
    assert relayed.lower == pytest.approx(0.0, abs=1e-12)
    assert relayed.upper == pytest.approx(1.0)
    assert relayed.lower <= math.hypot(0.5, 0.4) <= relayed.upper


def test_two_hop_chain_interval():
    truth = {0: (0.0, 0.0), 1: (0.4, 0.0)}
    scen = model.NetworkScenario(
        sensors=(0, 1),
        anchors={2: (0.9, 0.0)},
        true_positions=truth,
        sensor_edges=((0, 1),),
        anchor_edges=((1, 2),),
        measurements={(0, 1): 0.4, (1, 2): 0.5},
        gamma=0.1,
        sensing_range=10.0,
    )
    table = dist.propagate_distance_bounds(
        scen, model.build_feasibility_intervals(scen)
    )
    assert table[(1, 2)] == BoundEntry(0.4, 0.6, 1)
    entry = table[(0, 2)]
    # chained: lower = max(0.3 - 0.6, 0.4 - 0.5, 0) = 0, upper = 0.5 + 0.6
    assert entry.hops == 2
    assert entry.lower == 0.0
    assert entry.upper == pytest.approx(1.1)


def test_exact_collinear_chain_is_loose_but_valid():
    # Three sensors in a line feeding off one anchor; the triangle
    # inequality cannot keep a positive lower bound through the chain.
    pts = {0: (0.0, 0.0), 1: (0.5, 0.0), 2: (1.0, 0.0)}
    scen = model.NetworkScenario(
        sensors=(0, 1, 2),
        anchors={10: (1.5, 0.0)},
        true_positions=pts,
        sensor_edges=((0, 1), (1, 2)),
        anchor_edges=((2, 10),),
        measurements={(0, 1): 0.5, (1, 2): 0.5, (2, 10): 0.5},
        gamma=0.0,
        sensing_range=10.0,
    )
    table = dist.propagate_distance_bounds(
        scen, model.build_feasibility_intervals(scen)
    )
    assert table[(2, 10)] == BoundEntry(0.5, 0.5, 1)
    assert table[(1, 10)] == BoundEntry(0.0, 1.0, 2)
    assert table[(0, 10)] == BoundEntry(0.0, 1.5, 3)


def test_unreachable_anchor_raises():
    scen = model.NetworkScenario(
        sensors=(0, 1),
        anchors={10: (1.0, 1.0)},
        true_positions={0: (0.0, 0.0), 1: (0.1, 0.0)},
        sensor_edges=((0, 1),),
        anchor_edges=(),
        measurements={(0, 1): 0.1},
        gamma=0.05,
        sensing_range=1.0,
    )
    with pytest.raises(dist.UnreachableAnchor, match="no path"):
        dist.propagate_distance_bounds(scen, model.build_feasibility_intervals(scen))


def flooded(scen):
    """The breadth-first table and the fixed-point reference's."""
    bounds = model.build_feasibility_intervals(scen)
    return (
        dist.propagate_distance_bounds(scen, bounds),
        reference_dist.propagate_distance_bounds(scen, bounds),
    )


@pytest.mark.parametrize(
    "n, sensing_range, seed", [(30, 0.3, 1), (60, 0.25, 2), (100, 0.2, 3), (200, 0.15, 4)]
)
def test_breadth_first_flood_matches_fixed_point(n, sensing_range, seed):
    cfg = model.ScenarioConfig(n_sensors=n, anchor_positions=ANCHORS4, sensing_range=sensing_range)
    scen = model.apply_errors(
        model.generate_scenario(cfg, seed=seed), model.UniformError(gamma=0.02), seed=seed
    )
    got, want = flooded(scen)
    assert got == want
    assert list(got) == list(want)
    # relays several hops deep, so the parent rule is exercised
    assert max(e.hops for e in got.values()) >= 3


def test_flood_breaks_hop_ties_by_smallest_id():
    # anchors 0 and 1; sensors 2 and 3 measure anchor 0, sensor 4 anchor 1,
    # and sensor 5 sees 2, 3 and 4.  Toward anchor 0, sensor 4's only
    # one-hop neighbor is anchor 1 (a relay), and sensor 5 ties between 2
    # and 3 and takes 2.  Toward anchor 1, sensor 2 relays through anchor 0
    # and sensor 5 goes through 4.
    truth = {2: (0.0, 0.3), 3: (0.1, -0.3), 4: (0.9, 0.2), 5: (0.4, 0.1)}
    anchors = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    sensor_edges = [(2, 5), (3, 5), (4, 5)]
    anchor_edges = [(2, 0), (3, 0), (4, 1)]

    def length(a, b):
        pa = truth.get(a, anchors.get(a))
        pb = truth.get(b, anchors.get(b))
        return math.hypot(pa[0] - pb[0], pa[1] - pb[1])

    scen = model.NetworkScenario(
        sensors=[2, 3, 4, 5],
        anchors=anchors,
        true_positions=truth,
        sensor_edges=sensor_edges,
        anchor_edges=anchor_edges,
        measurements={e: length(*e) for e in sensor_edges + anchor_edges},
        gamma=0.01,
        sensing_range=1.0,
    )
    got, want = flooded(scen)
    assert got == want
    assert list(got) == list(want)
    assert [(key, e.hops) for key, e in got.items()] == [
        ((2, 0), 1), ((2, 1), 2), ((3, 0), 1), ((3, 1), 2),
        ((4, 0), 2), ((4, 1), 1), ((5, 0), 2), ((5, 1), 2),
    ]
    bounds = model.build_feasibility_intervals(scen)

    def through(i, j, k):
        edge, via = dist._interval(bounds, i, j), got[(j, k)]
        lower = max(edge.lower - via.upper, via.lower - edge.upper, 0.0)
        return BoundEntry(lower, edge.upper + via.upper, via.hops + 1)

    # through sensor 2, not sensor 3, whose chained interval differs
    assert got[(5, 0)] == through(5, 2, 0) != through(5, 3, 0)
    assert got[(5, 1)] == through(5, 4, 1)


def test_propagated_bounds_cover_truth_on_network(noisy_run):
    scen, _ = noisy_run
    errs = realized_errors(scen)
    assert max(abs(v) for v in errs.values()) <= scen.gamma
    table = dist.propagate_distance_bounds(
        scen, model.build_feasibility_intervals(scen)
    )
    direct = set(scen.anchor_edges)
    for (i, k), entry in table.items():
        d = scen.true_distance((i, k))
        assert entry.lower - 1e-9 <= d <= entry.upper + 1e-9, (i, k)
        assert (entry.hops == 1) == ((i, k) in direct)


@given(
    relay_x=st.floats(0.05, 1.5),
    ax=st.floats(-2.0, 2.0),
    ay=st.floats(-2.0, 2.0),
    gamma=st.floats(0.0, 0.3),
)
@settings(max_examples=150, deadline=None)
def test_relayed_interval_contains_true_distance(relay_x, ax, ay, gamma):
    truth = {0: (0.0, 0.0), 1: (relay_x, 0.0)}
    anchor = (ax, ay)
    scen = model.NetworkScenario(
        sensors=(0, 1),
        anchors={2: anchor},
        true_positions=truth,
        sensor_edges=((0, 1),),
        anchor_edges=((1, 2),),
        measurements={(0, 1): relay_x, (1, 2): math.dist(truth[1], anchor)},
        gamma=gamma,
        sensing_range=10.0,
    )
    table = dist.propagate_distance_bounds(
        scen, model.build_feasibility_intervals(scen)
    )
    entry = table[(0, 2)]
    d = math.dist(truth[0], anchor)
    assert entry.hops == 2
    assert entry.lower - 1e-9 <= d <= entry.upper + 1e-9


# --- initial estimate -------------------------------------------------------


def test_initial_estimate_exact_distances():
    truth = (0.05, -0.02)
    anchors = dict(ANCHOR_MAP)
    table = {}
    for k, a in anchors.items():
        d = math.dist(truth, a)
        table[(0, k)] = BoundEntry(d, d, 1)
    state = dist.initial_estimate(0, table, anchors)
    assert state.estimate == pytest.approx(truth, abs=1e-4)
    assert state.radius_sq <= 1e-6
    assert state.raw_radius_sq == state.radius_sq
    assert state.iteration == 0
    assert not state.localized


def test_initial_estimate_matches_grid_oracle():
    corners = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (0.0, 1.0), 4: (1.0, 1.0)}
    scen, bounds = single_sensor_fixture(corners, {k: (0.0, 2.0) for k in corners})
    table = {(0, k): BoundEntry(b.lower, b.upper, 1) for (_, k), b in bounds.items()}
    state = dist.initial_estimate(0, table, scen.anchors)

    region = geom.single_sensor_region(scen, bounds)
    (gx, gy), gval = geom.relaxed_center_value(region, resolution=5e-3)
    assert state.radius_sq == pytest.approx(gval, abs=5e-3)
    assert math.hypot(state.estimate[0] - gx, state.estimate[1] - gy) <= 2e-2


def test_initial_estimate_agrees_with_central_route():
    # The per-node program is the single-sensor specialization of the
    # network-wide dual, so both assembly routes must land on the same
    # optimum for every single-sensor fixture.
    for name, ((scen, bounds), _) in ORACLE_FIXTURES.items():
        table = {
            (0, k): BoundEntry(b.lower, b.upper, 1) for (_, k), b in bounds.items()
        }
        node = dist.initial_estimate(0, table, scen.anchors)
        est = central.solve_minmax_sdp(scen, intervals=bounds)
        assert node.radius_sq == pytest.approx(
            est.worst_case_value, rel=1e-6, abs=1e-9
        ), name
        cx, cy = est.positions[0]
        assert math.hypot(node.estimate[0] - cx, node.estimate[1] - cy) <= 1e-4, name


def test_initial_estimate_surfaces_solver_failure():
    # No point is 5 away from one anchor yet within 0.05 of another only
    # 0.5 apart, so the moment program is empty and the solve cannot
    # certify anything.
    anchors = {1: (0.0, 0.0), 2: (0.5, 0.0)}
    table = {(0, 1): BoundEntry(5.0, 5.1, 1), (0, 2): BoundEntry(0.0, 0.05, 1)}
    with pytest.raises(RuntimeError, match="initial estimate for sensor 0"):
        dist.initial_estimate(0, table, anchors)


# --- single-node refinement -------------------------------------------------


def test_iterate_exact_neighbors_pin_node():
    truth = (0.05, -0.02)
    nbrs = {
        k: NodeState(a, 0.0, True, 0, 0.0) for k, a in ANCHOR_MAP.items()
    }
    bounds = {
        (0, k): model.IntervalBound(*(math.dist(truth, a),) * 2)
        for k, a in ANCHOR_MAP.items()
    }
    own = NodeState((0.3, 0.3), 1.0, False, 0, 1.0)
    out = dist.iterate_node(0, nbrs, own, bounds)
    assert out.estimate == pytest.approx(truth, abs=1e-4)
    assert out.radius_sq <= 1e-6
    assert out.raw_radius_sq == out.radius_sq
    assert out.iteration == 1
    assert not out.localized  # the radius moved a lot this round


def test_iterate_requires_neighbors():
    own = NodeState((0.0, 0.0), 1.0, False, 0, 1.0)
    with pytest.raises(ValueError, match="no neighbors"):
        dist.iterate_node(0, {}, own, {})


def test_iterate_short_circuits_once_radius_is_small():
    # Empty bounds would blow up any attempt to build the SDP, proving the
    # solve is skipped outright for an already-localized-size radius.
    own = NodeState((0.2, 0.1), 5e-7, False, 3, 5e-7)
    nbrs = {1: NodeState((0.0, 0.0), 0.0, True, 3, 0.0)}
    out = dist.iterate_node(0, nbrs, own, {})
    assert out.estimate == own.estimate
    assert out.radius_sq == own.radius_sq
    assert out.raw_radius_sq == own.radius_sq
    assert out.localized
    assert out.iteration == 4


def test_iterate_keeps_state_when_region_is_empty():
    # Two zero-radius neighbors at the same point with incompatible rings:
    # nothing is 1-ish and 3-ish away from the same spot at once.
    nbrs = {
        1: NodeState((0.0, 0.0), 0.0, True, 0, 0.0),
        2: NodeState((0.0, 0.0), 0.0, True, 0, 0.0),
    }
    bounds = {
        (0, 1): model.IntervalBound(1.0, 1.1),
        (0, 2): model.IntervalBound(3.0, 3.1),
    }
    own = NodeState((0.5, 0.5), 4.0, False, 0, 4.0)
    out = dist.iterate_node(0, nbrs, own, bounds)
    assert out.estimate == own.estimate
    assert out.radius_sq == own.radius_sq
    assert out.raw_radius_sq == own.radius_sq
    assert not out.localized
    assert out.iteration == 1


def test_zero_multipliers_certify_nothing(monkeypatch):
    # A consistent QP solve that returns all-zero multipliers has kappa = 0,
    # so it certifies no center: the node keeps its state for the round, and
    # an initial estimate fails loudly.
    def zero_qp(p, bounds, count):
        zeros, nodes = np.zeros(p.shape[:2]), np.zeros(len(p))
        consistent, sets = np.ones(len(p), dtype=bool), np.zeros(len(p), dtype=np.intp)
        return central.QpBatch(zeros, zeros, np.zeros((len(p), 2)), nodes, consistent, sets, nodes, nodes)

    monkeypatch.setattr(central, "_solve", zero_qp)
    nbrs = {1: NodeState((1.0, 0.0), 0.0, True, 0, 0.0)}
    bounds = {(0, 1): model.IntervalBound(0.9, 1.1)}
    own = NodeState((0.5, 0.5), 0.25, False, 0, 0.25)
    assert dist.iterate_node(0, nbrs, own, bounds) == replace(own, iteration=1)
    table = {(0, 1): BoundEntry(0.9, 1.1, 1)}
    with pytest.raises(RuntimeError, match="initial estimate for sensor 0 not certified"):
        dist.initial_estimate(0, table, {1: (1.0, 0.0)})


def test_understated_gamma_reports_inconsistent_anchor_intervals():
    # errors up to 0.06 declared as 0.01: sensor 6's anchor intervals admit
    # no position, and the run stops there saying so
    cfg = model.ScenarioConfig(n_sensors=20, anchor_positions=ANCHORS4, sensing_range=0.5)
    scen = model.generate_scenario(cfg, seed=6)
    scen = replace(model.apply_errors(scen, model.UniformError(0.06), seed=7), gamma=0.01)
    with pytest.raises(RuntimeError, match="initial estimate for sensor 6 .*inconsistent"):
        dist.run_dis_minmax(scen)


def test_iterate_widens_annuli_by_neighbor_radius():
    # One exact unit ring around the origin intersected with the ball
    # around (2, 0) pins the node to (1, 0).  Giving the same neighbor an
    # uncertainty radius of 0.5 widens the ring into a fat annulus and the
    # certified radius must grow accordingly.
    own = NodeState((2.0, 0.0), 1.0, False, 0, 1.0)
    bounds = {(0, 1): model.IntervalBound(1.0, 1.0)}
    tight = dist.iterate_node(
        0, {1: NodeState((0.0, 0.0), 0.0, True, 0, 0.0)}, own, bounds
    )
    wide = dist.iterate_node(
        0, {1: NodeState((0.0, 0.0), 0.25, False, 0, 0.25)}, own, bounds
    )
    assert tight.estimate == pytest.approx((1.0, 0.0), abs=1e-3)
    assert tight.raw_radius_sq <= 1e-6
    assert wide.raw_radius_sq >= 0.1
    assert wide.radius_sq <= own.radius_sq


def test_node_program_pairs_each_reference():
    # A ball and three neighbors give one block and one declared pair per
    # reference.  They compile to one dense block and a fused block of only
    # the unit rows, one per multiplier, and each pair shares a class, so the
    # Newton system has one unknown for t and one per reference.
    refs = [((0.1, 0.2), 0.0, 0.04)]
    refs += [((0.3 * k, -0.1), 0.01 * k, 0.05 * k) for k in (1, 2, 3)]
    problem = reference_dist.chebyshev_dual(refs)
    assert len(problem.blocks) == 1 and len(problem.pairs) == len(refs)
    blocks, classes = sdp._compile(problem)
    dense = [b for b in blocks if isinstance(b, sdp._DenseBlock)]
    rows = [b for b in blocks if isinstance(b, sdp._LinBlock)]
    assert [b.dim for b in dense] == [4]
    assert len(rows) == 1 and rows[0].q == 2 * len(refs)
    assert rows[0].vars.tolist() == problem.pairs.ravel().tolist()
    assert classes.size == 1 + len(refs)


# --- full distributed runs --------------------------------------------------


def test_run_converges_with_contiguous_rounds(noisy_run):
    _, res = noisy_run
    assert res.converged
    assert [r.round_index for r in res.rounds] == list(range(len(res.rounds)))
    assert len(res.rounds) >= 2
    assert res.rounds[0].messages == 0
    final = res.rounds[-1].states
    assert all(s.localized for s in final.values())


def test_certified_radii_never_grow(noisy_run):
    _, res = noisy_run
    for a, b in zip(res.rounds, res.rounds[1:]):
        for i, cur in b.states.items():
            prev = a.states[i]
            assert cur.radius_sq <= prev.radius_sq
            assert cur.raw_radius_sq <= prev.radius_sq + 1e-6 * (1 + prev.radius_sq)


def test_moved_estimates_carry_their_certificate(noisy_run):
    # a round that moves an estimate reports the radius that certifies it
    _, res = noisy_run
    moved = 0
    for a, b in zip(res.rounds, res.rounds[1:]):
        for i, cur in b.states.items():
            if cur.estimate != a.states[i].estimate:
                moved += 1
                assert cur.radius_sq == cur.raw_radius_sq, (b.round_index, i)
    assert moved


def test_truth_containment_on_in_bound_run(noisy_run):
    scen, res = noisy_run
    errs = realized_errors(scen)
    assert max(abs(v) for v in errs.values()) <= scen.gamma, (
        "pick a seed whose realized errors stay within the bound"
    )
    for rec in res.rounds:
        for i, s in rec.states.items():
            tx, ty = scen.true_positions[i]
            err_sq = (s.estimate[0] - tx) ** 2 + (s.estimate[1] - ty) ** 2
            assert err_sq <= s.radius_sq, (rec.round_index, i)


def test_rmse_upper_bound_tracks_states_and_never_increases(noisy_run):
    _, res = noisy_run
    for rec in res.rounds:
        expect = math.sqrt(
            sum(s.radius_sq for s in rec.states.values()) / len(rec.states)
        )
        assert rec.rmse_upper_bound == pytest.approx(expect, abs=1e-12)
    ubs = [r.rmse_upper_bound for r in res.rounds]
    assert all(b <= a + 1e-12 for a, b in zip(ubs, ubs[1:]))


def test_descent_identity(noisy_run):
    # Each accepted re-centering pays for itself: the new squared radius
    # drops by at least the squared distance the estimate moved.
    _, res = noisy_run
    runs = [res, dist.run_dis_minmax(relay_chain_instance())]
    for r in runs:
        for a, b in zip(r.rounds, r.rounds[1:]):
            for i, cur in b.states.items():
                prev = a.states[i]
                move = (cur.estimate[0] - prev.estimate[0]) ** 2 + (
                    cur.estimate[1] - prev.estimate[1]
                ) ** 2
                bound = prev.radius_sq - move + 1e-6 * (1 + prev.radius_sq)
                assert cur.raw_radius_sq <= bound, (r, i)


def test_cauchy_decay_of_estimate_moves(noisy_run):
    _, res = noisy_run
    for i in res.rounds[0].states:
        total = 0.0
        for a, b in zip(res.rounds, res.rounds[1:]):
            pa, pb = a.states[i].estimate, b.states[i].estimate
            total += (pb[0] - pa[0]) ** 2 + (pb[1] - pa[1]) ** 2
        assert total <= res.rounds[0].states[i].radius_sq + 1e-6


def test_message_counts_follow_active_nodes(noisy_run):
    scen, res = noisy_run
    per_sensor = {
        i: 2 * sum(1 for j in reference_dist.neighbors(scen, i) if j not in scen.anchors)
        for i in scen.sensors
    }
    for a, b in zip(res.rounds, res.rounds[1:]):
        expect = sum(per_sensor[i] for i in scen.sensors if not a.states[i].localized)
        assert b.messages == expect


def test_refinement_improves_relay_only_sensor():
    res = dist.run_dis_minmax(relay_chain_instance())
    assert res.converged
    assert len(res.rounds) == 3
    # sensor 0 trilaterates immediately and never moves again
    first = res.rounds[0].states[0]
    assert first.radius_sq <= 1e-6
    for rec in res.rounds[1:]:
        assert rec.states[0].estimate == first.estimate
        assert rec.states[0].localized
    # sensor 1 collapses from its loose relayed region onto the unit-ring
    # value around its neighbor, then stalls there and localizes
    r1 = [rec.states[1].radius_sq for rec in res.rounds]
    assert r1[0] > 0.5
    assert r1[1] == pytest.approx(0.45**2, rel=1e-2)
    assert res.rounds[-1].states[1].localized
    assert [rec.messages for rec in res.rounds] == [0, 4, 2]


def test_round_cap_yields_partial_unconverged_trace():
    res = dist.run_dis_minmax(relay_chain_instance(), DisMinMaxConfig(max_rounds=1))
    assert not res.converged
    assert len(res.rounds) == 2
    assert not res.rounds[-1].states[1].localized


def test_saturated_exact_network_localizes_immediately():
    scen = trilateration_instance()
    res = dist.run_dis_minmax(scen)
    assert res.converged
    assert len(res.rounds) <= 3
    final = res.rounds[-1].states
    for i, s in final.items():
        tx, ty = scen.true_positions[i]
        assert math.hypot(s.estimate[0] - tx, s.estimate[1] - ty) <= 1e-4
        assert s.radius_sq <= 1e-6


# --- whole-round batches against the node-by-node run -----------------------

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's workload definitions, loaded from their file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def assert_same_runs(batched, per_node, scen):
    assert len(batched.rounds) == len(per_node.rounds)
    assert batched.converged == per_node.converged
    for a, b in zip(batched.rounds, per_node.rounds):
        assert (a.round_index, a.messages) == (b.round_index, b.messages)
        assert a.rmse_upper_bound == pytest.approx(b.rmse_upper_bound, rel=1e-12)
        for i in scen.sensors:
            got, want = a.states[i], b.states[i]
            assert (got.localized, got.iteration) == (want.localized, want.iteration)
            assert got.radius_sq == pytest.approx(want.radius_sq, rel=1e-12, abs=1e-300)
            assert got.raw_radius_sq == pytest.approx(want.raw_radius_sq, rel=1e-12, abs=1e-300)
            assert got.estimate == pytest.approx(want.estimate, rel=1e-12, abs=1e-15)


def shortcut_count(res, config):
    """The refinements that took the epsilon shortcut: nodes still active
    after a round with a radius already at most epsilon."""
    return sum(
        not s.localized and s.radius_sq <= config.epsilon
        for rec in res.rounds[:-1]
        for s in rec.states.values()
    )


# the default config, and an epsilon above some radii so that nodes take the
# shortcut inside batched rounds
ROUND_CONFIGS = [pytest.param(seed, DisMinMaxConfig(), id=str(seed)) for seed in range(1, 14)]
ROUND_CONFIGS += [
    pytest.param(seed, DisMinMaxConfig(epsilon=1e-2), id=f"eps-1e-2-{seed}") for seed in range(1, 14)
]


@pytest.mark.parametrize("seed, config", ROUND_CONFIGS)
def test_batched_rounds_match_node_by_node_run(workloads, seed, config):
    (scen,) = workloads.WORKLOADS["distributed"].build(seed)
    batched = dist.run_dis_minmax(scen, config)
    assert_same_runs(batched, reference_dist.run_dis_minmax(scen, config), scen)
    if config.epsilon == 1e-2:
        assert shortcut_count(batched, config) >= 5


@pytest.mark.parametrize("seed", [1, 2])
def test_rounds_in_small_batches_match_node_by_node_run(workloads, monkeypatch, seed):
    monkeypatch.setattr(dist, "_ROUND_NODES", 7)
    (scen,) = workloads.WORKLOADS["distributed"].build(seed)
    assert_same_runs(dist.run_dis_minmax(scen), reference_dist.run_dis_minmax(scen), scen)


def test_batched_rounds_match_node_by_node_run_at_400_sensors(workloads):
    scen = workloads.network(400, 0.125, 7, 0.02, 7)
    batched = dist.run_dis_minmax(scen)
    assert len(batched.rounds) - 1 == 7
    assert_same_runs(batched, reference_dist.run_dis_minmax(scen), scen)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_node_functions_match_reference(workloads, seed):
    # every sensor's initial estimate and every active sensor's refinement
    # in each round of the node-by-node run, from the same inputs
    (scen,) = workloads.WORKLOADS["distributed"].build(seed)
    bounds = model.build_feasibility_intervals(scen)
    table = dist.propagate_distance_bounds(scen, bounds)
    for i in scen.sensors:
        want = reference_dist.initial_estimate(i, table, scen.anchors)
        assert dist.initial_estimate(i, table, scen.anchors) == want
    run = reference_dist.run_dis_minmax(scen)
    refined = 0
    for rec in run.rounds[:-1]:
        states = {**rec.states, **{k: NodeState(a, 0.0, True, 0, 0.0) for k, a in scen.anchors.items()}}
        for i in scen.sensors:
            if rec.states[i].localized:
                continue
            nbrs = {j: states[j] for j in reference_dist.neighbors(scen, i)}
            want = reference_dist.iterate_node(i, nbrs, states[i], bounds)
            assert dist.iterate_node(i, nbrs, states[i], bounds) == want
            refined += 1
    assert refined >= 100


def test_round_states_are_read_only_arrays(noisy_run):
    scen, res = noisy_run
    for rec in res.rounds:
        states = rec.states
        assert isinstance(states, dist.RoundStates)
        assert list(states) == list(scen.sensors) and len(states) == len(scen.sensors)
        for k, i in enumerate(scen.sensors):
            s = states[i]
            assert type(s.estimate[0]) is float and type(s.radius_sq) is float
            assert type(s.localized) is bool and type(s.iteration) is int
            assert s.estimate == tuple(states.estimate[k])
            assert s.radius_sq == states.radius_sq[k]
            assert s.raw_radius_sq == states.raw_radius_sq[k]
            assert (s.localized, s.iteration) == (states.localized[k], states.iteration[k])
        with pytest.raises(TypeError):
            states[scen.sensors[0]] = states[scen.sensors[0]]
        with pytest.raises(KeyError):
            states[-1]
    last = res.rounds[-1]
    first = scen.sensors[0]
    moved = replace(last.states[first], estimate=(9.0, 9.0))
    swapped = replace(last, states={**last.states, first: moved})
    assert swapped.states[first].estimate == (9.0, 9.0)
    assert last.states[first].estimate != (9.0, 9.0)
    assert dict(swapped.states).keys() == dict(last.states).keys()


def traced_run(scen):
    """The bytes a run's result keeps once every state has been read in
    order, and the peak above the start."""
    dist.run_dis_minmax(scen)  # warm the caches of the candidate sets
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = dist.run_dis_minmax(scen)
        for rec in res.rounds:  # as the benchmark's checks read them
            assert len(list(rec.states.items())) == len(list(rec.states.values())) == len(scen.sensors)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.converged
    return kept - start, peak - start


def test_run_keeps_little_and_peaks_low(workloads):
    # the benchmark keeps every pass's result, so a faster pass must keep
    # fewer bytes for its peak RSS to hold; 74 KB kept and a 1.66 MB peak
    # before the rounds ran as arrays
    (scen,) = workloads.WORKLOADS["distributed"].build(21)
    kept, peak = traced_run(scen)
    assert kept <= 16 * 1024
    assert peak <= 2 * 1024 * 1024


# --- serialization and determinism ------------------------------------------


def test_trace_jsonl_schema(noisy_run):
    scen, res = noisy_run
    text = dist.trace_to_jsonl(res)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == len(res.rounds)
    for line, rec in zip(lines, res.rounds):
        doc = json.loads(line)
        assert set(doc) == {"round", "per_node", "rmse_upper_bound"}
        assert doc["round"] == rec.round_index
        assert doc["rmse_upper_bound"] == rec.rmse_upper_bound
        ids = [node["id"] for node in doc["per_node"]]
        assert ids == sorted(scen.sensors)
        for node in doc["per_node"]:
            s = rec.states[node["id"]]
            assert set(node) == {"id", "x", "y", "radius_sq", "localized"}
            assert (node["x"], node["y"]) == tuple(s.estimate)
            assert node["radius_sq"] == s.radius_sq
            assert node["localized"] == s.localized


def test_run_is_deterministic(noisy_run):
    scen, res = noisy_run
    again = dist.run_dis_minmax(noisy_scenario())
    assert dist.trace_to_jsonl(again) == dist.trace_to_jsonl(res)


# --- validation --------------------------------------------------------------


@pytest.mark.parametrize(
    "lower,upper,hops",
    [(-0.1, 0.5, 1), (0.5, 0.4, 1), (0.2, 0.4, 0)],
)
def test_bound_entry_rejects_bad_fields(lower, upper, hops):
    with pytest.raises(ValueError):
        BoundEntry(lower, upper, hops)


def test_node_state_rejects_negative_radius():
    with pytest.raises(ValueError):
        NodeState((0.0, 0.0), -1e-9, False, 0, 0.0)


def test_config_rejects_nonpositive_knobs():
    with pytest.raises(ValueError):
        DisMinMaxConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        DisMinMaxConfig(max_rounds=0)
