import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_dist
import reference_model
from fixtures import contains, realized_errors
from minmaxloc import model


ANCHORS_4 = ((-0.3, -0.3), (-0.3, 0.3), (0.3, -0.3), (0.3, 0.3))


def small_config(n=6, rng=0.5):
    return model.ScenarioConfig(
        n_sensors=n, anchor_positions=ANCHORS_4, sensing_range=rng
    )


def test_generate_scenario_is_deterministic():
    a = model.generate_scenario(small_config(), seed=42)
    b = model.generate_scenario(small_config(), seed=42)
    assert a.true_positions == b.true_positions
    assert a.sensor_edges == b.sensor_edges
    assert a.anchor_edges == b.anchor_edges
    assert a.measurements == b.measurements


def test_generate_scenario_seeds_differ():
    a = model.generate_scenario(small_config(), seed=1)
    b = model.generate_scenario(small_config(), seed=2)
    assert a.true_positions != b.true_positions


def test_generated_scenario_validates():
    sc = model.generate_scenario(small_config(), seed=7)
    report = model.validate_scenario(sc)
    assert report.connected
    assert report.anchors_noncollinear
    assert report.ok


def test_generated_ids_and_measurements():
    sc = model.generate_scenario(small_config(n=5), seed=3)
    assert sc.sensors == [0, 1, 2, 3, 4]
    assert sorted(sc.anchors) == [5, 6, 7, 8]
    assert sc.gamma == 0.0
    for e in sc.all_edges():
        assert sc.measurements[e] == pytest.approx(sc.true_distance(e), abs=0.0)
    for i, j in sc.sensor_edges:
        assert i < j
    for i, k in sc.anchor_edges:
        assert i in sc.sensors and k in sc.anchors


# sensors on the lines of a lattice of pitch ``range``, moved off them by at
# most a few ulps or a hair, and some sensors on top of others: every pair
# near a cell boundary, and pairs exactly ``range`` apart
@settings(max_examples=150, deadline=None)
@given(
    sensing_range=st.sampled_from([0.05, 0.1, 0.125, 0.3, 1.0 / 3.0, 2.0]),
    cells=st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.sampled_from([0, 1, 2, 3])),
        min_size=1,
        max_size=40,
    ),
    offsets=st.lists(
        st.tuples(*[st.sampled_from([0.0, 1e-17, -1e-17, 1e-15, -1e-15, 1e-9, -1e-9])] * 2),
        min_size=40,
        max_size=40,
    ),
    repeats=st.integers(0, 5),
)
def test_grid_edges_match_all_pairs_near_cell_boundaries(sensing_range, cells, offsets, repeats):
    pos = np.array(
        [
            ((cx + 0.5 * half) * sensing_range + dx, (cy + 0.5 * (half // 2)) * sensing_range + dy)
            for (cx, cy, half), (dx, dy) in zip(cells, offsets)
        ]
    )
    pos = np.concatenate([pos, pos[:repeats]])
    n = len(pos)
    anchors = np.array(ANCHORS_4)
    expected = reference_model.build_edges(pos, anchors, n, sensing_range)
    assert model._build_edges(pos, anchors, n, sensing_range) == expected


def test_grid_edges_match_all_pairs_on_random_networks():
    rng = np.random.default_rng(3)
    anchors = np.array(ANCHORS_4)
    for r in (0.0, 0.02, 0.1, 0.5, 2.0, np.inf, -1.0, np.nan):
        for n in (1, 2, 50, 400):
            pos = rng.uniform(-0.5, 0.5, (n, 2))
            got = model._build_edges(pos, anchors, n, r)
            assert got == reference_model.build_edges(pos, anchors, n, r), (r, n)


def test_grid_edges_measure_a_few_pairs_per_edge(monkeypatch):
    # 10 000 sensors within range 0.02 of about 13 others each: the grid
    # measures the pairs in the nine cells around each sensor, about 9 / pi
    # per edge, where all pairs would be 5e7
    rng = np.random.default_rng(7)
    n = 10000
    pos = rng.uniform(-0.5, 0.5, (n, 2))
    measured = []
    hypot = np.hypot

    def counted(*args):
        measured.append(np.broadcast(*args).size)
        return hypot(*args)

    monkeypatch.setattr(np, "hypot", counted)
    sensor_edges, _ = model._build_edges(pos, np.array(ANCHORS_4), n, 0.02)
    assert 50000 <= len(sensor_edges) <= 70000
    assert measured[0] <= 3.5 * len(sensor_edges)


def test_generation_failure_raises():
    cfg = model.ScenarioConfig(
        n_sensors=2,
        anchor_positions=((10.0, 10.0), (11.0, 10.0), (10.0, 11.0)),
        sensing_range=1e-4,
    )
    with pytest.raises(model.ScenarioGenerationError):
        model.generate_scenario(cfg, seed=0)


def test_rejects_collinear_anchor_config():
    cfg = model.ScenarioConfig(
        n_sensors=3,
        anchor_positions=((0.0, 0.0), (0.5, 0.0), (1.0, 0.0)),
        sensing_range=2.0,
    )
    with pytest.raises(ValueError):
        model.generate_scenario(cfg, seed=0)


def test_neighbors_sorted():
    sc = model.generate_scenario(small_config(), seed=11)
    for i in sc.sensors:
        nb = reference_dist.neighbors(sc, i)
        assert nb == sorted(nb)
        assert i not in nb


def test_uniform_errors_bounded_and_deterministic():
    sc = model.generate_scenario(small_config(), seed=5)
    noisy = model.apply_errors(sc, model.UniformError(gamma=0.05), seed=9)
    again = model.apply_errors(sc, model.UniformError(gamma=0.05), seed=9)
    assert noisy.measurements == again.measurements
    assert noisy.gamma == 0.05
    for e, err in realized_errors(noisy).items():
        assert abs(err) <= 0.05


def test_gaussian_gamma_is_three_sigma():
    sc = model.generate_scenario(small_config(), seed=5)
    noisy = model.apply_errors(sc, model.GaussianError(sigma=0.02), seed=1)
    assert noisy.gamma == pytest.approx(0.06)
    # errors are genuinely random, zero-mean-ish on this many edges
    errs = np.array(list(realized_errors(noisy).values()))
    assert errs.std() > 0.0


def test_mixture_counts_match_documented_split():
    assert model.mixture_counts(100, 0.5) == (67, 33)
    assert model.mixture_counts(100, 0.0) == (100, 0)
    assert model.mixture_counts(60, 1.0) == (30, 30)


def test_mixture_outliers_bounded():
    sc = model.generate_scenario(small_config(n=12, rng=0.6), seed=13)
    m = model.MixtureError(sigma=0.02, ratio=0.5)
    noisy = model.apply_errors(sc, m, seed=4)
    assert noisy.gamma == pytest.approx(0.06)
    # the uniform outliers respect the 3 sigma support; Gaussian inliers are
    # unbounded, so only the aggregate spread is worth asserting
    errs = np.array(list(realized_errors(noisy).values()))
    assert np.abs(errs).max() < 0.5


def test_feasibility_intervals_contain_truth_within_bound():
    sc = model.generate_scenario(small_config(), seed=21)
    noisy = model.apply_errors(sc, model.UniformError(gamma=0.04), seed=2)
    bounds = model.build_feasibility_intervals(noisy)
    for e in noisy.all_edges():
        assert contains(bounds[e], noisy.true_distance(e))


def test_feasibility_intervals_clamp_at_zero():
    sc = model.generate_scenario(small_config(), seed=21)
    noisy = model.apply_errors(sc, model.UniformError(gamma=2.0), seed=2)
    bounds = model.build_feasibility_intervals(noisy)
    assert all(b.lower >= 0.0 for b in bounds.values())
    assert any(b.lower == 0.0 for b in bounds.values())
    assert all(b.upper >= b.lower for b in bounds.values())


def test_interval_bound_validation():
    with pytest.raises(ValueError):
        model.IntervalBound(-0.1, 1.0)
    with pytest.raises(ValueError):
        model.IntervalBound(1.0, 0.5)
    b = model.IntervalBound(0.5, 1.5)
    assert contains(b, 0.5) and contains(b, 1.5) and not contains(b, 1.6)


def test_anchors_noncollinear():
    assert model.anchors_noncollinear([(0, 0), (1, 0), (0, 1)])
    assert not model.anchors_noncollinear([(0, 0), (1, 0), (2, 0)])
    assert not model.anchors_noncollinear([(0, 0), (1, 0)])


def test_validation_warnings():
    sc = model.generate_scenario(small_config(), seed=7)
    sc.anchors = {k: (float(k), 0.0) for k in sc.anchors}
    report = model.validate_scenario(sc)
    assert not report.anchors_noncollinear
    assert not report.ok
    assert any("collinear" in w for w in report.warnings)


def test_json_round_trip():
    sc = model.generate_scenario(small_config(), seed=30)
    noisy = model.apply_errors(sc, model.GaussianError(sigma=0.02), seed=8)
    text = model.scenario_to_json(noisy)
    back = model.scenario_from_json(text)
    assert back.sensors == noisy.sensors
    assert back.anchors == noisy.anchors
    assert back.true_positions == noisy.true_positions
    assert back.sensor_edges == sorted(noisy.sensor_edges)
    assert back.anchor_edges == sorted(noisy.anchor_edges)
    assert back.measurements == noisy.measurements
    assert back.gamma == noisy.gamma
    assert back.sensing_range == noisy.sensing_range


def test_json_schema_shape():
    sc = model.generate_scenario(small_config(n=2, rng=1.5), seed=14)
    doc = json.loads(model.scenario_to_json(sc))
    assert set(doc) == {
        "sensors", "anchors", "true_positions", "edges", "gamma", "sensing_range"
    }
    assert all(set(a) == {"id", "x", "y"} for a in doc["anchors"])
    assert all(set(e) == {"a", "b", "z"} for e in doc["edges"])


def test_json_rejects_unknown_edge_nodes():
    sc = model.generate_scenario(small_config(n=2, rng=1.5), seed=14)
    doc = json.loads(model.scenario_to_json(sc))
    doc["edges"].append({"a": 99, "b": 100, "z": 1.0})
    with pytest.raises(ValueError):
        model.scenario_from_json(json.dumps(doc))


def test_scenario_rejects_an_edge_listed_twice():
    # scenarios built in code follow scenario_from_json's rule: a sensor edge
    # listed again in the other orientation, or an anchor edge listed again,
    # is a ValueError rather than a second interval for the same pair
    sc = model.generate_scenario(small_config(), seed=4)
    i, j = sc.sensor_edges[0]
    with pytest.raises(ValueError, match=rf"edge \({j}, {i}\) appears more than once"):
        dataclasses.replace(sc, sensor_edges=sc.sensor_edges + [(j, i)])
    with pytest.raises(ValueError, match="appears more than once"):
        dataclasses.replace(sc, anchor_edges=sc.anchor_edges + sc.anchor_edges[:1])
    assert dataclasses.replace(sc).sensor_edges == sc.sensor_edges


def _first_sensor_edge(value):
    return lambda sc: {"measurements": {**sc.measurements, sc.sensor_edges[0]: value}}


# rule -> (the fields to replace in a generated scenario, the error message)
CONTENT_RULES = {
    "sensor also anchor": (
        lambda sc: {"anchors": {**sc.anchors, 0: (0.0, 0.0)}},
        r"ids \[0\] are both sensors and anchors",
    ),
    "repeated sensor": (
        lambda sc: {"sensors": sc.sensors + [0]},
        r"sensor ids \[0\] appear more than once",
    ),
    "self edge": (
        lambda sc: {"sensor_edges": sc.sensor_edges + [(1, 1)]},
        r"edge \(1, 1\) joins a node to itself",
    ),
    "sensor edge to anchor": (
        lambda sc: {"sensor_edges": sc.sensor_edges + [(0, min(sc.anchors))]},
        "links unknown nodes",
    ),
    "anchor edge reversed": (
        lambda sc: {"anchor_edges": [sc.anchor_edges[0][::-1]] + sc.anchor_edges[1:]},
        "links unknown nodes",
    ),
    "edge between anchors": (
        lambda sc: {"anchor_edges": sc.anchor_edges + [tuple(sorted(sc.anchors)[:2])]},
        "links unknown nodes",
    ),
    "unknown node": (
        lambda sc: {"anchor_edges": sc.anchor_edges + [(0, 99)]},
        r"edge \(0, 99\) links unknown nodes",
    ),
    "missing measurement": (
        lambda sc: {"measurements": {e: sc.measurements[e] for e in sc.all_edges()[1:]}},
        r"edge \(\d+, \d+\) has no measurement",
    ),
    "measurement on no edge": (
        lambda sc: {"measurements": {**sc.measurements, (0, 99): 0.5}},
        r"measurement on \(0, 99\), which is not an edge",
    ),
    "nan measurement": (_first_sensor_edge(math.nan), "non-finite measurement nan"),
    "infinite measurement": (_first_sensor_edge(-math.inf), "non-finite measurement -inf"),
    "negative gamma": (lambda sc: {"gamma": -0.01}, "gamma must be finite and nonnegative"),
    "nan gamma": (lambda sc: {"gamma": math.nan}, "gamma must be finite and nonnegative"),
    "infinite gamma": (lambda sc: {"gamma": math.inf}, "gamma must be finite and nonnegative"),
}


@pytest.mark.parametrize("rule", sorted(CONTENT_RULES))
def test_scenario_constructor_checks_content(rule):
    # scenarios built in code meet the rules that scenario_from_json applies
    # to files, with the same messages
    sc = model.generate_scenario(small_config(), seed=4)
    edit, message = CONTENT_RULES[rule]
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(sc, **edit(sc))


def test_scenario_accepts_negative_measurements():
    # unbounded noise can read a short edge below zero; the interval clamps
    sc = model.generate_scenario(small_config(), seed=4)
    e = sc.anchor_edges[0]
    neg = dataclasses.replace(sc, measurements={**sc.measurements, e: -0.01}, gamma=0.02)
    assert model.build_feasibility_intervals(neg)[e] == model.IntervalBound(0.0, 0.01)
    back = model.scenario_from_json(model.scenario_to_json(neg))
    assert back.measurements[e] == -0.01


@given(
    z=st.floats(0.0, 10.0),
    gamma=st.floats(0.0, 2.0),
    err=st.floats(-1.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_interval_construction_properties(z, gamma, err):
    lower = max(z - gamma, 0.0)
    upper = max(z + gamma, lower)
    b = model.IntervalBound(lower, upper)
    d = z - err * gamma  # any truth within the bound of the measurement
    if abs(z - d) <= gamma and d >= lower:
        assert contains(b, d)
