import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minmaxloc import geom, model


def soft_member(reg, p, eps=1e-9):
    """Membership with a hair of slack for grid/rounding noise."""
    for c in reg.constraints:
        d = math.hypot(p[0] - c.center[0], p[1] - c.center[1])
        if d < c.lower - eps or d > c.upper + eps:
            return False
    return True


def test_unit_disc_center_and_radius():
    reg = geom.region([((0.0, 0.0), 0.0, 1.0)])
    res = geom.grid_chebyshev_center(reg, resolution=1e-3)
    assert abs(res.center[0]) <= 1.5e-3
    assert abs(res.center[1]) <= 1.5e-3
    assert res.radius == pytest.approx(1.0, abs=3e-3)


def test_diamond_intersection_chebyshev_radius():
    # four unit-distance anchors, each allowing distance up to sqrt(2);
    # the corners of the feasible set sit at (+-t, +-t) with
    # 2t^2 + 2t - 1 = 0, so the radius is sqrt(2 - sqrt(3))
    reg = geom.region([
        ((1.0, 0.0), 0.0, math.sqrt(2.0)),
        ((-1.0, 0.0), 0.0, math.sqrt(2.0)),
        ((0.0, 1.0), 0.0, math.sqrt(2.0)),
        ((0.0, -1.0), 0.0, math.sqrt(2.0)),
    ])
    res = geom.grid_chebyshev_center(reg, resolution=1e-3)
    assert abs(res.center[0]) <= 1.5e-3
    assert abs(res.center[1]) <= 1.5e-3
    assert res.radius == pytest.approx(math.sqrt(2.0 - math.sqrt(3.0)), abs=3e-3)


def test_diamond_relaxed_value():
    # by symmetry the lifted relaxation peaks at the origin where every
    # envelope term equals 2 - 1 = 1
    reg = geom.region([
        ((1.0, 0.0), 0.0, math.sqrt(2.0)),
        ((-1.0, 0.0), 0.0, math.sqrt(2.0)),
        ((0.0, 1.0), 0.0, math.sqrt(2.0)),
        ((0.0, -1.0), 0.0, math.sqrt(2.0)),
    ])
    (cx, cy), value = geom.relaxed_center_value(reg, resolution=1e-3)
    assert abs(cx) <= 1.5e-3 and abs(cy) <= 1.5e-3
    # the optimum sits on an envelope kink, so the grid offset enters the
    # value linearly (slope ~2 per constraint), not quadratically
    assert value == pytest.approx(1.0, abs=5e-3)


def test_ring_chebyshev_center_is_annulus_center():
    # the worst case from any point p against a full ring of outer radius 2
    # is |p| + 2, minimized at the annulus center even though that point is
    # itself infeasible
    reg = geom.region([((0.0, 0.0), 1.0, 2.0)])
    res = geom.grid_chebyshev_center(reg, resolution=2e-3)
    assert abs(res.center[0]) <= 3e-3
    assert abs(res.center[1]) <= 3e-3
    assert res.radius == pytest.approx(2.0, abs=5e-3)
    assert not geom.membership(reg, res.center)


def test_membership_boundaries_closed():
    reg = geom.region([((0.0, 0.0), 1.0, 2.0)])
    assert geom.membership(reg, (1.0, 0.0))
    assert geom.membership(reg, (2.0, 0.0))
    assert geom.membership(reg, (0.0, -1.5))
    assert not geom.membership(reg, (0.5, 0.0))
    assert not geom.membership(reg, (2.001, 0.0))


def test_projection_onto_ring():
    reg = geom.region([((0.0, 0.0), 1.0, 2.0)])
    q = geom.project_to_region(reg, (0.5, 0.0), resolution=1e-3)
    assert q[0] == pytest.approx(1.0, abs=2.5e-3)
    assert q[1] == pytest.approx(0.0, abs=2.5e-3)
    assert soft_member(reg, q)
    inside = geom.project_to_region(reg, (1.5, 0.0), resolution=1e-3)
    assert inside[0] == pytest.approx(1.5, abs=1.5e-3)
    assert inside[1] == pytest.approx(0.0, abs=1.5e-3)


def test_projection_tie_breaks_to_first_grid_index():
    # on a unit-spaced grid over [-1, 1]^2, the points (0, 0) and (1, 0) are
    # both feasible and equidistant from (0.5, 0); x-major enumeration
    # reaches (0, 0) first
    reg = geom.region([((0.0, 0.0), 0.0, 1.0)])
    q = geom.project_to_region(
        reg, (0.5, 0.0), bbox=((-1.0, 1.0), (-1.0, 1.0)), resolution=1.0
    )
    assert q == (0.0, 0.0)


def test_grid_max_distance_disc():
    reg = geom.region([((0.0, 0.0), 0.0, 1.0)])
    assert geom.grid_max_distance(reg, (0.0, 0.0), resolution=2e-3) == pytest.approx(
        1.0, abs=5e-3
    )
    assert geom.grid_max_distance(reg, (0.5, 0.0), resolution=2e-3) == pytest.approx(
        1.5, abs=5e-3
    )


def test_empty_region_raises():
    reg = geom.region([((0.0, 0.0), 0.0, 1.0), ((5.0, 0.0), 0.0, 1.0)])
    with pytest.raises(geom.EmptyRegionError):
        geom.grid_chebyshev_center(reg, resolution=5e-3)
    with pytest.raises(geom.EmptyRegionError):
        geom.project_to_region(reg, (0.0, 0.0), resolution=5e-3)
    with pytest.raises(geom.EmptyRegionError):
        geom.relaxed_center_value(reg, resolution=5e-3)


def test_extreme_points_fall_back_on_collinear_points():
    # Qhull rejects a flat point set; every point is then kept as a target
    line = np.column_stack([np.linspace(0.0, 1.0, 5), np.zeros(5)])
    assert np.array_equal(geom._extreme_points(line), line)


def test_extreme_points_propagate_unexpected_errors(monkeypatch):
    # only a degenerate hull falls back; any other failure is a bug
    import scipy.spatial

    def broken_hull(points):
        raise TypeError("not a hull")

    monkeypatch.setattr(scipy.spatial, "ConvexHull", broken_hull)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(TypeError, match="not a hull"):
        geom._extreme_points(square)


def test_constraint_validation():
    with pytest.raises(ValueError):
        geom.AnnulusConstraint((0.0, 0.0), -1.0, 2.0)
    with pytest.raises(ValueError):
        geom.AnnulusConstraint((0.0, 0.0), 2.0, 1.0)
    with pytest.raises(ValueError):
        geom.FeasibleRegion(())


def test_single_sensor_region_from_scenario():
    cfg = model.ScenarioConfig(
        n_sensors=1,
        anchor_positions=((-0.3, -0.3), (0.3, -0.3), (0.0, 0.4)),
        sensing_range=2.0,
    )
    sc = model.generate_scenario(cfg, seed=17)
    noisy = model.apply_errors(sc, model.UniformError(gamma=0.05), seed=1)
    bounds = model.build_feasibility_intervals(noisy)
    reg = geom.single_sensor_region(noisy, bounds)
    assert len(reg.constraints) == len(noisy.anchor_edges)
    # truth satisfies every interval, so it must lie in the region
    assert geom.membership(reg, noisy.true_positions[0])


def test_single_sensor_region_rejects_networks():
    cfg = model.ScenarioConfig(
        n_sensors=2, anchor_positions=((-0.3, -0.3), (0.3, -0.3), (0.0, 0.4)),
        sensing_range=2.0,
    )
    sc = model.generate_scenario(cfg, seed=17)
    bounds = model.build_feasibility_intervals(sc)
    with pytest.raises(ValueError):
        geom.single_sensor_region(sc, bounds)


def test_relaxed_value_dominates_chebyshev_radius():
    # the lifted relaxation can only enlarge the worst case, so its value
    # must be at least the squared Chebyshev radius (grid slack aside)
    reg = geom.region([
        ((0.0, 0.0), 0.4, 1.1),
        ((1.0, 0.0), 0.2, 0.9),
        ((0.4, 0.8), 0.0, 1.0),
    ])
    cheb = geom.grid_chebyshev_center(reg, resolution=2e-3)
    _, value = geom.relaxed_center_value(reg, resolution=2e-3)
    assert value >= cheb.radius**2 - 2e-2


def test_crescent_region_is_nonconvex():
    reg = geom.region([
        ((0.0, 0.0), 0.9, 1.1),
        ((1.2, 0.0), 0.8, 100.0),
    ])
    assert geom.membership(reg, (0.0, 1.0))
    assert geom.membership(reg, (0.0, -1.0))
    assert not geom.membership(reg, (0.0, 0.0))
    res = geom.grid_chebyshev_center(reg, resolution=2e-3)
    assert res.radius > 0.5


@given(
    cx=st.floats(-2.0, 2.0),
    cy=st.floats(-2.0, 2.0),
    r=st.floats(0.3, 1.5),
)
@settings(max_examples=25, deadline=None)
def test_disc_center_recovered(cx, cy, r):
    reg = geom.region([((cx, cy), 0.0, r)])
    res = geom.grid_chebyshev_center(reg, resolution=5e-3)
    assert abs(res.center[0] - cx) <= 7.5e-3
    assert abs(res.center[1] - cy) <= 7.5e-3
    assert abs(res.radius - r) <= 1.5e-2
