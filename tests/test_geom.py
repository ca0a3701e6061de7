import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_geom as ref
from fixtures import NONCONVEX_FIXTURES, ORACLE_FIXTURES
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
    assert not ref.membership(reg, res.center)


def test_membership_boundaries_closed():
    reg = geom.region([((0.0, 0.0), 1.0, 2.0)])
    assert ref.membership(reg, (1.0, 0.0))
    assert ref.membership(reg, (2.0, 0.0))
    assert ref.membership(reg, (0.0, -1.5))
    assert not ref.membership(reg, (0.5, 0.0))
    assert not ref.membership(reg, (2.001, 0.0))


def test_projection_onto_ring():
    reg = geom.region([((0.0, 0.0), 1.0, 2.0)])
    q = geom.project_to_region(reg, (0.5, 0.0), resolution=1e-3)
    assert q[0] == pytest.approx(1.0, abs=2.5e-3)
    assert q[1] == pytest.approx(0.0, abs=2.5e-3)
    assert soft_member(reg, q)
    inside = geom.project_to_region(reg, (1.5, 0.0), resolution=1e-3)
    assert inside[0] == pytest.approx(1.5, abs=1.5e-3)
    assert inside[1] == pytest.approx(0.0, abs=1.5e-3)


@contextlib.contextmanager
def block_rows(rows):
    """Scan the grid in row blocks of ``rows`` grid columns (None: the
    module's own block size)."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(geom, "_block_rows", lambda ny: rows)
        yield


# the module's block size, then blocks so small that ties and empty blocks
# fall between them
BLOCK_ROWS = (None, 1, 3)


def test_projection_tie_breaks_to_first_grid_index():
    # on a unit-spaced grid over [-1, 1]^2, the points (0, 0) and (1, 0) are
    # both feasible and equidistant from (0.5, 0); x-major enumeration
    # reaches (0, 0) first, also when they are in different row blocks
    reg = geom.region([((0.0, 0.0), 0.0, 1.0)])
    for rows in BLOCK_ROWS:
        with block_rows(rows):
            q = geom.project_to_region(
                reg, (0.5, 0.0), bbox=((-1.0, 1.0), (-1.0, 1.0)), resolution=1.0
            )
        assert q == (0.0, 0.0)


def test_relaxed_maximizer_tie_breaks_to_first_grid_index():
    # on the same grid, the relaxed objective 1 - |y - (0.5, 0)|^2 of a unit
    # disc is 0.75 at both (0, 0) and (1, 0), its largest value on the grid;
    # x-major enumeration reaches (0, 0) first, also across row blocks
    reg = geom.region([((0.5, 0.0), 0.0, 1.0)])
    for rows in BLOCK_ROWS:
        with block_rows(rows):
            got = geom.relaxed_center_value(
                reg, bbox=((-1.0, 1.0), (-1.0, 1.0)), resolution=1.0
            )
        assert got == ((0.0, 0.0), 0.75)


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
    assert ref.membership(reg, noisy.true_positions[0])


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
    assert ref.membership(reg, (0.0, 1.0))
    assert ref.membership(reg, (0.0, -1.0))
    assert not ref.membership(reg, (0.0, 0.0))
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


@pytest.mark.parametrize("resolution", [0.0, -0.01, math.nan, math.inf])
def test_resolution_must_be_positive_and_finite(resolution):
    reg = geom.region([((0.0, 0.0), 0.0, 1.0)])
    calls = [
        lambda: geom.grid_chebyshev_center(reg, resolution=resolution),
        lambda: geom.project_to_region(reg, (0.0, 0.0), resolution=resolution),
        lambda: geom.grid_max_distance(reg, (0.0, 0.0), resolution=resolution),
        lambda: geom.relaxed_center_value(reg, resolution=resolution),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            call()


def _outcome(f, *args, **kwargs):
    """A call's value, or the message of the EmptyRegionError it raised."""
    try:
        return f(*args, **kwargs)
    except geom.EmptyRegionError as exc:
        return ("empty", str(exc))


def _assert_matches_reference(reg, points, bbox=None, resolution=5e-3):
    """Every oracle equals the exhaustive scan, at each of ``BLOCK_ROWS``."""
    kw = dict(bbox=bbox, resolution=resolution)
    want = [
        _outcome(ref.chebyshev_center, reg, **kw),
        _outcome(ref.relaxed_center_value, reg, **kw),
    ]
    for p in points:
        want += [_outcome(ref.project, reg, p, **kw), _outcome(ref.max_distance, reg, p, **kw)]
    for rows in BLOCK_ROWS:
        with block_rows(rows):
            got = [
                _outcome(geom.grid_chebyshev_center, reg, **kw),
                _outcome(geom.relaxed_center_value, reg, **kw),
            ]
            for p in points:
                got += [
                    _outcome(geom.project_to_region, reg, p, **kw),
                    _outcome(geom.grid_max_distance, reg, p, **kw),
                ]
        assert got == want, f"{rows} rows per block"


def _assert_window_holds_minimizer(reg, bbox, resolution):
    xs, ys, targets = geom._targets(reg, bbox, resolution)
    sx, sy = geom._scan_window(xs, ys, targets, resolution)
    (cx, cy) = ref.chebyshev_center(reg, bbox, resolution).center
    (ix,), (iy,) = np.flatnonzero(xs == cx), np.flatnonzero(ys == cy)
    assert sx.start <= ix < sx.stop and sy.start <= iy < sy.stop


def _assert_intervals_match_mask(reg, bbox, resolution):
    """Each annulus's column intervals hold exactly the grid points that its
    mask, formed as the exhaustive scan forms it, holds."""
    if bbox is None:
        bbox = geom.default_bbox(reg, resolution)
    xs, ys = geom._grid(reg, bbox, resolution)
    _, starts, ends = geom._column_intervals(reg, xs, ys, resolution)
    rows = np.arange(len(ys))
    for k, c in enumerate(reg.constraints):
        d2 = (xs[:, None] - c.center[0]) ** 2 + (ys[None, :] - c.center[1]) ** 2
        want = (d2 >= c.lower**2) & (d2 <= c.upper**2)
        got = (starts[k][:, :, None] <= rows) & (rows < ends[k][:, :, None])
        assert np.array_equal(got.any(axis=0), want), f"annulus {k}"


ALL_FIXTURES = {
    **{name: fx for name, (fx, _) in ORACLE_FIXTURES.items()},
    **NONCONVEX_FIXTURES,
}


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_oracles_equal_exhaustive_reference_on_fixtures(name):
    scen, bounds = ALL_FIXTURES[name]
    reg = geom.single_sensor_region(scen, bounds)
    points = [scen.true_positions[0], (0.31, -0.17), (2.0, 1.5)]
    _assert_matches_reference(reg, points, resolution=5e-3)
    _assert_window_holds_minimizer(reg, geom.default_bbox(reg, 5e-3), 5e-3)
    _assert_intervals_match_mask(reg, None, 5e-3)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_max_distance_needs_no_hull(name, monkeypatch):
    # a column's farthest feasible point is its lowest or highest one, so
    # the largest distance comes from the column extremes without a hull
    scen, bounds = ALL_FIXTURES[name]
    reg = geom.single_sensor_region(scen, bounds)
    points = [scen.true_positions[0], (0.31, -0.17), (2.0, 1.5)]
    want = [ref.max_distance(reg, p, resolution=5e-3) for p in points]

    def no_hull(cols, first, last):
        raise AssertionError("grid_max_distance built a hull")

    monkeypatch.setattr(geom, "_hull_vertices", no_hull)
    assert [geom.grid_max_distance(reg, p, resolution=5e-3) for p in points] == want


def _assert_hull_matches_qhull(reg, bbox, resolution):
    """The hull of the column extremes has the vertices that Qhull finds for
    all feasible points; a flat set, which Qhull rejects, gives its two end
    points.  The vertices run counterclockwise with strict turns."""
    try:
        _, feasible = ref.feasible_grid(reg, bbox, resolution)
    except geom.EmptyRegionError:
        return
    xs, ys = geom._grid(reg, bbox, resolution)
    ix, iy = geom._hull_vertices(*geom._feasible_columns(reg, xs, ys, resolution))
    got = list(zip(xs[ix].tolist(), ys[iy].tolist()))
    assert len(set(got)) == len(got)
    if len(got) <= 2:
        assert set(got) == {tuple(feasible[0]), tuple(feasible[-1])}
        return
    assert set(got) == set(map(tuple, ref.extreme_points(feasible).tolist()))
    p = np.array(got)
    d = np.roll(p, -1, axis=0) - p
    assert np.all(d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1) > 0)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_hull_vertices_equal_qhull_on_fixtures(name):
    scen, bounds = ALL_FIXTURES[name]
    _assert_hull_matches_qhull(geom.single_sensor_region(scen, bounds), None, 5e-3)


@pytest.mark.parametrize(
    "cols, first, last, want",
    [
        ([3], [2], [2], [(3, 2)]),  # one point
        ([3], [1], [6], [(3, 1), (3, 6)]),  # one column
        ([0, 1, 2, 3, 4], [2] * 5, [2] * 5, [(0, 2), (4, 2)]),  # one row
        ([1, 2, 4, 5], [1, 2, 4, 5], [1, 2, 4, 5], [(1, 1), (5, 5)]),  # a diagonal
        ([0, 2], [0, 1], [0, 3], [(0, 0), (2, 1), (2, 3)]),  # a triangle
    ],
    ids=["point", "column", "row", "diagonal", "triangle"],
)
def test_hull_vertices_of_degenerate_sets(cols, first, last, want):
    ix, iy = geom._hull_vertices(*(np.array(v) for v in (cols, first, last)))
    assert list(zip(ix.tolist(), iy.tolist())) == want


def test_hull_chain_drops_a_long_convex_run():
    # the points (m, m^2) are a convex chain until a deep last point hides
    # every one of them; a pruning round drops only the point next to it, so
    # the sequential chain must pop the rest back to the first point
    n = 200
    x = np.arange(n + 1)
    y = np.append(x[:-1] ** 2, -10**6)
    assert geom._chain(x, y, 1).tolist() == [0, n]
    assert geom._chain(x, -y, -1).tolist() == [0, n]
    assert geom._chain(x, y, -1).tolist() == [0, n - 1, n]


@given(
    st.lists(
        st.tuples(st.integers(-40, 40), st.integers(-40, 40), st.integers(0, 30)),
        min_size=1,
        max_size=60,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=200, deadline=None)
def test_hull_vertices_equal_qhull_on_random_columns(columns):
    # column x holds the points (x, low) and (x, low + height)
    cols, first, height = (np.array(v) for v in zip(*sorted(columns)))
    ix, iy = geom._hull_vertices(cols, first, first + height)
    got = set(zip(ix.tolist(), iy.tolist()))
    points = sorted({(x, y) for x, low, h in columns for y in (low, low + h)})
    if len(got) <= 2:
        # a flat set, which Qhull rejects: its two ends in (x, y) order remain
        assert got == {points[0], points[-1]}
    else:
        want = ref.extreme_points(np.array(points, dtype=float))
        assert got == {(int(x), int(y)) for x, y in want.tolist()}


annuli = st.lists(
    st.tuples(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.2),
    ),
    min_size=1,
    max_size=3,
)


@given(
    annuli,
    st.floats(0.02, 0.05),
    st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
)
@example([((0.0, 0.0), 0.0, 1.0), ((5.0, 0.0), 0.0, 1.0)], 0.05, (0.0, 0.0))  # empty
@example([((0.3, -0.2), 0.0, 0.004)], 0.04, (0.0, 0.0))  # one feasible point
@example([((0.3, -0.2), 0.9, 0.3)], 0.05, (1.0, 1.0))  # ring: infeasible center
@settings(max_examples=60, deadline=None)
def test_oracles_equal_exhaustive_reference_on_random_regions(cons, h, p):
    reg = geom.region([(c, lower, lower + width) for c, lower, width in cons])
    _assert_matches_reference(reg, [p], resolution=h)
    _assert_intervals_match_mask(reg, None, h)
    _assert_hull_matches_qhull(reg, None, h)


# On the grid over [-1, 1]^2 at step 1/4 (exact in binary), hand-built regions
# whose feasible grid points are degenerate, given as (constraints, points).
_GRID = ((-1.0, 1.0), (-1.0, 1.0))
_R18 = math.sqrt(18.0) + 0.1
DEGENERATE = {
    "single point": (
        [((0.25, -0.5), 0.0, 0.1)],
        [(0.25, -0.5)],
    ),
    "single column": (
        [((-3.0, 0.0), 0.0, 3.1), ((3.0, 0.0), 0.0, 3.1)],
        [(0.0, y) for y in np.arange(-0.75, 1.0, 0.25)],
    ),
    "single row": (
        [((0.0, -3.0), 0.0, 3.1), ((0.0, 3.0), 0.0, 3.1)],
        [(x, 0.0) for x in np.arange(-0.75, 1.0, 0.25)],
    ),
    "diagonal": (
        [((3.0, -3.0), 0.0, _R18), ((-3.0, 3.0), 0.0, _R18)],
        [(t, t) for t in np.arange(-0.5, 0.75, 0.25)],
    ),
    "empty": ([((0.1, 0.1), 0.0, 0.05)], []),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_oracles_equal_exhaustive_reference_on_degenerate_sets(name):
    cons, expected = DEGENERATE[name]
    reg = geom.region(cons)
    if expected:
        _, feasible = ref.feasible_grid(reg, _GRID, 0.25)
        assert feasible.tolist() == [list(q) for q in expected]
    _assert_matches_reference(reg, [(0.6, -0.9), (-2.0, 0.3)], bbox=_GRID, resolution=0.25)
    _assert_hull_matches_qhull(reg, _GRID, 0.25)


@pytest.mark.parametrize("bbox", [((0.0, 1.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, 1.0))])
def test_box_without_grid_points_has_no_feasible_point(bbox):
    reg = geom.region([((0.5, 0.5), 0.0, 1.0)])
    _assert_matches_reference(reg, [(0.5, 0.5)], bbox=bbox, resolution=0.25)


# Regions on the same grid whose boundaries fall exactly on grid points, as
# (constraints, points to query from, a check that the case is as described).
# The squares of every offset and radius here are exact in binary, so the
# mask's comparisons meet equality where the exact circles pass.
_STRIP = [((-3.0, 0.0), 0.0, 3.2), ((3.0, 0.0), 0.0, 3.2)]  # the column x = 0 only


def _points_at(reg, sq_radius):
    """The feasible grid points at squared distance ``sq_radius`` from the
    first annulus's center."""
    _, feasible = ref.feasible_grid(reg, _GRID, 0.25)
    (cx, cy) = reg.constraints[0].center
    return [tuple(q) for q in feasible if (q[0] - cx) ** 2 + (q[1] - cy) ** 2 == sq_radius]


EXACT = {
    # four grid points on lower^2 = 1/4, and six on upper^2 = 25/16 (offsets
    # (3/4, 1), (1, 3/4) and (5/4, 0))
    "on both bounds": (
        [((0.25, -0.25), 0.5, 1.25)],
        [(0.25, -0.25), (0.9, 0.6), (-0.6, -0.9)],
        lambda reg: len(_points_at(reg, 0.25)) == 4 and len(_points_at(reg, 1.5625)) == 6,
    ),
    # a circle: lower == upper, through the eight points at offsets (3/4, 1)
    "zero width": (
        [((0.0, 0.0), 1.25, 1.25)],
        [(0.0, 0.0), (0.1, 0.7), (-0.9, 0.2)],
        lambda reg: len(_points_at(reg, 1.5625)) == 8,
    ),
    # the center lies on the grid row y = 1/4, where the offset is exactly 0
    "center on a row": (
        [((0.1, 0.25), 0.25, 0.6)],
        [(0.1, 0.25), (0.5, 0.25), (-0.4, -0.7)],
        lambda reg: {q[0] < 0.1 for q in ref.feasible_grid(reg, _GRID, 0.25)[1] if q[1] == 0.25}
        == {True, False},
    ),
    # column x = 0 holds y in {-1, -3/4, -1/2}, {1/2} and {1}: the ring
    # [1/2, 1] around the origin, less the hole of radius 1/4 around (0, 3/4)
    "three pieces": (
        [((0.0, 0.0), 0.5, 1.0), ((0.0, 0.75), 0.25, 4.0)] + _STRIP,
        [(0.0, 0.75), (0.0, 0.0), (0.2, -0.1)],
        lambda reg: [q[1] for q in ref.feasible_grid(reg, _GRID, 0.25)[1]]
        == [-1.0, -0.75, -0.5, 0.5, 1.0],
    ),
    # (0, -1/2) and (0, 1/2) are equally near (0.3, 0): the two pieces of
    # the column are symmetric about p_y, and the first row wins
    "symmetric tie": (
        [((0.0, 0.0), 0.5, 1.0)] + _STRIP,
        [(0.3, 0.0), (0.0, 0.0), (-0.1, 0.0)],
        lambda reg: ref.project(reg, (0.3, 0.0), _GRID, 0.25) == (0.0, -0.5),
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT))
def test_oracles_equal_exhaustive_reference_on_exact_boundaries(name):
    cons, points, shape = EXACT[name]
    reg = geom.region(cons)
    assert shape(reg)
    _assert_intervals_match_mask(reg, _GRID, 0.25)
    _assert_matches_reference(reg, points, bbox=_GRID, resolution=0.25)
    _assert_hull_matches_qhull(reg, _GRID, 0.25)


@pytest.mark.parametrize(
    "oracle", [geom.relaxed_center_value, geom.grid_chebyshev_center], ids=lambda f: f.__name__
)
def test_oracle_memory_stays_bounded_at_fine_resolution(oracle):
    # the ring at the CLI's default resolution is a 4009 x 4009 grid: one
    # float array over it is 123 MiB, and whole-grid scans peaked at 613 MiB
    # (relaxed) and 169 MiB (Chebyshev); row blocks keep each under 32 MiB
    reg = geom.region([((0.0, 0.0), 1.0, 2.0)])
    xs, ys = geom._grid(reg, None, 1e-3)
    assert (len(xs), len(ys)) == (4009, 4009)
    tracemalloc.start()
    try:
        oracle(reg, resolution=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_scan_window_holds_minimizer_on_its_edge():
    # The feasible grid points are a = (1/4, 1/2) and b = (1/2, 3/4) only, so
    # the enclosing circle has c = (3/8, 5/8) and R^2 = 1/32.  The grid point
    # nearest c is (1/2, 1/2), and (1/4, 3/4) ties with it at worst case
    # 1/16; the tie goes to (1/4, 3/4), which is first in x-major order and
    # lies exactly on the disc |p - c|^2 = worst - R^2 that bounds the window.
    r = math.sqrt(0.15625)
    reg = geom.region([((0.625, 0.375), r - 0.01, r + 0.01), ((0.375, 0.625), 0.0, 0.1875)])
    _, feasible = ref.feasible_grid(reg, _GRID, 0.25)
    assert feasible.tolist() == [[0.25, 0.5], [0.5, 0.75]]
    res = geom.grid_chebyshev_center(reg, _GRID, 0.25)
    assert res == ref.chebyshev_center(reg, _GRID, 0.25)
    assert res.center == (0.25, 0.75)
    (cx, cy), r2, _ = geom._enclosing_circle(feasible)
    edge = (res.center[0] - cx) ** 2 + (res.center[1] - cy) ** 2
    assert edge == res.radius**2 - r2
    _assert_window_holds_minimizer(reg, _GRID, 0.25)


def _brute_force_circle(points):
    """Smallest squared radius over circles through two or three points that
    enclose every point."""
    best = 0.0 if len(points) == 1 else math.inf
    n = len(points)
    candidates = []
    for i in range(n):
        for j in range(i + 1, n):
            candidates.append(0.5 * (points[i] + points[j]))
            for k in range(j + 1, n):
                (ax, ay), (bx, by), (px, py) = points[i], points[j], points[k]
                bx, by, px, py = bx - ax, by - ay, px - ax, py - ay
                d = 2.0 * (bx * py - by * px)
                if d != 0.0:
                    b2, p2 = bx * bx + by * by, px * px + py * py
                    candidates.append(
                        np.array([ax + (py * b2 - by * p2) / d, ay + (bx * p2 - px * b2) / d])
                    )
    for c in candidates:
        best = min(best, float(np.max(np.sum((points - c) ** 2, axis=1))))
    return best


@given(
    st.lists(
        st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
        min_size=1,
        max_size=9,
        unique=True,
    ),
    st.floats(0.01, 2.0),
)
@settings(max_examples=80, deadline=None)
def test_enclosing_circle_is_the_minimum_one(lattice, scale):
    points = np.array(lattice, dtype=float) * scale
    center, r2, support = geom._enclosing_circle(points)
    # the recursion on Python floats returns the numpy recursion's circle
    want_center, want_r2, want_support = ref.enclosing_circle(points)
    assert center == tuple(want_center.tolist())
    assert r2 == want_r2
    assert support == tuple(map(tuple, want_support.tolist()))
    support = np.array(support)
    d2 = np.sum((points - center) ** 2, axis=1)
    assert np.all(d2 <= r2 * (1 + 1e-12))
    s2 = np.sum((support - center) ** 2, axis=1)
    assert np.allclose(s2, r2, rtol=1e-12, atol=0.0)
    assert all(any(np.array_equal(s, q) for q in points) for s in support)
    assert r2 == pytest.approx(_brute_force_circle(points), rel=1e-9, abs=0.0)
