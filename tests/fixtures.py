"""Hand-built single-sensor fixtures shared by the geometry and SDP tests.

Each fixture is a scenario with one sensor plus explicit interval bounds,
so the feasible set is an intersection of annuli that the grid oracles in
``minmaxloc.geom`` can measure directly.  Analytic values, where a fixture
has one, were derived on paper:

* diamond: four anchors at distance 1 from the origin, every interval
  [0, sqrt(2)].  The relaxed worst-case value is exactly 1 (attained at the
  origin), while the true region is the lens-cornered square with Chebyshev
  radius sqrt(2 - sqrt(3)).
* disc: one anchor, interval [0, 0.9995]; relaxed value and squared
  Chebyshev radius are both 0.9995^2.  The radius is deliberately not a
  multiple of the grid step, so grid measurements of R_c sit strictly
  below the exact value instead of tying it.
* ring: one anchor, interval [1, 2]; the Chebyshev center is the annulus
  center (infeasible), radius 2, and the relaxed value is exactly 4.
"""

import math
from typing import Dict, Optional, Tuple

from minmaxloc.model import Edge, IntervalBound, NetworkScenario, Point2


def contains(bound: IntervalBound, d: float) -> bool:
    return bound.lower <= d <= bound.upper


def realized_errors(scenario: NetworkScenario) -> Dict[Edge, float]:
    """Per-edge measurement error z - d implied by the ground truth."""
    return {e: scenario.measurements[e] - scenario.true_distance(e) for e in scenario.all_edges()}


def single_sensor_fixture(
    anchors: Dict[int, Point2],
    intervals: Dict[int, Tuple[float, float]],
    truth: Point2 = (0.0, 0.0),
) -> Tuple[NetworkScenario, Dict[Edge, IntervalBound]]:
    """Scenario with sensor 0 and explicit per-anchor interval bounds."""
    edges = tuple(sorted((0, k) for k in anchors))
    bounds = {(0, k): IntervalBound(*intervals[k]) for k in anchors}
    scen = NetworkScenario(
        sensors=(0,),
        anchors=dict(anchors),
        true_positions={0: truth},
        sensor_edges=(),
        anchor_edges=edges,
        measurements={(0, k): 0.5 * (intervals[k][0] + intervals[k][1]) for k in anchors},
        gamma=max(0.5 * (u - l) for l, u in intervals.values()),
        sensing_range=10.0,
    )
    return scen, bounds


R2 = math.sqrt(2.0)

# Fixtures with convex feasible regions (plus the diamond, whose region is
# convex but whose relaxation is loose).  Values: analytic relaxed worst-case
# value where known, else None.
ORACLE_FIXTURES = {
    "diamond": (
        single_sensor_fixture(
            {1: (1.0, 0.0), 2: (-1.0, 0.0), 3: (0.0, 1.0), 4: (0.0, -1.0)},
            {1: (0.0, R2), 2: (0.0, R2), 3: (0.0, R2), 4: (0.0, R2)},
        ),
        1.0,
    ),
    "disc": (
        single_sensor_fixture({1: (0.0, 0.0)}, {1: (0.0, 0.9995)}),
        0.9995**2,
    ),
    "lens": (
        single_sensor_fixture(
            {1: (-0.5, 0.0), 2: (0.5, 0.0)}, {1: (0.0, 1.0), 2: (0.0, 1.0)}
        ),
        0.75,
    ),
    "corner": (
        single_sensor_fixture(
            {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (0.0, 1.0)},
            {
                1: (0.4, 0.6),
                2: (math.sqrt(0.65) - 0.1, math.sqrt(0.65) + 0.1),
                3: (math.sqrt(0.45) - 0.1, math.sqrt(0.45) + 0.1),
            },
            truth=(0.3, 0.4),
        ),
        None,
    ),
    "offset": (
        single_sensor_fixture(
            {1: (-0.2, 0.1), 2: (0.4, -0.3)}, {1: (0.0, 0.8), 2: (0.2, 0.9)}
        ),
        None,
    ),
}

def trilateration_instance() -> NetworkScenario:
    """Ten-sensor exact-measurement network where every relaxation is tight.

    Sensors sit on a golden-angle spiral inside the disc of radius 0.08
    around the origin, which keeps each of them within sensing range of at
    least three of the four corner anchors.  With three direct anchors and
    exact distances every per-node program has a singleton feasible set, so
    both the centralized solve and the distributed run recover the truth to
    solver precision.
    """
    golden = 2.399963229728653
    positions: Dict[int, Point2] = {}
    for k in range(10):
        r = 0.08 * math.sqrt((k + 1) / 10.0)
        positions[k] = (r * math.cos(k * golden), r * math.sin(k * golden))
    anchors = {10: (0.3, 0.3), 11: (-0.3, 0.3), 12: (0.3, -0.3), 13: (-0.3, -0.3)}
    rng = 0.5

    sensor_edges = tuple(
        (i, j) for i in range(10) for j in range(i + 1, 10)
    )
    anchor_edges = tuple(
        (i, k)
        for i in range(10)
        for k in sorted(anchors)
        if math.dist(positions[i], anchors[k]) <= rng
    )
    measurements = {e: math.dist(positions[e[0]], positions[e[1]]) for e in sensor_edges}
    measurements.update(
        {(i, k): math.dist(positions[i], anchors[k]) for (i, k) in anchor_edges}
    )
    return NetworkScenario(
        sensors=tuple(range(10)),
        anchors=anchors,
        true_positions=positions,
        sensor_edges=sensor_edges,
        anchor_edges=anchor_edges,
        measurements=measurements,
        gamma=0.0,
        sensing_range=rng,
    )


def relay_chain_instance() -> NetworkScenario:
    """Sensor 0 sees every anchor exactly; sensor 1 only sees sensor 0.

    The relay-only sensor starts with a loose propagated region, then its
    first refinement round collapses onto the ring around its neighbor, so
    the run needs two rounds and a one-round cap leaves it unconverged.
    """
    anchors = {10: (0.3, 0.3), 11: (-0.3, 0.3), 12: (0.3, -0.3), 13: (-0.3, -0.3)}
    truth = {0: (0.0, 0.0), 1: (0.45, 0.0)}
    meas = {(0, k): math.dist(truth[0], anchors[k]) for k in anchors}
    meas[(0, 1)] = 0.45
    return NetworkScenario(
        sensors=(0, 1),
        anchors=anchors,
        true_positions=truth,
        sensor_edges=((0, 1),),
        anchor_edges=tuple((0, k) for k in sorted(anchors)),
        measurements=meas,
        gamma=0.0,
        sensing_range=1.0,
    )


# Non-convex feasible regions for the projection bound R_c <= R_p <= 2 R_c.
NONCONVEX_FIXTURES = {
    "ring": single_sensor_fixture({1: (0.0, 0.0)}, {1: (1.0, 2.0)}),
    "crescent": single_sensor_fixture(
        {1: (0.0, 0.0), 2: (1.2, 0.0)}, {1: (0.9, 1.1), 2: (0.8, 10.0)}
    ),
    "islands": single_sensor_fixture(
        {1: (-1.0, 0.0), 2: (1.0, 0.0)}, {1: (0.95, 1.15), 2: (0.95, 1.15)}
    ),
    "horseshoe": single_sensor_fixture(
        {1: (0.0, 0.0), 2: (0.0, -1.0)}, {1: (0.8, 1.2), 2: (0.7, 10.0)}
    ),
    "kidney": single_sensor_fixture(
        {1: (0.0, 0.0), 2: (0.9, 0.0)}, {1: (0.5, 1.5), 2: (0.0, 1.2)}
    ),
}
