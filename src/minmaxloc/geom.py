"""Brute-force grid oracles for single-sensor feasible regions.

A single sensor constrained by range intervals to fixed points lives in an
intersection of annuli:

    region = { p : lower_k <= |p - center_k| <= upper_k  for all k }.

This module computes trusted reference answers for that geometry the slow
way, on a regular grid:

* the Chebyshev center (the point minimizing the worst-case distance to the
  region, which need not itself be feasible),
* the projection of a point onto the region,
* the optimal value and maximizer of the lifted relaxation that the SDP
  estimators solve, so their output can be checked against something that
  shares no code with them.

Grid convention: a box ((xlo, xhi), (ylo, yhi)) and a resolution h induce
points (xlo + ix*h, ylo + iy*h) for integer ix, iy >= 0 up to the box edge.
Ties between grid points are always broken by the lexicographically smallest
(ix, iy), which is the first index in x-major enumeration order.  All sets
are closed: membership tests include boundaries.

The only shortcut taken is in the max-distance scans: the farthest feasible
grid point from any candidate is an extreme point of the feasible points'
convex hull (squared distance is convex), so scanning hull vertices gives
bit-identical answers to scanning every feasible point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import NetworkScenario, IntervalBound

BBox = Tuple[Tuple[float, float], Tuple[float, float]]

DEFAULT_RESOLUTION = 1e-3

_CHUNK = 16384


class EmptyRegionError(ValueError):
    """The region contains no grid point at the requested resolution."""


@dataclass(frozen=True)
class AnnulusConstraint:
    center: Tuple[float, float]
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower < 0 or self.upper < self.lower:
            raise ValueError(f"bad annulus bounds [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class FeasibleRegion:
    """Intersection of annuli around fixed centers (one unknown sensor)."""

    constraints: Tuple[AnnulusConstraint, ...]

    def __post_init__(self):
        if not self.constraints:
            raise ValueError("region needs at least one constraint")


@dataclass(frozen=True)
class ChebyshevResult:
    center: Tuple[float, float]
    radius: float
    grid_resolution: float


def region(constraints: Sequence[Tuple[Tuple[float, float], float, float]]) -> FeasibleRegion:
    """Build a region from (center, lower, upper) triples."""
    return FeasibleRegion(tuple(AnnulusConstraint(c, lo, hi) for c, lo, hi in constraints))


def single_sensor_region(
    scenario: NetworkScenario, intervals: dict
) -> FeasibleRegion:
    """Feasible region of the one sensor in a single-sensor scenario."""
    if len(scenario.sensors) != 1 or scenario.sensor_edges:
        raise ValueError("grid oracle regions only cover single-sensor scenarios")
    cons = []
    for (i, k) in sorted(scenario.anchor_edges):
        b: IntervalBound = intervals[(i, k)]
        cons.append(AnnulusConstraint(scenario.anchors[k], b.lower, b.upper))
    if not cons:
        raise ValueError("the sensor has no anchor edges")
    return FeasibleRegion(tuple(cons))


def membership(reg: FeasibleRegion, p: Sequence[float]) -> bool:
    """Closed-set membership: boundary points belong to the region."""
    px, py = float(p[0]), float(p[1])
    for c in reg.constraints:
        d = math.hypot(px - c.center[0], py - c.center[1])
        if d < c.lower or d > c.upper:
            return False
    return True


def default_bbox(reg: FeasibleRegion, resolution: float = DEFAULT_RESOLUTION) -> BBox:
    """Axis-aligned box guaranteed to contain the region.

    Every feasible point lies within upper_k of every center, so the
    intersection of the per-constraint squares already contains the region;
    a few cells of padding absorb grid rounding.  The Chebyshev center also
    lives here: it is a convex combination of feasible points.
    """
    xlo = max(c.center[0] - c.upper for c in reg.constraints)
    xhi = min(c.center[0] + c.upper for c in reg.constraints)
    ylo = max(c.center[1] - c.upper for c in reg.constraints)
    yhi = min(c.center[1] + c.upper for c in reg.constraints)
    if xlo > xhi:
        xlo = xhi = 0.5 * (xlo + xhi)
    if ylo > yhi:
        ylo = yhi = 0.5 * (ylo + yhi)
    pad = 4.0 * resolution
    return ((xlo - pad, xhi + pad), (ylo - pad, yhi + pad))


def _grid_axes(bbox: BBox, resolution: float) -> Tuple[np.ndarray, np.ndarray]:
    (xlo, xhi), (ylo, yhi) = bbox
    nx = int(math.floor((xhi - xlo) / resolution + 1e-9)) + 1
    ny = int(math.floor((yhi - ylo) / resolution + 1e-9)) + 1
    return xlo + np.arange(nx) * resolution, ylo + np.arange(ny) * resolution


def _grid_points(bbox: BBox, resolution: float) -> np.ndarray:
    """All grid points, x-major (lexicographic (ix, iy)) order, shape (N, 2)."""
    xs, ys = _grid_axes(bbox, resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _feasible_mask(points: np.ndarray, reg: FeasibleRegion) -> np.ndarray:
    mask = np.ones(len(points), dtype=bool)
    for c in reg.constraints:
        d2 = (points[:, 0] - c.center[0]) ** 2 + (points[:, 1] - c.center[1]) ** 2
        mask &= (d2 >= c.lower**2) & (d2 <= c.upper**2)
    return mask


def _extreme_points(feasible: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of the feasible grid points.

    Falls back to the full point set when the hull is degenerate (fewer than
    three points, or all collinear); correctness never depends on the hull,
    only speed does.
    """
    if len(feasible) < 3:
        return feasible
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(feasible)
    except QhullError:
        return feasible
    return feasible[hull.vertices]


def _feasible_grid(
    reg: FeasibleRegion, bbox: Optional[BBox], resolution: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The grid over ``bbox`` (default: :func:`default_bbox`) and its
    feasible points, both in x-major order.

    Raises :class:`EmptyRegionError` when no grid point is feasible.
    """
    if bbox is None:
        bbox = default_bbox(reg, resolution)
    points = _grid_points(bbox, resolution)
    mask = _feasible_mask(points, reg)
    if not mask.any():
        raise EmptyRegionError(f"no feasible grid point at resolution {resolution}")
    return points, points[mask]


def _min_max_distance(
    candidates: np.ndarray, targets: np.ndarray
) -> Tuple[int, float]:
    """Index (first on ties) and value of min over candidates of max distance."""
    best_idx = -1
    best = np.inf
    for start in range(0, len(candidates), _CHUNK):
        chunk = candidates[start : start + _CHUNK]
        dx = chunk[:, 0:1] - targets[None, :, 0]
        dy = chunk[:, 1:2] - targets[None, :, 1]
        worst = np.max(dx * dx + dy * dy, axis=1)
        i = int(np.argmin(worst))
        if worst[i] < best:
            best = float(worst[i])
            best_idx = start + i
    return best_idx, math.sqrt(best)


def grid_chebyshev_center(
    reg: FeasibleRegion,
    bbox: Optional[BBox] = None,
    resolution: float = DEFAULT_RESOLUTION,
) -> ChebyshevResult:
    """Chebyshev center of the region by exhaustive grid search.

    Enumerates the feasible grid points F, then returns the grid point (not
    necessarily feasible) minimizing the maximum distance to F, together
    with that maximum.  Raises :class:`EmptyRegionError` when F is empty.
    """
    points, feasible = _feasible_grid(reg, bbox, resolution)
    targets = _extreme_points(feasible)
    idx, radius = _min_max_distance(points, targets)
    cx, cy = points[idx]
    return ChebyshevResult((float(cx), float(cy)), radius, resolution)


def project_to_region(
    reg: FeasibleRegion,
    p: Sequence[float],
    bbox: Optional[BBox] = None,
    resolution: float = DEFAULT_RESOLUTION,
) -> Tuple[float, float]:
    """Feasible grid point nearest to ``p`` (lexicographic tie-break)."""
    _, feas = _feasible_grid(reg, bbox, resolution)
    d2 = (feas[:, 0] - float(p[0])) ** 2 + (feas[:, 1] - float(p[1])) ** 2
    q = feas[int(np.argmin(d2))]
    return (float(q[0]), float(q[1]))


def grid_max_distance(
    reg: FeasibleRegion,
    p: Sequence[float],
    bbox: Optional[BBox] = None,
    resolution: float = DEFAULT_RESOLUTION,
) -> float:
    """Largest distance from ``p`` to any feasible grid point."""
    _, feasible = _feasible_grid(reg, bbox, resolution)
    targets = _extreme_points(feasible)
    dx = targets[:, 0] - float(p[0])
    dy = targets[:, 1] - float(p[1])
    return math.sqrt(float(np.max(dx * dx + dy * dy)))


def relaxed_center_value(
    reg: FeasibleRegion,
    bbox: Optional[BBox] = None,
    resolution: float = DEFAULT_RESOLUTION,
) -> Tuple[Tuple[float, float], float]:
    """Grid solution of the lifted relaxation of the minimax problem.

    The SDP estimators replace |p - center_k|^2 by a shared lifted variable,
    which turns the worst-case-distance objective into

        maximize   U(y) = min_k ( upper_k^2 - |y - center_k|^2 )
        subject to max_k ( lower_k^2 - |y - center_k|^2 ) <= U(y),  U(y) >= 0,

    over candidate estimates y; the maximizer is the relaxed estimate and the
    optimum is the certified squared worst-case radius.  This routine solves
    that program by scanning the grid, giving an independent check of the
    solver-based path.  U is a minimum of strictly concave quadratics, hence
    strictly concave, so the continuous maximizer is unique.
    """
    if bbox is None:
        bbox = default_bbox(reg, resolution)
    points = _grid_points(bbox, resolution)
    upper_env = np.full(len(points), np.inf)
    lower_env = np.full(len(points), -np.inf)
    for c in reg.constraints:
        d2 = (points[:, 0] - c.center[0]) ** 2 + (points[:, 1] - c.center[1]) ** 2
        upper_env = np.minimum(upper_env, c.upper**2 - d2)
        lower_env = np.maximum(lower_env, c.lower**2 - d2)
    ok = (lower_env <= upper_env) & (upper_env >= 0.0)
    if not ok.any():
        raise EmptyRegionError(
            f"relaxed region has no feasible grid point at resolution {resolution}"
        )
    values = np.where(ok, upper_env, -np.inf)
    idx = int(np.argmax(values))
    return (float(points[idx, 0]), float(points[idx, 1])), float(values[idx])
