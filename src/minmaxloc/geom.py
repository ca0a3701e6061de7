"""Exact grid oracles for single-sensor feasible regions.

A single sensor constrained by range intervals to fixed points lives in an
intersection of annuli:

    region = { p : lower_k <= |p - center_k| <= upper_k  for all k }.

This module computes trusted reference answers for that geometry on a
regular grid, with the answers of an exhaustive scan:

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

Four shortcuts save memory or work without changing any answer, tie-breaks
included:

* Row blocks.  Every scan of the whole grid (the feasibility mask behind
  the column extremes and the projection, and the relaxed program's
  envelopes) walks it in blocks of whole grid columns, ix ranges of at most
  ``_BLOCK_POINTS`` points, in x-major order, and forms its arrays for one
  block at a time.  A later block's best point replaces the best so far
  only when it is strictly better, so the first best point of the whole
  grid wins, as in one scan.  Memory is one block plus the column extremes,
  whatever the resolution.
* Column extremes.  Within one grid column the squared distance from any
  point grows with the y-offset, and so does its rounded value, so the
  farthest feasible point of a column is its lowest or its highest.  The
  other feasible points of a column lie on the segment between those two.
* Hull vertices.  The farthest feasible grid point from any point is an
  extreme point of the feasible points' convex hull (squared distance is
  convex), and by the above every hull vertex is a column extreme; the
  max-distance scans visit only the hull vertices of the column extremes.
* Pruned Chebyshev scan.  The worst case from p is at least R^2 + |p - c|^2
  for the minimum enclosing circle (c, R) of those vertices, so only a small
  window of grid points around c can beat the grid point nearest c.  The
  window is a rectangle of whole rows and columns, so scanning it in x-major
  order keeps the global tie-break (see ``_scan_window``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .model import NetworkScenario, IntervalBound

BBox = Tuple[Tuple[float, float], Tuple[float, float]]

DEFAULT_RESOLUTION = 1e-3

# Grid points per row block of a scan (see "Row blocks" above): a block's
# float arrays stay in cache, and larger blocks measured slower.
_BLOCK_POINTS = 1 << 15


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
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    (xlo, xhi), (ylo, yhi) = bbox
    nx = int(math.floor((xhi - xlo) / resolution + 1e-9)) + 1
    ny = int(math.floor((yhi - ylo) / resolution + 1e-9)) + 1
    return xlo + np.arange(nx) * resolution, ylo + np.arange(ny) * resolution


def _sq_dist(xs: np.ndarray, ys: np.ndarray, p: Sequence[float]) -> np.ndarray:
    """Squared distance from ``p`` to every point of the grid block xs × ys."""
    return ((xs - p[0]) ** 2)[:, None] + ((ys - p[1]) ** 2)[None, :]


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


def _block_rows(ny: int) -> int:
    """Grid columns per row block: at most ``_BLOCK_POINTS`` points, and at
    least one column."""
    return max(_BLOCK_POINTS // max(ny, 1), 1)


def _row_blocks(xs: np.ndarray, ny: int) -> Iterator[np.ndarray]:
    """The x-axis of each row block, in order."""
    step = _block_rows(ny)
    return (xs[start : start + step] for start in range(0, len(xs), step))


def _grid(
    reg: FeasibleRegion, bbox: Optional[BBox], resolution: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The grid axes over ``bbox`` (default: :func:`default_bbox`)."""
    if bbox is None:
        bbox = default_bbox(reg, resolution)
    return _grid_axes(bbox, resolution)


def _feasible_blocks(
    reg: FeasibleRegion, xs: np.ndarray, ys: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The feasibility mask one row block at a time, in x-major order: yields
    each block's x-axis ``bx`` and its mask, where ``mask[i, iy]`` is the
    grid point (bx[i], ys[iy]).  No mask of the whole grid is formed."""
    for bx in _row_blocks(xs, len(ys)):
        mask = np.ones((len(bx), len(ys)), dtype=bool)
        for c in reg.constraints:
            d2 = _sq_dist(bx, ys, c.center)
            mask &= (d2 >= c.lower**2) & (d2 <= c.upper**2)
        yield bx, mask


def _empty(resolution: float) -> EmptyRegionError:
    return EmptyRegionError(f"no feasible grid point at resolution {resolution}")


def _column_extremes(xs: np.ndarray, ys: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Lowest and highest feasible point of every grid column, x-major."""
    cols = np.flatnonzero(mask.any(axis=1))
    sub = mask[cols]
    first = sub.argmax(axis=1)
    last = len(ys) - 1 - sub[:, ::-1].argmax(axis=1)
    ix = np.repeat(cols, 2)
    iy = np.column_stack([first, last]).ravel()
    keep = np.ones(len(ix), dtype=bool)
    keep[1::2] = last != first
    return np.column_stack([xs[ix[keep]], ys[iy[keep]]])


def _targets(
    reg: FeasibleRegion, bbox: Optional[BBox], resolution: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid axes and the feasible points a max-distance scan must visit.

    Raises :class:`EmptyRegionError` when no grid point is feasible.
    """
    xs, ys = _grid(reg, bbox, resolution)
    extremes = [_column_extremes(bx, ys, mask) for bx, mask in _feasible_blocks(reg, xs, ys)]
    if not any(len(e) for e in extremes):
        raise _empty(resolution)
    return xs, ys, _extreme_points(np.concatenate(extremes))


def _worst_case(xs: np.ndarray, ys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Largest squared distance to ``targets`` from every grid point, (nx, ny)."""
    dx = xs[:, None] - targets[None, :, 0]
    dy = ys[:, None] - targets[None, :, 1]
    return np.max((dx * dx)[:, None, :] + (dy * dy)[None, :, :], axis=2)


_Circle = Tuple[np.ndarray, float, np.ndarray]


def _circle_through(support: np.ndarray) -> _Circle:
    """(center, squared radius, support) of the circle through one point, the
    circle with two points as its diameter, or the circle through three."""
    if len(support) == 1:
        center = support[0]
    elif len(support) == 2:
        center = 0.5 * (support[0] + support[1])
    else:
        (ax, ay), (bx, by), (px, py) = support.tolist()
        bx, by, px, py = bx - ax, by - ay, px - ax, py - ay
        d = 2.0 * (bx * py - by * px)
        b2, p2 = bx * bx + by * by, px * px + py * py
        center = np.array([ax + (py * b2 - by * p2) / d, ay + (bx * p2 - px * b2) / d])
    off = support - center
    return center, float(np.max(off[:, 0] ** 2 + off[:, 1] ** 2)), support


def _first_outside(points: np.ndarray, start: int, circle: _Circle) -> Optional[int]:
    """Index of the first point from ``start`` on outside ``circle``, if any."""
    center, r2, _ = circle
    off = points[start:] - center
    out = np.flatnonzero(off[:, 0] ** 2 + off[:, 1] ** 2 > r2)
    return start + int(out[0]) if len(out) else None


def _circle_with(points: np.ndarray, fixed: np.ndarray) -> _Circle:
    """Smallest circle that encloses ``points`` with ``fixed`` on its boundary."""
    if len(fixed) == 3:
        return _circle_through(fixed)
    start = 0 if len(fixed) else 1
    circle = _circle_through(fixed if len(fixed) else points[:1])
    i = _first_outside(points, start, circle)
    while i is not None:
        circle = _circle_with(points[:i], np.vstack([fixed, points[i : i + 1]]))
        i = _first_outside(points, i + 1, circle)
    return circle


def _enclosing_circle(points: np.ndarray) -> _Circle:
    """Minimum enclosing circle of an (n, 2) array (Welzl 1991).

    Returns the center, the squared radius and the one to three support
    points the circle passes through.  Points are visited in an order drawn
    from a fixed seed, which keeps the expected work linear in n and the
    result the same on every call.
    """
    order = np.random.default_rng(0).permutation(len(points))
    return _circle_with(points[order], points[:0])


# Relative shrink of the enclosing circle's squared radius in the pruning
# bound; see _scan_window.
_R2_SHRINK = 1e-9


def _axis_window(axis: np.ndarray, center: float, rad: float, h: float) -> slice:
    """Indices of ``axis`` within ``rad`` of ``center``, plus one cell each side."""
    lo = math.floor((center - rad - axis[0]) / h) - 1
    hi = math.ceil((center + rad - axis[0]) / h) + 1
    return slice(max(lo, 0), min(hi, len(axis) - 1) + 1)


def _scan_window(
    xs: np.ndarray, ys: np.ndarray, targets: np.ndarray, resolution: float
) -> Tuple[slice, slice]:
    """Index ranges of the subgrid that holds every worst-case minimizer.

    Let (c, R) be the minimum enclosing circle of the targets.  Its center
    lies in the convex hull of the targets on the circle, so for any point
    p one of them, s, satisfies (s - c)·(p - c) <= 0, and then

        max_t |p - t|^2 >= |p - s|^2 >= R^2 + |p - c|^2.

    With ``best`` the worst case at the grid point nearest c, every grid
    point whose worst case is at most ``best`` (ties included) lies within
    sqrt(best - R^2) of c, so the rectangle around that disc holds the
    global minimizer, and scanning it in x-major order meets the first
    minimizer first.  Rounding moves R^2 and the computed worst cases by a
    few ulps relative, which the 1e-9 relative shrink of R^2 covers, and it
    moves c and the index arithmetic by far less than the extra cell on
    every side.
    """
    center, r2, _ = _enclosing_circle(targets)
    h = resolution
    ix = min(max(round((center[0] - xs[0]) / h), 0), len(xs) - 1)
    iy = min(max(round((center[1] - ys[0]) / h), 0), len(ys) - 1)
    best = float(_worst_case(xs[ix : ix + 1], ys[iy : iy + 1], targets)[0, 0])
    rad = math.sqrt(max(best - (1.0 - _R2_SHRINK) * r2, 0.0))
    return (
        _axis_window(xs, float(center[0]), rad, h),
        _axis_window(ys, float(center[1]), rad, h),
    )


def grid_chebyshev_center(
    reg: FeasibleRegion,
    bbox: Optional[BBox] = None,
    resolution: float = DEFAULT_RESOLUTION,
) -> ChebyshevResult:
    """Chebyshev center of the region over the grid.

    Returns the grid point (not necessarily feasible) minimizing the maximum
    distance to the feasible grid points F, together with that maximum; the
    answer is the exhaustive scan's, tie-break included.  Raises
    :class:`EmptyRegionError` when F is empty.
    """
    xs, ys, targets = _targets(reg, bbox, resolution)
    sx, sy = _scan_window(xs, ys, targets, resolution)
    worst = _worst_case(xs[sx], ys[sy], targets)
    i, j = np.unravel_index(int(np.argmin(worst)), worst.shape)
    return ChebyshevResult(
        (float(xs[sx][i]), float(ys[sy][j])), math.sqrt(float(worst[i, j])), resolution
    )


def project_to_region(
    reg: FeasibleRegion,
    p: Sequence[float],
    bbox: Optional[BBox] = None,
    resolution: float = DEFAULT_RESOLUTION,
) -> Tuple[float, float]:
    """Feasible grid point nearest to ``p`` (lexicographic tie-break)."""
    xs, ys = _grid(reg, bbox, resolution)
    best = None  # (squared distance, x, y) of the first nearest point so far
    for bx, mask in _feasible_blocks(reg, xs, ys):
        ix, iy = np.nonzero(mask)
        if not len(ix):
            continue
        d2 = (bx[ix] - float(p[0])) ** 2 + (ys[iy] - float(p[1])) ** 2
        k = int(np.argmin(d2))
        if best is None or d2[k] < best[0]:
            best = (d2[k], bx[ix[k]], ys[iy[k]])
    if best is None:
        raise _empty(resolution)
    return (float(best[1]), float(best[2]))


def grid_max_distance(
    reg: FeasibleRegion,
    p: Sequence[float],
    bbox: Optional[BBox] = None,
    resolution: float = DEFAULT_RESOLUTION,
) -> float:
    """Largest distance from ``p`` to any feasible grid point."""
    _, _, targets = _targets(reg, bbox, resolution)
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
    xs, ys = _grid(reg, bbox, resolution)
    best = None  # (value, x, y) of the first maximizer so far
    for bx in _row_blocks(xs, len(ys)):
        upper_env = np.full((len(bx), len(ys)), np.inf)
        lower_env = np.full((len(bx), len(ys)), -np.inf)
        for c in reg.constraints:
            d2 = _sq_dist(bx, ys, c.center)
            np.minimum(upper_env, c.upper**2 - d2, out=upper_env)
            np.maximum(lower_env, c.lower**2 - d2, out=lower_env)
        ok = (lower_env <= upper_env) & (upper_env >= 0.0)
        if not ok.any():
            continue
        values = np.where(ok, upper_env, -np.inf)
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        if best is None or values[i, j] > best[0]:
            best = (values[i, j], bx[i], ys[j])
    if best is None:
        raise EmptyRegionError(
            f"relaxed region has no feasible grid point at resolution {resolution}"
        )
    return (float(best[1]), float(best[2])), float(best[0])
