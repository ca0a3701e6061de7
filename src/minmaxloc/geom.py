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

These shortcuts save memory or work without changing any answer, tie-breaks
included:

* Column intervals.  Along one grid column the rounded squared distance to
  a point falls row by row down to that point's row and then rises, since
  rounding is monotone.  So each annulus holds at most two intervals of
  rows per column, and ``_column_intervals`` finds them exactly: from the
  row where the exact circle crosses the column, each bound moves until the
  mask's own comparison changes there.  The Chebyshev center, the
  projection and the largest distance work from these intervals, at a cost
  that grows with columns times annuli rather than with grid points.
* Column extremes.  By the same valley shape, the farthest feasible point
  of a column from any point is its lowest or its highest, and the other
  feasible points of the column lie on the segment between those two.  The
  largest distance is the largest over the column extremes, and the
  nearest feasible point of a column is the first feasible row at or above
  the query's row or the last one below it.
* Hull vertices.  The farthest feasible grid point from any point is an
  extreme point of the feasible points' convex hull (squared distance is
  convex), and by the above every hull vertex is a column extreme; the
  Chebyshev scan visits only the hull vertices of the column extremes.
  ``_hull_vertices`` finds them in grid-index space, where the points are
  integers and a monotone chain's cross products are exact; it keeps only
  strictly convex turns, so a point inside an edge is dropped.  Any other
  feasible grid point m is a convex combination of vertices v_i != m, and
  then max_i |p - v_i|^2 >= |p - m|^2 + min_i |v_i - m|^2 >= |p - m|^2 + h^2
  for every p: a margin far above rounding, so the largest rounded squared
  distance to the vertices is the largest to every feasible point, bit for
  bit.
* Pruned Chebyshev scan.  The worst case from p is at least R^2 + |p - c|^2
  for the minimum enclosing circle (c, R) of those vertices, so only a small
  window of grid points around c can beat the grid point nearest c.  The
  window is a rectangle of whole rows and columns, so scanning it in x-major
  order keeps the global tie-break (see ``_scan_window``).
* Row blocks.  The relaxed program is the one scan of the whole grid.  It
  walks the grid in blocks of whole grid columns, ix ranges of at most
  ``_BLOCK_POINTS`` points, in x-major order, and forms its arrays for one
  block at a time.  A later block's best point replaces the best so far
  only when it is strictly better, so the first best point of the whole
  grid wins, as in one scan.  Memory is one block, whatever the resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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


def _block_rows(ny: int) -> int:
    """Grid columns per row block: at most ``_BLOCK_POINTS`` points, and at
    least one column."""
    return max(_BLOCK_POINTS // max(ny, 1), 1)


def _grid(
    reg: FeasibleRegion, bbox: Optional[BBox], resolution: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The grid axes over ``bbox`` (default: :func:`default_bbox`)."""
    if bbox is None:
        bbox = default_bbox(reg, resolution)
    return _grid_axes(bbox, resolution)


def _empty(resolution: float) -> EmptyRegionError:
    return EmptyRegionError(f"no feasible grid point at resolution {resolution}")


def _offsets(
    reg: FeasibleRegion, xs: np.ndarray, ys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each annulus's squared offsets on the grid, ``a`` (K, nx) for the
    columns and ``b`` (K, ny) for the rows, and its squared bounds
    ``lower2`` and ``upper2`` (K,).  Grid point (xs[i], ys[j]) lies in
    annulus k exactly when ``lower2[k] <= a[k, i] + b[k, j] <= upper2[k]``,
    the rounded sum of the rounded squares."""
    cons = reg.constraints
    return (
        np.array([(xs - c.center[0]) ** 2 for c in cons]),
        np.array([(ys - c.center[1]) ** 2 for c in cons]),
        np.array([c.lower**2 for c in cons]),
        np.array([c.upper**2 for c in cons]),
    )


# The four searches of _column_intervals, one per row: on the rising half
# of a column (rows j0 and up, where the squared distance s to the center
# never falls) s >= lower2 starts the interval and s > upper2 ends it; on
# the falling half (rows below j0) s <= upper2 starts it and s < lower2
# ends it.  Each test is false and then true along its half, and is written
# as side * s >= limit: negation is exact, and a strict test compares with
# the next float above instead.
_SIDE = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
_STRICT = np.array([False, True, False, True])[:, None]


def _column_intervals(
    reg: FeasibleRegion, xs: np.ndarray, ys: np.ndarray, resolution: float
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Each annulus's feasible rows in every grid column, as exact intervals.

    Returns the :func:`_offsets` and int arrays ``starts`` and ``ends`` of
    shape (K, 2, nx): grid point (xs[i], ys[j]) lies in annulus k exactly
    when ``starts[k, h, i] <= j < ends[k, h, i]`` for h = 0 (the rising half
    of the column) or h = 1 (the falling half).  Each bound starts from the
    row where the exact circle crosses the column and moves row by row until
    the mask's own comparison changes there.
    """
    offsets = _offsets(reg, xs, ys)
    a, b, lower2, upper2 = offsets
    ny = len(ys)
    cy = np.array([c.center[1] for c in reg.constraints])[:, None, None]
    j0 = np.array([np.searchsorted(ys - c.center[1], 0.0) for c in reg.constraints])
    lo = np.outer(j0, [1, 1, 0, 0])[:, :, None]
    hi = (np.outer(j0, [0, 0, 1, 1]) + [ny, ny, 0, 0])[:, :, None]
    bound = np.column_stack([lower2, upper2])[:, [0, 1, 1, 0], None]
    limit = np.where(_STRICT, np.nextafter(_SIDE * bound, np.inf), _SIDE * bound)
    a = a[:, None, :]
    cross = cy + _SIDE * np.sqrt(np.maximum(bound - a, 0.0))
    j = np.ceil((cross - (ys[0] if ny else 0.0)) / resolution)
    j = np.minimum(np.maximum(j, lo), hi).astype(np.intp)

    # b with one spare entry after each row, so that the reads at rows -1
    # and ny, which the range checks below discard, stay inside the array
    padded = np.zeros((len(j0), ny + 1))
    padded[:, :ny] = b
    padded = padded.ravel()
    base = (np.arange(len(j0)) * (ny + 1))[:, None, None]

    def holds(rows: np.ndarray) -> np.ndarray:
        return _SIDE * (a + padded.take(base + rows)) >= limit

    while True:
        back = (j > lo) & holds(j - 1)
        ahead = (j < hi) & ~holds(j)
        if not (back.any() or ahead.any()):
            break
        j += ahead
        j -= back
    return offsets, j[:, 0::2], j[:, 1::2]


def _inside(rows: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Whether row ``rows[m, i]`` of column i lies in every annulus, by the
    intervals of :func:`_column_intervals`; shape (M, nx)."""
    r = rows[:, None, None, :]
    return ((starts <= r) & (r < ends)).any(axis=2).all(axis=1)


def _feasible_columns(
    reg: FeasibleRegion, xs: np.ndarray, ys: np.ndarray, resolution: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid columns with a feasible point, ascending, and the row index
    of each one's lowest and highest feasible point.

    The lowest feasible row of a column is row 0 or a row whose lower
    neighbour some annulus excludes, so it starts one of that annulus's
    intervals: it is the least interval start that lies in every annulus.
    Likewise the highest is the greatest interval end that does.
    """
    _, starts, ends = _column_intervals(reg, xs, ys, resolution)
    ny = len(ys)
    s, e = np.concatenate(starts), np.concatenate(ends) - 1
    first = np.where(_inside(s, starts, ends), s, ny).min(axis=0)
    last = np.where(_inside(e, starts, ends), e, -1).max(axis=0)
    cols = np.flatnonzero(first < ny)
    return cols, first[cols], last[cols]


def _chain(x: np.ndarray, y: np.ndarray, turn: int) -> np.ndarray:
    """Positions, ascending, of the vertices of the lower (``turn`` = 1) or
    upper (``turn`` = -1) hull of the integer points (x[m], y[m]), x strictly
    ascending: the points where the chain turns strictly left, or right.

    Andrew's monotone chain (1979) on Python ints, so every cross product is
    exact.  Rounds of numpy first drop every point that does not turn
    strictly against its current neighbours, which no hull vertex does; they
    stop once a round drops less than an eighth of the points, and the chain
    runs on the rest.  On the ring of radii 1 and 2 at resolution 1e-3, four
    rounds leave each half of the hull its 4000 column extremes' 285 or so
    vertices, and the hull takes about 0.5 ms instead of 4 ms.
    """
    keep = np.arange(len(x))
    while len(keep) > 2:
        dx, dy = np.diff(x[keep]), np.diff(y[keep])
        convex = turn * (dx[:-1] * dy[1:] - dy[:-1] * dx[1:]) > 0
        dropped = len(convex) - int(np.count_nonzero(convex))
        keep = np.concatenate([keep[:1], keep[1:-1][convex], keep[-1:]])
        if 8 * dropped < len(keep):
            break
    px, py = x[keep].tolist(), y[keep].tolist()
    hull: List[int] = []
    for m in range(len(px)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (px[b] - px[a]) * (py[m] - py[a]) - (py[b] - py[a]) * (px[m] - px[a])
            if turn * cross > 0:
                break
            hull.pop()
        hull.append(m)
    return keep[hull]


def _hull_vertices(
    cols: np.ndarray, first: np.ndarray, last: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Grid indices (ix, iy) of the convex hull vertices of the column
    extremes of :func:`_feasible_columns`, counterclockwise from the lowest
    point of the first column.  Collinear points are not vertices: a flat
    set gives its two end points, and one point gives itself.

    The lower hull runs over the lowest points, the upper hull over the
    highest, and the two meet in the first and last columns.
    """
    lower = _chain(cols, first, 1)
    upper = _chain(cols, last, -1)[::-1]
    if first[-1] == last[-1]:
        upper = upper[1:]
    if first[0] == last[0]:
        upper = upper[:-1]
    return (
        np.concatenate([cols[lower], cols[upper]]),
        np.concatenate([first[lower], last[upper]]),
    )


def _targets(
    reg: FeasibleRegion, bbox: Optional[BBox], resolution: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid axes and the feasible points the Chebyshev scan must visit: the
    hull vertices of the column extremes.

    Raises :class:`EmptyRegionError` when no grid point is feasible.
    """
    xs, ys = _grid(reg, bbox, resolution)
    cols, first, last = _feasible_columns(reg, xs, ys, resolution)
    if not len(cols):
        raise _empty(resolution)
    ix, iy = _hull_vertices(cols, first, last)
    return xs, ys, np.column_stack([xs[ix], ys[iy]])


def _worst_case(xs: np.ndarray, ys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Largest squared distance to ``targets`` from every grid point, (nx, ny)."""
    dx = xs[:, None] - targets[None, :, 0]
    dy = ys[:, None] - targets[None, :, 1]
    return np.max((dx * dx)[:, None, :] + (dy * dy)[None, :, :], axis=2)


_Point = Tuple[float, float]
_Circle = Tuple[_Point, float, Tuple[_Point, ...]]


def _circle_through(support: Sequence[_Point]) -> _Circle:
    """(center, squared radius, support) of the circle through one point, the
    circle with two points as its diameter, or the circle through three."""
    if len(support) == 1:
        cx, cy = support[0]
    elif len(support) == 2:
        (ax, ay), (bx, by) = support
        cx, cy = 0.5 * (ax + bx), 0.5 * (ay + by)
    else:
        (ax, ay), (bx, by), (px, py) = support
        bx, by, px, py = bx - ax, by - ay, px - ax, py - ay
        d = 2.0 * (bx * py - by * px)
        b2, p2 = bx * bx + by * by, px * px + py * py
        cx, cy = ax + (py * b2 - by * p2) / d, ay + (bx * p2 - px * b2) / d
    r2 = max((x - cx) * (x - cx) + (y - cy) * (y - cy) for x, y in support)
    return (cx, cy), r2, tuple(support)


def _first_outside(points: List[_Point], start: int, stop: int, circle: _Circle) -> Optional[int]:
    """Index of the first of ``points[start:stop]`` outside ``circle``, if any."""
    (cx, cy), r2, _ = circle
    for i in range(start, stop):
        x, y = points[i]
        if (x - cx) * (x - cx) + (y - cy) * (y - cy) > r2:
            return i
    return None


def _circle_with(points: List[_Point], stop: int, fixed: List[_Point]) -> _Circle:
    """Smallest circle that encloses ``points[:stop]`` with ``fixed`` on its
    boundary."""
    if len(fixed) == 3:
        return _circle_through(fixed)
    start = 0 if fixed else 1
    circle = _circle_through(fixed if fixed else points[:1])
    i = _first_outside(points, start, stop, circle)
    while i is not None:
        circle = _circle_with(points, i, fixed + [points[i]])
        i = _first_outside(points, i + 1, stop, circle)
    return circle


def _enclosing_circle(points: np.ndarray) -> _Circle:
    """Minimum enclosing circle of an (n, 2) array (Welzl 1991).

    Returns the center, the squared radius and the one to three support
    points the circle passes through.  Points are visited in an order drawn
    from a fixed seed, which keeps the expected work linear in n and the
    result the same on every call.  The recursion runs on Python floats:
    it visits a few points per step, too few for numpy to pay off.
    """
    order = np.random.default_rng(0).permutation(len(points))
    return _circle_with([tuple(q) for q in points[order].tolist()], len(points), [])


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
    """Feasible grid point nearest to ``p`` (lexicographic tie-break).

    Within a column the squared distance to ``p`` falls down to row ``jp``
    and rises from there, so the column's nearest feasible point is the
    first feasible row from ``jp`` on or the last one before it; both are
    ``jp`` or ``jp - 1`` clamped into one of the annuli's intervals.  The
    first column with the least distance then gets one exact scan, which
    finds its first nearest row when several tie.
    """
    xs, ys = _grid(reg, bbox, resolution)
    (a, b, lower2, upper2), starts, ends = _column_intervals(reg, xs, ys, resolution)
    px, py = float(p[0]), float(p[1])
    dx2, dy2 = (xs - px) ** 2, (ys - py) ** 2
    jp = np.searchsorted(ys - py, 0.0)
    s, e = np.concatenate(starts), np.concatenate(ends) - 1
    rows = np.concatenate([np.minimum(np.maximum(jp - d, s), e) for d in (0, 1)])
    rows = np.minimum(np.maximum(rows, 0), len(ys) - 1)
    ok = _inside(rows, starts, ends)
    if not ok.any():
        raise _empty(resolution)
    i = int(np.argmin(np.where(ok, dx2 + dy2[rows], np.inf).min(axis=0)))
    d2 = a[:, i, None] + b
    column = ((d2 >= lower2[:, None]) & (d2 <= upper2[:, None])).all(axis=0)
    j = int(np.argmin(np.where(column, dx2[i] + dy2, np.inf)))
    return (float(xs[i]), float(ys[j]))


def grid_max_distance(
    reg: FeasibleRegion,
    p: Sequence[float],
    bbox: Optional[BBox] = None,
    resolution: float = DEFAULT_RESOLUTION,
) -> float:
    """Largest distance from ``p`` to any feasible grid point.

    The squared distance along a column is smallest near ``p``'s row and
    grows away from it, so a column's farthest feasible point is its lowest
    or its highest one.
    """
    xs, ys = _grid(reg, bbox, resolution)
    cols, first, last = _feasible_columns(reg, xs, ys, resolution)
    if not len(cols):
        raise _empty(resolution)
    dx2, dy2 = (xs[cols] - float(p[0])) ** 2, (ys - float(p[1])) ** 2
    return math.sqrt(float(np.max(np.maximum(dx2 + dy2[first], dx2 + dy2[last]))))


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
    a, b, lower2, upper2 = _offsets(reg, xs, ys)
    step = _block_rows(len(ys))
    shape = (min(step, len(xs)), len(ys))
    upper_buf, lower_buf, d2_buf, term_buf = (np.empty(shape) for _ in range(4))
    best = None  # (value, x, y) of the first maximizer so far
    for start in range(0, len(xs), step):
        block = a[:, start : start + step]
        n = block.shape[1]
        upper_env, lower_env, d2, term = upper_buf[:n], lower_buf[:n], d2_buf[:n], term_buf[:n]
        for k in range(len(block)):
            np.add(block[k, :, None], b[k], out=d2)
            if k == 0:
                np.subtract(lower2[k], d2, out=lower_env)
                np.subtract(upper2[k], d2, out=upper_env)
                continue
            np.maximum(lower_env, np.subtract(lower2[k], d2, out=term), out=lower_env)
            np.minimum(upper_env, np.subtract(upper2[k], d2, out=term), out=upper_env)
        if not upper_env.size:  # a box with no grid rows
            break
        # infeasible points drop to -inf; every other value is finite
        np.copyto(upper_env, -np.inf, where=(lower_env > upper_env) | (upper_env < 0.0))
        i, j = np.unravel_index(int(np.argmax(upper_env)), upper_env.shape)
        if upper_env[i, j] > (-np.inf if best is None else best[0]):
            best = (upper_env[i, j], xs[start + i], ys[j])
    if best is None:
        raise EmptyRegionError(
            f"relaxed region has no feasible grid point at resolution {resolution}"
        )
    return (float(best[1]), float(best[2])), float(best[0])
