"""Exhaustive grid oracles used only by the test suite.

The plain way to answer what ``minmaxloc.geom`` answers with shortcuts:
list every grid point as an (N, 2) array in x-major order, keep the feasible
ones, and scan.  The Chebyshev center tests every grid point against every
vertex of the hull of all feasible points, found by Qhull; the projection,
the largest distance and the relaxed program scan the full point lists.  The
arithmetic per point is the same as in ``geom``, so the tests compare the two
with ``==``, tie-breaks and ``EmptyRegionError`` messages included.
"""

import math
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from minmaxloc.geom import (
    DEFAULT_RESOLUTION,
    BBox,
    ChebyshevResult,
    EmptyRegionError,
    FeasibleRegion,
    default_bbox,
)

_CHUNK = 16384


def membership(reg: FeasibleRegion, p: Sequence[float]) -> bool:
    """Closed-set membership: boundary points belong to the region."""
    px, py = float(p[0]), float(p[1])
    for c in reg.constraints:
        d = math.hypot(px - c.center[0], py - c.center[1])
        if d < c.lower or d > c.upper:
            return False
    return True


def grid_points(bbox: BBox, resolution: float) -> np.ndarray:
    """All grid points, x-major (lexicographic (ix, iy)) order, shape (N, 2)."""
    (xlo, xhi), (ylo, yhi) = bbox
    nx = int(math.floor((xhi - xlo) / resolution + 1e-9)) + 1
    ny = int(math.floor((yhi - ylo) / resolution + 1e-9)) + 1
    xs = xlo + np.arange(nx) * resolution
    ys = ylo + np.arange(ny) * resolution
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def feasible_grid(
    reg: FeasibleRegion, bbox: Optional[BBox], resolution: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Every grid point and the feasible ones, both in x-major order."""
    if bbox is None:
        bbox = default_bbox(reg, resolution)
    points = grid_points(bbox, resolution)
    mask = np.ones(len(points), dtype=bool)
    for c in reg.constraints:
        d2 = (points[:, 0] - c.center[0]) ** 2 + (points[:, 1] - c.center[1]) ** 2
        mask &= (d2 >= c.lower**2) & (d2 <= c.upper**2)
    if not mask.any():
        raise EmptyRegionError(f"no feasible grid point at resolution {resolution}")
    return points, points[mask]


def extreme_points(feasible: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of ``feasible`` by Qhull, or every point
    when the hull is degenerate (fewer than three points, or all collinear):
    the farthest point is among them either way."""
    if len(feasible) < 3:
        return feasible
    try:
        hull = ConvexHull(feasible)
    except QhullError:
        return feasible
    return feasible[hull.vertices]


def min_max_distance(candidates: np.ndarray, targets: np.ndarray) -> Tuple[int, float]:
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


def chebyshev_center(
    reg: FeasibleRegion,
    bbox: Optional[BBox] = None,
    resolution: float = DEFAULT_RESOLUTION,
) -> ChebyshevResult:
    points, feasible = feasible_grid(reg, bbox, resolution)
    idx, radius = min_max_distance(points, extreme_points(feasible))
    cx, cy = points[idx]
    return ChebyshevResult((float(cx), float(cy)), radius, resolution)


def project(
    reg: FeasibleRegion,
    p: Sequence[float],
    bbox: Optional[BBox] = None,
    resolution: float = DEFAULT_RESOLUTION,
) -> Tuple[float, float]:
    _, feas = feasible_grid(reg, bbox, resolution)
    d2 = (feas[:, 0] - float(p[0])) ** 2 + (feas[:, 1] - float(p[1])) ** 2
    q = feas[int(np.argmin(d2))]
    return (float(q[0]), float(q[1]))


def max_distance(
    reg: FeasibleRegion,
    p: Sequence[float],
    bbox: Optional[BBox] = None,
    resolution: float = DEFAULT_RESOLUTION,
) -> float:
    _, feasible = feasible_grid(reg, bbox, resolution)
    dx = feasible[:, 0] - float(p[0])
    dy = feasible[:, 1] - float(p[1])
    return math.sqrt(float(np.max(dx * dx + dy * dy)))


def relaxed_center_value(
    reg: FeasibleRegion,
    bbox: Optional[BBox] = None,
    resolution: float = DEFAULT_RESOLUTION,
) -> Tuple[Tuple[float, float], float]:
    if bbox is None:
        bbox = default_bbox(reg, resolution)
    points = grid_points(bbox, resolution)
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


# The minimum enclosing circle on numpy arrays, as ``geom`` computed it before
# its recursion moved to Python floats: same formulas, same visiting order.

Circle = Tuple[np.ndarray, float, np.ndarray]


def circle_through(support: np.ndarray) -> Circle:
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


def first_outside(points: np.ndarray, start: int, circle: Circle) -> Optional[int]:
    """Index of the first point from ``start`` on outside ``circle``, if any."""
    center, r2, _ = circle
    off = points[start:] - center
    out = np.flatnonzero(off[:, 0] ** 2 + off[:, 1] ** 2 > r2)
    return start + int(out[0]) if len(out) else None


def circle_with(points: np.ndarray, fixed: np.ndarray) -> Circle:
    """Smallest circle that encloses ``points`` with ``fixed`` on its boundary."""
    if len(fixed) == 3:
        return circle_through(fixed)
    start = 0 if len(fixed) else 1
    circle = circle_through(fixed if len(fixed) else points[:1])
    i = first_outside(points, start, circle)
    while i is not None:
        circle = circle_with(points[:i], np.vstack([fixed, points[i : i + 1]]))
        i = first_outside(points, i + 1, circle)
    return circle


def enclosing_circle(points: np.ndarray) -> Circle:
    """Minimum enclosing circle of an (n, 2) array (Welzl 1991), visiting the
    points in the order ``geom._enclosing_circle`` draws."""
    order = np.random.default_rng(0).permutation(len(points))
    return circle_with(points[order], points[:0])
