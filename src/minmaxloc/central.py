"""Centralized minimax localization: one network-wide SDP, or a QP for one sensor.

Every measurement interval contributes a pair of nonnegative multipliers,
one per bound.  Collecting them into

    Mt  =  -sum_edges (alpha - beta) E_ij  -  sum_anchor_edges (omega - phi) E_i
    f_x =   sum_anchor_edges (omega - phi) a_kx e_i    (f_y likewise, a_ky)

where the n x n matrices E_ij and E_i = e_i e_i^T are the quadratics
|y_i - y_j|^2 and |y_i|^2 in one coordinate, the certified worst-case value
of an estimate is the optimum of

    minimize    t_x + t_y + h(multipliers)
    subject to  [[Mt, f_x], [f_x^T, t_x]] >= 0,   [[Mt, f_y], [f_y^T, t_y]] >= 0,
                Mt - I >= 0,   multipliers >= 0,

with h collecting the interval endpoints.  This is the relaxed Chebyshev
center program (Eldar, Beck and Teboulle, 2008) solved per coordinate.  Over
the stacked positions its matrix is M = Mt kron I_2, and its LMIs
[[M, f], [f^T, t]] >= 0 and M - I >= 0 hold exactly when the three above do
with t = t_x + t_y: M - I >= 0 iff Mt - I >= 0, and given Mt > 0 the first
holds iff t >= f_x^T Mt^{-1} f_x + f_y^T Mt^{-1} f_y.  So the optimum, the
multipliers and the estimate are unchanged, from blocks n + 1, n + 1 and n
wide instead of 2n + 1 and 2n.  The estimate is y_x = -Mt^{-1} f_x,
y_y = -Mt^{-1} f_y, read off the blocks evaluated at the returned
multipliers clipped at zero, and :func:`certify` turns the same blocks
into the reported bound on sum_i |y_i - x_i|^2 over every configuration x
consistent with the measurement intervals, whether or not the gap closed.

With one sensor, Mt is a scalar kappa and Mt - I >= 0 is kappa >= 1.  The
program is then the dual of the sensor's relaxed Chebyshev center program,

    maximize    t - |y|^2
    subject to  lower_k^2 <= t - 2 a_k^T y + |a_k|^2 <= upper_k^2   per anchor k,

a QP in the three variables (y, t), whose optimal multipliers have kappa = 1.
:func:`certified_centers` solves it for a batch of nodes at once, exactly,
by active sets over a working set of references, each set in closed form,
and hands its KKT multipliers to :func:`certify` as the 1x1 case.
:func:`solve_minmax_sdp` solves one sensor this way, as a batch of one, and
:mod:`minmaxloc.dist` every per-node program, a round at a time, so neither
a one-sensor solve nor a distributed run solves an SDP or loads scipy.

Variable ordering in the assembled problem is frozen and documented on
``DualIndex``, so multipliers can be mapped back to edges.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .model import Edge, IntervalBound, NetworkScenario, Point2
from .model import build_feasibility_intervals, unanchored_sensors
from .sdp import Block, SdpProblem, SolveStatus, solve

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


@dataclass(frozen=True)
class DualIndex:
    """Variable layout of the dual assembly.

    Index 0 is t_x; then one alpha (lower bound) and one beta (upper bound)
    per sensor-sensor edge in sorted edge order; then one omega (lower) and
    one phi (upper) per sensor-anchor edge in sorted edge order; last comes
    t_y, so every multiplier keeps its index in the stacked program, whose
    single t is t_x + t_y.  Each interval's two multipliers are adjacent and
    form one negated pair, (alpha, beta) or (omega, phi): ``pairs``.
    """

    sensor_edges: Tuple[Edge, ...]
    anchor_edges: Tuple[Edge, ...]

    @property
    def num_vars(self) -> int:
        return 2 + 2 * len(self.sensor_edges) + 2 * len(self.anchor_edges)

    @property
    def t_y(self) -> int:
        return self.num_vars - 1

    def alpha(self, e: int) -> int:
        return 1 + 2 * e

    def beta(self, e: int) -> int:
        return 2 + 2 * e

    def omega(self, e: int) -> int:
        return 1 + 2 * len(self.sensor_edges) + 2 * e

    def phi(self, e: int) -> int:
        return 2 + 2 * len(self.sensor_edges) + 2 * e

    @property
    def pairs(self) -> np.ndarray:
        """(alpha, beta) per sensor edge, then (omega, phi) per anchor edge."""
        return np.arange(1, self.t_y).reshape(-1, 2)


@dataclass
class CentralEstimate:
    """Result of the centralized solve.

    positions        sensor id -> estimated coordinates
    worst_case_value certified bound on the total squared position error
                     over all interval-consistent configurations (>= 0;
                     inf when the multipliers certify none)
    multipliers      edge -> (lower-bound, upper-bound) dual weights
    solver_status    the solver's status; numerical_failure if it certifies none
                     or the data are inconsistent
    solve_seconds    wall-clock time spent assembling and solving
    iterations       interior-point iterations of the solve; for one sensor,
                     the candidate active sets the QP solved
    gap, residual_primal, residual_dual
                     relative duality gap and residuals of the returned
                     iterate; for one sensor, the QP value's relative gap to
                     the certified value and its relative KKT violations
    """

    positions: Dict[int, Point2]
    worst_case_value: float
    multipliers: Dict[Edge, Tuple[float, float]]
    solver_status: SolveStatus
    solve_seconds: float
    iterations: int
    gap: float
    residual_primal: float
    residual_dual: float


def _require_anchored(scenario: NetworkScenario) -> None:
    unanchored = unanchored_sensors(scenario)
    if unanchored:
        raise ValueError(
            f"sensors {unanchored} have no path to an anchor; the estimate is unanchored"
        )


def _coupling_triplets(i: int, j: int, sign: float) -> List[Tuple[int, int, float]]:
    """sign * E_ij (lower triangle)."""
    return [(i, i, sign), (j, j, sign), (max(i, j), min(i, j), -sign)]


def assemble_dual_sdp(
    scenario: NetworkScenario, intervals: Optional[Dict[Edge, IntervalBound]] = None
) -> Tuple[SdpProblem, DualIndex]:
    """Build the multiplier SDP for a scenario.

    The first two blocks are [[Mt, f_x], [f_x^T, t_x]] and
    [[Mt, f_y], [f_y^T, t_y]], the third Mt - I, and the problem declares
    ``DualIndex.pairs``, which also keeps every multiplier nonnegative.
    Needs a sensor-anchor edge in every component of the sensor graph;
    without one the worst case is unbounded (that component can translate
    freely) and Mt - I >= 0 would be infeasible.
    """
    if intervals is None:
        intervals = build_feasibility_intervals(scenario)
    _require_anchored(scenario)

    sensor_index = {s: i for i, s in enumerate(scenario.sensors)}
    idx = DualIndex(
        sensor_edges=tuple(sorted(scenario.sensor_edges)),
        anchor_edges=tuple(sorted(scenario.anchor_edges)),
    )
    n = len(scenario.sensors)
    m = idx.num_vars

    c = np.zeros(m)
    c[0] = c[idx.t_y] = 1.0

    # the coordinate blocks share every triplet of Mt; ``arrow`` holds each
    # variable's (x, y) entries of the last row
    quad: Dict[int, List[Tuple[int, int, float]]] = {}
    arrow: Dict[int, Tuple[int, Point2]] = {}

    for e, (u, v) in enumerate(idx.sensor_edges):
        i, j = sensor_index[u], sensor_index[v]
        b = intervals[(u, v)]
        c[idx.alpha(e)] = -b.lower**2
        c[idx.beta(e)] = b.upper**2
        quad[idx.alpha(e)] = _coupling_triplets(i, j, -1.0)
        quad[idx.beta(e)] = _coupling_triplets(i, j, 1.0)

    for e, (u, k) in enumerate(idx.anchor_edges):
        i = sensor_index[u]
        ax, ay = scenario.anchors[k]
        norm2 = ax * ax + ay * ay
        b = intervals[(u, k)]
        c[idx.omega(e)] = norm2 - b.lower**2
        c[idx.phi(e)] = b.upper**2 - norm2
        quad[idx.omega(e)] = [(i, i, -1.0)]
        quad[idx.phi(e)] = [(i, i, 1.0)]
        arrow[idx.omega(e)] = (i, (ax, ay))
        arrow[idx.phi(e)] = (i, (-ax, -ay))

    def coordinate_block(t: int, axis: int) -> Block:
        coeffs = {k: list(trips) for k, trips in quad.items()}
        for k, (i, a) in arrow.items():
            coeffs[k].append((n, i, a[axis]))
        coeffs[t] = [(n, n, 1.0)]
        return Block(n + 1, [], coeffs)

    blocks = [
        coordinate_block(0, 0),
        coordinate_block(idx.t_y, 1),
        Block(n, [(r, r, -1.0) for r in range(n)], quad),
    ]
    return SdpProblem(num_vars=m, objective=c, blocks=blocks, pairs=idx.pairs), idx


def certify(m_mat: np.ndarray, f: np.ndarray, h: float) -> Optional[Tuple[np.ndarray, float]]:
    """Estimate y = -Mt^{-1} f and the bound that the multipliers certify.

    ``m_mat``, ``f`` and ``h`` are Mt, [f_x f_y] and the objective without
    its t terms at multipliers lambda >= 0.  With Mt >= I, weak duality
    bounds sum_i |y_i - x_i|^2 by tr(f^T Mt^{-1} f) + h for every consistent
    configuration x.  Scaling lambda by 1/rho, rho = lambda_min(Mt) less a rounding margin
    of n eps ||Mt||, restores Mt >= I and keeps y, so the value is that bound
    over rho whatever the solver's status.  None when rho is not positive.
    """
    w, v = np.linalg.eigh(m_mat)
    value, rho, z = _certificate(w, v.T @ f, h)
    if rho <= 0.0:
        return None
    return -v @ z, float(value)


def _certificate(w, g, h):
    """:func:`certify` from the eigenvalues ``w`` (..., n) of Mt, ascending,
    f in Mt's eigenbasis ``g`` (..., n, 2) and ``h`` (...): the bound
    (sum g^2 / w + h) / rho, rho and Mt^{-1} f in the eigenbasis, g / w.
    The bound holds where rho is positive."""
    rho = w[..., 0] - w.shape[-1] * _EPS * np.maximum(-w[..., 0], w[..., -1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.sum(g * g / w[..., None], axis=(-2, -1)) + h) / rho, rho, g / w[..., None]


def recover_estimate(
    scenario: NetworkScenario, problem: SdpProblem, x: np.ndarray
) -> Tuple[Dict[int, Point2], float]:
    """Positions encoded by multipliers, plus the bound they certify.

    Evaluates the two assembled coordinate blocks at lambda = max(x, 0),
    which are exactly [[Mt, f_x], [f_x^T, t_x]] and [[Mt, f_y], [f_y^T, t_y]],
    and hands Mt, [f_x f_y] and the objective without t_x and t_y to
    :func:`certify`.  Without a certificate the positions are a
    least-squares solve and the value is inf.
    """
    lam = np.maximum(x, 0.0)
    lam[0] = lam[-1] = 0.0
    lmi = problem.blocks[0].evaluate(lam)
    m_mat = lmi[:-1, :-1]
    f = np.column_stack([lmi[-1, :-1], problem.blocks[1].evaluate(lam)[-1, :-1]])
    cert = certify(m_mat, f, float(problem.objective @ lam))
    y, value = cert or (np.linalg.lstsq(m_mat, -f, rcond=None)[0], math.inf)
    positions = {s: (float(y[i, 0]), float(y[i, 1])) for i, s in enumerate(scenario.sensors)}
    return positions, value


# A candidate active set is the QP's KKT point when its relative primal and
# dual violations are both at most this.  Roundoff leaves the
# true one near 1e-16; no KKT point within it means an empty linear set.
_KKT_TOL = 1e-9
# Planes whose references span less than this, relative to the references'
# spread, are left out as dependent
_SPAN_TOL = 1e-14
# References in the QP's first working set; with no more, it holds them all
_WORKING_REFS = 8
# The nodes of a batched solve go through in chunks of at most this many
# references, and their candidate sets in blocks of about this many (node,
# set) pairs, so that a temporary holds this many floats (32 KB) per
# reference of the working set
_BLOCK = 1 << 12


class QpBatch(NamedTuple):
    """KKT points of the single-node relaxed Chebyshev program, one row per node.

    omega, phi       (nodes, references), the multipliers of each reference's
                     lower and upper bound as solved (0 where the bound is not
                     in the active set, and past a node's own references);
                     phi - omega sums to one
    position, value  the maximizer y (nodes, 2) and t - |y|^2 there
    consistent       whether some active set passed the KKT test; False
                     means that the linear constraints admit no (y, t)
    active_sets      the candidate active sets solved
    residual_primal, residual_dual
                     the point's largest bound violation, relative to the
                     magnitudes in the lifted distances, and the larger of
                     its largest wrong-signed multiplier, relative to their
                     sum, and its stationarity residual
    """

    omega: np.ndarray
    phi: np.ndarray
    position: np.ndarray
    value: np.ndarray
    consistent: np.ndarray
    active_sets: np.ndarray
    residual_primal: np.ndarray
    residual_dual: np.ndarray


@lru_cache(maxsize=32)  # an entry for w references holds up to about 32 w^3 bytes
def _active_sets(refs: int, size: int) -> np.ndarray:
    """Every set of ``size`` planes of distinct references, as plane indices
    2k (lower bound of reference k) and 2k + 1 (upper bound)."""
    chosen = np.array(list(combinations(range(refs), size)), dtype=np.intp).reshape(-1, size)
    sides = np.array(list(product((0, 1), repeat=size)), dtype=np.intp)
    sets = (2 * chosen[:, None, :] + sides).reshape(-1, size)
    sets.setflags(write=False)  # every caller shares the cached array
    return sets


@lru_cache(maxsize=64)
def _set_blocks(refs: int, sets: int) -> tuple:
    """The candidate sets of :func:`_closest_kkt_sets` over ``refs``
    references, by size and then in :func:`_active_sets` order, in blocks of
    at most ``sets`` sets or one group of them.  ``sets`` is rounded down to
    a power of two, so that few block sizes are cached.  Per block: its
    pieces of one size in whole groups, each as its sets' planes (size,
    sets), the references of its groups (size, groups) and its planes' signs
    (size, 1, 1, 2^size), 1 on a lower plane and -1 on an upper one, as they
    repeat in every group; and its sets' planes padded with -1 to three."""
    most = 1 << max(sets, 1).bit_length() - 1
    blocks, pieces, taken = [], [], 0
    for size in range(1, min(refs, 3) + 1):
        every, group = _active_sets(refs, size), 1 << size
        step = max(1, most // group) * group
        for start in range(0, len(every), step):
            piece = every[start : start + step]
            if pieces and taken + len(piece) > most:
                blocks.append(pieces)
                pieces, taken = [], 0
            pieces.append(piece)
            taken += len(piece)
    blocks.append(pieces)
    return tuple(
        (
            tuple(
                (
                    np.ascontiguousarray(s.T),
                    s[:: 1 << s.shape[1]].T // 2,
                    (1.0 - 2.0 * (s[: 1 << s.shape[1]] % 2)).T[:, None, None],
                )
                for s in pieces
            ),
            np.concatenate([np.pad(s, ((0, 0), (0, 3 - s.shape[1])), constant_values=-1) for s in pieces]),
        )
        for pieces in blocks
    )


def _equality_solutions(qx, qy, rhs, planes, refs, flip, spread, root_scale, out):
    """Every node's solution of each set of planes as equalities, in closed
    form, and how far its multipliers are from a KKT point's.

    ``qx``, ``qy`` (nodes, refs) are the references, ``rhs`` (nodes,
    planes) the planes' right-hand sides, ``planes``, ``refs`` and ``flip``
    a piece of sets as from :func:`_set_blocks`, and
    ``spread`` and ``root_scale``, the square root of the data scale, per
    node.  The sets come in whole groups of the 2^size sets on one tuple of
    references, in :func:`_active_sets` order, so that each tuple's geometry
    is worked out once.  Fills ``out`` (7, nodes, sets), zero on entry, with
    y_x, y_y, t, the dual violation and nu per plane, 0 past the set's size,
    and returns per node the number of sets whose references are affinely
    independent.  The dual violation is the largest wrong-signed multiplier,
    relative to their sum, or the stationarity residual, which a nearly
    singular set may show, whichever is larger; inf where the references
    are dependent.

    Stationarity gives y = sum_j nu_j q_j and sum_j nu_j = 1, and the planes
    t - 2 q_j^T y = rhs_j less the first give (q_j - q_0)^T y =
    (rhs_0 - rhs_j) / 2.  So one plane has y = q_0 and nu = 1 exactly, two
    put y on the line through their references, and three fix y by a 2x2
    system whose determinant squared is the span that the independence test
    measures.
    """
    nodes, size = len(qx), len(planes)
    group = 1 << size
    # (size, nodes, tuples, 1) and (size, nodes, tuples, group)
    xs, ys = qx[:, refs, None].swapaxes(0, 1), qy[:, refs, None].swapaxes(0, 1)
    r = rhs[:, planes].reshape(nodes, size, -1, group).swapaxes(0, 1)
    out = out.reshape(7, nodes, -1, group)
    yx, yy, t, dual, nu = out[0], out[1], out[2], out[3], out[4 : 4 + size]
    x0, y0 = xs[0], ys[0]
    if size == 1:
        # nu = 1, wrong-signed on a lower plane, and stationarity is exact
        yx[...], yy[...], t[...], nu[0] = x0, y0, r[0] + 2.0 * (x0 * x0 + y0 * y0), 1.0
        dual[...] = np.maximum(flip[0], 0.0)
        return planes.shape[1]
    if size == 2:
        dx, dy = xs[1] - x0, ys[1] - y0
        span = dx * dx + dy * dy
        keep = span > _SPAN_TOL * spread[:, None, None]
        nu[1] = (0.5 * (r[0] - r[1]) - (dx * x0 + dy * y0)) / span
        nu[0] = 1.0 - nu[1]
        yx[...], yy[...] = x0 + nu[1] * dx, y0 + nu[1] * dy
    else:
        ax, ay, bx, by = xs[1] - x0, ys[1] - y0, xs[2] - x0, ys[2] - y0
        det = ax * by - ay * bx
        keep = det * det > (_SPAN_TOL * spread[:, None, None]) ** 2
        c, e = 0.5 * (r[0] - r[1]), 0.5 * (r[0] - r[2])
        yx[...], yy[...] = (c * by - e * ay) / det, (ax * e - bx * c) / det
        # y - q_0 = nu_1 (q_1 - q_0) + nu_2 (q_2 - q_0), by the same determinant
        ex, ey = yx - x0, yy - y0
        nu[1], nu[2] = (ex * by - ey * bx) / det, (ax * ey - ay * ex) / det
        nu[0] = 1.0 - nu[1] - nu[2]
    t[...] = r[0] + 2.0 * (x0 * yx + y0 * yy)
    # nu must be <= 0 on a lower plane and >= 0 on an upper one
    dual[...] = np.maximum(flip * nu, 0.0).max(axis=0) / np.abs(nu).sum(axis=0)
    stationarity = np.maximum(
        np.abs(nu.sum(axis=0) - 1.0),
        np.maximum(np.abs(yx - (nu * xs).sum(axis=0)), np.abs(yy - (nu * ys).sum(axis=0)))
        / root_scale[:, None, None],
    )
    np.maximum(dual, stationarity, out=dual)
    dual[~keep[..., 0]] = np.inf
    return group * keep[..., 0].sum(axis=1)


def _closest_kkt_sets(qx, qy, lower, upper, spread, data_scale):
    """Per node, of every set of one, two or three planes of distinct,
    affinely independent references, the one whose equality solution comes
    closest to a KKT point of the program over the node's references.

    The arguments are per node: the references' coordinates ``qx`` and ``qy``
    and their ``lower`` and ``upper`` bounds (nodes, refs), and ``spread``
    and ``data_scale`` (nodes,).  Returns per node the set's violation,
    primal violation, y, t, dual violation and multipliers nu (nodes, 9;
    nu 0 past the set's size), its planes (nodes, 3; -1 past its size) and
    the number of sets solved.
    Among equally close sets, the first in :func:`_active_sets` order of the
    smallest size wins.  The sets go through in blocks of about ``_BLOCK``
    (node, set) pairs, each keeping its nodes' closest set so far, and the
    sums over references reduce a leading axis.  A nearly singular set may
    overflow, which its violation then rejects, so the caller ignores
    floating-point errors.
    """
    nodes, refs = qx.shape
    qq = qx * qx + qy * qy
    # plane 2k bounds reference k from below, plane 2k + 1 from above:
    # t - 2 q_k^T y = rhs there
    rhs = np.empty((nodes, 2 * refs))
    rhs[:, 0::2], rhs[:, 1::2] = lower - qq, upper - qq
    # per reference on a leading axis: its coordinates and its planes' sides
    at_x, at_y = qx.T[..., None], qy.T[..., None]
    at_lower, at_upper = rhs[:, 0::2].T[..., None], rhs[:, 1::2].T[..., None]
    scale, root_scale = data_scale[:, None], np.sqrt(data_scale)
    solved = np.zeros(nodes, dtype=np.intp)
    # per node: violation, primal violation, y, t, dual violation and nu; and planes
    best = np.full((nodes, 9), np.inf)
    planes = np.full((nodes, 3), -1)
    rows = np.arange(nodes)
    for k, (block, block_planes) in enumerate(_set_blocks(refs, _BLOCK // nodes)):
        # per set: violation, primal violation and what _equality_solutions gives
        values = np.zeros((9, nodes, len(block_planes)))
        violation, primal, yx, yy, t, dual = values[:6]
        start = 0
        for piece, tuples, flip in block:
            stop = start + piece.shape[1]
            solved += _equality_solutions(
                qx, qy, rhs, piece, tuples, flip, spread, root_scale, values[2:, :, start:stop]
            )
            start = stop
        # every reference's planes at each set's point
        level = t + at_x * (-2.0 * yx) + at_y * (-2.0 * yy)
        excess = np.maximum(at_lower - level, level - at_upper).max(axis=0)
        np.maximum(excess, 0.0, out=primal)
        primal /= np.maximum(np.maximum(np.abs(t), yx * yx + yy * yy), scale)
        np.maximum(primal, dual, out=violation)
        violation[np.isnan(violation)] = np.inf
        s = violation.argmin(axis=1)
        # the first block decides for nodes without a finite violation
        at = rows[violation[rows, s] < best[:, 0]] if k else rows
        s = s[at]
        best[at] = values[:, at, s].T
        planes[at] = block_planes[s]
    return best, planes, solved


def _as_batch(p, bounds, count) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float arrays of a batch with every entry past a node's count zeroed;
    raises ValueError for a node without references or with one not finite."""
    p, bounds = np.asarray(p, dtype=float), np.asarray(bounds, dtype=float)
    count = np.asarray(count, dtype=np.intp)
    if (count < 1).any():
        raise ValueError("the program needs at least one reference")
    valid = (np.arange(p.shape[1]) < count[:, None])[..., None]
    if not valid.all():
        p, bounds = np.where(valid, p, 0.0), np.where(valid, bounds, 0.0)
    if not (np.isfinite(p).all() and np.isfinite(bounds).all()):
        raise ValueError("references must be finite")
    return p, bounds, count


def _solve(p: np.ndarray, bounds: np.ndarray, count: np.ndarray) -> QpBatch:
    """The QP of :func:`certified_centers` for a batch from :func:`_as_batch`.
    The nodes go through in chunks of at most ``_BLOCK`` references, each
    chunk grouped by the size of its nodes' working sets, so every node gets
    what it gets in a batch of its own."""
    chunk = max(1, _BLOCK // max(p.shape[1], 1))
    # a nearly singular set may overflow; its violation then rejects it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        parts = [
            _solve_chunk(p[s : s + chunk], bounds[s : s + chunk], count[s : s + chunk])
            for s in range(0, max(len(p), 1), chunk)
        ]
    return parts[0] if len(parts) == 1 else QpBatch(*map(np.concatenate, zip(*parts)))


def _solve_chunk(p: np.ndarray, bounds: np.ndarray, count: np.ndarray) -> QpBatch:
    nodes, refs = p.shape[:2]
    valid = np.arange(refs) < count[:, None]
    centre = _sum_in_order(p) / count[:, None]
    # per node and reference: the centred coordinates and the two bounds
    data = np.empty((4, nodes, refs))
    data[:2] = np.where(valid, (p - centre[:, None]).transpose(2, 0, 1), 0.0)
    data[2:] = bounds.transpose(2, 0, 1)
    qx, qy, lower, upper = data
    qq = qx * qx + qy * qy
    spread = qq.max(axis=1)
    data_scale = np.maximum(np.maximum(spread, bounds.max(axis=(1, 2))), _TINY)

    # the working sets, grouped by size; each growth step makes a new group
    order = np.argsort(np.where(valid, upper, np.inf), axis=1, kind="stable")
    width = np.minimum(count, _WORKING_REFS)
    pending = {
        w: [(np.flatnonzero(width == w), np.sort(order[width == w, :w], axis=1))]
        for w in set(width.tolist())
    }
    # per node: what _closest_kkt_sets finds, and the candidate sets solved;
    # and the multiplier of each plane, 2k bounding reference k from below
    # and 2k + 1 from above, with a last column that takes the padding
    found = np.zeros((nodes, 10))
    nu = np.zeros((nodes, 2 * refs + 1))
    while pending:
        w = min(pending)
        group, work = (np.concatenate(a) for a in zip(*pending.pop(w)))
        best, active, solved = _closest_kkt_sets(
            *data[:, group[:, None], work], spread[group], data_scale[group]
        )
        found[group, 9] += solved
        if (count[group] > w).any():
            # every reference's bounds at the working set's optimum
            rows, y, t = np.arange(len(group)), best[:, 2:4], best[:, 4]
            lifted = t[:, None] - 2.0 * (qx[group] * y[:, :1] + qy[group] * y[:, 1:]) + qq[group]
            excess = np.maximum(lower[group] - lifted, lifted - upper[group])
            excess[~valid[group]] = -np.inf
            excess[rows[:, None], work] = -np.inf
            worst = excess.argmax(axis=1)
            magnitude = np.maximum(np.maximum(np.abs(t), np.einsum("ij,ij->i", y, y)), data_scale[group])
            outside = np.maximum(excess[rows, worst], 0.0) / magnitude
            grow = (best[:, 0] <= _KKT_TOL) & (outside > _KKT_TOL)
            best[:, :2] = np.maximum(best[:, :2], outside[:, None])
            if grow.any():
                bigger = np.sort(np.column_stack([work[grow], worst[grow]]), axis=1)
                pending.setdefault(w + 1, []).append((group[grow], bigger))
                group, work, best, active = group[~grow], work[~grow], best[~grow], active[~grow]

        found[group, :9] = best
        ref = work[np.arange(len(work))[:, None], active // 2]
        nu[group[:, None], np.where(active >= 0, 2 * ref + active % 2, 2 * refs)] = best[:, 6:]

    y, t = found[:, 2:4], found[:, 4]
    return QpBatch(
        omega=0.0 - nu[:, 0:-1:2],
        phi=nu[:, 1:-1:2],
        position=centre + y,
        value=t - np.einsum("ij,ij->i", y, y),
        consistent=found[:, 0] <= _KKT_TOL,
        active_sets=found[:, 9].astype(np.intp),
        residual_primal=found[:, 1],
        residual_dual=found[:, 5],
    )


@dataclass(frozen=True)
class CenterBatch:
    """What the multipliers of a batch of QP solves certify, one row per node.

    qp          the QP solves
    center      (nodes, 2), y = -f / kappa from :func:`certify`; the QP's
                maximizer where the multipliers certify nothing
    value       the certified bound on |y - x|^2 over every x that the
                references admit; inf where the multipliers certify nothing
    consistent  False where the QP has no KKT point, or the value is below
                minus the rounding bound of its evaluation: no x meets every
                reference
    """

    qp: QpBatch
    center: np.ndarray
    value: np.ndarray
    consistent: np.ndarray

    @property
    def certified(self) -> np.ndarray:
        return self.consistent & np.isfinite(self.value)


def _sum_in_order(x: np.ndarray) -> np.ndarray:
    """Sums over axis 1, the references, added in order, so that zeros that
    pad a node's references change no bit of them: ``np.sum`` groups the
    terms by the length of the axis."""
    return np.add.accumulate(x, axis=1)[:, -1]


def _certify_each(p, bounds, count, qp: QpBatch) -> CenterBatch:
    """:func:`certify` in its 1x1 case, node by node, at the multipliers of
    the solves ``qp`` of a batch from :func:`_as_batch`."""
    omega, phi = np.maximum(qp.omega, 0.0), np.maximum(qp.phi, 0.0)
    lower_sq, upper_sq = bounds[..., 0], bounds[..., 1]
    norm2 = (p * p).sum(axis=2)
    net = phi - omega
    kappa = _sum_in_order(net)
    f = -_sum_in_order(net[..., None] * p)
    low, high = omega * lower_sq, phi * upper_sq
    # h, and the magnitudes of its terms less those of f^T z
    h = _sum_in_order(high - low - net * norm2)
    magnitude = _sum_in_order(high + low + (omega + phi) * norm2)
    value, rho, z = _certificate(kappa[:, None], f[:, None], h)
    certified = rho > 0.0
    value[~certified] = np.inf
    z = z[:, 0]
    center = np.where(certified[:, None], -z, qp.position)
    magnitude += (f * z).sum(axis=1)
    rounding = (2 * count + 4) * _EPS * magnitude
    return CenterBatch(qp, center, value, qp.consistent & ~(certified & ~(value >= -rounding)))


def certified_centers(p: np.ndarray, bounds: np.ndarray, count: np.ndarray) -> CenterBatch:
    """Maximize t - |y|^2 subject to lower^2 <= t - 2 p^T y + |p|^2 <= upper^2
    for a batch of nodes, and certify each node's center.

    Node b has the ``count[b]`` references ``p[b, k]`` (nodes, refs, 2) with
    bounds ``bounds[b, k] = (lower^2, upper^2)``, as for the per-node program
    of :mod:`minmaxloc.dist`; entries past its count are ignored.  The
    middle term is the lifted |y - p|^2, so each reference bounds (y, t) by
    two parallel planes.  The objective is strictly concave in y and grows
    with t, so the maximizer is unique, and by Caratheodory's theorem its
    KKT multipliers nu need at most three active planes with affinely
    independent p, so of distinct references.  Every such set of one, two or
    three planes is solved as equalities in closed form: stationarity,
    (-2y, 1) = sum_j nu_j (-2 p_j, 1), and the planes.  The set that comes
    closest to a KKT point, with the other references' bounds met and
    nu_j >= 0 on upper planes and <= 0 on lower ones, wins.  The references
    are centered first, which the program's translation invariance allows,
    to keep the solves well conditioned.

    The sets grow as the cube of the references, so the enumeration runs
    over a working set: at first the ``_WORKING_REFS`` references with the
    smallest upper bounds, all of them when there are no more.  While the
    working set's optimum breaks another reference's bounds, the reference
    it breaks most joins and the working set is solved again.  An optimum
    that meets every bound is the whole program's, with nu = 0 off the
    working set, and a working set that admits no (y, t) leaves the whole
    program none either.

    The multipliers, clipped at zero, give Mt = kappa = sum(phi - omega),
    f = -sum (phi - omega) p and h, which :func:`certify` turns into the
    center and its bound as the 1x1 case, so the bound never rests on the QP
    being exact.  The rounding bound of the value is (2N + 4) eps times the
    sum of the magnitudes that enter it, for N references, so that exact
    data, whose value is zero, pass.  A node gets the same bits in any batch.
    """
    p, bounds, count = _as_batch(p, bounds, count)
    return _certify_each(p, bounds, count, _solve(p, bounds, count))


def _solve_one_sensor(
    scenario: NetworkScenario, intervals: Dict[Edge, IntervalBound], t0: float
) -> CentralEstimate:
    """The network program for one sensor, from :func:`certified_centers`
    over its anchors as a batch of one; the status is optimal when the
    center is certified."""
    _require_anchored(scenario)
    edges = sorted(scenario.anchor_edges)
    cert = certified_centers(
        [[scenario.anchors[e[1]] for e in edges]],
        [[(intervals[e].lower ** 2, intervals[e].upper ** 2) for e in edges]],
        [len(edges)],
    )
    qp, value, qp_value = cert.qp, float(cert.value[0]), float(cert.qp.value[0])
    status = SolveStatus.OPTIMAL if cert.certified[0] else SolveStatus.NUMERICAL_FAILURE
    gap = math.inf
    if math.isfinite(value):
        gap = abs(value - qp_value) / (1.0 + abs(value) + abs(qp_value))
    x, y = cert.center[0].tolist()
    return CentralEstimate(
        positions={scenario.sensors[0]: (x, y)},
        worst_case_value=max(value, 0.0),
        multipliers={e: (float(qp.omega[0, i]), float(qp.phi[0, i])) for i, e in enumerate(edges)},
        solver_status=status,
        solve_seconds=time.perf_counter() - t0,
        iterations=int(qp.active_sets[0]),
        gap=gap,
        residual_primal=float(qp.residual_primal[0]),
        residual_dual=float(qp.residual_dual[0]),
    )


def solve_minmax_sdp(
    scenario: NetworkScenario, intervals: Optional[Dict[Edge, IntervalBound]] = None
) -> CentralEstimate:
    """Estimate every sensor position and certify the worst-case error.

    One sensor without sensor edges is solved exactly as a QP
    (:func:`certified_centers`), every other network by the SDP.
    """
    t0 = time.perf_counter()
    if intervals is None:
        intervals = build_feasibility_intervals(scenario)
    if len(scenario.sensors) == 1 and not scenario.sensor_edges:
        return _solve_one_sensor(scenario, intervals, t0)
    problem, idx = assemble_dual_sdp(scenario, intervals)
    sol = solve(problem)
    positions, value = recover_estimate(scenario, problem, sol.x)
    status = sol.status
    if status == SolveStatus.OPTIMAL and math.isinf(value):
        status = SolveStatus.NUMERICAL_FAILURE

    multipliers: Dict[Edge, Tuple[float, float]] = {}
    for e, edge in enumerate(idx.sensor_edges):
        multipliers[edge] = (float(sol.x[idx.alpha(e)]), float(sol.x[idx.beta(e)]))
    for e, edge in enumerate(idx.anchor_edges):
        multipliers[edge] = (float(sol.x[idx.omega(e)]), float(sol.x[idx.phi(e)]))

    return CentralEstimate(
        positions=positions,
        worst_case_value=max(value, 0.0),
        multipliers=multipliers,
        solver_status=status,
        solve_seconds=time.perf_counter() - t0,
        iterations=sol.iterations,
        gap=sol.gap,
        residual_primal=sol.residuals.primal,
        residual_dual=sol.residuals.dual,
    )


def estimate_to_json(estimate: CentralEstimate) -> str:
    doc = {
        "positions": {str(i): [p[0], p[1]] for i, p in sorted(estimate.positions.items())},
        "worst_case_value": estimate.worst_case_value,
        "solver_status": estimate.solver_status.value,
        "solve_seconds": estimate.solve_seconds,
        "iterations": estimate.iterations,
        "gap": estimate.gap,
        "residual_primal": estimate.residual_primal,
        "residual_dual": estimate.residual_dual,
    }
    return json.dumps(doc, indent=2)
