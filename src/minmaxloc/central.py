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
:func:`chebyshev_qp` solves it exactly by active sets over a working set of
anchors, and :func:`solve_minmax_sdp` hands its KKT multipliers to
:func:`certify` as the 1x1 case, so no SDP is solved and scipy is never
loaded for one sensor.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import Edge, IntervalBound, NetworkScenario, Point2
from .model import build_feasibility_intervals, unanchored_sensors
from .sdp import Block, SdpProblem, SolveStatus, SolverConfig, solve


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
    rho = w[0] - len(w) * np.finfo(float).eps * max(-w[0], w[-1])
    if rho <= 0.0:
        return None
    g = v.T @ f
    y = -v @ (g / w[:, None])
    return y, float((np.sum(g * g / w[:, None]) + h) / rho)


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
    return _positions(scenario, m_mat, f, float(problem.objective @ lam))


def _positions(
    scenario: NetworkScenario, m_mat: np.ndarray, f: np.ndarray, h: float
) -> Tuple[Dict[int, Point2], float]:
    cert = certify(m_mat, f, h)
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


@dataclass(frozen=True)
class ChebyshevQp:
    """KKT point of the single-node relaxed Chebyshev program.

    omega, phi       per reference, the multipliers of its lower and upper
                     bound as solved (0 where the bound is not in the active
                     set); phi - omega sums to one
    position, value  the maximizer y and t - |y|^2 there
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
    position: Point2
    value: float
    consistent: bool
    active_sets: int
    residual_primal: float
    residual_dual: float


@lru_cache(maxsize=32)  # an entry for w references holds up to about 32 w^3 bytes
def _active_sets(refs: int, size: int) -> np.ndarray:
    """Every set of ``size`` planes of distinct references, as plane indices
    2k (lower bound of reference k) and 2k + 1 (upper bound)."""
    chosen = np.array(list(combinations(range(refs), size)), dtype=np.intp).reshape(-1, size)
    sides = np.array(list(product((0, 1), repeat=size)), dtype=np.intp)
    sets = (2 * chosen[:, None, :] + sides).reshape(-1, size)
    sets.setflags(write=False)  # every caller shares the cached array
    return sets


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched solve of a x = b, with NaN rows where rounding left a
    nearly dependent system exactly singular."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i, (ai, bi) in enumerate(zip(a, b)):
            try:
                out[i] = np.linalg.solve(ai, bi)
            except np.linalg.LinAlgError:
                pass
        return out


def _magnitude(y: np.ndarray, t, data_scale: float):
    """The scale of the lifted distances at (y, t), for relative violations."""
    return np.maximum(np.maximum(np.abs(t), np.einsum("...i,...i->...", y, y)), data_scale)


def _closest_kkt_set(
    q: np.ndarray, bounds: np.ndarray, spread: float, data_scale: float
) -> Tuple[float, float, float, np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Of every set of one, two or three planes of distinct, affinely
    independent references, the one whose equality solution comes closest to
    a KKT point of the program over ``q``: its violation, primal and dual
    violations, planes, multipliers nu, y and t, and the number of sets
    solved.  All sets of one size go through one batched solve."""
    qq = np.einsum("ij,ij->i", q, q)
    # plane 2k bounds reference k from below, plane 2k + 1 from above:
    # t - 2 q_k^T y = rhs there, and its multiplier nu must have sign ``sign``
    rhs = (bounds - qq[:, None]).ravel()
    sign = np.tile([-1.0, 1.0], len(q))

    best = None  # (violation, primal, dual, set, nu, y, t)
    solved = 0
    # a nearly singular set may overflow; its violation then rejects it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for size in range(1, min(len(q), 3) + 1):
            sets = _active_sets(len(q), size)
            qs = q[sets // 2]  # (sets, size, 2)
            if size > 1:
                # the squared length or area that the p span, exactly zero for
                # repeated or exactly collinear p, whose planes are dependent;
                # near-dependent ones would only give ill-conditioned solves
                d = qs[:, 1:] - qs[:, :1]
                span = d[:, 0, 0] ** 2 + d[:, 0, 1] ** 2
                if size == 3:
                    span = (d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0]) ** 2
                keep = span > (_SPAN_TOL * spread) ** (size - 1)
                sets, qs = sets[keep], qs[keep]
                if not len(sets):
                    continue
            solved += len(sets)
            # [[H, A^T], [A, 0]] [z; nu] = [(0, 0, 1); rhs] with H = diag(2, 2, 0)
            # and A the planes' rows (-2 q^T, 1)
            a = np.concatenate([-2.0 * qs, np.ones((len(sets), size, 1))], axis=2)
            kkt = np.zeros((len(sets), 3 + size, 3 + size))
            kkt[:, 0, 0] = kkt[:, 1, 1] = 2.0
            kkt[:, :3, 3:] = a.transpose(0, 2, 1)
            kkt[:, 3:, :3] = a
            b = np.zeros((len(sets), 3 + size))
            b[:, 2] = 1.0
            b[:, 3:] = rhs[sets]
            sol = _solve_each(kkt, b)
            y, t, nu = sol[:, :2], sol[:, 2], sol[:, 3:]
            lifted = t[:, None] - 2.0 * y @ q.T + qq
            excess = np.maximum(bounds[:, 0] - lifted, lifted - bounds[:, 1]).max(axis=1)
            primal = np.maximum(excess, 0.0) / _magnitude(y, t, data_scale)
            # wrong-signed multipliers, and stationarity, which a nearly singular
            # solve may miss
            sign_error = np.maximum(-sign[sets] * nu, 0.0).max(axis=1) / np.abs(nu).sum(axis=1)
            stationarity = np.maximum(
                np.abs(nu.sum(axis=1) - 1.0),
                np.abs(y - np.einsum("sj,sji->si", nu, qs)).max(axis=1) / math.sqrt(data_scale),
            )
            dual = np.maximum(sign_error, stationarity)
            violation = np.nan_to_num(np.maximum(primal, dual), nan=np.inf)
            i = int(np.argmin(violation))
            if best is None or violation[i] < best[0]:
                best = (violation[i], primal[i], dual[i], sets[i], nu[i], y[i], t[i])
    return best + (solved,)


def chebyshev_qp(refs: Sequence[Tuple[Point2, float, float]]) -> ChebyshevQp:
    """Maximize t - |y|^2 subject to lower^2 <= t - 2 p^T y + |p|^2 <= upper^2.

    ``refs`` holds one (p, lower^2, upper^2) triple per reference, as for
    the per-node program of :mod:`minmaxloc.dist`.  The middle term is the
    lifted |y - p|^2, so each reference bounds (y, t) by two parallel
    planes.  The objective is strictly concave in y and grows with t, so the
    maximizer is unique, and by Caratheodory's theorem its KKT multipliers
    nu need at most three active planes with affinely independent p, so of
    distinct references.  Every such set of one, two or three planes is
    solved as equalities: stationarity, (-2y, 1) = sum_j nu_j (-2 p_j, 1),
    and the planes.  The set that comes closest to a KKT point, with the
    other references' bounds met and nu_j >= 0 on upper planes and <= 0 on
    lower ones, wins.  The references are centered first, which the
    program's translation invariance allows, to keep the solves well
    conditioned.

    The sets grow as the cube of the references, so the enumeration runs
    over a working set: at first the ``_WORKING_REFS`` references with the
    smallest upper bounds, all of them when there are no more.  While the
    working set's optimum breaks another reference's bounds, the reference
    it breaks most joins and the working set is solved again.  An optimum
    that meets every bound is the whole program's, with nu = 0 off the
    working set, and a working set that admits no (y, t) leaves the whole
    program none either.
    """
    p = np.array([ref[0] for ref in refs], dtype=float).reshape(-1, 2)
    bounds = np.array([ref[1:] for ref in refs], dtype=float).reshape(-1, 2)
    if not len(p):
        raise ValueError("the program needs at least one reference")
    if not (np.isfinite(p).all() and np.isfinite(bounds).all()):
        raise ValueError("references must be finite")
    centre = p.mean(axis=0)
    q = p - centre
    qq = np.einsum("ij,ij->i", q, q)
    spread = float(qq.max())
    data_scale = max(spread, float(bounds.max()), np.finfo(float).tiny)

    work = np.sort(np.argsort(bounds[:, 1], kind="stable")[:_WORKING_REFS])
    solved = 0
    while True:
        violation, primal, dual, active, nu, y, t, count = _closest_kkt_set(
            q[work], bounds[work], spread, data_scale
        )
        solved += count
        lifted = t - 2.0 * (q @ y) + qq
        excess = np.maximum(bounds[:, 0] - lifted, lifted - bounds[:, 1])
        excess[work] = -np.inf
        worst = int(np.argmax(excess))
        outside = max(float(excess[worst]), 0.0) / _magnitude(y, t, data_scale)
        if violation > _KKT_TOL or outside <= _KKT_TOL:
            break
        work = np.sort(np.append(work, worst))

    primal, violation = max(primal, outside), max(violation, outside)
    omega, phi = np.zeros(len(q)), np.zeros(len(q))
    for plane, v in zip(active, nu):
        if plane % 2:
            phi[work[plane // 2]] = v
        else:
            omega[work[plane // 2]] = -v
    return ChebyshevQp(
        omega=omega,
        phi=phi,
        position=(float(centre[0] + y[0]), float(centre[1] + y[1])),
        value=float(t - y @ y),
        consistent=bool(violation <= _KKT_TOL),
        active_sets=solved,
        residual_primal=float(primal),
        residual_dual=float(dual),
    )


def _solve_one_sensor(
    scenario: NetworkScenario, intervals: Dict[Edge, IntervalBound], t0: float
) -> CentralEstimate:
    """The network program for one sensor, from :func:`chebyshev_qp`.

    Its multipliers, clipped at zero, give Mt = kappa = sum(phi - omega),
    f = -sum (phi - omega) a and h, which :func:`certify` turns into the
    estimate and its bound, as for the SDP.  The data are inconsistent when
    the QP has no KKT point or the certified value is below minus the
    rounding bound of its evaluation, (2N + 4) eps times the sum of the
    magnitudes that enter it, so that exact data, whose value is zero, pass.
    """
    _require_anchored(scenario)
    edges = sorted(scenario.anchor_edges)
    refs = [(scenario.anchors[e[1]], intervals[e].lower ** 2, intervals[e].upper ** 2) for e in edges]
    qp = chebyshev_qp(refs)
    a = np.array([ref[0] for ref in refs], dtype=float)
    lower_sq, upper_sq = np.array([ref[1:] for ref in refs]).T

    omega, phi = np.maximum(qp.omega, 0.0), np.maximum(qp.phi, 0.0)
    norm2 = np.einsum("ij,ij->i", a, a)
    kappa = float(phi.sum() - omega.sum())
    f = -((phi - omega) @ a)
    h = float(omega @ (norm2 - lower_sq) + phi @ (upper_sq - norm2))
    positions, value = _positions(scenario, np.array([[kappa]]), f[None, :], h)

    magnitude = float(omega @ (norm2 + lower_sq) + phi @ (upper_sq + norm2))
    if kappa > 0.0:
        magnitude += float(f @ f) / kappa
    rounding = (2 * len(edges) + 4) * np.finfo(float).eps * magnitude
    consistent = qp.consistent and value >= -rounding
    status = SolveStatus.OPTIMAL
    if not consistent or math.isinf(value):
        status = SolveStatus.NUMERICAL_FAILURE
    gap = math.inf
    if math.isfinite(value):
        gap = abs(value - qp.value) / (1.0 + abs(value) + abs(qp.value))
    return CentralEstimate(
        positions=positions,
        worst_case_value=max(value, 0.0),
        multipliers={e: (float(qp.omega[i]), float(qp.phi[i])) for i, e in enumerate(edges)},
        solver_status=status,
        solve_seconds=time.perf_counter() - t0,
        iterations=qp.active_sets,
        gap=gap,
        residual_primal=qp.residual_primal,
        residual_dual=qp.residual_dual,
    )


def solve_minmax_sdp(
    scenario: NetworkScenario,
    intervals: Optional[Dict[Edge, IntervalBound]] = None,
    config: Optional[SolverConfig] = None,
) -> CentralEstimate:
    """Estimate every sensor position and certify the worst-case error.

    One sensor without sensor edges is solved exactly as a QP
    (:func:`chebyshev_qp`), every other network by the SDP.
    """
    t0 = time.perf_counter()
    if intervals is None:
        intervals = build_feasibility_intervals(scenario)
    if len(scenario.sensors) == 1 and not scenario.sensor_edges:
        return _solve_one_sensor(scenario, intervals, t0)
    problem, idx = assemble_dual_sdp(scenario, intervals)
    sol = solve(problem, config)
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
