"""Centralized minimax localization via one network-wide SDP.

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

Variable ordering in the assembled problem is frozen and documented on
``DualIndex``, so multipliers can be mapped back to edges.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
    solve_seconds    wall-clock time spent assembling and solving
    iterations       interior-point iterations of the solve
    gap, residual_primal, residual_dual
                     relative duality gap and residuals of the returned iterate
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
    unanchored = unanchored_sensors(scenario)
    if unanchored:
        raise ValueError(
            f"sensors {unanchored} have no path to an anchor; the estimate is unanchored"
        )

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
    cert = certify(m_mat, f, float(problem.objective @ lam))
    y, value = cert or (np.linalg.lstsq(m_mat, -f, rcond=None)[0], math.inf)
    positions = {s: (float(y[i, 0]), float(y[i, 1])) for i, s in enumerate(scenario.sensors)}
    return positions, value


def solve_minmax_sdp(
    scenario: NetworkScenario,
    intervals: Optional[Dict[Edge, IntervalBound]] = None,
    config: Optional[SolverConfig] = None,
) -> CentralEstimate:
    """Estimate every sensor position and certify the worst-case error."""
    t0 = time.perf_counter()
    if intervals is None:
        intervals = build_feasibility_intervals(scenario)
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
