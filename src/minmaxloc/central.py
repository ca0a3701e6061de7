"""Centralized minimax localization via one network-wide SDP.

All sensor positions are stacked into one vector y of length 2n (sensor i
owns coordinates 2i and 2i+1).  Every measurement interval contributes a
pair of nonnegative multipliers, one per bound.  Collecting them into

    M  =  -sum_edges (alpha - beta) E_ij  -  sum_anchor_edges (omega - phi) E_i
    f  =   sum_anchor_edges (omega - phi) a_k  (in sensor i's coordinate slots)

where E_ij couples the coordinates of sensors i and j with the quadratic
|y_i - y_j|^2 and E_i selects |y_i|^2, the certified worst-case value of an
estimate is the optimum of

    minimize    t + h(multipliers)
    subject to  [[M, f], [f^T, t]] >= 0,    M - I >= 0,    multipliers >= 0,

with h collecting the interval endpoints.  The minimizing estimate is read
off the optimal multipliers as y = -M^{-1} f, and the optimal value bounds
sum_i |y_i - x_i|^2 for every network configuration x consistent with the
measurement intervals.  Recovery evaluates the assembled first block at the
multipliers and reads M and f off it, so the estimate is by construction the
one the solved LMI certifies.

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

from .model import Edge, IntervalBound, NetworkScenario, Point2, build_feasibility_intervals
from .sdp import Block, SdpProblem, SdpSolution, SolveStatus, SolverConfig, scalar_block, solve


@dataclass(frozen=True)
class DualIndex:
    """Variable layout of the dual assembly.

    Index 0 is t; then one alpha (lower bound) and one beta (upper bound)
    per sensor-sensor edge in sorted edge order; then one omega (lower) and
    one phi (upper) per sensor-anchor edge in sorted edge order.
    """

    sensor_edges: Tuple[Edge, ...]
    anchor_edges: Tuple[Edge, ...]

    @property
    def num_vars(self) -> int:
        return 1 + 2 * len(self.sensor_edges) + 2 * len(self.anchor_edges)

    def alpha(self, e: int) -> int:
        return 1 + 2 * e

    def beta(self, e: int) -> int:
        return 2 + 2 * e

    def omega(self, e: int) -> int:
        return 1 + 2 * len(self.sensor_edges) + 2 * e

    def phi(self, e: int) -> int:
        return 2 + 2 * len(self.sensor_edges) + 2 * e


@dataclass
class CentralEstimate:
    """Result of the centralized solve.

    positions        sensor id -> estimated coordinates
    worst_case_value certified bound on the total squared position error
                     over all interval-consistent configurations (>= 0)
    multipliers      edge -> (lower-bound, upper-bound) dual weights
    solver_status    status reported by the interior-point solver
    solve_seconds    wall-clock time spent assembling and solving
    """

    positions: Dict[int, Point2]
    worst_case_value: float
    multipliers: Dict[Edge, Tuple[float, float]]
    solver_status: SolveStatus
    solve_seconds: float


def _coupling_triplets(i: int, j: int, sign: float) -> List[Tuple[int, int, float]]:
    """sign * E_ij restricted to the 2n x 2n corner (lower triangle)."""
    out = []
    for off in (0, 1):
        p, q = 2 * i + off, 2 * j + off
        out.append((p, p, sign))
        out.append((q, q, sign))
        out.append((max(p, q), min(p, q), -sign))
    return out


def _selector_triplets(i: int, sign: float) -> List[Tuple[int, int, float]]:
    """sign * E_i (lower triangle)."""
    return [(2 * i, 2 * i, sign), (2 * i + 1, 2 * i + 1, sign)]


def assemble_dual_sdp(
    scenario: NetworkScenario, intervals: Optional[Dict[Edge, IntervalBound]] = None
) -> Tuple[SdpProblem, DualIndex]:
    """Build the multiplier SDP for a scenario.

    The first block is [[M, f], [f^T, t]] and the second M - I.  Needs at
    least one sensor-anchor edge; without one the worst case is
    unbounded (the whole network can translate freely) and the program would
    be infeasible.
    """
    if intervals is None:
        intervals = build_feasibility_intervals(scenario)
    if not scenario.anchor_edges:
        raise ValueError("scenario has no sensor-anchor edges; the estimate is unanchored")

    sensor_index = {s: i for i, s in enumerate(scenario.sensors)}
    idx = DualIndex(
        sensor_edges=tuple(sorted(scenario.sensor_edges)),
        anchor_edges=tuple(sorted(scenario.anchor_edges)),
    )
    n = len(scenario.sensors)
    dim = 2 * n + 1
    m = idx.num_vars

    c = np.zeros(m)
    c[0] = 1.0

    big: Dict[int, List[Tuple[int, int, float]]] = {0: [(dim - 1, dim - 1, 1.0)]}
    ball: Dict[int, List[Tuple[int, int, float]]] = {}

    for e, (u, v) in enumerate(idx.sensor_edges):
        i, j = sensor_index[u], sensor_index[v]
        b = intervals[(u, v)]
        c[idx.alpha(e)] = -b.lower**2
        c[idx.beta(e)] = b.upper**2
        big[idx.alpha(e)] = _coupling_triplets(i, j, -1.0)
        big[idx.beta(e)] = _coupling_triplets(i, j, 1.0)
        ball[idx.alpha(e)] = _coupling_triplets(i, j, -1.0)
        ball[idx.beta(e)] = _coupling_triplets(i, j, 1.0)

    for e, (u, k) in enumerate(idx.anchor_edges):
        i = sensor_index[u]
        ax, ay = scenario.anchors[k]
        norm2 = ax * ax + ay * ay
        b = intervals[(u, k)]
        c[idx.omega(e)] = norm2 - b.lower**2
        c[idx.phi(e)] = b.upper**2 - norm2
        big[idx.omega(e)] = _selector_triplets(i, -1.0) + [
            (dim - 1, 2 * i, ax),
            (dim - 1, 2 * i + 1, ay),
        ]
        big[idx.phi(e)] = _selector_triplets(i, 1.0) + [
            (dim - 1, 2 * i, -ax),
            (dim - 1, 2 * i + 1, -ay),
        ]
        ball[idx.omega(e)] = _selector_triplets(i, -1.0)
        ball[idx.phi(e)] = _selector_triplets(i, 1.0)

    blocks = [
        Block(dim, [], big),
        Block(2 * n, [(r, r, -1.0) for r in range(2 * n)], ball),
    ]
    for k in range(1, m):
        blocks.append(scalar_block(0.0, {k: 1.0}))

    return SdpProblem(num_vars=m, objective=c, blocks=blocks), idx


def recover_estimate(
    scenario: NetworkScenario, problem: SdpProblem, x: np.ndarray
) -> Tuple[Dict[int, Point2], bool]:
    """Positions encoded by optimal multipliers, plus a health flag.

    Evaluates the assembled first block at ``x``, which is exactly
    [[M, f], [f^T, t]], and solves M y = -f for the stacked coordinates.
    M >= I at any feasible point, so an M with smallest eigenvalue
    materially below 1 means the solver returned garbage; the flag comes
    back False and the solve is attempted anyway with a tiny diagonal lift.
    """
    lmi = problem.blocks[0].evaluate(x)
    m_mat, f = lmi[:-1, :-1], lmi[-1, :-1]

    eigmin = float(np.linalg.eigvalsh(m_mat)[0])
    healthy = eigmin >= 1.0 - 1e-6
    try:
        chol = np.linalg.cholesky(m_mat + 1e-10 * np.eye(len(f)))
        y = np.linalg.solve(chol.T, np.linalg.solve(chol, -f))
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(m_mat, -f, rcond=None)
        healthy = False

    positions = {
        s: (float(y[2 * i]), float(y[2 * i + 1])) for i, s in enumerate(scenario.sensors)
    }
    return positions, healthy


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
    positions, healthy = recover_estimate(scenario, problem, sol.x)
    status = sol.status
    if status == SolveStatus.OPTIMAL and not healthy:
        status = SolveStatus.NUMERICAL_FAILURE

    multipliers: Dict[Edge, Tuple[float, float]] = {}
    for e, edge in enumerate(idx.sensor_edges):
        multipliers[edge] = (float(sol.x[idx.alpha(e)]), float(sol.x[idx.beta(e)]))
    for e, edge in enumerate(idx.anchor_edges):
        multipliers[edge] = (float(sol.x[idx.omega(e)]), float(sol.x[idx.phi(e)]))

    return CentralEstimate(
        positions=positions,
        worst_case_value=max(sol.objective_value, 0.0),
        multipliers=multipliers,
        solver_status=status,
        solve_seconds=time.perf_counter() - t0,
    )


def estimate_to_json(estimate: CentralEstimate) -> str:
    doc = {
        "positions": {str(i): [p[0], p[1]] for i, p in sorted(estimate.positions.items())},
        "worst_case_value": estimate.worst_case_value,
        "solver_status": estimate.solver_status.value,
        "solve_seconds": estimate.solve_seconds,
    }
    return json.dumps(doc, indent=2)
