"""Test-only companions of ``minmaxloc.central``.

The lifted moment program reaches the multiplier program's optimum from the
other side, so the suite uses it as a second route to the worst-case value.
The rejection sampler draws network configurations consistent with the
measurement intervals, which the certificate must cover.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from minmaxloc.model import Edge, IntervalBound, NetworkScenario, build_feasibility_intervals
from minmaxloc.sdp import Block, SdpProblem, scalar_block


@dataclass(frozen=True)
class PrimalIndex:
    """Variable layout of the lifted primal: the upper triangle of the
    moment matrix column-major by (p, q) with p <= q, then the 2n stacked
    coordinates, then the scalar bounding s >= |y|^2."""

    n_sensors: int

    def delta(self, p: int, q: int) -> int:
        if p > q:
            p, q = q, p
        return q * (q + 1) // 2 + p

    @property
    def y0(self) -> int:
        d = 2 * self.n_sensors
        return d * (d + 1) // 2

    def y(self, r: int) -> int:
        return self.y0 + r

    @property
    def s(self) -> int:
        return self.y0 + 2 * self.n_sensors

    @property
    def num_vars(self) -> int:
        return self.s + 1


def assemble_primal_sdp(
    scenario: NetworkScenario, intervals: Optional[Dict[Edge, IntervalBound]] = None
) -> Tuple[SdpProblem, PrimalIndex]:
    """Lifted moment program whose negated optimum is the worst-case value.

    Small networks only: the moment matrix has O(n^2) entries, all of them
    solver variables.  The solver minimizes s - trace, so callers negate.
    """
    if intervals is None:
        intervals = build_feasibility_intervals(scenario)
    if not scenario.anchor_edges:
        raise ValueError("scenario has no sensor-anchor edges; the estimate is unanchored")

    sensor_index = {s: i for i, s in enumerate(scenario.sensors)}
    n = len(scenario.sensors)
    d = 2 * n
    idx = PrimalIndex(n)
    m = idx.num_vars

    c = np.zeros(m)
    c[idx.s] = 1.0
    for p in range(d):
        c[idx.delta(p, p)] = -1.0

    moment: Dict[int, List[Tuple[int, int, float]]] = {}
    for q in range(d):
        for p in range(q + 1):
            moment[idx.delta(p, q)] = [(q, p, 1.0)]
    for r in range(d):
        moment.setdefault(idx.y(r), []).append((d, r, 1.0))

    slack: Dict[int, List[Tuple[int, int, float]]] = {idx.s: [(d, d, 1.0)]}
    for r in range(d):
        slack[idx.y(r)] = [(d, r, 1.0)]

    blocks = [
        Block(d + 1, [(d, d, 1.0)], moment),
        Block(d + 1, [(r, r, 1.0) for r in range(d)], slack),
    ]

    def edge_quadratic(i: int, j: int) -> Dict[int, float]:
        coeffs: Dict[int, float] = {}
        for off in (0, 1):
            p, q = 2 * i + off, 2 * j + off
            coeffs[idx.delta(p, p)] = coeffs.get(idx.delta(p, p), 0.0) + 1.0
            coeffs[idx.delta(q, q)] = coeffs.get(idx.delta(q, q), 0.0) + 1.0
            coeffs[idx.delta(p, q)] = coeffs.get(idx.delta(p, q), 0.0) - 2.0
        return coeffs

    for u, v in sorted(scenario.sensor_edges):
        i, j = sensor_index[u], sensor_index[v]
        b = intervals[(u, v)]
        g = edge_quadratic(i, j)
        blocks.append(scalar_block(-b.lower**2, g))
        blocks.append(scalar_block(b.upper**2, {k: -w for k, w in g.items()}))

    for u, k in sorted(scenario.anchor_edges):
        i = sensor_index[u]
        ax, ay = scenario.anchors[k]
        norm2 = ax * ax + ay * ay
        b = intervals[(u, k)]
        g = {
            idx.delta(2 * i, 2 * i): 1.0,
            idx.delta(2 * i + 1, 2 * i + 1): 1.0,
            idx.y(2 * i): -2.0 * ax,
            idx.y(2 * i + 1): -2.0 * ay,
        }
        blocks.append(scalar_block(norm2 - b.lower**2, g))
        blocks.append(scalar_block(b.upper**2 - norm2, {k2: -w for k2, w in g.items()}))

    return SdpProblem(num_vars=m, objective=c, blocks=blocks), idx


def sample_feasible_positions(
    scenario: NetworkScenario,
    intervals: Optional[Dict[Edge, IntervalBound]] = None,
    n_samples: int = 100,
    seed: int = 0,
    max_draws: int = 10**6,
) -> np.ndarray:
    """Rejection-sample network configurations consistent with the intervals.

    Draws full position vectors uniformly from the box spanned by the
    anchors' reach and keeps those satisfying every interval.  Returns an
    array of shape (k, n_sensors, 2) with k <= n_samples; k falls short when
    ``max_draws`` proposals are exhausted, which happens quickly for joint
    regions of more than a couple of sensors.
    """
    if intervals is None:
        intervals = build_feasibility_intervals(scenario)
    sensor_index = {s: i for i, s in enumerate(scenario.sensors)}
    n = len(scenario.sensors)

    lo = np.array([np.inf, np.inf])
    hi = np.array([-np.inf, -np.inf])
    for (u, k) in scenario.anchor_edges:
        a = np.asarray(scenario.anchors[k])
        r = intervals[(u, k)].upper
        lo = np.minimum(lo, a - r)
        hi = np.maximum(hi, a + r)
    if not np.isfinite(lo).all():
        raise ValueError("cannot bound the feasible set without anchor edges")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xFEA5,)))
    accepted: List[np.ndarray] = []
    draws = 0
    batch = max(256, n_samples)
    while len(accepted) < n_samples and draws < max_draws:
        take = min(batch, max_draws - draws)
        draws += take
        pts = rng.uniform(lo, hi, size=(take, n, 2))
        ok = np.ones(take, dtype=bool)
        for (u, v) in scenario.sensor_edges:
            b = intervals[(u, v)]
            dvec = pts[:, sensor_index[u]] - pts[:, sensor_index[v]]
            dist = np.hypot(dvec[:, 0], dvec[:, 1])
            ok &= (dist >= b.lower) & (dist <= b.upper)
        for (u, k) in scenario.anchor_edges:
            b = intervals[(u, k)]
            dvec = pts[:, sensor_index[u]] - np.asarray(scenario.anchors[k])
            dist = np.hypot(dvec[:, 0], dvec[:, 1])
            ok &= (dist >= b.lower) & (dist <= b.upper)
        for row in pts[ok]:
            if len(accepted) < n_samples:
                accepted.append(row)
    if not accepted:
        return np.zeros((0, n, 2))
    return np.stack(accepted)
