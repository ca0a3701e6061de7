"""The network-wide program over the stacked coordinates, used only by the tests.

``minmaxloc.central`` solves the relaxed Chebyshev center program one
coordinate at a time.  This module keeps the stacked form it replaced: one
vector y of length 2n (sensor i owns coordinates 2i and 2i+1) and the LMIs

    [[M, f], [f^T, t]] >= 0,    M - I >= 0,

with M = Mt kron I_2, blocks 2n + 1 and 2n wide.  The multipliers sit at the
indices ``central.DualIndex`` gives them; the single t is index 0 and there
is no t_y, so the problem has one variable fewer.  The tests check that the
two forms assemble the same matrices and solve to the same estimate.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from minmaxloc.central import DualIndex
from minmaxloc.model import Edge, IntervalBound, NetworkScenario, Point2, build_feasibility_intervals
from minmaxloc.sdp import Block, SdpProblem


def _coupling_triplets(i: int, j: int, sign: float) -> List[Tuple[int, int, float]]:
    """sign * E_ij kron I_2 (lower triangle)."""
    out = []
    for off in (0, 1):
        p, q = 2 * i + off, 2 * j + off
        out.append((p, p, sign))
        out.append((q, q, sign))
        out.append((max(p, q), min(p, q), -sign))
    return out


def _selector_triplets(i: int, sign: float) -> List[Tuple[int, int, float]]:
    """sign * E_i kron I_2 (lower triangle)."""
    return [(2 * i, 2 * i, sign), (2 * i + 1, 2 * i + 1, sign)]


def assemble_interleaved_dual_sdp(
    scenario: NetworkScenario, intervals: Optional[Dict[Edge, IntervalBound]] = None
) -> Tuple[SdpProblem, DualIndex]:
    """The stacked multiplier SDP: block 0 is [[M, f], [f^T, t]], block 1 is
    M - I, and the pairs are ``DualIndex.pairs``."""
    if intervals is None:
        intervals = build_feasibility_intervals(scenario)
    sensor_index = {s: i for i, s in enumerate(scenario.sensors)}
    idx = DualIndex(
        sensor_edges=tuple(sorted(scenario.sensor_edges)),
        anchor_edges=tuple(sorted(scenario.anchor_edges)),
    )
    n = len(scenario.sensors)
    dim = 2 * n + 1
    m = idx.num_vars - 1  # no t_y

    c = np.zeros(m)
    c[0] = 1.0
    big: Dict[int, List[Tuple[int, int, float]]] = {0: [(dim - 1, dim - 1, 1.0)]}
    ball: Dict[int, List[Tuple[int, int, float]]] = {}

    for e, (u, v) in enumerate(idx.sensor_edges):
        i, j = sensor_index[u], sensor_index[v]
        b = intervals[(u, v)]
        c[idx.alpha(e)] = -b.lower**2
        c[idx.beta(e)] = b.upper**2
        for k, sign in ((idx.alpha(e), -1.0), (idx.beta(e), 1.0)):
            big[k] = _coupling_triplets(i, j, sign)
            ball[k] = _coupling_triplets(i, j, sign)

    for e, (u, k) in enumerate(idx.anchor_edges):
        i = sensor_index[u]
        ax, ay = scenario.anchors[k]
        norm2 = ax * ax + ay * ay
        b = intervals[(u, k)]
        c[idx.omega(e)] = norm2 - b.lower**2
        c[idx.phi(e)] = b.upper**2 - norm2
        for var, sign in ((idx.omega(e), -1.0), (idx.phi(e), 1.0)):
            big[var] = _selector_triplets(i, sign) + [
                (dim - 1, 2 * i, -sign * ax),
                (dim - 1, 2 * i + 1, -sign * ay),
            ]
            ball[var] = _selector_triplets(i, sign)

    blocks = [
        Block(dim, [], big),
        Block(2 * n, [(r, r, -1.0) for r in range(2 * n)], ball),
    ]
    return SdpProblem(num_vars=m, objective=c, blocks=blocks, pairs=idx.pairs), idx


def recover_interleaved_estimate(
    scenario: NetworkScenario, problem: SdpProblem, x: np.ndarray
) -> Dict[int, Point2]:
    """y = -M^{-1} f from the stacked block 0 at ``x``."""
    lmi = problem.blocks[0].evaluate(x)
    y = np.linalg.solve(lmi[:-1, :-1], -lmi[-1, :-1])
    return {s: (float(y[2 * i]), float(y[2 * i + 1])) for i, s in enumerate(scenario.sensors)}
