"""Fixed-point bound flooding, neighbor lists and the per-node SDP, used only
by the test suite.

The plain way to answer what ``minmaxloc.dist.propagate_distance_bounds``
answers breadth-first: synchronous relaxation rounds over every (sensor,
anchor) pair until the whole table stops changing.  Each round a sensor
without a direct measurement to anchor k re-derives its interval from the
neighbor with the fewest hops to k (smallest id on ties), so the fixed point
uses the same parents and the same arithmetic, and the tests compare the two
tables with ``==``, key order included.

``chebyshev_dual`` is the per-node program as an SDP, the second oracle for
``minmaxloc.central.chebyshev_qp`` and a program shape for the ``sdp`` tests.
"""

import math
from typing import Dict, List, Mapping, Tuple

import numpy as np

from minmaxloc.dist import BoundEntry, BoundTable, UnreachableAnchor, _interval
from minmaxloc.model import Edge, IntervalBound, NetworkScenario, Point2
from minmaxloc.sdp import Block, SdpProblem, SolverConfig

# The per-node solver accepts dual feasibility at 1e-6 rather than the solver
# default: symmetric anchor layouts put these tiny programs on degenerate
# faces where pushing the dual residual to 1e-8 exceeds what finite precision
# delivers, and every consumer of the certificates works at 1e-6 anyway.
NODE_SOLVER = SolverConfig(feas_tol=1e-6)


def chebyshev_dual(refs: List[Tuple[Point2, float, float]]) -> SdpProblem:
    """Single-node dual SDP of the relaxed Chebyshev center.

    ``refs`` holds (position p, lower^2, upper^2) triples.  Variables are t,
    then each reference's lower and upper multiplier, one negated pair.
    kappa and g sum the upper multipliers less the lower ones, times 1 and
    times p; the one block is diag([[kappa I, g], [g^T, t]], kappa - 1), so
    the normalization kappa >= 1 couples no multipliers, and each
    reference's two form one sign class of the solver.  The center is
    g / kappa, and :func:`minmaxloc.central.certify` certifies it in its 1x1
    case Mt = kappa, with f = -g.
    """
    m = 1 + 2 * len(refs)
    c = np.zeros(m)
    c[0] = 1.0
    lmi: Dict[int, List[Tuple[int, int, float]]] = {0: [(2, 2, 1.0)]}
    for e, ((px, py), lower_sq, upper_sq) in enumerate(refs):
        sq = px * px + py * py
        c[1 + 2 * e] = sq - lower_sq
        c[2 + 2 * e] = upper_sq - sq
        upper = [(0, 0, 1.0), (1, 1, 1.0), (2, 0, px), (2, 1, py), (3, 3, 1.0)]
        lmi[1 + 2 * e] = [(i, j, -v) for i, j, v in upper]
        lmi[2 + 2 * e] = upper

    block = Block(4, [(3, 3, -1.0)], lmi)
    return SdpProblem(m, c, [block], pairs=np.arange(1, m).reshape(-1, 2))


def neighbors(scenario: NetworkScenario, i: int) -> List[int]:
    """All nodes sharing an edge with node ``i``, ascending id."""
    out = []
    for a, b in scenario.all_edges():
        if a == i:
            out.append(b)
        elif b == i:
            out.append(a)
    return sorted(out)


def propagate_distance_bounds(
    scenario: NetworkScenario, bounds: Mapping[Edge, IntervalBound]
) -> BoundTable:
    anchor_ids = sorted(scenario.anchors)
    sensor_neighbors = {i: neighbors(scenario, i) for i in scenario.sensors}

    # (node, anchor) -> entry, where node may be a sensor or an anchor.
    table: Dict[Tuple[int, int], BoundEntry] = {}
    for m in anchor_ids:
        for k in anchor_ids:
            if m == k:
                continue
            am, ak = scenario.anchors[m], scenario.anchors[k]
            d = math.hypot(am[0] - ak[0], am[1] - ak[1])
            table[(m, k)] = BoundEntry(d, d, 1)
    direct: Dict[Tuple[int, int], BoundEntry] = {}
    for (i, k) in scenario.anchor_edges:
        b = bounds[(i, k)]
        direct[(i, k)] = BoundEntry(b.lower, b.upper, 1)
    table.update(direct)

    while True:
        updated = dict(table)
        for i in scenario.sensors:
            for k in anchor_ids:
                if (i, k) in direct:
                    continue
                candidates = [
                    (table[(j, k)].hops, j)
                    for j in sensor_neighbors[i]
                    if (j, k) in table
                ]
                if not candidates:
                    continue
                hops_jk, j = min(candidates)
                via = table[(j, k)]
                edge = _interval(bounds, i, j)
                lower = max(edge.lower - via.upper, via.lower - edge.upper, 0.0)
                updated[(i, k)] = BoundEntry(lower, edge.upper + via.upper, hops_jk + 1)
        if updated == table:
            break
        table = updated

    result: BoundTable = {}
    for i in scenario.sensors:
        for k in anchor_ids:
            if (i, k) not in table:
                raise UnreachableAnchor(
                    f"sensor {i} has no path to anchor {k}; the graph is not connected"
                )
            result[(i, k)] = table[(i, k)]
    return result
