"""Fixed-point bound flooding, neighbor lists, the per-node SDP and the
node-by-node distributed run, used only by the test suite.

The plain way to answer what ``minmaxloc.dist.propagate_distance_bounds``
answers breadth-first: synchronous relaxation rounds over every (sensor,
anchor) pair until the whole table stops changing.  Each round a sensor
without a direct measurement to anchor k re-derives its interval from the
neighbor with the fewest hops to k (smallest id on ties), so the fixed point
uses the same parents and the same arithmetic, and the tests compare the two
tables with ``==``, key order included.

``chebyshev_dual`` is the per-node program as an SDP, the second oracle for
the QP of ``minmaxloc.central.certified_centers`` and a program shape for
the ``sdp`` tests.  ``one_node`` is ``certified_centers`` for one node's
list of (p, lower^2, upper^2) triples, a batch of one.

``initial_estimate`` and ``iterate_node`` build one node's references and
apply the rules of a round in scalar Python, one ``one_node`` solve each,
and ``run_dis_minmax`` is the distributed run one node at a time with them:
a dict of ``NodeState`` per round.  The tests check the one-node functions
and the whole-round batches of ``minmaxloc.dist`` against them.
"""

import math
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from minmaxloc import dist
from minmaxloc.central import CenterBatch, certified_centers
from minmaxloc.dist import (
    BoundEntry,
    BoundTable,
    DisMinMaxConfig,
    DisMinMaxResult,
    NodeState,
    RoundRecord,
    UnreachableAnchor,
    _interval,
)
from minmaxloc.model import Edge, IntervalBound, NetworkScenario, Point2, build_feasibility_intervals
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


def one_node(refs: List[Tuple[Point2, float, float]]) -> CenterBatch:
    """``certified_centers`` of one node whose references are the
    (p, lower^2, upper^2) triples ``refs``: a batch of one row."""
    return certified_centers([[p for p, _, _ in refs]], [[b for _, *b in refs]], [len(refs)])


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


def initial_estimate(
    sensor: int, table: BoundTable, anchors: Mapping[int, Point2]
) -> NodeState:
    """``minmaxloc.dist.initial_estimate``: the QP over the squared
    propagated interval to every anchor, in id order."""
    refs = [
        (anchors[k], table[(sensor, k)].lower ** 2, table[(sensor, k)].upper ** 2)
        for k in sorted(anchors)
    ]
    cert = one_node(refs)
    if not cert.certified[0]:
        reason = "the multipliers certify nothing"
        if not cert.consistent[0]:
            reason = "its anchor intervals are inconsistent"
        raise RuntimeError(f"initial estimate for sensor {sensor} not certified: {reason}")
    value = max(float(cert.value[0]), 0.0)
    return NodeState(tuple(cert.center[0].tolist()), value, False, 0, value)


def iterate_node(
    sensor: int,
    neighbor_states: Mapping[int, NodeState],
    own: NodeState,
    bounds: Mapping[Edge, IntervalBound],
    config: Optional[DisMinMaxConfig] = None,
) -> NodeState:
    """``minmaxloc.dist.iterate_node``: the own ball first, then each
    neighbor by id with its interval widened by its certified radius."""
    if not neighbor_states:
        raise ValueError(f"sensor {sensor} has no neighbors to iterate against")
    cfg = config or DisMinMaxConfig()
    if own.radius_sq <= cfg.epsilon:
        return replace(own, iteration=own.iteration + 1, localized=True, raw_radius_sq=own.radius_sq)
    refs = [(own.estimate, 0.0, own.radius_sq)]
    for j in sorted(neighbor_states):
        b = _interval(bounds, sensor, j)
        slack = math.sqrt(max(neighbor_states[j].radius_sq, 0.0))
        refs.append(
            (neighbor_states[j].estimate, max(b.lower - slack, 0.0) ** 2, (b.upper + slack) ** 2)
        )
    cert = one_node(refs)
    if not cert.certified[0]:
        return replace(own, iteration=own.iteration + 1, localized=False, raw_radius_sq=own.radius_sq)
    raw = max(float(cert.value[0]), 0.0)
    if raw > own.radius_sq:
        # rounding put the new center's certificate above the old radius
        return replace(own, iteration=own.iteration + 1, localized=True, raw_radius_sq=raw)
    center = tuple(cert.center[0].tolist())
    return NodeState(center, raw, own.radius_sq - raw <= cfg.epsilon, own.iteration + 1, raw)


def run_dis_minmax(
    scenario: NetworkScenario, config: Optional[DisMinMaxConfig] = None
) -> DisMinMaxResult:
    """``minmaxloc.dist.run_dis_minmax`` node by node, with dict states."""
    cfg = config or DisMinMaxConfig()
    bounds = build_feasibility_intervals(scenario)
    table = dist.propagate_distance_bounds(scenario, bounds)
    states = {i: initial_estimate(i, table, scenario.anchors) for i in scenario.sensors}

    def bound(states):
        return math.sqrt(sum(s.radius_sq for s in states.values()) / len(states))

    rounds = [RoundRecord(0, dict(states), bound(states), 0)]
    nbrs = {i: neighbors(scenario, i) for i in scenario.sensors}
    for tau in range(1, cfg.max_rounds + 1):
        if all(s.localized for s in states.values()):
            break
        prev, states, messages = states, {}, 0
        for i in scenario.sensors:
            if prev[i].localized:
                states[i] = prev[i]
                continue
            nbr_states = {}
            for j in nbrs[i]:
                if j in scenario.anchors:
                    nbr_states[j] = NodeState(scenario.anchors[j], 0.0, True, tau - 1, 0.0)
                else:
                    nbr_states[j] = prev[j]
                    messages += 2
            states[i] = iterate_node(i, nbr_states, prev[i], bounds, cfg)
        rounds.append(RoundRecord(tau, dict(states), bound(states), messages))
    return DisMinMaxResult(rounds, all(s.localized for s in states.values()))
