"""Distributed minimax localization with certified shrinking radii.

The algorithm runs in three phases on each sensor:

1. Bound propagation.  Anchors flood their positions with a hop counter;
   a sensor without a direct measurement to anchor k chains its tightest
   neighbor information along the shortest hop path into a distance
   interval [lower_ik, upper_ik] (triangle inequality both ways).

2. Initial estimate.  Each sensor solves a small SDP over its anchor
   distance intervals alone.  Its multipliers certify a squared
   radius: the true position lies within sqrt(radius_sq) of the estimate
   whenever every measurement error is within the error bound.

3. Iterative refinement.  In synchronous rounds, every not-yet-localized
   sensor treats its neighbors' current estimates as anchors, intersects
   the resulting annuli with its own certified ball, and re-centers.  The
   ball constraint alone guarantees the new radius never exceeds the old
   one (the new program admits the previous center as a feasible dual
   point with value radius_sq).  Where rounding puts the certified value
   above the old radius, the sensor keeps its old estimate and radius, so
   every reported pair is certified, the per-node radii never grow and
   neither does the network-wide RMSE upper bound.

Each per-node program is the single-sensor case of the network dual solved
by :mod:`minmaxloc.central`, over references (p, lower^2, upper^2) that
bound |y - p|^2.  The sensor's own ball is one with lower^2 = 0, which the
lifted relaxation already implies.  The LMI is
diag([[kappa I, g], [g^T, t]], kappa - 1) >= 0, so the normalization
kappa >= 1 couples no multipliers, and each reference's two form one sign
class of the solver.  The center g / kappa and the certified squared radius
come from :func:`minmaxloc.central.certify`, in its 1x1 case Mt = kappa.

All rounds are Jacobi: updates at round tau+1 read only round-tau states,
so any execution order inside a round produces the identical trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .central import certify
from .model import Edge, IntervalBound, NetworkScenario, Point2, build_feasibility_intervals
from .sdp import Block, SdpProblem, SdpSolution, SolveStatus, SolverConfig, solve


# The per-node solver accepts dual feasibility at 1e-6 rather than the solver
# default: symmetric anchor layouts put these tiny programs on degenerate
# faces where pushing the dual residual to 1e-8 exceeds what finite precision
# delivers, and every consumer of the certificates works at 1e-6 anyway.
_NODE_SOLVER = SolverConfig(feas_tol=1e-6)


class UnreachableAnchor(RuntimeError):
    """A sensor never acquired a distance bound to some anchor."""


@dataclass(frozen=True)
class BoundEntry:
    """Distance interval from one sensor to one anchor plus its hop count."""

    lower: float
    upper: float
    hops: int

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError(f"invalid bound [{self.lower}, {self.upper}]")
        if self.hops < 1:
            raise ValueError("hop count must be >= 1")


BoundTable = Dict[Tuple[int, int], BoundEntry]


@dataclass
class NodeState:
    """Per-sensor algorithm state after some round.

    ``radius_sq`` is the squared error bound that some round's multipliers
    certify for ``estimate``, and never grows across rounds;
    ``raw_radius_sq`` is what this round's solve certified, kept or not, so
    the monotonicity guarantee can be audited.
    """

    estimate: Point2
    radius_sq: float
    localized: bool
    iteration: int
    raw_radius_sq: float

    def __post_init__(self):
        if self.radius_sq < 0.0:
            raise ValueError("radius_sq must be nonnegative")


@dataclass(frozen=True)
class DisMinMaxConfig:
    """Knobs for the distributed run.

    ``epsilon`` declares a node localized once its certified squared radius
    stops shrinking by more than this.
    """

    epsilon: float = 1e-6
    max_rounds: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


def _interval(bounds: Mapping[Edge, IntervalBound], a: int, b: int) -> IntervalBound:
    try:
        return bounds[(a, b)]
    except KeyError:
        return bounds[(b, a)]


def _adjacency(scenario: NetworkScenario) -> Dict[int, List[int]]:
    """Every node's neighbors, ascending id, from one pass over the edges."""
    nbrs: Dict[int, List[int]] = {i: [] for i in (*scenario.sensors, *scenario.anchors)}
    for a, b in scenario.all_edges():
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    for row in nbrs.values():
        row.sort()
    return nbrs


def propagate_distance_bounds(
    scenario: NetworkScenario, bounds: Mapping[Edge, IntervalBound]
) -> BoundTable:
    """Hop-count flooding of per-anchor distance intervals.

    A sensor adjacent to anchor k keeps its measured interval at hop count
    1.  Anchors participate as relays with exact pairwise distances at hop
    count 1, since every anchor position is known network-wide after the
    flood.  Every other sensor chains intervals through the triangle
    inequality from its parent: the neighbor with the fewest hops to k,
    smallest id on ties.  The flood from each anchor is breadth-first, one
    hop per layer, with each layer visited in ascending id, so the first
    node to reach a sensor is its parent.
    """
    anchor_ids = sorted(scenario.anchors)
    sensor_set = set(scenario.sensors)
    nbrs = _adjacency(scenario)

    reached: Dict[int, Dict[int, BoundEntry]] = {}
    for k in anchor_ids:
        ak = scenario.anchors[k]
        entry: Dict[int, BoundEntry] = {}
        for m in anchor_ids:
            if m != k:
                am = scenario.anchors[m]
                d = math.hypot(am[0] - ak[0], am[1] - ak[1])
                entry[m] = BoundEntry(d, d, 1)
        for i in nbrs[k]:
            b = bounds[(i, k)]
            entry[i] = BoundEntry(b.lower, b.upper, 1)
        layer = sorted(entry)
        hops = 1
        while layer:
            hops += 1
            nxt = []
            for j in layer:
                via = entry[j]
                for i in nbrs[j]:
                    if i in entry or i not in sensor_set:
                        continue
                    edge = _interval(bounds, i, j)
                    lower = max(edge.lower - via.upper, via.lower - edge.upper, 0.0)
                    entry[i] = BoundEntry(lower, edge.upper + via.upper, hops)
                    nxt.append(i)
            layer = sorted(nxt)
        reached[k] = entry

    result: BoundTable = {}
    for i in scenario.sensors:
        for k in anchor_ids:
            if i not in reached[k]:
                raise UnreachableAnchor(
                    f"sensor {i} has no path to anchor {k}; the graph is not connected"
                )
            result[(i, k)] = reached[k][i]
    return result


def _chebyshev_dual(refs: List[Tuple[Point2, float, float]]) -> SdpProblem:
    """Single-node dual SDP shared by the initial and iterate solves.

    ``refs`` holds (position p, lower^2, upper^2) triples.  Variables are t,
    then each reference's lower and upper multiplier, one negated pair.
    kappa and g sum the upper multipliers less the lower ones, times 1 and
    times p; the one block is diag([[kappa I, g], [g^T, t]], kappa - 1).
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


def _certified_center(problem: SdpProblem, sol: SdpSolution) -> Optional[Tuple[Point2, float]]:
    """Center g / kappa and its certified squared radius from an optimal solve.

    Block 0 at lambda = max(x, 0) leads with [[kappa I, g], [g^T, t]]: the
    1x1 case Mt = kappa of :func:`certify`, with f = -g.  None when the solve
    is not optimal or its multipliers certify nothing.
    """
    if sol.status != SolveStatus.OPTIMAL:
        return None
    lam = np.maximum(sol.x, 0.0)
    lam[0] = 0.0
    lmi = problem.blocks[0].evaluate(lam)
    cert = certify(lmi[:1, :1], -lmi[2:3, :2], float(problem.objective @ lam))
    if cert is None:
        return None
    y, value = cert
    return (float(y[0, 0]), float(y[0, 1])), max(value, 0.0)


def initial_estimate(
    sensor: int,
    table: BoundTable,
    anchors: Mapping[int, Point2],
) -> NodeState:
    """First position fix from the propagated anchor distance intervals."""
    refs = [
        (anchors[k], table[(sensor, k)].lower ** 2, table[(sensor, k)].upper ** 2)
        for k in sorted(anchors)
    ]
    problem = _chebyshev_dual(refs)
    sol = solve(problem, _NODE_SOLVER)
    cert = _certified_center(problem, sol)
    if cert is None:
        raise RuntimeError(
            f"initial estimate for sensor {sensor} not certified: {sol.status.value}"
        )
    center, value = cert
    return NodeState(
        estimate=center,
        radius_sq=value,
        localized=False,
        iteration=0,
        raw_radius_sq=value,
    )


def iterate_node(
    sensor: int,
    neighbor_states: Mapping[int, NodeState],
    own: NodeState,
    bounds: Mapping[Edge, IntervalBound],
    config: Optional[DisMinMaxConfig] = None,
) -> NodeState:
    """One refinement round for one sensor.

    Intersects the sensor's certified ball with annuli around each
    neighbor's current estimate and re-centers on the relaxed Chebyshev
    center of that region.  Each annulus is widened by the neighbor's own
    certified radius: the measured interval constrains the distance to the
    neighbor's true position, and the estimate can sit anywhere within
    that radius of it.  Without the widening the region can lose the true
    position entirely (neighbor error shifts the annulus off it), which
    both voids the certificate and empties the region when intervals are
    tight.  The new center and raw radius are what the multipliers of an
    optimal solve certify (:func:`_certified_center`); without them the node
    keeps its previous state for the round.  When the raw radius exceeds the
    old one, which only rounding allows, the node keeps its old estimate and
    radius too, and records the raw value.
    """
    if not neighbor_states:
        raise ValueError(f"sensor {sensor} has no neighbors to iterate against")
    cfg = config or DisMinMaxConfig()
    if own.radius_sq <= cfg.epsilon:
        # The radius cannot grow, so any solve outcome would change it by
        # at most its current value; the node is localized by definition.
        # Skipping the solve also avoids a singleton ball constraint that
        # leaves the solver nothing strictly feasible to work with.
        return replace(
            own,
            iteration=own.iteration + 1,
            localized=True,
            raw_radius_sq=own.radius_sq,
        )
    # the own ball is a reference whose lower bound 0 the relaxation implies
    refs = [(own.estimate, 0.0, own.radius_sq)]
    for j in sorted(neighbor_states):
        b = _interval(bounds, sensor, j)
        slack = math.sqrt(max(neighbor_states[j].radius_sq, 0.0))
        refs.append(
            (neighbor_states[j].estimate, max(b.lower - slack, 0.0) ** 2, (b.upper + slack) ** 2)
        )

    problem = _chebyshev_dual(refs)
    sol = solve(problem, _NODE_SOLVER)
    cert = _certified_center(problem, sol)
    if cert is None:
        return replace(
            own, iteration=own.iteration + 1, localized=False, raw_radius_sq=own.radius_sq
        )
    center, raw = cert
    if raw > own.radius_sq:
        # rounding put the new center's certificate above the old radius
        return replace(own, iteration=own.iteration + 1, localized=True, raw_radius_sq=raw)
    return NodeState(
        estimate=center,
        radius_sq=raw,
        localized=own.radius_sq - raw <= cfg.epsilon,
        iteration=own.iteration + 1,
        raw_radius_sq=raw,
    )


@dataclass
class RoundRecord:
    round_index: int
    states: Dict[int, NodeState]
    rmse_upper_bound: float
    messages: int


@dataclass
class DisMinMaxResult:
    rounds: List[RoundRecord]
    converged: bool


def _rmse_upper_bound(states: Mapping[int, NodeState]) -> float:
    return math.sqrt(sum(s.radius_sq for s in states.values()) / len(states))


def run_dis_minmax(
    scenario: NetworkScenario, config: Optional[DisMinMaxConfig] = None
) -> DisMinMaxResult:
    """Full distributed run: propagate, initialize, refine until localized.

    Rounds are synchronous; a localized node stops updating but its last
    estimate keeps serving neighbors.  Message accounting charges each
    active sensor two reals per sensor neighbor (its broadcast estimate);
    anchor neighbors cost nothing because their positions are already
    known after the propagation phase.
    """
    cfg = config or DisMinMaxConfig()
    bounds = build_feasibility_intervals(scenario)
    table = propagate_distance_bounds(scenario, bounds)

    states = {
        i: initial_estimate(i, table, scenario.anchors) for i in scenario.sensors
    }
    rounds = [RoundRecord(0, dict(states), _rmse_upper_bound(states), 0)]

    nbrs = _adjacency(scenario)
    sensor_nbrs = {i: [j for j in nbrs[i] if j not in scenario.anchors] for i in scenario.sensors}
    anchor_nbrs = {i: [j for j in nbrs[i] if j in scenario.anchors] for i in scenario.sensors}

    for tau in range(1, cfg.max_rounds + 1):
        if all(s.localized for s in states.values()):
            break
        prev = states
        states = {}
        messages = 0
        for i in scenario.sensors:
            if prev[i].localized:
                states[i] = prev[i]
                continue
            nbr_states: Dict[int, NodeState] = {}
            for j in sensor_nbrs[i]:
                nbr_states[j] = prev[j]
            for k in anchor_nbrs[i]:
                nbr_states[k] = NodeState(
                    estimate=scenario.anchors[k],
                    radius_sq=0.0,
                    localized=True,
                    iteration=tau - 1,
                    raw_radius_sq=0.0,
                )
            messages += 2 * len(sensor_nbrs[i])
            states[i] = iterate_node(i, nbr_states, prev[i], bounds, cfg)
        rounds.append(RoundRecord(tau, dict(states), _rmse_upper_bound(states), messages))

    return DisMinMaxResult(
        rounds=rounds,
        converged=all(s.localized for s in states.values()),
    )


def trace_to_jsonl(result: DisMinMaxResult) -> str:
    """One JSON object per round, nodes sorted by id."""
    lines = []
    for record in result.rounds:
        doc = {
            "round": record.round_index,
            "per_node": [
                {
                    "id": i,
                    "x": s.estimate[0],
                    "y": s.estimate[1],
                    "radius_sq": s.radius_sq,
                    "localized": s.localized,
                }
                for i, s in sorted(record.states.items())
            ],
            "rmse_upper_bound": record.rmse_upper_bound,
        }
        lines.append(json.dumps(doc))
    return "\n".join(lines) + "\n"
