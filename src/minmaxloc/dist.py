"""Distributed minimax localization with certified shrinking radii.

The algorithm runs in three phases on each sensor:

1. Bound propagation.  Anchors flood their positions with a hop counter;
   a sensor without a direct measurement to anchor k chains its tightest
   neighbor information along the shortest hop path into a distance
   interval [lower_ik, upper_ik] (triangle inequality both ways).

2. Initial estimate.  Each sensor solves a three-variable QP over its
   anchor distance intervals alone.  Its multipliers certify a squared
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

Each per-node program is the single-sensor case of the network program of
:mod:`minmaxloc.central`, over references (p, lower^2, upper^2) that bound
|y - p|^2: the relaxed Chebyshev center, maximize t - |y|^2 subject to
lower^2 <= t - 2 p^T y + |p|^2 <= upper^2.  The sensor's own ball is one
reference with lower^2 = 0, which the lifted relaxation already implies.
:func:`minmaxloc.central.certified_centers` solves it exactly as a QP in
(y, t) and turns its multipliers into the center and the certified squared
radius, or finds the references inconsistent or certifying nothing.

Each phase-2 and phase-3 rule is written once, over arrays:
:func:`_initial_centers` makes the initial estimates of any set of sensors
as one batch of :func:`minmaxloc.central.certified_centers`, and
:func:`_round` refines any set of nodes in batches of up to
``_ROUND_NODES``, with the epsilon shortcut and the keep-state rules.
:func:`run_dis_minmax` calls them for every sensor and every round's
active nodes; the one-node :func:`initial_estimate` and
:func:`iterate_node` call them with one row.  All rounds are Jacobi:
updates at round tau+1 read only round-tau states, so batching a round
changes nothing in its trace.  The rounds' states are kept packed
(:class:`RoundStates`).
"""

from __future__ import annotations

import json
import math
from collections.abc import ItemsView, ValuesView
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .central import certified_centers
from .model import Edge, IntervalBound, NetworkScenario, Point2, build_feasibility_intervals

# Unused here: the benchmark tracer's ("minmaxloc.dist", "solve") hook names
# it, and the next benchmark change drops both.
from .sdp import solve  # noqa: F401


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
    found = bounds.get((a, b))
    return bounds[(b, a)] if found is None else found


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


def _initial_centers(
    sensors: List[int], table: BoundTable, anchors: Mapping[int, Point2]
) -> Tuple[np.ndarray, np.ndarray]:
    """The initial estimates of ``sensors``, as centers (n, 2) and certified
    squared radii clipped at 0.

    Each sensor's references are the anchors in id order, each bounding the
    squared distance by the squared propagated interval, and all sensors are
    one batch of :func:`minmaxloc.central.certified_centers`.  The first
    sensor whose center is not certified raises RuntimeError, saying whether
    its anchor intervals are inconsistent or the multipliers certify nothing.
    """
    anchor_ids = sorted(anchors)
    pos = np.array([anchors[k] for k in anchor_ids], dtype=float).reshape(-1, 2)
    rows = [[(table[(i, k)].lower ** 2, table[(i, k)].upper ** 2) for k in anchor_ids] for i in sensors]
    bounds = np.array(rows, dtype=float).reshape(len(sensors), len(anchor_ids), 2)
    cert = certified_centers(np.broadcast_to(pos, bounds.shape), bounds, np.full(len(sensors), len(pos)))
    failed = np.flatnonzero(~cert.certified)
    if len(failed):
        reason = "the multipliers certify nothing"
        if not cert.consistent[failed[0]]:
            reason = "its anchor intervals are inconsistent"
        raise RuntimeError(f"initial estimate for sensor {sensors[failed[0]]} not certified: {reason}")
    return cert.center, np.maximum(cert.value, 0.0)


def initial_estimate(
    sensor: int,
    table: BoundTable,
    anchors: Mapping[int, Point2],
) -> NodeState:
    """First position fix from the propagated anchor distance intervals:
    :func:`_initial_centers` for one sensor."""
    center, radius_sq = _initial_centers([sensor], table, anchors)
    x, y = center[0].tolist()
    value = float(radius_sq[0])
    return NodeState(estimate=(x, y), radius_sq=value, localized=False, iteration=0, raw_radius_sq=value)


# Nodes per batch of a round, so that the batch's padded references stay a
# few hundred KB however many nodes the round solves
_ROUND_NODES = 1024


def _round(
    positions: np.ndarray,
    radius_sq: np.ndarray,
    refs: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    count: np.ndarray,
    nodes: np.ndarray,
    epsilon: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One refinement round of the sensors at rows ``nodes`` of ``refs``.

    ``positions`` and ``radius_sq`` are every reference's estimate and
    certified squared radius after the previous round, 0 for an anchor.
    Row r of ``refs`` lists node r's ``count[r]`` references: its own state
    first, then its neighbors by id, with the measured intervals ``lower``
    and ``upper`` to them (column 0 unused).  The own ball bounds the
    squared distance by [0, radius_sq], the lower bound the relaxation
    implies; each neighbor's interval is widened by the neighbor's certified
    radius, its lower end clipped at 0, because the measurement bounds the
    distance to the neighbor's true position and its estimate can sit
    anywhere within that radius of it.

    A node with radius_sq <= epsilon cannot shrink by more than epsilon, so
    it is localized without a solve.  The others are solved in batches of
    up to ``_ROUND_NODES`` by :func:`minmaxloc.central.certified_centers`.  A
    node whose multipliers certify nothing, or find its references
    inconsistent, keeps its state with its old radius as the raw one.  A node
    whose raw radius rounds above its old one keeps its state too, records
    the raw value and is localized.  Any other node moves to its new center
    with the raw radius, and is localized once the radius shrank by at most
    epsilon.

    Returns, per node, whether it moves, its estimate after the round, its
    raw squared radius and whether it is localized.
    """
    old = radius_sq[nodes]
    move, center = np.zeros(len(nodes), dtype=bool), positions[nodes]
    raw, localized = old.copy(), np.ones(len(nodes), dtype=bool)
    solve = np.flatnonzero(old > epsilon)
    for part in (solve[k : k + _ROUND_NODES] for k in range(0, len(solve), _ROUND_NODES)):
        rows = nodes[part]
        at = refs[rows]
        slack = np.sqrt(np.maximum(radius_sq[at], 0.0))
        span = np.stack([np.maximum(lower[rows] - slack, 0.0) ** 2, (upper[rows] + slack) ** 2], axis=2)
        span[:, 0, 0], span[:, 0, 1] = 0.0, old[part]
        cert = certified_centers(positions[at], span, count[rows])
        raw[part] = np.where(cert.certified, np.maximum(cert.value, 0.0), old[part])
        move[part] = cert.certified & (raw[part] <= old[part])
        localized[part] = cert.certified & (~move[part] | (old[part] - raw[part] <= epsilon))
        center[part[move[part]]] = cert.center[move[part]]
    return move, center, raw, localized


def iterate_node(
    sensor: int,
    neighbor_states: Mapping[int, NodeState],
    own: NodeState,
    bounds: Mapping[Edge, IntervalBound],
    config: Optional[DisMinMaxConfig] = None,
) -> NodeState:
    """One refinement round for one sensor: :func:`_round` for one node.

    Intersects the sensor's certified ball with annuli around each
    neighbor's current estimate, each widened by the neighbor's certified
    radius, and re-centers on the relaxed Chebyshev center of that region.
    Without the widening the region can lose the true position entirely
    (neighbor error shifts the annulus off it), which both voids the
    certificate and empties the region when intervals are tight.
    """
    if not neighbor_states:
        raise ValueError(f"sensor {sensor} has no neighbors to iterate against")
    cfg = config or DisMinMaxConfig()
    ids = sorted(neighbor_states)
    states = [own, *(neighbor_states[j] for j in ids)]
    # the shortcut of _round reads no intervals, so a node inside it needs none
    edges = [_interval(bounds, sensor, j) for j in ids] if own.radius_sq > cfg.epsilon else []
    move, center, raw, localized = _round(
        np.array([state.estimate for state in states], dtype=float),
        np.array([state.radius_sq for state in states], dtype=float),
        np.arange(len(states))[None],
        np.array([[0.0, *(b.lower for b in edges)]]),
        np.array([[0.0, *(b.upper for b in edges)]]),
        np.array([len(states)]),
        np.array([0]),
        cfg.epsilon,
    )
    raw_sq = float(raw[0])
    state = replace(own, iteration=own.iteration + 1, localized=bool(localized[0]), raw_radius_sq=raw_sq)
    if not move[0]:
        return state
    x, y = center[0].tolist()
    return replace(state, estimate=(x, y), radius_sq=raw_sq)


class _RunStates:
    """Every node state of one run, packed to be kept.

    ``state`` holds rows of estimate and radius_sq: one per sensor for round
    0, then one per sensor that moved in each later round; ``rows[tau]``
    gives each sensor's row after round tau, in the smallest unsigned type
    that holds them, and ``localized[tau]`` its flag.  A sensor is active in
    every round until it is localized, so its iteration after round tau is
    tau or the round that localized it, whichever is first.  Its
    raw_radius_sq is its radius_sq, except where the round that last
    updated it, times the sensor count, plus its index in scenario order, is
    in ``raw_keys``: then it is the matching one of ``raw_values``.  Nothing
    read is cached but the id lookup of :meth:`index`, so reading every
    state in order keeps no more bytes than the run did.
    """

    __slots__ = ("sensors", "state", "rows", "localized", "raw_keys", "raw_values", "_index")

    def __init__(self, sensors, state, rows, localized, raw_keys, raw_values):
        self.sensors = sensors
        self.state, self.rows, self.localized = state, rows, localized
        self.raw_keys, self.raw_values = raw_keys, raw_values
        self._index: Optional[Dict[int, int]] = None

    def index(self, sensor: int) -> int:
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.sensors)}
        return self._index[sensor]

    def iteration(self, tau: int, at: np.ndarray) -> np.ndarray:
        """The refinement rounds up to round tau of the sensors at indices ``at``."""
        loc = self.localized[:, at]
        return np.minimum(tau, np.where(loc.any(axis=0), loc.argmax(axis=0), len(loc) - 1))

    def raw_radius_sq(self, tau: int, at: np.ndarray) -> np.ndarray:
        """raw_radius_sq after round tau of the sensors at indices ``at``."""
        raw = self.state[self.rows[tau, at], 2]
        keys = self.iteration(tau, at) * len(self.sensors) + at
        found = np.minimum(np.searchsorted(self.raw_keys, keys), max(len(self.raw_keys) - 1, 0))
        hit = self.raw_keys[found] == keys if len(self.raw_keys) else np.zeros(len(at), dtype=bool)
        raw[hit] = self.raw_values[found[hit]]
        return raw


class RoundStates(Mapping[int, NodeState]):
    """One round's node states, read-only, from the run's packed arrays.

    Each :class:`NodeState` is built, with Python float, bool and int
    fields, when it is read; ``items()`` and ``values()`` build them in
    scenario order without looking ids up.  The round's arrays, one row per
    sensor in scenario order, are ``estimate`` (n, 2), ``radius_sq``,
    ``raw_radius_sq``, ``localized`` and ``iteration``.
    """

    __slots__ = ("_run", "_tau")

    def __init__(self, run: _RunStates, tau: int):
        self._run = run
        self._tau = tau

    def _states(self, at: np.ndarray) -> Iterator[NodeState]:
        run, tau = self._run, self._tau
        columns = (
            run.state[run.rows[tau, at]].tolist(),
            run.localized[tau, at].tolist(),
            run.iteration(tau, at).tolist(),
            run.raw_radius_sq(tau, at).tolist(),
        )
        for (x, y, radius_sq), localized, iteration, raw in zip(*columns):
            yield NodeState((x, y), radius_sq, localized, iteration, raw)

    def __getitem__(self, sensor: int) -> NodeState:
        return next(self._states(np.array([self._run.index(sensor)])))

    def __iter__(self) -> Iterator[int]:
        return iter(self._run.sensors)

    def __len__(self) -> int:
        return len(self._run.sensors)

    def items(self) -> ItemsView[int, NodeState]:
        return _InOrderItems(self)

    def values(self) -> ValuesView[NodeState]:
        return _InOrderValues(self)

    @property
    def estimate(self) -> np.ndarray:
        return self._run.state[self._run.rows[self._tau], :2]

    @property
    def radius_sq(self) -> np.ndarray:
        return self._run.state[self._run.rows[self._tau], 2]

    @property
    def raw_radius_sq(self) -> np.ndarray:
        return self._run.raw_radius_sq(self._tau, np.arange(len(self)))

    @property
    def localized(self) -> np.ndarray:
        return self._run.localized[self._tau].copy()

    @property
    def iteration(self) -> np.ndarray:
        return self._run.iteration(self._tau, np.arange(len(self)))


class _InOrderItems(ItemsView):
    def __iter__(self):
        states = self._mapping
        return zip(states, states._states(np.arange(len(states))))


class _InOrderValues(ValuesView):
    def __iter__(self):
        states = self._mapping
        return states._states(np.arange(len(states)))


@dataclass(slots=True)
class RoundRecord:
    """One round of a run: the node states after it, the RMSE upper bound
    sqrt(mean radius_sq) and the reals sent.  :func:`run_dis_minmax` gives
    ``states`` as a :class:`RoundStates`."""

    round_index: int
    states: Mapping[int, NodeState]
    rmse_upper_bound: float
    messages: int


@dataclass
class DisMinMaxResult:
    rounds: List[RoundRecord]
    converged: bool


def _neighbor_table(scenario: NetworkScenario, bounds: Mapping[Edge, IntervalBound]):
    """Per sensor, in scenario order: the rows of its references, its own
    first and then its neighbors by id, in the stacked positions of the
    sensors and then the anchors by id; the neighbors' measured intervals;
    the reference count; and the reals it broadcasts to its sensor
    neighbors in a round, two each."""
    sensors = list(scenario.sensors)
    nbrs = _adjacency(scenario)
    row = {s: r for r, s in enumerate(sensors)}
    row.update({k: len(sensors) + a for a, k in enumerate(sorted(scenario.anchors))})
    count = np.array([1 + len(nbrs[i]) for i in sensors])
    refs = np.zeros((len(sensors), count.max()), dtype=np.intp)
    lower, upper = np.zeros(refs.shape), np.zeros(refs.shape)
    for r, i in enumerate(sensors):
        refs[r, 0] = r
        for c, j in enumerate(nbrs[i], start=1):
            b = _interval(bounds, i, j)
            refs[r, c], lower[r, c], upper[r, c] = row[j], b.lower, b.upper
    sends = np.array([2 * sum(j not in scenario.anchors for j in nbrs[i]) for i in sensors])
    return refs, lower, upper, count, sends


def run_dis_minmax(
    scenario: NetworkScenario, config: Optional[DisMinMaxConfig] = None
) -> DisMinMaxResult:
    """Full distributed run: propagate, initialize, refine until localized.

    Rounds are synchronous; a localized node stops updating but its last
    estimate keeps serving neighbors.  Message accounting charges each
    active sensor two reals per sensor neighbor (its broadcast estimate);
    anchor neighbors cost nothing because their positions are already
    known after the propagation phase.  The initial estimates are one call
    of :func:`_initial_centers` and each round's refinement of its active
    nodes one call of :func:`_round`.
    """
    cfg = config or DisMinMaxConfig()
    bounds = build_feasibility_intervals(scenario)
    table = propagate_distance_bounds(scenario, bounds)
    sensors = list(scenario.sensors)
    n = len(sensors)
    anchor_pos = np.array([scenario.anchors[k] for k in sorted(scenario.anchors)], dtype=float)
    estimate, radius_sq = _initial_centers(sensors, table, scenario.anchors)
    localized = np.zeros(n, dtype=bool)

    # the state rows written so far, each round's rows and flags, the keys
    # and values of raw radii that differ from radius_sq, and per round the
    # bound and the messages
    states, rows, flags = [np.column_stack([estimate, radius_sq])], [np.arange(n)], [localized.copy()]
    raw_keys: List[np.ndarray] = []
    raw_values: List[np.ndarray] = []
    bounds_and_messages = [(math.sqrt(radius_sq.sum() / n), 0)]
    refs, lower, upper, count, sends = _neighbor_table(scenario, bounds)

    for tau in range(1, cfg.max_rounds + 1):
        if localized.all():
            break
        active = np.flatnonzero(~localized)
        # Jacobi: _round reads copies of the previous round's states
        move, center, raw, localized[active] = _round(
            np.concatenate([estimate, anchor_pos]),
            np.concatenate([radius_sq, np.zeros(len(anchor_pos))]),
            refs, lower, upper, count, active, cfg.epsilon,
        )
        moved = active[move]
        estimate[moved], radius_sq[moved] = center[move], raw[move]

        rows.append(rows[-1].copy())
        rows[-1][moved] = sum(map(len, states)) + np.arange(len(moved))
        states.append(np.column_stack([estimate[moved], radius_sq[moved]]))
        flags.append(localized.copy())
        differ = raw != radius_sq[active]
        raw_keys.append(tau * n + active[differ])
        raw_values.append(raw[differ])
        bounds_and_messages.append((math.sqrt(radius_sq.sum() / n), int(sends[active].sum())))

    state = np.concatenate(states)
    run = _RunStates(
        scenario.sensors,
        state,
        np.array(rows, dtype=np.min_scalar_type(max(len(state) - 1, 0))),
        np.array(flags),
        np.concatenate([np.zeros(0, dtype=np.intp), *raw_keys]),
        np.concatenate([np.zeros(0), *raw_values]),
    )
    return DisMinMaxResult(
        rounds=[
            RoundRecord(tau, RoundStates(run, tau), float(bound), messages)
            for tau, (bound, messages) in enumerate(bounds_and_messages)
        ],
        converged=bool(localized.all()),
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
