"""Network scenarios, measurement-error models and feasibility intervals.

A scenario is a 2-D sensor network: sensors at unknown positions, anchors at
known positions, and noisy range measurements on every edge of the
communication graph.  Measurement errors are unknown but bounded: for a
measurement ``z`` of a true distance ``d`` we assume ``|z - d| <= gamma``,
which turns every edge into the interval constraint

    max(z - gamma, 0) <= d <= z + gamma.

Everything in this module is plain data plus pure functions; all randomness
is routed through explicit integer seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Set, Tuple, Union

import numpy as np

Point2 = Tuple[float, float]
Edge = Tuple[int, int]


class ScenarioGenerationError(RuntimeError):
    """Raised when no connected scenario could be generated."""


@dataclass(frozen=True)
class IntervalBound:
    """Closed interval of admissible distances for one edge."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower < 0.0:
            raise ValueError(f"interval lower bound must be >= 0, got {self.lower}")
        if self.upper < self.lower:
            raise ValueError(
                f"interval upper bound {self.upper} below lower bound {self.lower}"
            )


@dataclass(frozen=True)
class UniformError:
    """Errors drawn uniformly from [-gamma, gamma]; the bound is tight."""

    gamma: float

    def gamma_bound(self) -> float:
        return self.gamma


@dataclass(frozen=True)
class GaussianError:
    """Zero-mean Gaussian errors with standard deviation sigma.

    The working bound is gamma = 3 * sigma.  Realized errors are not
    truncated, so a ~0.3% tail of measurements lands outside the bound;
    downstream guarantees only hold on trials where every realized error
    stays inside it.
    """

    sigma: float

    def gamma_bound(self) -> float:
        return 3.0 * self.sigma


@dataclass(frozen=True)
class MixtureError:
    """Gaussian inliers contaminated by uniform outliers.

    Inliers are zero-mean Gaussian(sigma); outliers are drawn uniformly from
    [-3*sigma, 3*sigma].  ``ratio`` is the outlier-to-inlier count ratio; the
    number of outlier edges is ``round(ratio / (1 + ratio) * n_edges)``, so a
    ratio of 0.5 on 100 edges gives 33 outliers and 67 inliers.  The working
    bound is gamma = 3 * sigma for every edge.
    """

    sigma: float
    ratio: float

    def gamma_bound(self) -> float:
        return 3.0 * self.sigma


ErrorModel = Union[UniformError, GaussianError, MixtureError]


@dataclass(frozen=True)
class ScenarioConfig:
    """Generation parameters for a random network.

    ``area`` is ((xmin, xmax), (ymin, ymax)); sensors are placed i.i.d.
    uniformly inside it.  Node ids are assigned deterministically: sensors
    get 0 .. n_sensors-1, anchors continue from n_sensors in the order the
    anchor positions are listed.
    """

    n_sensors: int
    anchor_positions: Tuple[Point2, ...]
    sensing_range: float
    area: Tuple[Tuple[float, float], Tuple[float, float]] = ((-0.5, 0.5), (-0.5, 0.5))


@dataclass
class NetworkScenario:
    """A 2-D network with range measurements.

    sensors       ids of the unknown-position nodes
    anchors       id -> known position
    true_positions  sensor id -> ground-truth position (synthetic scenarios)
    sensor_edges  (i, j) with i < j, both sensors
    anchor_edges  (i, k) with sensor i, anchor k
    measurements  edge -> measured range z
    gamma         error bound shared by every measurement (0 = exact)
    sensing_range communication radius used to build the graph

    Construction raises ValueError on an id that is both a sensor and an
    anchor, a repeated sensor id, a self edge, an edge listed twice in either
    orientation, a sensor edge whose ends are not both sensors, an anchor
    edge that is not (sensor, anchor), an edge without a measurement or a
    measurement on no edge, a non-finite measurement, or a gamma that is
    negative or not finite.  A measurement may be negative: an
    unbounded error can read a short edge below zero, and its interval
    clamps at zero (see :func:`build_feasibility_intervals`).
    """

    sensors: List[int]
    anchors: Dict[int, Point2]
    true_positions: Dict[int, Point2]
    sensor_edges: List[Edge]
    anchor_edges: List[Edge]
    measurements: Dict[Edge, float]
    gamma: float
    sensing_range: float

    def __post_init__(self):
        sensors = set(self.sensors)
        if len(sensors) != len(self.sensors):
            repeated = sorted({i for i in self.sensors if self.sensors.count(i) > 1})
            raise ValueError(f"sensor ids {repeated} appear more than once")
        shared = sorted(sensors & self.anchors.keys())
        if shared:
            raise ValueError(f"ids {shared} are both sensors and anchors")
        seen: Set[Edge] = set()
        for a, b in self.all_edges():
            if a == b:
                raise ValueError(f"edge ({a}, {b}) joins a node to itself")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"edge ({a}, {b}) appears more than once")
            seen.add(key)
        for a, b in self.sensor_edges:
            if a not in sensors or b not in sensors:
                raise ValueError(f"edge ({a}, {b}) links unknown nodes")
        for a, b in self.anchor_edges:
            if a not in sensors or b not in self.anchors:
                raise ValueError(f"edge ({a}, {b}) links unknown nodes")
        edges = set(self.all_edges())
        missing = edges - self.measurements.keys()
        if missing:
            raise ValueError(f"edge {min(missing)} has no measurement")
        extra = self.measurements.keys() - edges
        if extra:
            raise ValueError(f"measurement on {min(extra)}, which is not an edge")
        for (a, b), z in self.measurements.items():
            if not math.isfinite(z):
                raise ValueError(f"edge ({a}, {b}) has non-finite measurement {z}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma}")

    def all_edges(self) -> List[Edge]:
        return list(self.sensor_edges) + list(self.anchor_edges)

    def true_distance(self, edge: Edge) -> float:
        a, b = edge
        pa = self.true_positions[a] if a in self.true_positions else self.anchors[a]
        pb = self.true_positions[b] if b in self.true_positions else self.anchors[b]
        return _distance(pa, pb)


def _distance(pa: Point2, pb: Point2) -> float:
    return math.hypot(pa[0] - pb[0], pa[1] - pb[1])


@dataclass(frozen=True)
class ValidationReport:
    connected: bool
    anchors_noncollinear: bool
    warnings: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.connected and self.anchors_noncollinear


def _build_edges(
    sensor_pos: np.ndarray,
    anchor_pos: np.ndarray,
    n: int,
    sensing_range: float,
) -> Tuple[List[Edge], List[Edge]]:
    """Every sensor pair and sensor-anchor pair within ``sensing_range``,
    each sorted by (sensor, other node).

    Only sensors in the same or adjacent cells of a grid whose side is just
    above the range can be that close, so only those pairs are measured, in
    time linear in the sensors and edges.  The side's margin keeps two
    sensors within range in adjacent cells despite rounding, and it is at
    least 2^-20 of the sensors' extent so that the cell indices stay small.
    """
    pos = sensor_pos[:n]
    extent = float(np.ptp(pos, axis=0).max()) if n else 0.0
    side = extent * 2.0**-20 or 1.0
    if sensing_range * (1.0 + 1e-9) > side:
        side = sensing_range * (1.0 + 1e-9)
    cell = np.floor((pos - pos.min(axis=0, initial=np.inf)) / side).astype(np.int64)
    stride = int(cell[:, 1].max(initial=0)) + 3
    key = cell[:, 0] * stride + cell[:, 1]
    order = np.argsort(key, kind="stable")
    keys = key[order]
    # for each sensor and each of the nine cells around it, the sensors there
    offsets = np.array([dx * stride + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
    target = (key[:, None] + offsets).ravel()
    first = np.searchsorted(keys, target, side="left")
    count = np.searchsorted(keys, target, side="right") - first
    i = np.repeat(np.repeat(np.arange(n), len(offsets)), count)
    j = order[np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())]
    i, j = i[i < j], j[i < j]
    near = np.hypot(*(pos[j] - pos[i]).T) <= sensing_range
    i, j = i[near], j[near]
    pairs = np.lexsort((j, i))
    sensor_edges = list(zip(i[pairs].tolist(), j[pairs].tolist()))

    d = np.hypot(*(anchor_pos[None, :, :] - pos[:, None, :]).transpose(2, 0, 1))
    si, k = np.nonzero(d <= sensing_range)
    anchor_edges = list(zip(si.tolist(), (n + k).tolist()))
    return sensor_edges, anchor_edges


def _reach(edges: Sequence[Edge], sources: Sequence[int]) -> Set[int]:
    """Every node joined to a source by a path of ``edges``, sources included."""
    nbrs: Dict[int, List[int]] = {}
    for a, b in edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    seen = set(sources)
    stack = list(seen)
    while stack:
        for v in nbrs.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def unanchored_sensors(scenario: NetworkScenario) -> List[int]:
    """Sensors, ascending, with no path of sensor edges to an anchor edge."""
    anchored = _reach(scenario.sensor_edges, [u for u, _ in scenario.anchor_edges])
    return sorted(set(scenario.sensors) - anchored)


def anchors_noncollinear(positions: Sequence[Point2], tol: float = 1e-12) -> bool:
    """True when some anchor triple spans a triangle of area above ``tol``."""
    pts = [np.asarray(p, dtype=float) for p in positions]
    m = len(pts)
    for a in range(m):
        for b in range(a + 1, m):
            for c in range(b + 1, m):
                u = pts[b] - pts[a]
                v = pts[c] - pts[a]
                if abs(u[0] * v[1] - u[1] * v[0]) / 2.0 > tol:
                    return True
    return False


def generate_scenario(config: ScenarioConfig, seed: int) -> NetworkScenario:
    """Draw a connected scenario with exact measurements (gamma = 0).

    Sensors are i.i.d. uniform over ``config.area``; every pair of nodes
    within ``sensing_range`` of each other gets an edge.  If the resulting
    graph is disconnected the sensor placement is redrawn from a derived
    seed, up to 100 attempts; the same seed always yields the same scenario.
    Measurement noise is applied separately by :func:`apply_errors`.
    """
    if config.n_sensors < 1:
        raise ValueError("need at least one sensor")
    if len(config.anchor_positions) < 3 or not anchors_noncollinear(config.anchor_positions):
        raise ValueError("need at least three non-collinear anchors")

    n = config.n_sensors
    anchor_pos = np.asarray(config.anchor_positions, dtype=float)
    (xlo, xhi), (ylo, yhi) = config.area

    for attempt in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        sensor_pos = np.column_stack(
            [rng.uniform(xlo, xhi, size=n), rng.uniform(ylo, yhi, size=n)]
        )
        sensor_edges, anchor_edges = _build_edges(
            sensor_pos, anchor_pos, n, config.sensing_range
        )
        if len(_reach(sensor_edges + anchor_edges, [0])) < n + len(anchor_pos):
            continue

        anchors = {n + k: (float(p[0]), float(p[1])) for k, p in enumerate(anchor_pos)}
        truth = {i: (float(sensor_pos[i, 0]), float(sensor_pos[i, 1])) for i in range(n)}
        nodes = {**anchors, **truth}
        return NetworkScenario(
            sensors=list(range(n)),
            anchors=anchors,
            true_positions=truth,
            sensor_edges=sensor_edges,
            anchor_edges=anchor_edges,
            measurements={
                (a, b): _distance(nodes[a], nodes[b]) for a, b in sensor_edges + anchor_edges
            },
            gamma=0.0,
            sensing_range=config.sensing_range,
        )

    raise ScenarioGenerationError(
        f"no connected scenario in 100 attempts (seed={seed}, n={n}, "
        f"range={config.sensing_range})"
    )


def apply_errors(scenario: NetworkScenario, model: ErrorModel, seed: int) -> NetworkScenario:
    """Overlay measurement errors on a scenario's exact distances.

    Returns a new scenario whose measurements are true distance plus a model
    draw and whose gamma is the model's working bound.  Edges are processed
    in sorted order so a given seed always produces the same draw.
    """
    edges = sorted(scenario.all_edges())
    n_edges = len(edges)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x5EED,)))

    if isinstance(model, UniformError):
        errs = rng.uniform(-model.gamma, model.gamma, size=n_edges)
    elif isinstance(model, GaussianError):
        errs = rng.normal(0.0, model.sigma, size=n_edges)
    elif isinstance(model, MixtureError):
        _, n_out = mixture_counts(n_edges, model.ratio)
        errs = rng.normal(0.0, model.sigma, size=n_edges)
        outliers = rng.permutation(n_edges)[:n_out]
        errs[outliers] = rng.uniform(-3.0 * model.sigma, 3.0 * model.sigma, size=n_out)
    else:
        raise TypeError(f"unknown error model {model!r}")

    measurements = {}
    for e, err in zip(edges, errs):
        measurements[e] = scenario.true_distance(e) + float(err)
    return replace(scenario, measurements=measurements, gamma=model.gamma_bound())


def mixture_counts(n_edges: int, ratio: float) -> Tuple[int, int]:
    """(inliers, outliers) used by :class:`MixtureError` on ``n_edges`` edges."""
    n_out = int(round(n_edges * ratio / (1.0 + ratio)))
    return n_edges - n_out, n_out


def build_feasibility_intervals(scenario: NetworkScenario) -> Dict[Edge, IntervalBound]:
    """Interval constraint [max(z - gamma, 0), z + gamma] for every edge.

    The upper end is clamped to stay above the lower end; that only matters
    for wildly out-of-bound errors that push z + gamma below zero.
    """
    gamma = scenario.gamma
    out = {}
    for e in sorted(scenario.all_edges()):
        z = scenario.measurements[e]
        lower = max(z - gamma, 0.0)
        upper = max(z + gamma, lower)
        out[e] = IntervalBound(lower, upper)
    return out


def validate_scenario(scenario: NetworkScenario) -> ValidationReport:
    """Report-only sanity checks: connectivity and anchor geometry."""
    nodes = {*scenario.sensors, *scenario.anchors}
    connected = _reach(scenario.all_edges(), sorted(nodes)[:1]) >= nodes
    noncollinear = anchors_noncollinear(list(scenario.anchors.values()))

    warnings = []
    if not connected:
        warnings.append("graph is disconnected; multi-hop anchor bounds will not exist")
    if not noncollinear:
        warnings.append("anchors are collinear within tolerance; positions are ambiguous")
    unanchored = unanchored_sensors(scenario)
    if unanchored:
        warnings.append(
            f"sensors {unanchored} have no path to an anchor; the centralized estimator "
            "cannot anchor them"
        )
    if scenario.gamma == 0.0:
        warnings.append("gamma is zero; intervals are degenerate (exact distances)")
    missing = [e for e in scenario.all_edges() if e not in scenario.measurements]
    if missing:
        warnings.append(f"{len(missing)} edges lack measurements")
    return ValidationReport(connected, noncollinear, tuple(warnings))


def scenario_to_json(scenario: NetworkScenario) -> str:
    """Serialize to the on-disk schema (see README)."""
    doc = {
        "sensors": list(scenario.sensors),
        "anchors": [
            {"id": k, "x": p[0], "y": p[1]} for k, p in sorted(scenario.anchors.items())
        ],
        "true_positions": {
            str(i): [p[0], p[1]] for i, p in sorted(scenario.true_positions.items())
        },
        "edges": [
            {"a": a, "b": b, "z": scenario.measurements[(a, b)]}
            for a, b in sorted(scenario.all_edges())
        ],
        "gamma": scenario.gamma,
        "sensing_range": scenario.sensing_range,
    }
    return json.dumps(doc, indent=2)


def _json_int(value) -> int:
    try:
        return int(value)
    except OverflowError as exc:
        raise ValueError(f"node id {value} is not an integer") from exc


def _json_float(value) -> float:
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"number {value} is out of range") from exc


def _json_point(value) -> Point2:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"position {value!r} is not a list of two coordinates")
    return (_json_float(value[0]), _json_float(value[1]))


def scenario_from_json(text: str) -> NetworkScenario:
    """Parse the on-disk schema; malformed input raises ValueError, KeyError
    or TypeError.  The loader checks the JSON's shape and the
    :class:`NetworkScenario` constructor its content."""
    doc = json.loads(text)
    sensors = [_json_int(i) for i in doc["sensors"]]
    if not sensors:
        raise ValueError("the scenario has no sensors")
    sensor_set = set(sensors)
    anchor_ids = [_json_int(a["id"]) for a in doc["anchors"]]
    if len(set(anchor_ids)) != len(anchor_ids):
        repeated = sorted({i for i in anchor_ids if anchor_ids.count(i) > 1})
        raise ValueError(f"anchor ids {repeated} appear more than once")
    anchors = {
        i: (_json_float(a["x"]), _json_float(a["y"])) for i, a in zip(anchor_ids, doc["anchors"])
    }
    if not isinstance(doc["true_positions"], dict):
        raise ValueError("true_positions is not an object of sensor id -> position")
    truth = {_json_int(i): _json_point(p) for i, p in doc["true_positions"].items()}

    # an edge between two sensors is stored as (low, high), one from an
    # anchor to a sensor as (sensor, anchor); the constructor rejects the rest
    sensor_edges, anchor_edges, measurements = [], [], {}
    for rec in doc["edges"]:
        a, b, z = _json_int(rec["a"]), _json_int(rec["b"]), _json_float(rec["z"])
        if a in sensor_set and b in sensor_set:
            e = (min(a, b), max(a, b))
            sensor_edges.append(e)
        else:
            e = (b, a) if a in anchors and b in sensor_set else (a, b)
            anchor_edges.append(e)
        measurements[e] = z

    return NetworkScenario(
        sensors=sensors,
        anchors=anchors,
        true_positions=truth,
        sensor_edges=sorted(sensor_edges),
        anchor_edges=sorted(anchor_edges),
        measurements=measurements,
        gamma=_json_float(doc["gamma"]),
        sensing_range=_json_float(doc["sensing_range"]),
    )
