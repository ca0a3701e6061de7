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
from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple, Union

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

    def contains(self, d: float) -> bool:
        return self.lower <= d <= self.upper


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
    """

    sensors: List[int]
    anchors: Dict[int, Point2]
    true_positions: Dict[int, Point2]
    sensor_edges: List[Edge]
    anchor_edges: List[Edge]
    measurements: Dict[Edge, float]
    gamma: float
    sensing_range: float

    def all_edges(self) -> List[Edge]:
        return list(self.sensor_edges) + list(self.anchor_edges)

    def neighbors(self, i: int) -> List[int]:
        """All nodes sharing an edge with node ``i``, ascending id."""
        out = []
        for a, b in self.all_edges():
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)

    def true_distance(self, edge: Edge) -> float:
        a, b = edge
        pa = self.true_positions[a] if a in self.true_positions else self.anchors[a]
        pb = self.true_positions[b] if b in self.true_positions else self.anchors[b]
        return math.hypot(pa[0] - pb[0], pa[1] - pb[1])

    def realized_errors(self) -> Dict[Edge, float]:
        """Per-edge measurement error z - d implied by the ground truth."""
        return {e: self.measurements[e] - self.true_distance(e) for e in self.all_edges()}


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
    sensor_edges = []
    for i in range(n):
        d = np.hypot(*(sensor_pos[i + 1 :] - sensor_pos[i]).T)
        for off in np.flatnonzero(d <= sensing_range):
            sensor_edges.append((i, i + 1 + int(off)))
    anchor_edges = []
    for i in range(n):
        d = np.hypot(*(anchor_pos - sensor_pos[i]).T)
        for k in np.flatnonzero(d <= sensing_range):
            anchor_edges.append((i, n + int(k)))
    return sensor_edges, anchor_edges


def _is_connected(n_nodes: int, edges: Sequence[Edge]) -> bool:
    if n_nodes == 0:
        return True
    adj: List[List[int]] = [[] for _ in range(n_nodes)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n_nodes
    queue = deque([0])
    seen[0] = True
    reached = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                reached += 1
                queue.append(v)
    return reached == n_nodes


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
        if not _is_connected(n + len(anchor_pos), sensor_edges + anchor_edges):
            continue

        anchors = {n + k: (float(p[0]), float(p[1])) for k, p in enumerate(anchor_pos)}
        truth = {i: (float(sensor_pos[i, 0]), float(sensor_pos[i, 1])) for i in range(n)}
        scenario = NetworkScenario(
            sensors=list(range(n)),
            anchors=anchors,
            true_positions=truth,
            sensor_edges=sensor_edges,
            anchor_edges=anchor_edges,
            measurements={},
            gamma=0.0,
            sensing_range=config.sensing_range,
        )
        scenario.measurements = {
            e: scenario.true_distance(e) for e in scenario.all_edges()
        }
        return scenario

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
    n = len(scenario.sensors)
    m = len(scenario.anchors)
    id_of = {node: idx for idx, node in enumerate(scenario.sensors)}
    for idx, a in enumerate(sorted(scenario.anchors)):
        id_of[a] = n + idx
    edges = [(id_of[a], id_of[b]) for a, b in scenario.all_edges()]
    connected = _is_connected(n + m, edges)
    noncollinear = anchors_noncollinear(list(scenario.anchors.values()))

    warnings = []
    if not connected:
        warnings.append("graph is disconnected; multi-hop anchor bounds will not exist")
    if not noncollinear:
        warnings.append("anchors are collinear within tolerance; positions are ambiguous")
    if len(scenario.anchor_edges) == 0:
        warnings.append("no sensor-anchor edges; the centralized estimator cannot anchor")
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


def scenario_from_json(text: str) -> NetworkScenario:
    doc = json.loads(text)
    sensors = [int(i) for i in doc["sensors"]]
    sensor_set = set(sensors)
    anchors = {int(a["id"]): (float(a["x"]), float(a["y"])) for a in doc["anchors"]}
    truth = {int(i): (float(p[0]), float(p[1])) for i, p in doc["true_positions"].items()}
    shared = sorted(sensor_set & anchors.keys())
    if shared:
        raise ValueError(f"ids {shared} are both sensors and anchors")

    sensor_edges, anchor_edges, measurements = [], [], {}
    for rec in doc["edges"]:
        a, b, z = int(rec["a"]), int(rec["b"]), float(rec["z"])
        if not (math.isfinite(z) and z >= 0.0):
            raise ValueError(f"edge ({a}, {b}) has non-finite or negative measurement {z}")
        if a == b:
            raise ValueError(f"edge ({a}, {b}) joins a node to itself")
        if a in sensor_set and b in sensor_set:
            e = (min(a, b), max(a, b))
            sensor_edges.append(e)
        else:
            if a not in sensor_set:
                a, b = b, a
            if a not in sensor_set or b not in anchors:
                raise ValueError(f"edge ({rec['a']}, {rec['b']}) links unknown nodes")
            e = (a, b)
            anchor_edges.append(e)
        if e in measurements:
            raise ValueError(f"edge ({rec['a']}, {rec['b']}) appears more than once")
        measurements[e] = z

    gamma = float(doc["gamma"])
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")

    return NetworkScenario(
        sensors=sensors,
        anchors=anchors,
        true_positions=truth,
        sensor_edges=sorted(sensor_edges),
        anchor_edges=sorted(anchor_edges),
        measurements=measurements,
        gamma=gamma,
        sensing_range=float(doc["sensing_range"]),
    )
