"""Experiment helpers that only the tests use.

``reference_residuals_and_jacobian`` forms the baseline's range residuals and
Jacobian edge by edge; ``minmaxloc.experiment`` forms them for all edges at
once with index arrays, and the tests check that the two agree exactly.
``baseline_objective`` is the baseline's objective and gradient, for a
finite-difference check, and ``spec_to_dict`` the inverse of
``experiment.spec_from_dict``.
"""

from dataclasses import asdict
from typing import List, Tuple

import numpy as np

from minmaxloc.experiment import ExperimentSpec, _RangeResiduals
from minmaxloc.model import NetworkScenario


def baseline_objective(scenario: NetworkScenario, flat: np.ndarray) -> Tuple[float, np.ndarray]:
    """Sum of squared range residuals and its analytic gradient.

    ``flat`` interleaves coordinates as (x, y) per sensor in
    ``scenario.sensors`` order.
    """
    ranges = _RangeResiduals(scenario, list(scenario.sensors))
    r, diff, d = ranges.residuals(flat)
    return float(r @ r), 2.0 * (ranges.jacobian(diff, d).T @ r)


def spec_to_dict(spec: ExperimentSpec) -> dict:
    return asdict(spec)


def reference_residuals_and_jacobian(
    scenario: NetworkScenario, order: List[int], flat: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    index = {s: k for k, s in enumerate(order)}
    edges = scenario.all_edges()
    r = np.zeros(len(edges))
    jac = np.zeros((len(edges), flat.size))
    for row, (a, b) in enumerate(edges):
        pa = flat[2 * index[a] : 2 * index[a] + 2]
        if b in index:
            pb = flat[2 * index[b] : 2 * index[b] + 2]
        else:
            pb = np.asarray(scenario.anchors[b])
        diff = pa - pb
        d = float(np.hypot(diff[0], diff[1]))
        r[row] = d - scenario.measurements[(a, b)]
        if d < 1e-12:
            continue  # direction undefined; leave a zero gradient row
        jac[row, 2 * index[a] : 2 * index[a] + 2] = diff / d
        if b in index:
            jac[row, 2 * index[b] : 2 * index[b] + 2] = -diff / d
    return r, jac
