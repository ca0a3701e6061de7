"""The baseline's range residuals and Jacobian edge by edge, used only by the tests.

``minmaxloc.experiment`` forms them for all edges at once with index arrays;
this is the per-edge loop it replaced.  The tests check that the two agree
exactly.
"""

from typing import List, Tuple

import numpy as np

from minmaxloc.model import NetworkScenario


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
