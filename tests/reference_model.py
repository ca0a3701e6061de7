"""All-pairs edge construction, used only by the test suite.

``minmaxloc.model._build_edges`` measures only sensor pairs in the same or
adjacent grid cells.  This is the plain way it replaced: every sensor against
every later sensor and every anchor, with the same subtraction and
``np.hypot``, so the tests compare the two edge lists with ``==``, order
included.
"""

from typing import List, Tuple

import numpy as np

from minmaxloc.model import Edge


def build_edges(
    sensor_pos: np.ndarray, anchor_pos: np.ndarray, n: int, sensing_range: float
) -> Tuple[List[Edge], List[Edge]]:
    sensor_edges = []
    for i in range(n):
        d = np.hypot(*(sensor_pos[i + 1 : n] - sensor_pos[i]).T)
        for off in np.flatnonzero(d <= sensing_range):
            sensor_edges.append((i, i + 1 + int(off)))
    anchor_edges = []
    for i in range(n):
        d = np.hypot(*(anchor_pos - sensor_pos[i]).T)
        for k in np.flatnonzero(d <= sensing_range):
            anchor_edges.append((i, n + int(k)))
    return sensor_edges, anchor_edges
