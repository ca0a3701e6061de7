"""Fixed-point bound flooding and neighbor lists used only by the test suite.

The plain way to answer what ``minmaxloc.dist.propagate_distance_bounds``
answers breadth-first: synchronous relaxation rounds over every (sensor,
anchor) pair until the whole table stops changing.  Each round a sensor
without a direct measurement to anchor k re-derives its interval from the
neighbor with the fewest hops to k (smallest id on ties), so the fixed point
uses the same parents and the same arithmetic, and the tests compare the two
tables with ``==``, key order included.
"""

import math
from typing import Dict, List, Mapping, Tuple

from minmaxloc.dist import BoundEntry, BoundTable, UnreachableAnchor, _interval
from minmaxloc.model import Edge, IntervalBound, NetworkScenario


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
