"""The network-wide program over the stacked coordinates, used only by the tests.

``minmaxloc.central`` solves the relaxed Chebyshev center program one
coordinate at a time.  This module keeps the stacked form it replaced: one
vector y of length 2n (sensor i owns coordinates 2i and 2i+1) and the LMIs

    [[M, f], [f^T, t]] >= 0,    M - I >= 0,

with M = Mt kron I_2, blocks 2n + 1 and 2n wide.  The multipliers sit at the
indices ``central.DualIndex`` gives them; the single t is index 0 and there
is no t_y, so the problem has one variable fewer.  The tests check that the
two forms assemble the same matrices and solve to the same estimate.

It also keeps the per-node QP's candidate search as stacked LAPACK solves of
each active set's KKT system (:func:`closest_kkt_set`), against which the
tests check the closed-form solves of ``minmaxloc.central``.
"""

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from minmaxloc import central
from minmaxloc.central import DualIndex
from minmaxloc.model import Edge, IntervalBound, NetworkScenario, Point2, build_feasibility_intervals
from minmaxloc.sdp import Block, SdpProblem


def _coupling_triplets(i: int, j: int, sign: float) -> List[Tuple[int, int, float]]:
    """sign * E_ij kron I_2 (lower triangle)."""
    out = []
    for off in (0, 1):
        p, q = 2 * i + off, 2 * j + off
        out.append((p, p, sign))
        out.append((q, q, sign))
        out.append((max(p, q), min(p, q), -sign))
    return out


def _selector_triplets(i: int, sign: float) -> List[Tuple[int, int, float]]:
    """sign * E_i kron I_2 (lower triangle)."""
    return [(2 * i, 2 * i, sign), (2 * i + 1, 2 * i + 1, sign)]


def assemble_interleaved_dual_sdp(
    scenario: NetworkScenario, intervals: Optional[Dict[Edge, IntervalBound]] = None
) -> Tuple[SdpProblem, DualIndex]:
    """The stacked multiplier SDP: block 0 is [[M, f], [f^T, t]], block 1 is
    M - I, and the pairs are ``DualIndex.pairs``."""
    if intervals is None:
        intervals = build_feasibility_intervals(scenario)
    sensor_index = {s: i for i, s in enumerate(scenario.sensors)}
    idx = DualIndex(
        sensor_edges=tuple(sorted(scenario.sensor_edges)),
        anchor_edges=tuple(sorted(scenario.anchor_edges)),
    )
    n = len(scenario.sensors)
    dim = 2 * n + 1
    m = idx.num_vars - 1  # no t_y

    c = np.zeros(m)
    c[0] = 1.0
    big: Dict[int, List[Tuple[int, int, float]]] = {0: [(dim - 1, dim - 1, 1.0)]}
    ball: Dict[int, List[Tuple[int, int, float]]] = {}

    for e, (u, v) in enumerate(idx.sensor_edges):
        i, j = sensor_index[u], sensor_index[v]
        b = intervals[(u, v)]
        c[idx.alpha(e)] = -b.lower**2
        c[idx.beta(e)] = b.upper**2
        for k, sign in ((idx.alpha(e), -1.0), (idx.beta(e), 1.0)):
            big[k] = _coupling_triplets(i, j, sign)
            ball[k] = _coupling_triplets(i, j, sign)

    for e, (u, k) in enumerate(idx.anchor_edges):
        i = sensor_index[u]
        ax, ay = scenario.anchors[k]
        norm2 = ax * ax + ay * ay
        b = intervals[(u, k)]
        c[idx.omega(e)] = norm2 - b.lower**2
        c[idx.phi(e)] = b.upper**2 - norm2
        for var, sign in ((idx.omega(e), -1.0), (idx.phi(e), 1.0)):
            big[var] = _selector_triplets(i, sign) + [
                (dim - 1, 2 * i, -sign * ax),
                (dim - 1, 2 * i + 1, -sign * ay),
            ]
            ball[var] = _selector_triplets(i, sign)

    blocks = [
        Block(dim, [], big),
        Block(2 * n, [(r, r, -1.0) for r in range(2 * n)], ball),
    ]
    return SdpProblem(num_vars=m, objective=c, blocks=blocks, pairs=idx.pairs), idx


def recover_interleaved_estimate(
    scenario: NetworkScenario, problem: SdpProblem, x: np.ndarray
) -> Dict[int, Point2]:
    """y = -M^{-1} f from the stacked block 0 at ``x``."""
    lmi = problem.blocks[0].evaluate(x)
    y = np.linalg.solve(lmi[:-1, :-1], -lmi[-1, :-1])
    return {s: (float(y[2 * i]), float(y[2 * i + 1])) for i, s in enumerate(scenario.sensors)}


def solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched solve of a x = b, with NaN rows where rounding left a
    nearly dependent system exactly singular."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i, (ai, bi) in enumerate(zip(a, b)):
            try:
                out[i] = np.linalg.solve(ai, bi)
            except np.linalg.LinAlgError:
                pass
        return out


def kkt_systems(q: np.ndarray, rhs: np.ndarray, sets: np.ndarray):
    """The KKT system of each set of planes of ``sets`` as equalities:
    [[H, A^T], [A, 0]] [z; nu] = [(0, 0, 1); rhs] with H = diag(2, 2, 0) and
    A the planes' rows (-2 q^T, 1), z = (y, t); plane 2k belongs to
    reference k.  Returns the stacked matrices and right-hand sides."""
    size = sets.shape[1]
    qs = q[sets // 2]  # (sets, size, 2)
    a = np.concatenate([-2.0 * qs, np.ones((len(sets), size, 1))], axis=2)
    kkt = np.zeros((len(sets), 3 + size, 3 + size))
    kkt[:, 0, 0] = kkt[:, 1, 1] = 2.0
    kkt[:, :3, 3:] = a.transpose(0, 2, 1)
    kkt[:, 3:, :3] = a
    b = np.zeros((len(sets), 3 + size))
    b[:, 2] = 1.0
    b[:, 3:] = rhs[sets]
    return kkt, b


def kkt_solutions(q: np.ndarray, rhs: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Each set of planes solved as equalities by one stacked LAPACK solve
    of :func:`kkt_systems`: rows (y_x, y_y, t, nu...) per set."""
    return solve_each(*kkt_systems(q, rhs, sets))


def closest_kkt_set(q: np.ndarray, bounds: np.ndarray, spread: float, data_scale: float):
    """The candidate search of ``central._closest_kkt_sets`` for one node, by
    stacked LAPACK solves instead of closed forms.

    Of every set of one, two or three planes of distinct, affinely
    independent references, the one whose equality solution comes closest
    to a KKT point of the program over ``q``: its violation, primal and dual
    violations, planes, multipliers nu, y and t, and the number of sets
    solved.
    """
    qq = np.einsum("ij,ij->i", q, q)
    rhs = (bounds - qq[:, None]).ravel()
    sign = np.tile([-1.0, 1.0], len(q))

    def magnitude(y, t):
        return np.maximum(np.maximum(np.abs(t), np.einsum("...i,...i->...", y, y)), data_scale)

    best = None  # (violation, primal, dual, set, nu, y, t)
    solved = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for size in range(1, min(len(q), 3) + 1):
            sets = central._active_sets(len(q), size)
            qs = q[sets // 2]
            if size > 1:
                d = qs[:, 1:] - qs[:, :1]
                span = d[:, 0, 0] ** 2 + d[:, 0, 1] ** 2
                if size == 3:
                    span = (d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0]) ** 2
                keep = span > (central._SPAN_TOL * spread) ** (size - 1)
                sets, qs = sets[keep], qs[keep]
                if not len(sets):
                    continue
            solved += len(sets)
            sol = kkt_solutions(q, rhs, sets)
            y, t, nu = sol[:, :2], sol[:, 2], sol[:, 3:]
            lifted = t[:, None] - 2.0 * y @ q.T + qq
            excess = np.maximum(bounds[:, 0] - lifted, lifted - bounds[:, 1]).max(axis=1)
            primal = np.maximum(excess, 0.0) / magnitude(y, t)
            sign_error = np.maximum(-sign[sets] * nu, 0.0).max(axis=1) / np.abs(nu).sum(axis=1)
            stationarity = np.maximum(
                np.abs(nu.sum(axis=1) - 1.0),
                np.abs(y - np.einsum("sj,sji->si", nu, qs)).max(axis=1) / math.sqrt(data_scale),
            )
            dual = np.maximum(sign_error, stationarity)
            violation = np.nan_to_num(np.maximum(primal, dual), nan=np.inf)
            i = int(np.argmin(violation))
            if best is None or violation[i] < best[0]:
                best = (violation[i], primal[i], dual[i], sets[i], nu[i], y[i], t[i])
    return best + (solved,)
