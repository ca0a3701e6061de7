"""Independent reference solver used only by the test suite.

Solves the same block-LMI problems as ``minmaxloc.sdp`` by a completely
different route: Kelley's cutting-plane method.  Feasibility of
``F_b(x) >= 0`` is approximated from outside by linear cuts
``u^T F_b(x) u >= 0`` collected from eigenvectors of violated blocks, each
relaxation being an ordinary LP (scipy's HiGHS).  Upper bounds come from
restoring feasibility along the segment toward a known strictly interior
point: the smallest eigenvalue is concave along a line, so bisection finds
the feasible end reliably.  The method brackets the optimum between the LP
lower bound and the best feasible value; we run until the bracket closes.

Slow but simple, and it shares no linear algebra with the production
solver, which is the point.  :func:`check_certificate` re-derives a
solver result's optimality evidence from the same raw triplets.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.optimize import linprog

from minmaxloc.sdp import GAP_TOL, Block, SdpProblem, SdpSolution, SolverConfig

_EIG_FLOOR = 1e-9  # PSD tolerance scale used by certificate checks


def _dense_to_triplets(m: np.ndarray) -> List[Tuple[int, int, float]]:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
        raise ValueError("matrix must be symmetric")
    return [(i, j, float(m[i, j])) for i in range(len(m)) for j in range(i + 1) if m[i, j] != 0.0]


def reference_canonical(triplets, dim: int) -> List[Tuple[int, int, float]]:
    """One matrix's triplets canonicalized one at a time: moved to the lower
    triangle, duplicates summed from 0.0 in input order, exact zeros
    dropped, sorted by (i, j)."""
    acc: Dict[Tuple[int, int], float] = {}
    for i, j, v in triplets:
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"triplet index ({i}, {j}) outside block of dim {dim}")
        key = (i, j) if i >= j else (j, i)
        acc[key] = acc.get(key, 0.0) + float(v)
    return [(i, j, v) for (i, j), v in sorted(acc.items()) if v != 0.0]


def block_from_dense(a0: np.ndarray, coeffs: Dict[int, np.ndarray]) -> Block:
    """The block ``a0 + sum_k x_k coeffs[k] >= 0`` from dense symmetric matrices."""
    return Block(
        len(a0), _dense_to_triplets(a0), {k: _dense_to_triplets(m) for k, m in coeffs.items()}
    )


def dense_coeff(block: Block, k: int) -> np.ndarray:
    """Dense coefficient matrix of variable ``k`` in ``block``."""
    return Block(block.dim, block.coeffs.get(k, [])).dense_const()


class SparseProducts:
    """A compiled dense block's coefficient products through one signed
    scipy.sparse CSR matrix C of shape (d^2, classes), whose column c is
    vec of the ``dense_coeff`` of class c's first member: the combination is
    C y over the classes, the adjoint C^T vec(U) and the roundoff scale
    |C|^T |vec Z|.  A compressed-row product adds each output's entries in
    index order, so the block's own products must equal these exactly."""

    def __init__(self, block: Block, compiled):
        self.compiled = compiled
        first = compiled.vars
        if compiled.var_cls is not None:
            first = first[np.unique(compiled.var_cls, return_index=True)[1]]
        self.c = sp.csr_matrix(np.column_stack([dense_coeff(block, k).ravel() for k in first]))
        self.ct = self.c.T.tocsr()
        self.abs_ct = abs(self.ct)

    def combine(self, y: np.ndarray) -> np.ndarray:
        d = self.compiled.dim
        return (self.c @ self.compiled._to_classes(y)).reshape(d, d)

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        return self.compiled._to_vars(self.ct @ u.ravel())

    def abs_adjoint(self, z: np.ndarray) -> np.ndarray:
        v = self.abs_ct @ np.abs(z).ravel()
        return v if self.compiled.var_cls is None else v[self.compiled.var_cls]


def scalar_block(const: float, coeffs: Dict[int, float]) -> Block:
    """1x1 block encoding ``const + sum_k coeffs[k] * x_k >= 0``."""
    return Block(
        1,
        [(0, 0, float(const))] if const else [],
        {k: [(0, 0, float(v))] for k, v in coeffs.items() if v},
    )


def unit_rows(problem: SdpProblem) -> List[Block]:
    """The rows x_k >= 0 of the declared pairs' members, in ascending order,
    as the solver's fused block holds them after the problem's blocks."""
    return [scalar_block(0.0, {k: 1.0}) for k in sorted(problem.pairs.ravel().tolist())]


@dataclass
class ReferenceResult:
    value: float
    x: np.ndarray
    lower: float
    upper: float
    rounds: int
    converged: bool


def _block_matrices(problem: SdpProblem) -> List[Tuple[np.ndarray, List[np.ndarray]]]:
    out = []
    for block in problem.blocks:
        a0 = block.dense_const()
        coeffs = [dense_coeff(block, k) for k in range(problem.num_vars)]
        out.append((a0, coeffs))
    return out


def _eval_block(a0, coeffs, x):
    f = a0.copy()
    for k, c in enumerate(coeffs):
        if x[k] != 0.0:
            f = f + x[k] * c
    return f


def _min_eig(mats, x) -> float:
    worst = np.inf
    for a0, coeffs in mats:
        f = _eval_block(a0, coeffs, x)
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * (f + f.T))[0]))
    return worst


def reference_solve(
    problem: SdpProblem,
    interior_x: np.ndarray,
    tol: float = 1e-7,
    box: float = 1e3,
    max_rounds: int = 3000,
) -> ReferenceResult:
    """Bracket the optimum of ``problem`` between LP relaxations and
    feasible points.  ``interior_x`` must be strictly feasible."""
    mats = _block_matrices(problem)
    m = problem.num_vars
    c = np.asarray(problem.objective, dtype=float)
    interior_x = np.asarray(interior_x, dtype=float)
    if _min_eig(mats, interior_x) <= 0:
        raise ValueError("interior point is not strictly feasible")

    rows: List[np.ndarray] = []
    rhs: List[float] = []

    def add_cut(a0, coeffs, u):
        rows.append(np.array([-float(u @ ck @ u) for ck in coeffs]))
        rhs.append(float(u @ a0 @ u))

    for a0, coeffs in mats:
        for i in range(a0.shape[0]):
            e = np.zeros(a0.shape[0])
            e[i] = 1.0
            add_cut(a0, coeffs, e)

    best_x: Optional[np.ndarray] = None
    upper = np.inf
    lower = -np.inf
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        res = linprog(
            c,
            A_ub=np.vstack(rows),
            b_ub=np.array(rhs),
            bounds=[(-box, box)] * m,
            method="highs",
        )
        if not res.success:
            break
        x_lp = res.x
        lower = max(lower, float(res.fun))

        violated = False
        for a0, coeffs in mats:
            f = _eval_block(a0, coeffs, x_lp)
            w, v = np.linalg.eigh(0.5 * (f + f.T))
            scale = 1.0 + float(np.abs(w).max())
            for r in range(min(3, len(w))):
                if w[r] < -1e-12 * scale:
                    add_cut(a0, coeffs, v[:, r])
                    violated = True
        if not violated:
            if float(c @ x_lp) < upper:
                upper = float(c @ x_lp)
                best_x = x_lp.copy()
        else:
            # restore feasibility along the segment toward the interior point
            lo_t, hi_t = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo_t + hi_t)
                x_mid = x_lp + mid * (interior_x - x_lp)
                if _min_eig(mats, x_mid) >= 0.0:
                    hi_t = mid
                else:
                    lo_t = mid
            x_feas = x_lp + hi_t * (interior_x - x_lp)
            val = float(c @ x_feas)
            if val < upper:
                upper = val
                best_x = x_feas.copy()

        if upper - lower <= tol * (1.0 + abs(upper)):
            return ReferenceResult(
                value=upper, x=best_x, lower=lower, upper=upper,
                rounds=rounds, converged=True,
            )

    return ReferenceResult(
        value=upper,
        x=best_x if best_x is not None else interior_x,
        lower=lower,
        upper=upper,
        rounds=rounds,
        converged=False,
    )


def random_bounded_instance(seed: int, num_vars: Optional[int] = None):
    """Random LMI problem that is strictly feasible and bounded below.

    Construction: pick an interior point x0 and per-block PD matrices S0,
    then set A0 = S0 - sum_k x0_k A_k so F(x0) = S0 > 0.  The objective is
    c_k = sum_b <A_{b,k}, Z0_b> for PD Z0 blocks, which makes Z0 strictly
    dual feasible, so the primal value is bounded below.  Returns
    (problem, x0).
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
    m = int(num_vars if num_vars is not None else rng.integers(2, 7))
    dims = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 3)))]
    n_scalar = int(rng.integers(0, 3))
    x0 = rng.uniform(-1.0, 1.0, size=m)

    blocks = []
    c = np.zeros(m)
    for d in dims:
        coeffs = {}
        for k in range(m):
            a = rng.standard_normal((d, d))
            coeffs[k] = 0.5 * (a + a.T)
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        s0 = q @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ q.T
        a0 = 0.5 * (s0 + s0.T)
        for k in range(m):
            a0 = a0 - x0[k] * coeffs[k]
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        z0 = q @ np.diag(rng.uniform(0.2, 1.5, size=d)) @ q.T
        z0 = 0.5 * (z0 + z0.T)
        for k in range(m):
            c[k] += float(np.tensordot(coeffs[k], z0))
        blocks.append(block_from_dense(a0, coeffs))
    for _ in range(n_scalar):
        coeffs = {k: float(rng.standard_normal()) for k in range(m)}
        margin = float(rng.uniform(0.5, 2.0))
        const = margin - sum(coeffs[k] * x0[k] for k in range(m))
        z0 = float(rng.uniform(0.2, 1.5))
        for k in range(m):
            c[k] += coeffs[k] * z0
        blocks.append(scalar_block(const, coeffs))

    return SdpProblem(num_vars=m, objective=c, blocks=blocks), x0


@dataclass(frozen=True)
class CertificateReport:
    psd_ok: bool
    dual_feasible: bool
    gap_ok: bool
    slack_eig_min: float
    dual_eig_min: float
    dual_residual: float
    gap_value: float

    @property
    def ok(self) -> bool:
        return self.psd_ok and self.dual_feasible and self.gap_ok


def check_certificate(
    problem: SdpProblem, solution: SdpSolution, config: Optional[SolverConfig] = None
) -> CertificateReport:
    """Re-derive optimality evidence from the raw problem data.

    Everything is recomputed from the triplet storage through the dense
    helpers, sharing no state with the solver's compiled representation:

    * PSD: every slack block F_b(x) and dual block Z_b must have smallest
      eigenvalue >= -1e-9 * (1 + ||block||_F);
    * dual feasibility: each |c_k - A_k(Z)| <= feas_tol * 10 relative to
      1 + |c_k| plus the absolute sum of the products forming A_k(Z),
      the same backward-error scale the solver converges against;
    * gap: |c.x - dual objective| within GAP_TOL plus the slack the
      feasibility tolerances themselves allow (residuals enter the gap
      through <R_S, Z> and x . r_Z, so their budget is added in).

    Only problems without declared pairs: the solution carries no dual for
    the pairs' unit rows.
    """
    if len(problem.pairs):
        raise ValueError("declared pairs have no dual blocks to check")
    cfg = config or SolverConfig()
    c = problem.objective
    x = solution.x

    slack_eig = np.inf
    dual_eig = np.inf
    a_z = np.zeros(problem.num_vars)
    abs_prod = np.zeros(problem.num_vars)
    dobj = 0.0
    z_norm = 0.0
    for block, z in zip(problem.blocks, solution.dual_blocks):
        slack = block.evaluate(x)
        floor = -_EIG_FLOOR * (1.0 + float(np.linalg.norm(slack)))
        emin = float(np.linalg.eigvalsh(0.5 * (slack + slack.T))[0])
        slack_eig = min(slack_eig, emin - floor)
        zfloor = -_EIG_FLOOR * (1.0 + float(np.linalg.norm(z)))
        zmin = float(np.linalg.eigvalsh(0.5 * (z + z.T))[0])
        dual_eig = min(dual_eig, zmin - zfloor)
        for k in block.coeffs:
            coeff = dense_coeff(block, k)
            a_z[k] += float(np.tensordot(coeff, z))
            abs_prod[k] += float(np.abs(coeff * z).sum())
        dobj -= float(np.tensordot(block.dense_const(), z))
        z_norm += float(np.linalg.norm(z) ** 2)
    z_norm = math.sqrt(z_norm)

    r_z = c - a_z
    dual_res = float(np.max(np.abs(r_z) / (1.0 + np.abs(c) + abs_prod)))
    pobj = float(c @ x)
    gap_val = abs(pobj - dobj)
    gap_budget = GAP_TOL * (1.0 + abs(pobj) + abs(dobj)) + cfg.feas_tol * (
        1.0 + float(np.linalg.norm(c))
    ) * (1.0 + float(np.linalg.norm(x))) + cfg.feas_tol * (1.0 + z_norm) * 10.0

    return CertificateReport(
        psd_ok=slack_eig >= 0.0 and dual_eig >= 0.0,
        dual_feasible=dual_res <= cfg.feas_tol * 10.0,
        gap_ok=gap_val <= gap_budget,
        slack_eig_min=slack_eig,
        dual_eig_min=dual_eig,
        dual_residual=dual_res,
        gap_value=gap_val,
    )


def _nt_scaling(s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """W = S^-1/2 (S^1/2 Z S^1/2)^1/2 S^-1/2, so that W S W = Z."""
    w_s, v_s = np.linalg.eigh(s)
    s_half = (v_s * np.sqrt(w_s)) @ v_s.T
    s_ihalf = (v_s / np.sqrt(w_s)) @ v_s.T
    w_b, v_b = np.linalg.eigh(s_half @ z @ s_half)
    return s_ihalf @ ((v_b * np.sqrt(w_b)) @ v_b.T) @ s_ihalf


def reference_max_step(mat: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha with mat + alpha*delta >= 0 (mat must be PD), from a
    Cholesky factor L of mat: -1/lambda_min(L^-1 delta L^-T), or inf when
    that matrix is positive semidefinite."""
    chol = np.linalg.cholesky(mat)
    y = sla.solve_triangular(chol, delta, lower=True)
    t = sla.solve_triangular(chol, y.T, lower=True)
    t = 0.5 * (t + t.T)
    lam = np.linalg.eigvalsh(t)[0]
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def reference_newton_step(
    problem: SdpProblem,
    x: np.ndarray,
    s_blocks: List[np.ndarray],
    z_blocks: List[np.ndarray],
    sigma_mu: float,
    jitter: float = 0.0,
) -> np.ndarray:
    """The Newton step dx of an iterate (x, S, Z) over all m variables.

    Forms the full Schur matrix M[k, j] = sum_b <A_bk, W_b A_bj W_b> and
    the right-hand side -r_Z + A(R3) - A(W R_S W) from ``dense_coeff``,
    one dense matrix per block: the problem's blocks (1x1 blocks included),
    then the declared pairs' ``unit_rows``, which ``s_blocks`` and
    ``z_blocks`` follow.  No sign classes, no fused rows.  Solves
    (M + jitter I) dx = rhs directly, then refines once against M alone:
    dx += (M + jitter I)^-1 (rhs - M dx).
    """
    m = problem.num_vars
    schur = np.zeros((m, m))
    rhs = -np.asarray(problem.objective, dtype=float).copy()
    blocks = problem.blocks + unit_rows(problem)
    for block, s, z in zip(blocks, s_blocks, z_blocks):
        coeffs = [dense_coeff(block, k) for k in range(m)]
        w = _nt_scaling(s, z)
        r_s = block.evaluate(x) - s
        r3 = sigma_mu * np.linalg.inv(s) - z
        target = r3 - w @ r_s @ w
        for k, ak in enumerate(coeffs):
            rhs[k] += float(np.tensordot(ak, z)) + float(np.tensordot(ak, target))
            for j, aj in enumerate(coeffs):
                schur[k, j] += float(np.tensordot(ak, w @ aj @ w))
    damped = schur + jitter * np.eye(m)
    dx = np.linalg.solve(damped, rhs)
    return dx + np.linalg.solve(damped, rhs - schur @ dx)
