"""A small dense semidefinite-programming solver.

Problems are linear matrix inequalities in primal form

    minimize    c . x                 over x in R^m
    subject to  F_b(x) = A0_b + sum_k x_k A_{b,k}  >=  0   (PSD, per block b)

with a block-diagonal constraint matrix; scalar inequalities are 1x1 blocks.
The conic dual searched alongside is

    maximize   -sum_b <A0_b, Z_b>     over symmetric Z_b >= 0
    subject to  sum_b <A_{b,k}, Z_b> = c_k   for every variable k,

and the duality gap of a feasible pair is sum_b <F_b(x), Z_b> >= 0.

The algorithm is an infeasible-start primal-dual path-following method with
Nesterov-Todd scaling and a Mehrotra-style predictor-corrector.  Iterates
are (x, S, Z) with S tracking F(x); each step solves the Newton system

    A(dZ) = -r_Z + A(R3) - A(W R_S W)          (Schur system M dx = rhs)
    dS    = R_S + sum_k dx_k A_k
    dZ    = R3 - W dS W

where W is the per-block NT scaling point (W S W = Z), R_S = F(x) - S,
r_Z[k] = c_k - A(Z)[k], R3 = sigma*mu*S^-1 - Z (+ second-order corrector),
and M[k,j] = sum_b <A_{b,k}, W_b A_{b,j} W_b> is symmetric positive
definite.  Steps take a fixed fraction of the largest cone-preserving step.
The solver is deterministic: identical inputs produce identical outputs.

Each block is compiled to an object with one per-block interface: start
point, inner product, NT scaling (returning W and S^-1), Schur contribution,
centering term, the congruence W R W, step length, corrector,
symmetrization and dual output.  The solver loops over one list of such
blocks and never asks what kind a block is.  Dense blocks keep one of two
coefficient representations.  Small ones keep a dense coefficient stack.

Large ones first sort their variables into sign classes: a variable whose
coefficient matrix equals, or exactly negates, an earlier one's joins that
class with sign s_k = +1 or -1, so A_k = s_k A_c(k).  Each two-sided
measurement interval gives such a negated pair, and a duplicated edge a
same-sign copy.  Only one member per class is factored into signed rank-one
terms, A_c = sum_r sign_r u_r u_r^T (an exact eigendecomposition on its
support).  The Schur matrix then assembles from H[r, t] = (u_r^T W u_t)^2
over the class terms only.  One signed indicator G, built at compile time
with G[c, r] = sign_r for each term r of class c, forms every group sum at
once, M_cls = G H G^T, which expands to the variables as
M[k, j] = s_k s_j M_cls[c(k), c(j)].  The adjoint and the combination go
through the same class map.  This is what makes networks of a few hundred
variables cheap.

All 1x1 blocks are fused into one diagonal block of vectors, kept last in
the list, whose methods do the same steps row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

Triplet = Tuple[int, int, float]

_DENSE_DIM_LIMIT = 12  # blocks at most this wide skip the rank-one machinery
_EIG_FLOOR = 1e-9  # PSD tolerance scale used by certificate checks
_JITTER = 1e-12


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolverConfig:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iters: int = 200
    step_fraction: float = 0.98


@dataclass
class Block:
    """One PSD block ``A0 + sum_k x_k A_k >= 0``.

    Matrices are stored as lower-triangle triplets (i, j, value) with
    i >= j; an off-diagonal triplet stands for the symmetric pair.
    Duplicate positions are summed and exact zeros dropped on construction.
    """

    dim: int
    const: List[Triplet] = field(default_factory=list)
    coeffs: Dict[int, List[Triplet]] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("block dimension must be positive")
        self.const = _canonical(self.const, self.dim)
        self.coeffs = {
            k: v
            for k, v in ((k, _canonical(t, self.dim)) for k, t in self.coeffs.items())
            if v
        }

    @classmethod
    def from_dense(cls, a0: np.ndarray, coeffs: Dict[int, np.ndarray]) -> "Block":
        a0 = np.asarray(a0, dtype=float)
        dim = a0.shape[0]
        return cls(
            dim,
            _dense_to_triplets(a0),
            {k: _dense_to_triplets(np.asarray(m, dtype=float)) for k, m in coeffs.items()},
        )

    def dense_const(self) -> np.ndarray:
        return _triplets_to_dense(self.const, self.dim)

    def dense_coeff(self, k: int) -> np.ndarray:
        return _triplets_to_dense(self.coeffs.get(k, []), self.dim)


def scalar_block(const: float, coeffs: Dict[int, float]) -> Block:
    """1x1 block encoding ``const + sum_k coeffs[k] * x_k >= 0``."""
    return Block(
        1,
        [(0, 0, float(const))] if const else [],
        {k: [(0, 0, float(v))] for k, v in coeffs.items() if v},
    )


def _canonical(triplets: Sequence[Triplet], dim: int) -> List[Triplet]:
    acc: Dict[Tuple[int, int], float] = {}
    for i, j, v in triplets:
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"triplet index ({i}, {j}) outside block of dim {dim}")
        key = (i, j) if i >= j else (j, i)
        acc[key] = acc.get(key, 0.0) + float(v)
    return [(i, j, v) for (i, j), v in sorted(acc.items()) if v != 0.0]


def _dense_to_triplets(m: np.ndarray) -> List[Triplet]:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(m, m.T, atol=1e-12, rtol=0.0):
        raise ValueError("matrix must be symmetric")
    out = []
    for i in range(m.shape[0]):
        for j in range(i + 1):
            if m[i, j] != 0.0:
                out.append((i, j, float(m[i, j])))
    return out


def _triplets_to_dense(triplets: Sequence[Triplet], dim: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    for i, j, v in triplets:
        m[i, j] += v
        if i != j:
            m[j, i] += v
    return m


@dataclass
class SdpProblem:
    num_vars: int
    objective: np.ndarray
    blocks: List[Block]

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.num_vars,):
            raise ValueError(
                f"objective has shape {self.objective.shape}, expected ({self.num_vars},)"
            )
        for b in self.blocks:
            for k in b.coeffs:
                if not 0 <= k < self.num_vars:
                    raise ValueError(f"coefficient for unknown variable {k}")


@dataclass(frozen=True)
class Residuals:
    primal: float
    dual: float


@dataclass
class SdpSolution:
    x: np.ndarray
    objective_value: float
    dual_blocks: List[np.ndarray]
    status: SolveStatus
    gap: float
    residuals: Residuals
    iterations: int


# ---------------------------------------------------------------------------
# compiled internal representation


class _LinBlock:
    """All 1x1 blocks fused: rows a0 + D x >= 0, slack and dual as vectors.

    Implements the per-block interface of :class:`_DenseBlock` row by row.
    Where a dense block multiplies by S^-1, a row divides by s, so the
    scaling hands back s itself in the place of S^-1.
    """

    def __init__(self, blocks: List[Tuple[int, Block]], num_vars: int):
        self.src = [bi for bi, _ in blocks]
        q = len(blocks)
        self.q = q
        self.vars = slice(None)  # rows may touch any variable
        self.pairs = (slice(None), slice(None))
        self.a0 = np.zeros(q)
        rows, cols, vals = [], [], []
        for r, (_, blk) in enumerate(blocks):
            for _, _, v in blk.const:
                self.a0[r] += v
            for k, trips in blk.coeffs.items():
                coef = sum(v for _, _, v in trips)
                rows.append(r)
                cols.append(k)
                vals.append(coef)
        self.D = sp.csr_matrix((vals, (rows, cols)), shape=(q, num_vars))
        self.Dt = self.D.T.tocsr()
        self.norm_a0 = float(np.linalg.norm(self.a0))
        col_norms = np.sqrt(np.asarray(self.D.multiply(self.D).sum(axis=0)).ravel())
        self.coeff_scale = float(col_norms.max()) if q else 0.0

    def start(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.full(self.q, 1.0 + self.norm_a0 + self.coeff_scale), np.ones(self.q)

    def combine(self, y: np.ndarray) -> np.ndarray:
        return self.D @ y

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        return self.Dt @ u

    def schur(self, w2: np.ndarray) -> np.ndarray:
        return (self.Dt @ self.D.multiply(w2[:, None])).toarray()

    @staticmethod
    def inner(a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ b)

    @staticmethod
    def scaling(s: np.ndarray, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(W^2, s): the diagonal scaling Z / S, and s in the place of S^-1."""
        return z / s, s

    @staticmethod
    def centering(sigma_mu: float, s: np.ndarray) -> np.ndarray:
        return sigma_mu / s

    @staticmethod
    def congruence(w2: np.ndarray, r: np.ndarray) -> np.ndarray:
        return w2 * r

    @staticmethod
    def corrector(s: np.ndarray, ds: np.ndarray, dz: np.ndarray) -> np.ndarray:
        return -ds * dz / s

    @staticmethod
    def max_step(s: np.ndarray, ds: np.ndarray) -> float:
        neg = ds < 0
        if not neg.any():
            return np.inf
        return float(np.min(-s[neg] / ds[neg]))

    @staticmethod
    def sym(v: np.ndarray) -> np.ndarray:
        return v

    def duals(self, z: np.ndarray) -> List[Tuple[int, np.ndarray]]:
        return [(src, np.array([[v]])) for src, v in zip(self.src, z)]


class _DenseBlock:
    def __init__(self, src: int, block: Block, num_vars: int):
        self.src = src
        self.dim = d = block.dim
        self.a0 = block.dense_const()
        self.vars = np.array(sorted(block.coeffs), dtype=np.intp)
        self.pairs = np.ix_(self.vars, self.vars)  # its entries of the Schur matrix
        mb = len(self.vars)
        self.norm_a0 = float(np.linalg.norm(self.a0))
        self.rank1 = d > _DENSE_DIM_LIMIT
        if not self.rank1:
            self.stack = np.zeros((mb, d, d))
            for t, k in enumerate(self.vars):
                self.stack[t] = block.dense_coeff(k)
            self.coeff_scale = (
                float(max(np.linalg.norm(self.stack[t]) for t in range(mb))) if mb else 0.0
            )
            return

        # Sign classes: a variable whose coefficient matrix equals, or exactly
        # negates, an earlier one's joins that class, A_k = var_sign_k A_c.
        classes: Dict[Tuple[Triplet, ...], Tuple[int, float]] = {}
        reps: List[List[Triplet]] = []
        var_cls: List[int] = []
        var_sign: List[float] = []
        for k in self.vars:
            trips = block.coeffs[k]
            key = tuple(trips)
            if key not in classes:
                classes[key] = (len(reps), 1.0)
                classes[tuple((i, j, -v) for i, j, v in trips)] = (len(reps), -1.0)
                reps.append(trips)
            c, sign = classes[key]
            var_cls.append(c)
            var_sign.append(sign)

        # Factor each class's first member into signed rank-one terms on its
        # support: A_c = sum_r sign_r u_r u_r^T exactly (eigendecomposition).
        term_cls: List[int] = []
        term_sign: List[float] = []
        term_vecs: List[np.ndarray] = []
        term_idx: List[np.ndarray] = []
        scale = 0.0
        for c, trips in enumerate(reps):
            support = sorted({i for i, _, _ in trips} | {j for _, j, _ in trips})
            pos = {g: l for l, g in enumerate(support)}
            a = np.zeros((len(support), len(support)))
            for i, j, v in trips:
                a[pos[i], pos[j]] += v
                if i != j:
                    a[pos[j], pos[i]] += v
            scale = max(scale, float(np.linalg.norm(a)))
            w, v = np.linalg.eigh(a)
            top = float(np.abs(w).max())
            for r in range(len(w)):
                if abs(w[r]) > 1e-14 * max(top, 1.0):
                    term_cls.append(c)
                    term_sign.append(1.0 if w[r] > 0 else -1.0)
                    term_vecs.append(v[:, r] * math.sqrt(abs(w[r])))
                    term_idx.append(np.asarray(support, dtype=np.intp))
        self.coeff_scale = scale

        nterms = len(term_cls)
        smax = max((len(ix) for ix in term_idx), default=1)
        self.var_cls = np.asarray(var_cls, dtype=np.intp)
        self.var_sign = np.asarray(var_sign)
        # signed indicator G[c, r] = sign_r for each term r of class c, so a
        # group sum over classes is one product with G
        self.G = sp.csr_matrix(
            (term_sign, (term_cls, np.arange(nterms))), shape=(len(reps), nterms)
        )
        self.u_idx = np.zeros((nterms, smax), dtype=np.intp)
        self.u_val = np.zeros((nterms, smax))
        for r in range(nterms):
            s = len(term_idx[r])
            self.u_idx[r, :s] = term_idx[r]
            self.u_val[r, :s] = term_vecs[r]
        rows = self.u_idx.ravel()
        cols = np.repeat(np.arange(nterms), smax)
        self.U = sp.csc_matrix(
            (self.u_val.ravel(), (rows, cols)), shape=(d, nterms)
        )
        self.Ut = self.U.T.tocsr()

    def start(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.eye(self.dim) * (1.0 + self.norm_a0 + self.coeff_scale), np.eye(self.dim)

    def combine(self, y: np.ndarray) -> np.ndarray:
        """sum_k y_k A_k as a dense matrix (y indexed by problem variable)."""
        ysub = y[self.vars]
        if not self.rank1:
            m = np.tensordot(ysub, self.stack, axes=1)
        else:
            y_cls = np.bincount(
                self.var_cls, weights=self.var_sign * ysub, minlength=self.G.shape[0]
            )
            m = (self.U.multiply(self.G.T @ y_cls) @ self.Ut).toarray()
        return self.sym(m)

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        """<A_k, U> for each local variable, as a dense (mb,) vector."""
        if not self.rank1:
            return np.einsum("kij,ij->k", self.stack, u)
        g = u[self.u_idx[:, :, None], self.u_idx[:, None, :]]
        t = np.einsum("ras,ra,rs->r", g, self.u_val, self.u_val)
        return self.var_sign * (self.G @ t)[self.var_cls]

    def schur(self, w: np.ndarray) -> np.ndarray:
        """M_sub[k, j] = <A_k, W A_j W> over the block's local variables."""
        if not self.rank1:
            p = self.stack @ w  # (mb, d, d)
            g = np.matmul(w, p)
            mb, d = self.stack.shape[0], self.dim
            return g.reshape(mb, d * d) @ self.stack.reshape(mb, d * d).T
        wu = (self.Ut @ w).T  # (d, R) dense
        h = self.Ut @ wu  # (R, R)
        np.square(h, out=h)
        # H is symmetric only up to rounding; the Cholesky reads one triangle
        # of the Schur matrix and the refinement step multiplies by all of it,
        # so both must see the same symmetric matrix
        m_cls = self.sym(self.G @ (self.G @ h).T)
        rows = m_cls[self.var_cls]
        rows *= self.var_sign[:, None]
        out = rows[:, self.var_cls]
        out *= self.var_sign
        return out

    @staticmethod
    def inner(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.tensordot(a, b))

    @staticmethod
    def scaling(s: np.ndarray, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(W, S^-1): the NT scaling point W with W S W = Z, and the inverse
        of S, both from one eigendecomposition of S."""
        w_s, v_s = np.linalg.eigh(s)
        if w_s[0] <= 0:
            raise FloatingPointError("slack block lost positive definiteness")
        rt = np.sqrt(w_s)
        s_half = (v_s * rt) @ v_s.T
        s_ihalf = (v_s / rt) @ v_s.T
        b = s_half @ z @ s_half
        b = 0.5 * (b + b.T)
        w_b, v_b = np.linalg.eigh(b)
        w_b = np.clip(w_b, 0.0, None)
        b_half = (v_b * np.sqrt(w_b)) @ v_b.T
        w = s_ihalf @ b_half @ s_ihalf
        return 0.5 * (w + w.T), (v_s / w_s) @ v_s.T

    @staticmethod
    def centering(sigma_mu: float, s_inv: np.ndarray) -> np.ndarray:
        return sigma_mu * s_inv

    @staticmethod
    def congruence(w: np.ndarray, r: np.ndarray) -> np.ndarray:
        return w @ r @ w

    @staticmethod
    def corrector(s_inv: np.ndarray, ds: np.ndarray, dz: np.ndarray) -> np.ndarray:
        """-sym(S^-1 dS dZ); a row's -ds*dz/s is its 1x1 case."""
        p = s_inv @ ds @ dz
        return -0.5 * (p + p.T)

    @staticmethod
    def max_step(mat: np.ndarray, delta: np.ndarray) -> float:
        """Largest alpha with mat + alpha*delta >= 0 (mat must be PD)."""
        chol = np.linalg.cholesky(mat)
        y = sla.solve_triangular(chol, delta, lower=True)
        t = sla.solve_triangular(chol, y.T, lower=True)
        t = 0.5 * (t + t.T)
        lam = np.linalg.eigvalsh(t)[0]
        if lam >= -1e-14:
            return np.inf
        return -1.0 / lam

    @staticmethod
    def sym(m: np.ndarray) -> np.ndarray:
        return 0.5 * (m + m.T)

    def duals(self, z: np.ndarray) -> List[Tuple[int, np.ndarray]]:
        return [(self.src, z)]


def _compile(problem: SdpProblem):
    """Compiled blocks, dense ones in problem order and the fused rows last,
    plus the map :func:`_abs_adjoint` builds for that layout."""
    lin_parts: List[Tuple[int, Block]] = []
    dense: List[_DenseBlock] = []
    for bi, blk in enumerate(problem.blocks):
        if blk.dim == 1:
            lin_parts.append((bi, blk))
        else:
            dense.append(_DenseBlock(bi, blk, problem.num_vars))
    lin = _LinBlock(lin_parts, problem.num_vars) if lin_parts else None
    blocks = dense + ([lin] if lin is not None else [])
    return blocks, _abs_adjoint(problem, dense, lin)


def _abs_adjoint(problem: SdpProblem, dense, lin) -> sp.csr_matrix:
    """Sparse map from stacked |Z| entries to sum_entries |A_k| * |Z| per var.

    The dual residual c - A(Z) is computed with exactly these products, so
    this per-variable absolute sum is the natural scale of its floating-point
    roundoff.  Feasibility would otherwise look unattainable on problems
    whose dual variables are huge with cancelling contributions.
    """
    offsets = {}
    total = 0
    for b in dense:
        offsets[b.src] = total
        total += b.dim * b.dim
    lin_offset = {}
    if lin is not None:
        for r, src in enumerate(lin.src):
            lin_offset[src] = total + r
        total += lin.q
    rows, cols, vals = [], [], []
    for bi, blk in enumerate(problem.blocks):
        if blk.dim == 1:
            col = lin_offset[bi]
            for k, trips in blk.coeffs.items():
                rows.append(k)
                cols.append(col)
                vals.append(abs(sum(v for _, _, v in trips)))
        else:
            off = offsets[bi]
            for k, trips in blk.coeffs.items():
                for i, j, v in trips:
                    rows.append(k)
                    cols.append(off + i * blk.dim + j)
                    vals.append(abs(v))
                    if i != j:
                        rows.append(k)
                        cols.append(off + j * blk.dim + i)
                        vals.append(abs(v))
    return sp.csr_matrix((vals, (rows, cols)), shape=(problem.num_vars, total))


# ---------------------------------------------------------------------------
# interior-point method


def solve(
    problem: SdpProblem,
    config: Optional[SolverConfig] = None,
    callback: Optional[Callable[[dict], None]] = None,
) -> SdpSolution:
    """Run the interior-point method on ``problem``.

    Returns the best iterate found together with a status:

    * OPTIMAL: relative gap and both feasibility residuals within tolerance;
    * MAX_ITERATIONS: iteration budget exhausted first;
    * INFEASIBLE: the dual objective diverged with vanishing dual residual,
      which certifies (numerically) that no PSD point exists;
    * NUMERICAL_FAILURE: a factorization broke down or progress stalled.

    ``callback`` (if given) receives a dict of per-iteration scalars; tests
    use it to check weak duality along the whole path.
    """
    cfg = config or SolverConfig()
    blocks, abs_adj = _compile(problem)
    if not blocks:
        raise ValueError("problem has no blocks")
    c = problem.objective
    m = problem.num_vars

    data_scale = 1.0 + max(
        [b.norm_a0 for b in blocks] + [b.coeff_scale for b in blocks]
    )
    c_scale = 1.0 + float(np.linalg.norm(c))

    # Iterates are never updated in place, so the best one is kept by
    # reference.  S and Z hold one matrix per dense block and one vector
    # for the fused rows.
    x = np.zeros(m)
    s_blk, z_blk = zip(*(b.start() for b in blocks))
    nu = sum(len(s) for s in s_blk)  # barrier degree: the order of each block
    best: Tuple[float, np.ndarray, Sequence[np.ndarray], dict] = (np.inf, x, z_blk, {})
    status = SolveStatus.MAX_ITERATIONS
    iters_done = 0
    stall = 0
    last_step: dict = {}

    for it in range(cfg.max_iters):
        iters_done = it
        # residuals and merit ------------------------------------------------
        r_s = [b.a0 + b.combine(x) - s for b, s in zip(blocks, s_blk)]
        a_z = np.zeros(m)
        for b, z in zip(blocks, z_blk):
            a_z[b.vars] += b.adjoint(z)
        r_z = c - a_z

        gap = sum(b.inner(s, z) for b, s, z in zip(blocks, s_blk, z_blk))
        mu = gap / nu

        pobj = float(c @ x)
        dobj = -sum(b.inner(b.a0, z) for b, z in zip(blocks, z_blk))

        pinf = math.sqrt(sum(float(np.linalg.norm(r) ** 2) for r in r_s)) / data_scale
        # Dual residual measured componentwise against the magnitudes that
        # actually entered its computation (backward-error style); a plain
        # norm over c_scale has an unreachable floor when Z is huge.
        abs_prod = abs_adj @ np.concatenate([np.abs(z).ravel() for z in z_blk])
        dinf = float(np.max(np.abs(r_z) / (1.0 + np.abs(c) + abs_prod)))
        relgap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
        merit = max(relgap, pinf, dinf)

        if callback is not None:
            info = {
                "iteration": it,
                "pobj": pobj,
                "dobj": dobj,
                "gap": gap,
                "mu": mu,
                "pinf": pinf,
                "dinf": dinf,
            }
            info.update(last_step)
            callback(info)

        optimal = relgap <= cfg.gap_tol and pinf <= cfg.feas_tol and dinf <= cfg.feas_tol
        if optimal or merit < best[0]:
            best = (merit, x, z_blk, {"gap": relgap, "pinf": pinf, "dinf": dinf})
        if optimal:
            status = SolveStatus.OPTIMAL
            break

        # A diverging dual along a ray with A(Z) ~ 0 and improving objective
        # is a Farkas certificate that no PSD point exists.  The comparison
        # with pobj guards against healthy problems that simply have large
        # dual values: at any near-optimum dobj cannot exceed pobj.
        dual_ray = (
            dobj > 100.0 * (1.0 + c_scale)
            and dobj > 100.0 * abs(pobj)
            and float(np.linalg.norm(a_z)) <= 1e-3 * (1.0 + dobj)
        )
        iterate_scale = max(
            [float(np.abs(x).max(initial=0.0))] + [float(np.abs(z).max()) for z in z_blk]
        )
        if iterate_scale > 1e14 * data_scale or not math.isfinite(merit):
            status = SolveStatus.INFEASIBLE if dual_ray else SolveStatus.NUMERICAL_FAILURE
            break

        # scaling and Schur matrix -------------------------------------------
        fail_status = (
            SolveStatus.INFEASIBLE if dual_ray else SolveStatus.NUMERICAL_FAILURE
        )
        try:
            # per block (W, S^-1), in the forms the block's methods expect
            scal = [b.scaling(s, z) for b, s, z in zip(blocks, s_blk, z_blk)]
        except FloatingPointError:
            status = fail_status
            break

        schur = np.zeros((m, m))
        for b, (w, _) in zip(blocks, scal):
            schur[b.pairs] += b.schur(w)

        chol = None
        jitter = _JITTER * (1.0 + float(np.trace(schur)) / max(m, 1))
        for attempt in range(4):
            try:
                chol = sla.cho_factor(
                    schur + (jitter * (10.0**attempt) if attempt else 0.0) * np.eye(m),
                    lower=True,
                )
                break
            except np.linalg.LinAlgError:
                continue
            except ValueError:
                break
        if chol is None:
            status = fail_status
            break

        def newton(sigma_mu: float, corr):
            """Solve one Newton system; returns (dx, [dS], [dZ])."""
            r3 = [
                b.centering(sigma_mu, s_inv) - z
                for b, (_, s_inv), z in zip(blocks, scal, z_blk)
            ]
            if corr is not None:
                r3 = [r + cr for r, cr in zip(r3, corr)]

            rhs = -r_z.copy()
            for b, (w, _), r3b, rsb in zip(blocks, scal, r3, r_s):
                rhs[b.vars] += b.adjoint(r3b)
                rhs[b.vars] -= b.adjoint(b.congruence(w, rsb))

            dx = sla.cho_solve(chol, rhs)
            # one round of iterative refinement keeps the dual residual from
            # flooring at the Schur matrix's condition-number noise
            dx += sla.cho_solve(chol, rhs - schur @ dx)
            ds = [b.sym(rsb + b.combine(dx)) for b, rsb in zip(blocks, r_s)]
            dz = [
                b.sym(r3b - b.congruence(w, dsb))
                for b, (w, _), r3b, dsb in zip(blocks, scal, r3, ds)
            ]
            return dx, ds, dz

        def step_length(ds, dz):
            # a single step length for primal and dual keeps the iterate
            # near the central path; separate lengths let one side race
            # ahead, which poisons the NT scaling and stalls the other
            a = np.inf
            for b, s, z, dsb, dzb in zip(blocks, s_blk, z_blk, ds, dz):
                a = min(a, b.max_step(s, dsb))
                a = min(a, b.max_step(z, dzb))
            return min(1.0, cfg.step_fraction * a)

        try:
            # predictor
            dxa, dsa, dza = newton(0.0, None)
            a_aff = step_length(dsa, dza)
            gap_aff = sum(
                b.inner(s + a_aff * dsb, z + a_aff * dzb)
                for b, s, z, dsb, dzb in zip(blocks, s_blk, z_blk, dsa, dza)
            )
            sigma = min(1.0, max((gap_aff / gap) ** 3 if gap > 0 else 0.0, 0.0))

            # corrector: second-order term -sym(S^-1 dS_a dZ_a)
            corr = [
                b.corrector(s_inv, dsb, dzb)
                for b, (_, s_inv), dsb, dzb in zip(blocks, scal, dsa, dza)
            ]
            dx, ds, dz = newton(sigma * mu, corr)
            alpha = step_length(ds, dz)
            if alpha < 0.05:
                # off-center iterates block the Mehrotra direction almost
                # immediately; fall back to a plain centering step, which
                # always points into the cone and restores balance
                sigma = max(sigma, 0.8)
                dx, ds, dz = newton(sigma * mu, None)
                alpha = step_length(ds, dz)
        except (np.linalg.LinAlgError, FloatingPointError):
            status = fail_status
            break
        last_step = {"alpha": alpha, "sigma": sigma}

        if alpha < 1e-10:
            stall += 1
            if stall >= 3:
                status = fail_status
                break
        else:
            stall = 0

        x = x + alpha * dx
        s_blk = [b.sym(s + alpha * d) for b, s, d in zip(blocks, s_blk, ds)]
        z_blk = [b.sym(z + alpha * d) for b, z, d in zip(blocks, z_blk, dz)]
    else:
        iters_done = cfg.max_iters

    _, x_best, z_best, binfo = best
    dual_blocks: List[np.ndarray] = [np.zeros((0, 0))] * len(problem.blocks)
    for b, z in zip(blocks, z_best):
        for src, zb in b.duals(z):
            dual_blocks[src] = zb

    return SdpSolution(
        x=x_best,
        objective_value=float(problem.objective @ x_best),
        dual_blocks=dual_blocks,
        status=status,
        gap=float(binfo.get("gap", np.inf)),
        residuals=Residuals(
            primal=float(binfo.get("pinf", np.inf)),
            dual=float(binfo.get("dinf", np.inf)),
        ),
        iterations=iters_done,
    )


# ---------------------------------------------------------------------------
# independent certificate check


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
    * gap: |c.x - dual objective| within gap_tol plus the slack the
      feasibility tolerances themselves allow (residuals enter the gap
      through <R_S, Z> and x . r_Z, so their budget is added in).
    """
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
        slack = block.dense_const()
        for k, _ in block.coeffs.items():
            slack = slack + x[k] * block.dense_coeff(k)
        floor = -_EIG_FLOOR * (1.0 + float(np.linalg.norm(slack)))
        emin = float(np.linalg.eigvalsh(0.5 * (slack + slack.T))[0])
        slack_eig = min(slack_eig, emin - floor)
        zfloor = -_EIG_FLOOR * (1.0 + float(np.linalg.norm(z)))
        zmin = float(np.linalg.eigvalsh(0.5 * (z + z.T))[0])
        dual_eig = min(dual_eig, zmin - zfloor)
        for k in block.coeffs:
            coeff = block.dense_coeff(k)
            a_z[k] += float(np.tensordot(coeff, z))
            abs_prod[k] += float(np.abs(coeff * z).sum())
        dobj -= float(np.tensordot(block.dense_const(), z))
        z_norm += float(np.linalg.norm(z) ** 2)
    z_norm = math.sqrt(z_norm)

    r_z = c - a_z
    dual_res = float(np.max(np.abs(r_z) / (1.0 + np.abs(c) + abs_prod)))
    pobj = float(c @ x)
    gap_val = abs(pobj - dobj)
    gap_budget = cfg.gap_tol * (1.0 + abs(pobj) + abs(dobj)) + cfg.feas_tol * (
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
