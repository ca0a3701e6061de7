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

The Newton system is solved over sign classes, not over the variables.  A
class is one variable or one negated pair.  Each two-sided measurement
interval gives such a pair, one multiplier per bound, and the caller
declares it in ``SdpProblem.pairs``: a row (k, l) states x_k >= 0, x_l >= 0
and A_{b,l} = -A_{b,k} in every block b, which the problem checks when it is
built.  The lower-indexed member carries the class with sign +1 and the
other has sign -1; every other variable is a class of its own with sign +1.
With P the signed map from classes to variables, M = P K P^T + L, where
K[c, e] = sum_b <A_{b,c}, W_b A_{b,e} W_b> comes from the problem's blocks
and L from the unit rows x_k >= 0 that the solver adds for the paired
members.  Member k's unit row puts lam_k on its diagonal, so the pair's
class gets the harmonic term h_c = 1 / (1/lam_k + 1/lam_l), and the solver
factors

    (K + diag(h)) d = rho,
    rho_c = (h_c / lam_k) rhs_k - (h_c / lam_l) rhs_l    on a pair,

one unknown per class.  Back-substitution gives each member its exact step,
dx_k = (rhs_k - s_k (K d)_c) / lam_k, in a form whose signed sum over the
pair is d_c (see ``_Reduction.step``); a single variable's step is d_c.
The direction equals the one over all variables in exact arithmetic.  When
the Cholesky needs a jitter, the reduction is that of M + jitter I, so a
paired member's diagonal term is lam_k + jitter.  When the problem declares no
pair, the same reduction is the identity.

Each problem block, 1x1 ones included, is compiled to a dense block with
one per-block interface: start point, inner product, NT scaling (returning
W, S^-1 and the step factors of S and Z), Schur contribution over its
classes and the index of those entries in the class matrix (plain slices
when its classes are contiguous, as in the network-wide problem), centering
term, the congruence W R W, step length, corrector, symmetrization, and the
roundoff scale of the dual residual, <|A_k|, |Z|> per variable.  The solver
loops over one list of such blocks and never asks what kind a block is; the
fused unit rows, which have no Schur term, come last.  A dense block enters
through each class's first member, whose coefficient entries it keeps at
compile time as index arrays (position in vec(A), class, value), an
off-diagonal entry in both of its positions, once sorted by position and
once by class.  Each product is one gather and one np.bincount over them:
the combination sums y_c A_c by position; the adjoint sums <A_c, U> by
class, mapped to the variables; and the roundoff scale sums <|A_c|, |Z|> by
class, which the two members of a pair share.  Only the Schur term needs more.  Small dense
blocks keep a dense coefficient stack over their classes.  Large ones factor
each class's coefficient into signed rank-one terms,
A_c = sum_r sign_r u_r u_r^T, by one batched eigendecomposition on the
supports, and assemble K from H[r, t] = (u_r^T W u_t)^2, which two dense
products form, Y = U W and H = Y U^T.  scipy's BLAS dgemm forms them, as its
LAPACK factors the Schur matrix, so that a solve's products and Cholesky use
one BLAS library and one thread pool; the eigendecompositions stay on
numpy.  scipy is imported by the first compile, not with the module.  The
terms are ordered with each class's first term in row c and the rest after
it, so signing H and adding each later term's row, then its column, into
its class's first in place leaves K in the leading corner of H, whatever the
number of terms per class.
This is what makes networks of a few hundred variables cheap.

A dense block's step factors come from the two eigendecompositions that W
needs, S = V_s diag(w_s) V_s^T and S^1/2 Z S^1/2 = V_b diag(w_b) V_b^T:
G_S = V_s diag(w_s)^-1/2 and G_Z = S^1/2 V_b diag(w_b)^-1/2, so that
G_S^T S G_S = G_Z^T Z G_Z = I.  The largest step of S + alpha dS is then
-1/lambda_min(G_S^T dS G_S), and that of Z likewise: one eigvalsh per
test, and S and Z are not factored again.  The fused rows' step factors are
s and z themselves, for a ratio test.

Each solve builds its Newton systems in one workspace: the class Schur
matrix, an F-ordered buffer that the Cholesky factors in place, and the
rank-one scratch Y and H, sized for the block with the most terms and shared
by the blocks in turn.  So an iteration allocates no float array that grows
with the classes or the terms; only the Cholesky's finiteness checks take a
byte per Schur entry.  Allocated afresh, such arrays cost the network-wide
problem more than their arithmetic: each large one went back to the kernel
when freed and was faulted in again on the next iteration.  The Cholesky
calls LAPACK's potrf and potrs directly.  Each attempt first checks that the
matrix is finite: a non-finite one ends the attempts, and the solve ends
numerical_failure, while one that is not positive definite is tried again
with a larger jitter.

The paired members' unit rows are fused into one diagonal block of
vectors, kept last in the list, whose methods do the same steps row by row.
No matrix is formed: the rows are index arithmetic, a gather y[paired] in
the combination, and the adjoints are the rows' own values on the paired
variables.  They have no Schur term; they enter through h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

Triplet = Tuple[int, int, float]

_DENSE_DIM_LIMIT = 12  # blocks at most this wide skip the rank-one machinery
_JITTER = 1e-12
GAP_TOL = 1e-8  # relative duality gap of an OPTIMAL solve
_STEP_FRACTION = 0.98  # of the largest cone-preserving step
# scipy's LAPACK Cholesky factor and solve (_POTRF, _POTRS) and BLAS product
# (_GEMM) in double precision, called directly, so that the Schur products
# and the Cholesky share one BLAS thread pool.  The first compile, which
# every solve starts with, binds them, so that a process that never solves
# never loads scipy; reading one from outside the module binds them too.
_SCIPY_ROUTINES = ("_POTRF", "_POTRS", "_GEMM")


def _bind_scipy_routines() -> None:
    global _POTRF, _POTRS, _GEMM
    if "_GEMM" in globals():
        return
    import scipy.linalg as sla

    _POTRF, _POTRS = sla.get_lapack_funcs(("potrf", "potrs"), (np.empty(0),))
    _GEMM = sla.get_blas_funcs("gemm", (np.empty(0),))


def __getattr__(name: str):
    if name in _SCIPY_ROUTINES:
        _bind_scipy_routines()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class SolverConfig:
    feas_tol: float = 1e-8
    max_iters: int = 200


@dataclass
class Block:
    """One PSD block ``A0 + sum_k x_k A_k >= 0``.

    Matrices are stored as lower-triangle triplets (i, j, value) with
    i >= j; an off-diagonal triplet stands for the symmetric pair.
    Duplicate positions are summed and exact zeros dropped on construction,
    and each matrix's triplets are sorted by position.  The block also keeps
    its coefficients' canonical triplets as arrays, ``table``, so it is not
    to be changed once built.
    """

    dim: int
    const: List[Triplet] = field(default_factory=list)
    coeffs: Dict[int, List[Triplet]] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("block dimension must be positive")
        self.const, self.coeffs, self.table = _canonical(self.dim, self.const, self.coeffs)

    def dense_const(self) -> np.ndarray:
        return _triplets_to_dense(self.const, self.dim)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """``A0 + sum_k x_k A_k`` as a dense matrix, formed from the triplets."""
        scaled = [(i, j, x[k] * v) for k, trips in self.coeffs.items() for i, j, v in trips]
        return _triplets_to_dense(self.const + scaled, self.dim)


class _Table(NamedTuple):
    """A block's coefficient triplets as arrays, one row per triplet, sorted
    by variable and then by position, the lower-triangle (i, j) as
    ``i * dim + j``."""

    var: np.ndarray
    pos: np.ndarray
    val: np.ndarray


def _canonical(
    dim: int, const: Sequence[Triplet], coeffs: Dict[int, Sequence[Triplet]]
) -> Tuple[List[Triplet], Dict[int, List[Triplet]], _Table]:
    """The constant and every coefficient canonicalized in one pass.

    Each triplet moves to the lower triangle, and a stable sort by (matrix,
    i, j) brings duplicates together in input order; ``bincount`` sums them
    from 0.0 in that order, and exact zeros are dropped.  The matrices are
    ranked constant first, then by variable.  Coefficients keep their input
    order, and those left empty are dropped.
    """
    keys = list(coeffs)
    mats = [const] + [coeffs[k] for k in keys]
    flat = [t for m in mats for t in m]
    trips = np.fromiter(chain.from_iterable(flat), dtype=float, count=3 * len(flat)).reshape(-1, 3)
    ij = trips[:, :2]
    if len(ij) and (ij.min() < 0 or ij.max() >= dim):
        i, j, _ = flat[int(np.argmax(((ij < 0) | (ij >= dim)).any(axis=1)))]
        raise ValueError(f"triplet index ({i}, {j}) outside block of dim {dim}")
    i, j = ij.astype(np.intp).T
    var = np.array(keys, dtype=np.intp)
    rank = np.zeros(len(mats), dtype=np.intp)  # the constant ranks first
    rank[1:][np.argsort(var)] = np.arange(1, len(mats))
    mat = np.repeat(rank, [len(m) for m in mats])
    key = (mat * dim + np.maximum(i, j)) * dim + np.minimum(i, j)
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    val = np.bincount(np.cumsum(new) - 1, weights=trips[order, 2])
    keep = val != 0.0
    key, val = key[new][keep], val[keep]
    mat, pos = np.divmod(key, dim * dim)
    hi, lo = np.divmod(pos, dim)
    out = list(zip(hi.tolist(), lo.tolist(), val.tolist()))
    ends = np.searchsorted(mat, np.arange(len(mats) + 1)).tolist()
    canon = {}
    for k, r in zip(keys, rank[1:].tolist()):
        if ends[r + 1] > ends[r]:
            canon[k] = out[ends[r] : ends[r + 1]]
    first = ends[1]
    table = _Table(np.sort(var)[mat[first:] - 1], pos[first:], val[first:])
    return out[:first], canon, table


def _triplets_to_dense(triplets: Sequence[Triplet], dim: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    for i, j, v in triplets:
        m[i, j] += v
        if i != j:
            m[j, i] += v
    return m


@dataclass
class SdpProblem:
    """The program's variables, objective and blocks, and its negated pairs.

    Each row (k, l) of ``pairs`` states x_k >= 0, x_l >= 0 and
    A_{b,l} = -A_{b,k} in every block b; the solver adds the two unit rows
    itself, and the pair is one unknown of its Newton system.
    """

    num_vars: int
    objective: np.ndarray
    blocks: List[Block]
    pairs: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.intp))

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.num_vars,):
            raise ValueError(
                f"objective has shape {self.objective.shape}, expected ({self.num_vars},)"
            )
        for b in self.blocks:
            unknown = (b.table.var < 0) | (b.table.var >= self.num_vars)
            if unknown.any():
                raise ValueError(
                    f"coefficient for unknown variable {b.table.var[np.argmax(unknown)]}"
                )
        self.pairs = np.asarray(self.pairs, dtype=np.intp).reshape(-1, 2)
        members = self.pairs.ravel()
        if np.any((members < 0) | (members >= self.num_vars)):
            raise ValueError("pair names an unknown variable")
        if len(np.unique(members)) < len(members):
            raise ValueError("a variable appears in more than one pair")
        if len(self.pairs):
            for bi, b in enumerate(self.blocks):
                bad = _unnegated(b.table, self.pairs, self.num_vars)
                if bad.any():
                    k, l = self.pairs[np.argmax(bad)].tolist()
                    raise ValueError(f"pair ({k}, {l}) is not negated in block {bi}")


def _unnegated(table: _Table, pairs: np.ndarray, num_vars: int) -> np.ndarray:
    """Flags the pairs (k, l) whose canonical triplets in the block of
    ``table`` are not those of k with every value negated."""
    count = np.bincount(table.var, minlength=num_vars)
    start = np.cumsum(count) - count
    k, l = pairs.T
    bad = count[k] != count[l]
    n = np.where(bad, 0, count[k])
    pair = np.repeat(np.arange(len(pairs)), n)
    offset = np.arange(len(pair)) - np.repeat(np.cumsum(n) - n, n)
    rk, rl = start[k][pair] + offset, start[l][pair] + offset
    differ = (table.pos[rk] != table.pos[rl]) | (table.val[rl] != -table.val[rk])
    bad[pair[differ]] = True
    return bad


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


def _square(idx: np.ndarray):
    """Index of the square submatrix on the sorted indices ``idx``: plain
    slices when they form one contiguous run, else an ``np.ix_`` pair."""
    if len(idx) == 0 or idx[-1] - idx[0] == len(idx) - 1:
        run = slice(int(idx[0]), int(idx[-1]) + 1) if len(idx) else slice(0, 0)
        return run, run
    return np.ix_(idx, idx)


class _SignClasses:
    """The problem's variables sorted into sign classes.

    A class is one declared pair or one other variable.  A pair's lower
    member has sign +1 and the other -1, every other variable +1, and the
    classes are numbered in the order of their lowest members.  ``paired``
    lists the paired variables in ascending order, ``partner`` gives each
    one's partner as a position in ``paired``; the fused block holds their
    unit rows in the same order.
    """

    def __init__(self, num_vars: int, pairs: np.ndarray):
        lo, hi = np.sort(pairs, axis=1).T
        rep = np.arange(num_vars)
        rep[hi] = lo
        reps, self.cls = np.unique(rep, return_inverse=True)
        self.size = len(reps)
        self.sign = np.ones(num_vars)
        self.sign[hi] = -1.0
        partner = np.full(num_vars, -1, dtype=np.intp)
        partner[lo], partner[hi] = hi, lo
        self.paired = np.flatnonzero(partner >= 0)
        pos = np.full(num_vars, -1, dtype=np.intp)
        pos[self.paired] = np.arange(len(self.paired))
        self.partner = pos[partner[self.paired]]
        self.paired_cls = self.cls[self.paired]
        self.paired_sign = self.sign[self.paired]
        self.pair_flag = np.zeros(self.size)  # 1 on each pair's class
        self.pair_flag[self.paired_cls] = 1.0


class _Reduction:
    """One iterate's Newton system, reduced to one unknown per class.

    M = P K P^T + L over the variables, where P maps class c to its members
    with their signs, K is the class matrix of the problem's blocks and L
    the unit rows' term.  With lam_k the term of paired member k's unit row
    (plus the jitter, if any) and l its partner, the pair's class gets
    h_c = 1 / (1/lam_k + 1/lam_l) on the diagonal and the right-hand side
    rho_c = w_k s_k r_k + w_l s_l r_l, with weights w_k = h_c / lam_k that
    sum to one; every other class keeps r_k and takes the jitter on its
    diagonal.  The class step d solves (K + diag) d = rho, and a single
    variable's step is d_c.
    """

    def __init__(self, classes: _SignClasses, lam: np.ndarray, jitter: float):
        cl = self.classes = classes
        self.lam = lam
        inv = 1.0 / (lam + jitter)
        self.inv_partner = inv[cl.partner]
        h = 1.0 / (inv + self.inv_partner)  # the same for both members
        self.diag = np.full(cl.size, jitter)
        self.diag[cl.paired_cls] = h
        self.weight = h * inv
        signed_weight = cl.sign.copy()
        signed_weight[cl.paired] *= self.weight
        self.signed_weight = signed_weight

    def rhs(self, r: np.ndarray) -> np.ndarray:
        cl = self.classes
        return np.bincount(cl.cls, weights=self.signed_weight * r, minlength=cl.size)

    def step(self, d: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Variable steps from the class step ``d``.

        A paired member's Newton row gives dx_k = (r_k - s_k (K d)_c) / lam_k,
        and (K d)_c = rho_c - h_c d_c.  Written with q_k = s_k r_k and l the
        partner, that is

            dx_k = s_k w_k (d_c + (q_k - q_l) / lam_l).

        The signed sum over the pair is exactly d_c, so the dense blocks see
        the class step that was solved for, and no term subtracts two nearly
        equal numbers: forming q_k - rho_c instead cancels when lam_k is much
        the smaller, and the error then grows by 1/lam_k.
        """
        cl = self.classes
        mk, ms = cl.paired, cl.paired_sign
        q = ms * r[mk]
        spread = self.inv_partner * (q - q[cl.partner])
        dx = d[cl.cls]  # a single variable has sign +1
        dx[mk] = ms * (self.weight * d[cl.paired_cls] + self.weight * spread)
        return dx

    def product(self, schur: np.ndarray, d: np.ndarray, dx: np.ndarray) -> np.ndarray:
        """M dx without the jitter, for the step ``dx`` of class step ``d``:
        s_k (K d)_c from the class matrix, plus lam_k dx_k on paired rows."""
        cl = self.classes
        out = cl.sign * (schur @ d)[cl.cls]
        out[cl.paired] += self.lam * dx[cl.paired]
        return out


class _Scaling(NamedTuple):
    """One block's scaling at an iterate, in the forms its methods expect.

    For a dense block: the NT scaling point W, S^-1, and the step factors
    G_S and G_Z, with G_S^T S G_S = G_Z^T Z G_Z = I, that ``max_step`` takes.
    For the fused rows: W^2 = z / s, and s in the place of S^-1; the step
    factors are s and z themselves, for the ratio test.
    """

    w: np.ndarray
    s_inv: np.ndarray
    g_s: np.ndarray
    g_z: np.ndarray


class _LinBlock:
    """The unit rows x_k >= 0 of the paired variables, fused: slack and dual
    as vectors, one row per paired variable in ascending order.

    D is never formed: the combination is the gather ``y[paired]``, and the
    adjoints are the rows' own values on the paired variables, ``vars``.
    Implements the per-block interface of :class:`_DenseBlock` row by row,
    without a Schur term: each row's W^2 = z / s enters through the
    reduction, as its member's lam_k.  Where a dense block multiplies by
    S^-1, a row divides by s, so the scaling hands back s itself in the
    place of S^-1.
    """

    def __init__(self, classes: _SignClasses):
        self.vars = classes.paired
        self.q = len(classes.paired)
        self.a0 = np.zeros(self.q)
        self.norm_a0, self.coeff_scale = 0.0, 1.0  # |a0| and the largest |D column|

    def start(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.full(self.q, 1.0 + self.norm_a0 + self.coeff_scale), np.ones(self.q)

    def combine(self, y: np.ndarray) -> np.ndarray:
        return y[self.vars]

    @staticmethod
    def adjoint(u: np.ndarray) -> np.ndarray:
        return u

    @staticmethod
    def abs_adjoint(z: np.ndarray) -> np.ndarray:
        return np.abs(z)

    @staticmethod
    def inner(a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ b)

    @staticmethod
    def scaling(s: np.ndarray, z: np.ndarray) -> _Scaling:
        """W^2 = Z / S, and s itself in the places of S^-1 and of both step
        factors: a row's step test is a ratio test on s and z."""
        return _Scaling(z / s, s, s, z)

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
        """Largest alpha with s + alpha*ds >= 0, the ratio test (s > 0)."""
        neg = ds < 0
        if not neg.any():
            return np.inf
        return float(np.min(-s[neg] / ds[neg]))

    @staticmethod
    def sym(v: np.ndarray) -> np.ndarray:
        return v


class _DenseBlock:
    """One dense block over the classes of its variables.

    Each class enters through its first member's coefficient; the block's
    variables map onto its classes through ``var_cls`` and ``var_sign``
    (None when every variable is a class of its own).  ``pos_order`` and
    ``cls_order`` hold those coefficients' entries as (position in vec(A),
    class, value) arrays, an off-diagonal entry in both of its positions,
    sorted by (position, class) and by (class, position); ``cls_order`` also
    has |value|.  np.bincount adds each output's entries in that order,
    which is the order of a compressed-row product.  The dense stack (small
    blocks) and the rank-one terms (large ones) serve the Schur term only.
    """

    def __init__(self, block: Block, classes: _SignClasses):
        self.dim = d = block.dim
        self.a0 = block.dense_const()
        self.vars = np.array(sorted(block.coeffs), dtype=np.intp)
        glob = classes.cls[self.vars]
        self.cls, first = np.unique(glob, return_index=True)
        self.entries = _square(self.cls)  # its entries of the Schur matrix
        mb, nc = len(self.vars), len(self.cls)
        if nc == mb:
            self.var_cls = None
        else:
            self.var_cls = np.searchsorted(self.cls, glob)
            self.var_sign = classes.sign[self.vars]
        self.norm_a0 = float(np.linalg.norm(self.a0))
        # the triplets (class, i, j, value) of each class's first member, by class
        table = block.table
        first_of = np.full(mb, -1, dtype=np.intp)
        first_of[first] = np.arange(nc)
        row_cls = first_of[np.searchsorted(self.vars, table.var)]
        rows = np.flatnonzero(row_cls >= 0)
        rows = rows[np.argsort(row_cls[rows], kind="stable")]
        tc = row_cls[rows]
        ti, tj = np.divmod(table.pos[rows], d)
        tv = table.val[rows]
        off = ti != tj
        norm2 = np.bincount(tc, weights=tv * tv * (1 + off), minlength=nc)  # |A_c|_F^2
        self.coeff_scale = math.sqrt(norm2.max(initial=0.0))
        # every entry (position, class, value), an off-diagonal one in both
        # of its positions, in the two orders the products add them in
        ep = np.concatenate([ti * d + tj, (tj * d + ti)[off]])
        ec = np.concatenate([tc, tc[off]])
        ev = np.concatenate([tv, tv[off]])
        by_pos = np.lexsort((ec, ep))
        self.pos_order = (ep[by_pos], ec[by_pos], ev[by_pos])
        by_cls = np.lexsort((ep, ec))
        ep, ec, ev = ep[by_cls], ec[by_cls], ev[by_cls]
        self.cls_order = (ep, ec, ev, np.abs(ev))
        self.rank1 = d > _DENSE_DIM_LIMIT
        if not self.rank1:
            stack = np.zeros((nc, d * d))
            stack[ec, ep] = ev
            self.stack = stack.reshape(nc, d, d)
            self.scratch = (0, 0)
            return

        # Factor each class's coefficient into signed rank-one terms on its
        # support, A_c = sum_r sign_r u_r u_r^T exactly, by one eigh over the
        # coefficients restricted to their supports and zero-padded to the
        # widest one.  keys are the sorted (class, index) pairs of the
        # supports, and slot each one's position within its class's support.
        p, q = np.divmod(ep, d)
        keys = np.unique(ec * d + p)
        kc = keys // d
        slot = np.arange(len(keys)) - np.searchsorted(kc, kc)
        s = int(slot.max(initial=0)) + 1
        support = np.full((nc, s), -1, dtype=np.intp)  # -1 pads
        support[kc, slot] = keys % d
        a = np.zeros((nc, s, s))
        pos = [slot[np.searchsorted(keys, ec * d + r)] for r in (p, q)]
        a[ec, pos[0], pos[1]] = ev
        w, v = np.linalg.eigh(a)
        top = np.abs(w).max(axis=1, initial=0.0)
        keep = np.abs(w) > 1e-14 * np.maximum(top, 1.0)[:, None]
        term_cls, term_col = np.nonzero(keep)
        lam = w[keep]
        vecs = v[term_cls, :, term_col] * np.sqrt(np.abs(lam))[:, None]  # (terms, s)
        # Term order: row c holds class c's first term (a zero term if the
        # class has none), and the rest follow, so the class sums of H leave
        # K in its leading (nc, nc) corner.  extras pairs each later term's
        # row with its class.
        first = np.ones(len(lam), dtype=bool)
        first[1:] = term_cls[1:] != term_cls[:-1]
        rest = np.flatnonzero(~first)
        row = term_cls.copy()
        row[rest] = nc + np.arange(len(rest))
        self.extras = list(zip(term_cls[rest].tolist(), row[rest].tolist()))
        nterms = nc + len(rest)
        self.sign = np.ones(nterms)
        self.sign[row] = np.sign(lam)
        # a kept eigenvector is zero on the padding in exact arithmetic
        idx = support[term_cls]
        on = idx >= 0
        self.U = np.zeros((nterms, d))
        self.U[np.broadcast_to(row[:, None], idx.shape)[on], idx[on]] = vecs[on]
        self.scratch = (nterms, d)

    def _to_classes(self, y: np.ndarray) -> np.ndarray:
        """sum_{k in c} s_k y_k per class of the block (y by problem variable)."""
        ysub = y[self.vars]
        if self.var_cls is None:
            return ysub
        return np.bincount(self.var_cls, weights=self.var_sign * ysub, minlength=len(self.cls))

    def _to_vars(self, v: np.ndarray) -> np.ndarray:
        """s_k v_c for each local variable k of class c."""
        return v if self.var_cls is None else self.var_sign * v[self.var_cls]

    def start(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.eye(self.dim) * (1.0 + self.norm_a0 + self.coeff_scale), np.eye(self.dim)

    def combine(self, y: np.ndarray) -> np.ndarray:
        """sum_k y_k A_k as a dense matrix (y indexed by problem variable);
        symmetric exactly, as both positions of an entry hold it alike."""
        ep, ec, ev = self.pos_order
        v = np.bincount(ep, weights=ev * self._to_classes(y)[ec], minlength=self.dim**2)
        return v.reshape(self.dim, self.dim)

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        """<A_k, U> for each local variable, as a dense (mb,) vector."""
        ep, ec, ev, _ = self.cls_order
        v = np.bincount(ec, weights=ev * u.ravel()[ep], minlength=len(self.cls))
        return self._to_vars(v)

    def abs_adjoint(self, z: np.ndarray) -> np.ndarray:
        """<|A_k|, |Z|> for each local variable, as a dense (mb,) vector;
        the members of a negated pair share |A_k|."""
        ep, ec, _, abs_ev = self.cls_order
        v = np.bincount(ec, weights=abs_ev * np.abs(z.ravel()[ep]), minlength=len(self.cls))
        return v if self.var_cls is None else v[self.var_cls]

    def schur(self, w: np.ndarray, work: "_Workspace") -> np.ndarray:
        """K[c, e] = <A_c, W A_e W> over the block's classes.

        On the rank-one path the result is a view into ``work``, valid until
        the next block's call: H = (U W U^T)^2 is formed in the shared
        scratch, signed, and summed over each class's terms in place, rows
        first and then columns.  Rows carry half their sign, so the leading
        corner holds K / 2 and K / 2 + (K / 2)^T is K made exactly symmetric:
        the Cholesky reads one triangle of the Schur matrix and the
        refinement step multiplies by all of it, so both must see the same
        symmetric matrix.
        """
        if not self.rank1:
            p = self.stack @ w  # (nc, d, d)
            g = np.matmul(w, p)
            nc, d = self.stack.shape[0], self.dim
            return g.reshape(nc, d * d) @ self.stack.reshape(nc, d * d).T
        nc = len(self.cls)
        y, h = work.rank_one(*self.scratch)
        # Y = U W and H = Y U^T, written into the workspace through their
        # F-ordered transposes: Y^T = W^T U^T and H^T = U Y^T
        _GEMM(1.0, w.T, self.U.T, c=y.T, overwrite_c=1)
        _GEMM(1.0, self.U.T, y.T, trans_a=1, c=h.T, overwrite_c=1)
        np.square(h, out=h)
        h *= 0.5 * self.sign[:, None]
        for c, r in self.extras:
            h[c] += h[r]
        k = h[:nc]
        k *= self.sign
        for c, r in self.extras:
            k[:, c] += k[:, r]
        k = k[:, :nc]
        out = work.class_term(nc)
        return np.add(k, k.T, out=out)

    @staticmethod
    def inner(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.vdot(a, b))

    @staticmethod
    def scaling(s: np.ndarray, z: np.ndarray) -> _Scaling:
        """The NT scaling point W with W S W = Z, the inverse of S and the
        step factors of S and Z, from the eigendecompositions
        S = V_s diag(w_s) V_s^T and S^1/2 Z S^1/2 = V_b diag(w_b) V_b^T:
        G_S = V_s diag(w_s)^-1/2 and G_Z = S^1/2 V_b diag(w_b)^-1/2, so that
        G_S^T S G_S = G_Z^T Z G_Z = I.  Raises FloatingPointError when S or
        the scaled Z is not positive definite."""
        w_s, v_s = np.linalg.eigh(s)
        if w_s[0] <= 0:
            raise FloatingPointError("slack block lost positive definiteness")
        rt = np.sqrt(w_s)
        s_half = (v_s * rt) @ v_s.T
        g_s = v_s / rt
        s_ihalf = g_s @ v_s.T
        b = s_half @ z @ s_half
        b = 0.5 * (b + b.T)
        w_b, v_b = np.linalg.eigh(b)
        if w_b[0] <= 0:
            raise FloatingPointError("dual block lost positive definiteness")
        rb = np.sqrt(w_b)
        b_half = (v_b * rb) @ v_b.T
        w = s_ihalf @ b_half @ s_ihalf
        return _Scaling(0.5 * (w + w.T), (v_s / w_s) @ v_s.T, g_s, s_half @ (v_b / rb))

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
    def max_step(g: np.ndarray, delta: np.ndarray) -> float:
        """Largest alpha with X + alpha*delta >= 0, for the step factor g of
        the positive definite X (g^T X g = I): X + alpha*delta >= 0 iff
        I + alpha g^T delta g >= 0, so alpha = -1/lambda_min(g^T delta g)."""
        t = g.T @ delta @ g
        lam = np.linalg.eigvalsh(0.5 * (t + t.T))[0]
        if lam >= -1e-14:
            return np.inf
        return -1.0 / lam

    @staticmethod
    def sym(m: np.ndarray) -> np.ndarray:
        return 0.5 * (m + m.T)


def _compile(problem: SdpProblem) -> Tuple[list, _SignClasses]:
    """Compiled blocks, one dense block per problem block in problem order
    and then the fused unit rows when the problem declares pairs, and the
    sign classes they are compiled against."""
    _bind_scipy_routines()
    classes = _SignClasses(problem.num_vars, problem.pairs)
    blocks: list = [_DenseBlock(blk, classes) for blk in problem.blocks]
    if len(classes.paired):
        blocks.append(_LinBlock(classes))
    return blocks, classes


def _dense(blocks: list, classes: _SignClasses) -> list:
    """The dense blocks of a compiled list: all but the fused unit rows."""
    return blocks[:-1] if len(classes.paired) else blocks


class _Workspace:
    """The buffers one solve builds and factors its Newton systems in, which
    every iteration reuses:

    * ``schur``, the class Schur matrix;
    * ``factor``, an F-ordered copy that the Cholesky overwrites in place;
      while the Schur matrix is built it is idle, and each rank-one block
      forms its symmetrized class term in its leading entries;
    * the rank-one scratch Y = U W and H = (U W U^T)^2, sized for the block
      with the most terms and shared by the blocks in turn.
    """

    def __init__(self, blocks: list, classes: _SignClasses):
        size = classes.size
        self.schur = np.zeros((size, size))
        self._flat = np.empty(size * size)
        self.factor = self._flat.reshape(size, size, order="F")
        self.factor_diag = self._flat[:: size + 1]
        terms = [b.scratch for b in _dense(blocks, classes)]
        self._y = np.empty(max((r * d for r, d in terms), default=0))
        self._h = np.empty(max((r * r for r, _ in terms), default=0))

    def rank_one(self, terms: int, dim: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views (Y, H) of shapes (terms, dim) and (terms, terms)."""
        return (
            self._y[: terms * dim].reshape(terms, dim),
            self._h[: terms * terms].reshape(terms, terms),
        )

    def class_term(self, size: int) -> np.ndarray:
        """A (size, size) view of the idle factor buffer."""
        return self._flat[: size * size].reshape(size, size)


class _NewtonSystem:
    """One iterate's Newton system over the sign classes, factored once and
    solved for each right-hand side of the iteration.  It is built in the
    solve's workspace, so it stays valid until the next one is built.

    ``chol`` is None when no Cholesky attempt succeeded.
    """

    def __init__(
        self, blocks: list, classes: _SignClasses, work: _Workspace, scal, z_blk, r_s, r_z
    ):
        self.blocks, self.scal, self.z_blk, self.r_s, self.r_z = blocks, scal, z_blk, r_s, r_z
        self.classes, self.work = classes, work
        self.schur = schur = work.schur
        schur.fill(0.0)
        for b, sc in zip(_dense(blocks, classes), scal):
            schur[b.entries] += b.schur(sc.w, work)
        # each paired member's lam_k, from its unit row in the fused block,
        # which is last
        self.lam = scal[-1].w if len(classes.paired) else np.zeros(0)
        # Cholesky with growing jitter, scaled by the trace of the full
        # system M + jitter I
        trace = (
            float(np.trace(schur))
            + float(classes.pair_flag @ schur.diagonal())
            + float(self.lam.sum())
        )
        jitter = _JITTER * (1.0 + trace / max(len(classes.cls), 1))
        self.chol = None
        for attempt in range(4):
            try:
                self.factor(jitter * 10.0**attempt if attempt else 0.0)
                break
            except np.linalg.LinAlgError:
                continue
            except ValueError:
                break

    def factor(self, jitter: float) -> None:
        """Factor the reduced system of M + jitter I in the workspace.

        The reduction is of that whole system, so a paired member's lam_k
        grows by the jitter too.  Adding it to the class matrix alone keeps
        an exact step along a pair's null direction (the sum of an
        interval's two multipliers), on which M vanishes when an interval
        is exact; that step drove 37 of 40 exact-measurement
        networks to numerical_failure.  Raises ValueError when the matrix
        has a non-finite entry, which ends the attempts, and LinAlgError
        when it is not positive definite; ``chol`` is then None.  LAPACK
        factors the F-ordered buffer in place, so ``chol`` is that buffer.
        """
        self.chol = None
        red = _Reduction(self.classes, self.lam, jitter)
        work = self.work
        work.factor[...] = self.schur
        work.factor_diag += red.diag
        if not np.isfinite(work.factor).all():
            raise ValueError("Schur matrix has a non-finite entry")
        chol, info = _POTRF(work.factor, lower=1, overwrite_a=1, clean=0)
        if info > 0:
            raise np.linalg.LinAlgError(f"leading minor {info} is not positive definite")
        self.chol = chol
        self.red = red

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """The factored system's solution for the fresh right-hand side b,
        which LAPACK overwrites."""
        return _POTRS(self.chol, b, lower=1, overwrite_b=1)[0]

    def direction(self, sigma_mu: float, corr):
        """Solve one Newton system; returns (dx, [dS], [dZ])."""
        blocks, scal = self.blocks, self.scal
        r3 = [
            b.centering(sigma_mu, sc.s_inv) - z
            for b, sc, z in zip(blocks, scal, self.z_blk)
        ]
        if corr is not None:
            r3 = [r + cr for r, cr in zip(r3, corr)]

        rhs = -self.r_z.copy()
        for b, sc, r3b, rsb in zip(blocks, scal, r3, self.r_s):
            rhs[b.vars] += b.adjoint(r3b)
            rhs[b.vars] -= b.adjoint(b.congruence(sc.w, rsb))

        red = self.red
        d = self._solve(red.rhs(rhs))
        dx = red.step(d, rhs)
        # one round of iterative refinement against M without the jitter
        # keeps the dual residual from flooring at the Schur matrix's
        # condition-number noise
        res = rhs - red.product(self.schur, d, dx)
        dx = dx + red.step(self._solve(red.rhs(res)), res)
        ds = [b.sym(rsb + b.combine(dx)) for b, rsb in zip(blocks, self.r_s)]
        dz = [
            b.sym(r3b - b.congruence(sc.w, dsb))
            for b, sc, r3b, dsb in zip(blocks, scal, r3, ds)
        ]
        return dx, ds, dz


# ---------------------------------------------------------------------------
# interior-point method


def solve(
    problem: SdpProblem,
    config: Optional[SolverConfig] = None,
    callback: Optional[Callable[[dict], None]] = None,
) -> SdpSolution:
    """Run the interior-point method on ``problem``.

    Returns the best iterate found together with a status:

    * OPTIMAL: relative gap within GAP_TOL and both feasibility residuals
      within ``feas_tol``;
    * MAX_ITERATIONS: iteration budget exhausted first;
    * NUMERICAL_FAILURE: a factorization broke down, the iterates diverged
      or progress stalled.

    ``callback`` (if given) receives a dict of per-iteration scalars; tests
    use it to check weak duality along the whole path.
    """
    cfg = config or SolverConfig()
    blocks, classes = _compile(problem)
    if not blocks:
        raise ValueError("problem has no blocks")
    work = _Workspace(blocks, classes)
    c = problem.objective
    m = problem.num_vars

    data_scale = 1.0 + max(
        [b.norm_a0 for b in blocks] + [b.coeff_scale for b in blocks]
    )

    # Iterates are never updated in place, so the best one is kept by
    # reference.  S and Z hold one matrix per dense block and one vector
    # for the fused rows.
    x = np.zeros(m)
    s_blk, z_blk = zip(*(b.start() for b in blocks))
    nu = sum(len(s) for s in s_blk)  # barrier degree: the order of each block
    best: Tuple[float, np.ndarray, Sequence[np.ndarray], dict] = (np.inf, x, z_blk, {})
    status = SolveStatus.NUMERICAL_FAILURE  # every break but the optimal one
    iters_done = 0
    stall = 0
    last_step: dict = {}

    for it in range(cfg.max_iters):
        iters_done = it
        # residuals and merit ------------------------------------------------
        r_s = [b.a0 + b.combine(x) - s for b, s in zip(blocks, s_blk)]
        a_z = np.zeros(m)
        abs_prod = np.zeros(m)
        for b, z in zip(blocks, z_blk):
            a_z[b.vars] += b.adjoint(z)
            abs_prod[b.vars] += b.abs_adjoint(z)
        r_z = c - a_z

        gap = sum(b.inner(s, z) for b, s, z in zip(blocks, s_blk, z_blk))
        mu = gap / nu

        pobj = float(c @ x)
        dobj = -sum(b.inner(b.a0, z) for b, z in zip(blocks, z_blk))

        pinf = math.sqrt(sum(float(np.linalg.norm(r) ** 2) for r in r_s)) / data_scale
        # Dual residual measured componentwise against the magnitudes that
        # actually entered its computation, abs_prod[k] = <|A_k|, |Z|>
        # (backward-error style); a plain norm over 1 + |c| has an
        # unreachable floor when Z is huge.
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

        optimal = relgap <= GAP_TOL and pinf <= cfg.feas_tol and dinf <= cfg.feas_tol
        if optimal or merit < best[0]:
            best = (merit, x, z_blk, {"gap": relgap, "pinf": pinf, "dinf": dinf})
        if optimal:
            status = SolveStatus.OPTIMAL
            break

        iterate_scale = max(
            [float(np.abs(x).max(initial=0.0))] + [float(np.abs(z).max()) for z in z_blk]
        )
        if iterate_scale > 1e14 * data_scale or not math.isfinite(merit):
            break

        # scaling and the Newton system --------------------------------------
        try:
            # per block W, S^-1 and the step factors of S and Z
            scal = [b.scaling(s, z) for b, s, z in zip(blocks, s_blk, z_blk)]
        except FloatingPointError:
            break
        newton = _NewtonSystem(blocks, classes, work, scal, z_blk, r_s, r_z)
        if newton.chol is None:
            break

        def step_length(ds, dz):
            # a single step length for primal and dual keeps the iterate
            # near the central path; separate lengths let one side race
            # ahead, which poisons the NT scaling and stalls the other
            a = np.inf
            for b, sc, dsb, dzb in zip(blocks, scal, ds, dz):
                a = min(a, b.max_step(sc.g_s, dsb))
                a = min(a, b.max_step(sc.g_z, dzb))
            return min(1.0, _STEP_FRACTION * a)

        try:
            # predictor
            dxa, dsa, dza = newton.direction(0.0, None)
            a_aff = step_length(dsa, dza)
            gap_aff = sum(
                b.inner(s + a_aff * dsb, z + a_aff * dzb)
                for b, s, z, dsb, dzb in zip(blocks, s_blk, z_blk, dsa, dza)
            )
            sigma = min(1.0, max((gap_aff / gap) ** 3 if gap > 0 else 0.0, 0.0))

            # corrector: second-order term -sym(S^-1 dS_a dZ_a)
            corr = [
                b.corrector(sc.s_inv, dsb, dzb)
                for b, sc, dsb, dzb in zip(blocks, scal, dsa, dza)
            ]
            dx, ds, dz = newton.direction(sigma * mu, corr)
            alpha = step_length(ds, dz)
            if alpha < 0.05:
                # off-center iterates block the Mehrotra direction almost
                # immediately; fall back to a plain centering step, which
                # always points into the cone and restores balance
                sigma = max(sigma, 0.8)
                dx, ds, dz = newton.direction(sigma * mu, None)
                alpha = step_length(ds, dz)
        except (np.linalg.LinAlgError, FloatingPointError):
            break
        last_step = {"alpha": alpha, "sigma": sigma}

        if alpha < 1e-10:
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0

        x = x + alpha * dx
        s_blk = [b.sym(s + alpha * d) for b, s, d in zip(blocks, s_blk, ds)]
        z_blk = [b.sym(z + alpha * d) for b, z, d in zip(blocks, z_blk, dz)]
    else:
        status = SolveStatus.MAX_ITERATIONS
        iters_done = cfg.max_iters

    _, x_best, z_best, binfo = best
    # one dense block per problem block, in order; the unit rows belong to none
    dual_blocks = list(z_best[: len(problem.blocks)])

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
