import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fixtures import ORACLE_FIXTURES
from minmaxloc import central, sdp
from reference_dist import chebyshev_dual
from reference_sdp import (
    block_from_dense,
    check_certificate,
    dense_coeff,
    random_bounded_instance,
    reference_canonical,
    reference_max_step,
    reference_newton_step,
    reference_solve,
    scalar_block,
    unit_rows,
)


def lp_problem():
    # min x1 + x2  s.t.  x1 >= 1, x2 >= 2, x1 + x2 <= 10
    return sdp.SdpProblem(
        num_vars=2,
        objective=np.array([1.0, 1.0]),
        blocks=[
            scalar_block(-1.0, {0: 1.0}),
            scalar_block(-2.0, {1: 1.0}),
            scalar_block(10.0, {0: -1.0, 1: -1.0}),
        ],
    )


def test_pure_lp():
    sol = sdp.solve(lp_problem())
    assert sol.status == sdp.SolveStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(3.0, abs=1e-6)
    assert sol.x == pytest.approx([1.0, 2.0], abs=1e-6)


def test_smallest_t_above_matrix():
    # min t s.t. t*I - A >= 0 has optimum t = lambda_max(A)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    a = 0.5 * (a + a.T)
    target = float(np.linalg.eigvalsh(a)[-1])
    prob = sdp.SdpProblem(
        num_vars=1,
        objective=np.array([1.0]),
        blocks=[block_from_dense(-a, {0: np.eye(4)})],
    )
    sol = sdp.solve(prob)
    assert sol.status == sdp.SolveStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(target, abs=1e-7)


def test_offdiagonal_coupling():
    # [[x, 1], [1, x]] >= 0 forces x >= 1
    prob = sdp.SdpProblem(
        num_vars=1,
        objective=np.array([1.0]),
        blocks=[sdp.Block(2, [(1, 0, 1.0)], {0: [(0, 0, 1.0), (1, 1, 1.0)]})],
    )
    sol = sdp.solve(prob)
    assert sol.status == sdp.SolveStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-7)


def test_mixed_blocks():
    # maximize x1 + x2 with |xi| <= 1 (2x2 blocks) and x1 + x2 <= 1.5
    prob = sdp.SdpProblem(
        num_vars=2,
        objective=np.array([-1.0, -1.0]),
        blocks=[
            sdp.Block(2, [(0, 0, 1.0), (1, 1, 1.0)], {0: [(1, 0, 1.0)]}),
            sdp.Block(2, [(0, 0, 1.0), (1, 1, 1.0)], {1: [(1, 0, 1.0)]}),
            scalar_block(1.5, {0: -1.0, 1: -1.0}),
        ],
    )
    sol = sdp.solve(prob)
    assert sol.status == sdp.SolveStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-1.5, abs=1e-6)


def test_degenerate_corner():
    prob = sdp.SdpProblem(
        num_vars=1, objective=np.array([1.0]), blocks=[scalar_block(0.0, {0: 1.0})]
    )
    sol = sdp.solve(prob)
    assert sol.status == sdp.SolveStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(0.0, abs=1e-6)


def test_max_iterations_status():
    sol = sdp.solve(lp_problem(), sdp.SolverConfig(max_iters=2))
    assert sol.status == sdp.SolveStatus.MAX_ITERATIONS


def test_rank_one_path_matches_dense_path():
    # the same matrix inequality solved at a size below and above the dense
    # cutoff must agree with the eigenvalue it encodes
    rng = np.random.default_rng(3)
    for n in (11, 15):
        q = rng.standard_normal((n, n))
        q = 0.5 * (q + q.T)
        target = float(np.linalg.eigvalsh(q)[-1])
        prob = sdp.SdpProblem(
            num_vars=1,
            objective=np.array([1.0]),
            blocks=[block_from_dense(-q, {0: np.eye(n)})],
        )
        sol = sdp.solve(prob)
        assert sol.status == sdp.SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(target, abs=1e-6)


def test_sign_classes_reproduce_dense_operators():
    # a block wider than the dense cutoff with the declared pairs (1, 2) and
    # (3, 4), a same-sign duplicate of 1 (6, the shape a duplicated edge
    # gives), which is a class of its own, and the unpaired 7; variables 0,
    # 5 and 8 appear in no coefficient
    n = sdp._DENSE_DIM_LIMIT + 3
    rng = np.random.default_rng(11)

    def on_support(idx):
        m = np.zeros((n, n))
        r = rng.standard_normal((len(idx), len(idx)))
        m[np.ix_(idx, idx)] = r + r.T
        return m

    a, b = on_support([0, 5, 9, n - 1]), on_support([1, 2, 3])
    full = on_support(list(range(n)))
    coeffs = {1: a, 2: -a, 3: b, 4: -b, 6: a.copy(), 7: full}
    block = block_from_dense(on_support([2, 4]), coeffs)
    problem = sdp.SdpProblem(9, np.zeros(9), [block], pairs=[(1, 2), (3, 4)])
    blocks, classes = sdp._compile(problem)
    compiled = blocks[0]
    assert compiled.rank1
    assert compiled.var_cls.tolist() == [0, 0, 1, 1, 2, 3]
    assert compiled.var_sign.tolist() == [1.0, -1.0, 1.0, -1.0, 1.0, 1.0]

    dense = [dense_coeff(block, k) for k in sorted(coeffs)]
    x = rng.standard_normal((n, n))
    w = x @ x.T / n + np.eye(n)
    u = on_support(list(range(n)))
    y = rng.standard_normal(9)

    def close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    # the block's Schur matrix is over its classes: <A_k, W A_j W> is
    # s_k s_j K[c_k, c_j]
    k_cls = compiled.schur(w, sdp._Workspace(blocks, classes))
    s, c = compiled.var_sign, compiled.var_cls
    close(
        s[:, None] * s[None, :] * k_cls[np.ix_(c, c)],
        np.array([[np.tensordot(ak, w @ aj @ w) for aj in dense] for ak in dense]),
    )
    close(compiled.adjoint(u), np.array([np.tensordot(ak, u) for ak in dense]))
    close(compiled.abs_adjoint(u), np.array([np.sum(np.abs(ak) * np.abs(u)) for ak in dense]))
    close(compiled.combine(y), sum(y[k] * dense_coeff(block, k) for k in coeffs))


def test_classes_are_single_variables_or_negated_pairs():
    # a declared pair names two variables that no other pair names, and it
    # is negated in every block: 6 and 7 are equal in the second dense block
    # (block 1), and the row that couples 8 and 9 (block 2) does not negate
    # them
    cases = [
        (((1, 2), (2, 3)), "more than one pair"),
        (((1, 2), (3, 11)), "unknown variable"),
        (((1, 2), (6, 7)), r"\(6, 7\) is not negated in block 1$"),
        (((1, 2), (8, 9)), r"\(8, 9\) is not negated in block 2$"),
    ]
    for pairs, message in cases:
        with pytest.raises(ValueError, match=message):
            class_test_problem(4, np.random.default_rng(17), pairs)


@pytest.mark.parametrize("shape", ["general", "pairs", "pair_in_row"])
def test_fused_rows_schur_term_over_single_variable_classes(shape):
    # the problem's own 1x1 rows compile to 1-wide dense blocks, whose Schur
    # terms at scalings w_r sum to sum_r w_r^2 d_r d_r^T over the classes
    # that the rows touch, d_r read from the row's dense_coeff at each
    # class's +1 member; the fused block holds only the declared pairs' unit
    # rows, which enter the reduction instead and add nothing to the class
    # matrix, so a problem without rows of its own, as the network-wide one
    # with two or more sensors, gets no term from them
    rng = np.random.default_rng(19)
    a = rng.standard_normal((3, 3))
    a = a + a.T
    coeffs = {0: 2.0 * a, 1: a, 2: -a, 3: 3.0 * a, 4: -3.0 * a}
    if shape == "general":
        # 0 has no row; 5 to 8 carry rows of their own, and one row couples
        # 5, 7 and 8
        rows = [scalar_block(0.5, {k: float(rng.uniform(0.5, 2.0))}) for k in (5, 6, 7, 8)]
        rows.append(scalar_block(1.0, {k: float(rng.standard_normal()) for k in (5, 7, 8)}))
        reps = [5, 6, 7, 8]
    elif shape == "pairs":
        rows, reps = [], []
    else:
        # Mt - I of a single sensor: one row that holds both pairs, negated
        d1, d3 = rng.uniform(0.5, 2.0, 2)
        rows = [scalar_block(-1.0, {1: -d1, 2: d1, 3: -d3, 4: d3})]
        reps = [1, 3]
    problem = sdp.SdpProblem(
        9, np.zeros(9), [block_from_dense(np.eye(3), coeffs)] + rows, pairs=[(1, 2), (3, 4)]
    )
    compiled, classes = sdp._compile(problem)
    lin = compiled[-1]
    assert isinstance(lin, sdp._LinBlock) and lin.q == 4 and not hasattr(lin, "schur")
    assert [b.dim for b in compiled[1:-1]] == [1] * len(rows)
    scalings = rng.uniform(0.1, 3.0, len(rows))
    work = sdp._Workspace(compiled, classes)
    got = np.zeros((classes.size, classes.size))
    for b, w in zip(compiled[1:-1], scalings):
        got[b.entries] += b.schur(np.array([[w]]), work)
    want = np.zeros_like(got)
    at = classes.cls[reps]
    for w, row in zip(scalings, rows):
        d = np.array([dense_coeff(row, k)[0, 0] for k in reps])
        want[np.ix_(at, at)] += w * w * np.outer(d, d)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def class_test_problem(n, rng, pairs=((1, 2), (3, 4))):
    """Two dense blocks (n and n - 1 wide) over eleven variables, then 1x1
    rows, with ``pairs`` declared:

    * 0 is unpaired and owns no row;
    * 1 and 2, and 3 and 4, are negated pairs in both blocks, and 3 and 4
      sit, negated, in a row with 10 (block 3);
    * 5 duplicates 1 with the same sign in both blocks, and is a class of
      its own;
    * 6 and 7 are negated in the first block but equal in the second;
    * 8 and 9 are negated in both blocks, but a row couples them with
      coefficients that do not negate (block 2);
    * 10 is unpaired.

    Variables 5 to 10 each own a row c_k + d_k x_k >= 0, after blocks 2 and 3.
    """

    def sym(d):
        a = rng.standard_normal((d, d))
        return a + a.T

    a = {k: sym(n) for k in (0, 1, 3, 6, 8, 10)}
    b = {k: sym(n - 1) for k in (1, 3, 6, 8, 10)}
    first = {0: a[0], 1: a[1], 2: -a[1], 3: a[3], 4: -a[3], 5: a[1],
             6: a[6], 7: -a[6], 8: a[8], 9: -a[8], 10: a[10]}
    second = {1: b[1], 2: -b[1], 3: b[3], 4: -b[3], 5: b[1],
              6: b[6], 7: b[6], 8: b[8], 9: -b[8], 10: b[10]}
    blocks = [
        block_from_dense(sym(n), first),
        block_from_dense(sym(n - 1), second),
        scalar_block(3.0, {8: 1.0, 9: -0.5}),
        scalar_block(2.0, {3: 0.7, 4: -0.7, 10: 0.3}),
    ]
    for k in range(5, 11):
        blocks.append(
            scalar_block(float(rng.uniform(0.0, 1.0)), {k: float(rng.uniform(0.5, 2.0))})
        )
    return sdp.SdpProblem(11, rng.standard_normal(11), blocks, pairs=pairs)


def newton_case(n):
    """The compiled Newton system of a random iterate of
    ``class_test_problem(n)``, and a function giving the reference step
    over all eleven variables for a jitter."""
    rng = np.random.default_rng(n)
    prob = class_test_problem(n, rng)
    blocks, classes = sdp._compile(prob)
    assert classes.cls.tolist() == [0, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8]
    assert classes.sign.tolist() == [1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1]

    def pd(d):
        a = rng.standard_normal((d, d))
        return a @ a.T / d + np.eye(d)

    # one matrix per problem block, then one per declared member's unit row
    full = prob.blocks + unit_rows(prob)
    s_mats = [pd(b.dim) for b in full]
    z_mats = [pd(b.dim) for b in full]
    x = rng.standard_normal(prob.num_vars)

    def compiled_form(mats):
        # one dense block per problem block, then the fused unit rows
        dense = len(prob.blocks)
        return [*mats[:dense], np.array([u[0, 0] for u in mats[dense:]])]

    s_blk, z_blk = compiled_form(s_mats), compiled_form(z_mats)
    r_s = [b.a0 + b.combine(x) - s for b, s in zip(blocks, s_blk)]
    a_z = np.zeros(prob.num_vars)
    for b, z in zip(blocks, z_blk):
        a_z[b.vars] += b.adjoint(z)
    scal = [b.scaling(s, z) for b, s, z in zip(blocks, s_blk, z_blk)]
    work = sdp._Workspace(blocks, classes)
    newton = sdp._NewtonSystem(blocks, classes, work, scal, z_blk, r_s, prob.objective - a_z)

    def want(sigma_mu, jitter):
        return reference_newton_step(prob, x, s_mats, z_mats, sigma_mu, jitter)

    return newton, want


@pytest.mark.parametrize("n", [4, sdp._DENSE_DIM_LIMIT + 3])
def test_reduced_newton_step_matches_full_schur(n):
    # the Newton step solved over sign classes equals the one solved over all
    # eleven variables, on the dense-stack path (n = 4) and the rank-one one
    newton, want = newton_case(n)
    assert newton.chol is not None and newton.schur.shape == (9, 9)
    got, _, _ = newton.direction(0.3, None)
    ref = want(0.3, 0.0)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [4, sdp._DENSE_DIM_LIMIT + 3])
def test_jittered_newton_step_matches_full_schur(n):
    # with a jitter the reduced system is that of M + jitter I over all
    # variables, merged members' curvatures included, and the refinement
    # round is against M alone
    newton, want = newton_case(n)
    jitter = 0.5
    newton.factor(jitter)
    got, _, _ = newton.direction(0.3, None)
    ref = want(0.3, jitter)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
    # the jitter is large enough to move the refined step
    exact = want(0.3, 0.0)
    assert np.linalg.norm(ref - exact) > 1e-3 * np.linalg.norm(exact)


def step_test_matrices(width, rng):
    """A random orthogonal matrix, and a random direction with a negative
    and a positive eigenvalue, both width wide."""
    q = np.linalg.qr(rng.standard_normal((width, width)))[0]
    v = np.linalg.qr(rng.standard_normal((width, width)))[0]
    spectrum = rng.uniform(-2.0, 2.0, width)
    spectrum[0], spectrum[-1] = -rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    d = (v * spectrum) @ v.T
    return q, 0.5 * (d + d.T)


@pytest.mark.parametrize("width", [2, 4, 41])
def test_step_lengths_from_scaling_factors_match_cholesky(width):
    # the step factors G_S and G_Z of the NT scaling give the largest step of
    # S and of Z that a Cholesky of S or Z itself gives, along indefinite
    # directions, and inf along a positive definite one.  Half the pairs are
    # well conditioned with random eigenvectors; the others are complementary
    # diagonal pairs of condition number 1e10, as near the central path
    rng = np.random.default_rng(width)
    pairs = []
    for _ in range(5):
        qs, _ = step_test_matrices(width, rng)
        qz, _ = step_test_matrices(width, rng)
        s = (qs * rng.uniform(0.1, 10.0, width)) @ qs.T
        pairs.append((s, (qz * rng.uniform(0.1, 10.0, width)) @ qz.T))
        lam = rng.permutation(np.geomspace(1.0, 1e-10, width))
        pairs.append((np.diag(lam), np.diag(1e-10 / lam * rng.uniform(0.5, 2.0, width))))
    for s, z in pairs:
        scal = sdp._DenseBlock.scaling(s, z)
        for mat, g in ((s, scal.g_s), (z, scal.g_z)):
            _, d = step_test_matrices(width, rng)
            want = reference_max_step(mat, d)
            assert math.isfinite(want)
            assert sdp._DenseBlock.max_step(g, d) == pytest.approx(want, rel=1e-9)
            p = rng.standard_normal((width, width))
            assert sdp._DenseBlock.max_step(g, p @ p.T) == np.inf
            assert reference_max_step(mat, p @ p.T) == np.inf


@pytest.mark.parametrize("width", [2, 4, 41])
def test_step_lengths_of_ill_conditioned_blocks_keep_the_step_fraction(width):
    # with a condition number of 1e10 and random eigenvectors, rounding S or
    # Z alone moves the largest step by about 1e-6 relative, for either test;
    # the scaled test of a well-conditioned Z also passes through S^1/2.  Both
    # stay within 1e-4, a two-hundredth of the 2% that the step fraction
    # leaves
    rng = np.random.default_rng(width + 1)
    for ill in ("S", "Z"):
        for _ in range(5):
            q, _ = step_test_matrices(width, rng)
            bad = (q * np.geomspace(1.0, 1e-10, width)) @ q.T
            q, _ = step_test_matrices(width, rng)
            good = (q * rng.uniform(0.5, 2.0, width)) @ q.T
            s, z = (bad, good) if ill == "S" else (good, bad)
            s, z = 0.5 * (s + s.T), 0.5 * (z + z.T)
            scal = sdp._DenseBlock.scaling(s, z)
            for mat, g in ((s, scal.g_s), (z, scal.g_z)):
                _, d = step_test_matrices(width, rng)
                want = reference_max_step(mat, d)
                assert sdp._DenseBlock.max_step(g, d) == pytest.approx(want, rel=1e-4)


def test_scaling_rejects_a_dual_block_that_is_not_positive_definite():
    rng = np.random.default_rng(3)
    q, _ = step_test_matrices(4, rng)
    s = (q * rng.uniform(0.5, 2.0, 4)) @ q.T
    q, _ = step_test_matrices(4, rng)
    for z in ((q * np.array([-1e-3, 1.0, 2.0, 3.0])) @ q.T, np.zeros((4, 4))):
        with pytest.raises(FloatingPointError, match="dual block"):
            sdp._DenseBlock.scaling(s, z)


@pytest.mark.parametrize("kind", ["narrow", "rows"])
def test_abs_adjoint_sums_coefficient_magnitudes(kind):
    # <|A_k|, |Z|> per variable on a block at the dense cutoff (dense stack)
    # and summed over 1x1 blocks; variables 2 and 5 appear in no block
    rng = np.random.default_rng(13)
    m = 6

    def sym(d):
        a = rng.standard_normal((d, d))
        return a + a.T

    if kind == "narrow":
        n = sdp._DENSE_DIM_LIMIT
        blocks = [block_from_dense(sym(n), {k: sym(n) for k in (0, 1, 3, 4)})]
        zs = [sym(n)]
    else:
        blocks = [
            scalar_block(1.0, {k: float(rng.standard_normal()) for k in ks})
            for ks in ((0, 1), (1, 3, 4), (4,))
        ]
        zs = [sym(1) for _ in blocks]
    compiled = sdp._compile(sdp.SdpProblem(m, np.zeros(m), blocks))[0]
    assert [b.dim for b in compiled] == [b.dim for b in blocks]
    assert not any(b.rank1 for b in compiled)
    got = np.zeros(m)
    for b, z in zip(compiled, zs):
        got[b.vars] += b.abs_adjoint(z)
    want = np.array([
        sum(np.sum(np.abs(dense_coeff(b, k)) * np.abs(z)) for b, z in zip(blocks, zs))
        for k in range(m)
    ])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def fused_rows(kind):
    """The compiled blocks of a package program, and the D of their fused
    rows, built densely from the declared pairs' unit rows.

    ``central`` is a single-sensor network program, whose Mt - I is a 1x1
    block of its own; ``node`` is a per-node program, which has none.
    """
    if kind == "central":
        (scen, bounds), _ = ORACLE_FIXTURES["diamond"]
        problem, _ = central.assemble_dual_sdp(scen, bounds)
    else:
        refs = [((0.1, 0.2), 0.0, 0.04), ((0.3, -0.1), 0.01, 0.05), ((-0.2, 0.4), 0.02, 0.09)]
        problem = chebyshev_dual(refs)
    blocks, _ = sdp._compile(problem)
    d = np.array(
        [[dense_coeff(b, k)[0, 0] for k in range(problem.num_vars)] for b in unit_rows(problem)]
    )
    return blocks, d


def fused_adjoint(lin, u, m):
    """The fused rows' adjoint of ``u`` as a vector over all ``m`` variables."""
    out = np.zeros(m)
    out[lin.vars] += lin.adjoint(u)
    return out


@pytest.mark.parametrize("kind, narrow", [("central", 1), ("node", 0)])
def test_fused_rows_adjoint_is_the_transpose_of_the_combination(kind, narrow):
    # the program's 1x1 blocks compile to 1-wide dense blocks, and the fused
    # rows, last, are the unit rows alone
    blocks, d = fused_rows(kind)
    lin = blocks[-1]
    q, m = d.shape
    assert [b.dim for b in blocks[:-1]].count(1) == narrow and lin.q == q
    # column by column and row by row, both maps are D exactly
    combined = np.column_stack([lin.combine(e) for e in np.eye(m)])
    adjoined = np.array([fused_adjoint(lin, e, m) for e in np.eye(q)])
    assert np.array_equal(combined, d) and np.array_equal(adjoined, d)
    rng = np.random.default_rng(narrow)
    for _ in range(5):
        y, u = rng.standard_normal(m), rng.standard_normal(q)
        assert lin.combine(y) @ u == pytest.approx(y @ fused_adjoint(lin, u, m), rel=1e-13)


@pytest.mark.parametrize("kind", ["central", "node"])
def test_fused_rows_abs_adjoint_is_the_absolute_transpose(kind):
    blocks, d = fused_rows(kind)
    lin = blocks[-1]
    z = np.random.default_rng(3).standard_normal(len(d))
    want = np.abs(d).T @ np.abs(z)
    got = np.zeros(d.shape[1])
    got[lin.vars] += lin.abs_adjoint(z)
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_one_by_one_blocks_compile_dense_and_fused_rows_are_unit_rows():
    # every problem block, 1x1 ones included, compiles to a dense block of
    # its width, in problem order; the fused block is last and holds exactly
    # one row per paired member, in ascending order
    problem = class_test_problem(4, np.random.default_rng(4))
    blocks, classes = sdp._compile(problem)
    assert len(blocks) == len(problem.blocks) + 1
    assert all(isinstance(b, sdp._DenseBlock) for b in blocks[:-1])
    assert [b.dim for b in blocks[:-1]] == [b.dim for b in problem.blocks]
    assert [b.dim for b in blocks[:-1]].count(1) == len(problem.blocks) - 2
    lin = blocks[-1]
    assert isinstance(lin, sdp._LinBlock)
    assert lin.vars.tolist() == [1, 2, 3, 4] == sorted(problem.pairs.ravel().tolist())
    assert lin.q == len(lin.a0) == 2 * len(problem.pairs)
    s, z = lin.start()
    assert s.shape == z.shape == (lin.q,)
    # without pairs there is no fused block
    unpaired = sdp.SdpProblem(problem.num_vars, problem.objective, problem.blocks)
    assert all(isinstance(b, sdp._DenseBlock) for b in sdp._compile(unpaired)[0])


def two_class_newton(monkeypatch, schur):
    """A Newton system of two single-variable classes whose class Schur
    matrix is ``schur``, and the jitters of its factoring attempts."""
    a = np.array([[1.0, 0.5], [0.5, 2.0]])
    problem = sdp.SdpProblem(
        2, np.ones(2), [block_from_dense(np.eye(2), {0: a, 1: np.diag([1.0, -1.0])})]
    )
    blocks, classes = sdp._compile(problem)
    (block,) = blocks
    block.schur = lambda w, work: schur
    jitters = []
    factor = sdp._NewtonSystem.factor

    def recorded(self, jitter):
        jitters.append(jitter)
        return factor(self, jitter)

    monkeypatch.setattr(sdp._NewtonSystem, "factor", recorded)
    eye = np.eye(2)
    scal = [block.scaling(eye, eye)]
    work = sdp._Workspace(blocks, classes)
    zero = np.zeros(2)
    newton = sdp._NewtonSystem(blocks, classes, work, scal, [eye], [0 * eye], zero)
    return newton, work, jitters


def test_cholesky_factors_the_workspace_in_place(monkeypatch):
    k = np.array([[4.0, 1.0], [1.0, 3.0]])
    newton, work, jitters = two_class_newton(monkeypatch, k)
    assert jitters == [0.0]
    assert np.shares_memory(newton.chol, work.factor)
    assert np.array_equal(np.tril(newton.chol), np.linalg.cholesky(k))


def test_cholesky_retries_an_indefinite_matrix_with_growing_jitter(monkeypatch):
    # after a plain attempt the jitter is 10^k * 1e-12 (1 + trace / classes),
    # about 1.5e-11 and then 1.5e-10 here; an eigenvalue of -5e-11 survives
    # the first and not the second
    newton, _, jitters = two_class_newton(monkeypatch, np.diag([1.0, -5e-11]))
    base = sdp._JITTER * (1.0 + (1.0 - 5e-11) / 2)
    assert jitters == [0.0, base * 10.0, base * 100.0]
    assert newton.chol is not None


def test_cholesky_gives_up_when_every_attempt_fails(monkeypatch):
    newton, _, jitters = two_class_newton(monkeypatch, np.diag([1.0, -1.0]))
    assert len(jitters) == 4 and jitters[0] == 0.0
    assert np.all(np.diff(jitters[1:]) > 0)
    assert newton.chol is None


def test_cholesky_of_a_non_finite_matrix_stops_the_attempts(monkeypatch):
    newton, _, jitters = two_class_newton(monkeypatch, np.array([[np.nan, 0.0], [0.0, 1.0]]))
    assert jitters == [0.0]
    assert newton.chol is None


def test_nan_in_the_schur_matrix_ends_the_solve_numerical_failure(monkeypatch):
    # from the fourth iteration on, the blocks' Schur terms are NaN: the solve
    # stops there with the best iterate so far, not with an exception
    problem = lp_problem()
    clean = sdp.solve(problem)
    assert clean.iterations > 4
    schur = sdp._DenseBlock.schur
    calls = []
    per_iteration = len(problem.blocks)

    def poisoned(self, w, work):
        calls.append(1)
        out = schur(self, w, work)
        return out * np.nan if len(calls) > 3 * per_iteration else out

    monkeypatch.setattr(sdp._DenseBlock, "schur", poisoned)
    sol = sdp.solve(problem)
    assert sol.status == sdp.SolveStatus.NUMERICAL_FAILURE
    assert sol.iterations == 3 and len(calls) == 4 * per_iteration
    assert np.all(np.isfinite(sol.x))


def test_block_evaluate_matches_dense_sum():
    prob, _ = random_bounded_instance(4)
    x = np.random.default_rng(5).standard_normal(prob.num_vars)
    for block in prob.blocks:
        want = block.dense_const() + sum(
            x[k] * dense_coeff(block, k) for k in range(prob.num_vars)
        )
        assert np.allclose(block.evaluate(x), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_matches_cutting_plane_reference(seed):
    prob, interior = random_bounded_instance(seed)
    sol = sdp.solve(prob)
    assert sol.status == sdp.SolveStatus.OPTIMAL
    ref = reference_solve(prob, interior, tol=3e-7)
    assert ref.converged or (ref.upper - ref.lower) <= 1e-6 * (1 + abs(ref.upper))
    assert sol.objective_value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("seed", range(0, 20, 4))
def test_certificates_on_random_instances(seed):
    prob, _ = random_bounded_instance(seed)
    sol = sdp.solve(prob)
    assert sol.status == sdp.SolveStatus.OPTIMAL
    report = check_certificate(prob, sol)
    assert report.psd_ok
    assert report.dual_feasible
    assert report.gap_ok
    assert report.ok


def test_weak_duality_along_the_path():
    # every iterate must keep the primal value above the dual value up to
    # the infeasibility it still carries
    prob, _ = random_bounded_instance(5)
    trace = []
    sdp.solve(prob, callback=trace.append)
    assert len(trace) >= 3
    for row in trace:
        slack = 1e-6 * (1.0 + abs(row["pobj"]) + abs(row["dobj"]))
        assert row["gap"] >= -slack
        assert row["pinf"] >= 0.0 and row["dinf"] >= 0.0
    assert trace[-1]["gap"] < trace[0]["gap"]


def test_solution_is_deterministic():
    prob, _ = random_bounded_instance(9)
    a = sdp.solve(prob)
    b = sdp.solve(prob)
    assert np.array_equal(a.x, b.x)
    assert a.objective_value == b.objective_value
    assert a.iterations == b.iterations
    assert all(np.array_equal(za, zb) for za, zb in zip(a.dual_blocks, b.dual_blocks))


def test_dual_blocks_shape_and_order():
    prob = lp_problem()
    sol = sdp.solve(prob)
    assert len(sol.dual_blocks) == 3
    assert all(z.shape == (1, 1) for z in sol.dual_blocks)
    # at the optimum x1 >= 1 and x2 >= 2 are active with multiplier 1
    assert sol.dual_blocks[0][0, 0] == pytest.approx(1.0, abs=1e-5)
    assert sol.dual_blocks[1][0, 0] == pytest.approx(1.0, abs=1e-5)
    assert sol.dual_blocks[2][0, 0] == pytest.approx(0.0, abs=1e-5)

    # min t + y  s.t.  [[y, 1], [1, y]] >= 0, t >= 0, y <= 5 and t I - A >= 0
    # with A wider than the dense cutoff: y = 1 and t = lambda_max(A) > 0
    n = sdp._DENSE_DIM_LIMIT + 1
    rng = np.random.default_rng(7)
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    mixed = sdp.SdpProblem(
        num_vars=2,
        objective=np.array([1.0, 1.0]),
        blocks=[
            sdp.Block(2, [(1, 0, 1.0)], {1: [(0, 0, 1.0), (1, 1, 1.0)]}),
            scalar_block(0.0, {0: 1.0}),
            scalar_block(5.0, {1: -1.0}),
            block_from_dense(-a, {0: np.eye(n)}),
        ],
    )
    sol = sdp.solve(mixed)
    assert sol.status == sdp.SolveStatus.OPTIMAL
    assert len(sol.dual_blocks) == len(mixed.blocks)
    for z, block in zip(sol.dual_blocks, mixed.blocks):
        assert z.shape == (block.dim, block.dim)
    # only the 2x2 and the wide block are active, each carrying unit weight
    assert np.trace(sol.dual_blocks[0]) == pytest.approx(1.0, abs=1e-5)
    assert sol.dual_blocks[1][0, 0] == pytest.approx(0.0, abs=1e-5)
    assert sol.dual_blocks[2][0, 0] == pytest.approx(0.0, abs=1e-5)
    assert np.trace(sol.dual_blocks[3]) == pytest.approx(1.0, abs=1e-5)


def test_block_triplet_canonicalization():
    b = sdp.Block(3, [(0, 1, 2.0), (1, 0, 1.0), (2, 2, 0.0)], {0: [(2, 0, 1.0)]})
    assert b.const == [(1, 0, 3.0)]
    assert b.coeffs == {0: [(2, 0, 1.0)]}
    dense = b.dense_const()
    assert dense[0, 1] == dense[1, 0] == 3.0
    with pytest.raises(ValueError):
        sdp.Block(2, [(2, 0, 1.0)], {})


def test_block_canonicalization_matches_triplet_by_triplet_reference():
    # the one-pass canonicalization gives the same triplets, summed in the
    # same order, as canonicalizing each matrix triplet by triplet; empty
    # coefficients are dropped and the others keep their input order
    rng = np.random.default_rng(5)
    values = [0.0, -0.0, 1.0, -1.0, 0.1, 0.2, -0.3, 1e-17]
    for _ in range(300):
        dim = int(rng.integers(1, 6))

        def trips(n):
            out = []
            for _ in range(n):
                v = float(rng.choice(values)) if rng.random() < 0.7 else float(rng.normal())
                out.append((int(rng.integers(dim)), int(rng.integers(dim)), v))
            return out

        const = trips(int(rng.integers(0, 6)))
        keys = rng.permutation(20)[: int(rng.integers(0, 8))].tolist()
        coeffs = {k: trips(int(rng.integers(0, 5))) for k in keys}
        block = sdp.Block(dim, const, coeffs)
        assert block.const == reference_canonical(const, dim)
        want = {k: reference_canonical(t, dim) for k, t in coeffs.items()}
        want = {k: t for k, t in want.items() if t}
        assert block.coeffs == want and list(block.coeffs) == list(want)


def test_problem_rejects_coefficient_for_unknown_variable():
    for k in (3, -1):
        with pytest.raises(ValueError, match=f"coefficient for unknown variable {k}$"):
            sdp.SdpProblem(3, np.zeros(3), [sdp.Block(2, [], {0: [(0, 0, 1.0)], k: [(1, 1, 1.0)]})])


def test_from_dense_rejects_asymmetric():
    with pytest.raises(ValueError):
        block_from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]), {})


def dump_problem(problem):
    """Plain-text sparse listing of a problem, for cross-checking against
    external tools.  Line 1 holds the variable and block counts, line 2 the
    objective, then one line per structural nonzero,

        <var> <block> <i> <j> <value>

    with var 0 denoting the constant matrix A0, variables numbered from 1,
    blocks numbered from 1, and 1-based upper-triangle indices i <= j.
    """
    lines = [f"{problem.num_vars} {len(problem.blocks)}"]
    lines.append(" ".join(repr(float(v)) for v in problem.objective))
    entries = []
    for bi, block in enumerate(problem.blocks, start=1):
        for i, j, v in block.const:
            entries.append((0, bi, j + 1, i + 1, v))
        for k in sorted(block.coeffs):
            for i, j, v in block.coeffs[k]:
                entries.append((k + 1, bi, j + 1, i + 1, v))
    entries.sort(key=lambda e: e[:4])
    for var, bi, i, j, v in entries:
        lines.append(f"{var} {bi} {i} {j} {v!r}")
    return "\n".join(lines) + "\n"


def test_dump_problem_format():
    prob = sdp.SdpProblem(
        num_vars=1,
        objective=np.array([2.0]),
        blocks=[sdp.Block(2, [(1, 0, -0.5)], {0: [(0, 0, 1.0), (1, 1, 1.0)]})],
    )
    text = dump_problem(prob)
    lines = text.strip().split("\n")
    assert lines[0] == "1 1"
    assert lines[1] == "2.0"
    # constant matrix rows come first (var 0), then variable coefficients,
    # with 1-based upper-triangle indices
    assert lines[2] == "0 1 1 2 -0.5"
    assert lines[3] == "1 1 1 1 1.0"
    assert lines[4] == "1 1 2 2 1.0"


def test_dump_round_trips_through_parser():
    prob, _ = random_bounded_instance(2)
    text = dump_problem(prob)
    lines = text.strip().split("\n")
    m, nblocks = (int(v) for v in lines[0].split())
    assert m == prob.num_vars and nblocks == len(prob.blocks)
    obj = np.array([float(v) for v in lines[1].split()])
    assert np.array_equal(obj, prob.objective)
    rebuilt = [dict() for _ in range(nblocks)]
    for line in lines[2:]:
        var_s, blk_s, i_s, j_s, val_s = line.split()
        var, blk, i, j = int(var_s), int(blk_s) - 1, int(i_s) - 1, int(j_s) - 1
        rebuilt[blk].setdefault(var, []).append((j, i, float(val_s)))
    for bi, block in enumerate(prob.blocks):
        got_const = sdp.Block(block.dim, rebuilt[bi].get(0, []), {})
        assert np.array_equal(got_const.dense_const(), block.dense_const())
        for k in block.coeffs:
            got = sdp.Block(block.dim, rebuilt[bi].get(k + 1, []), {})
            assert np.array_equal(got.dense_const(), dense_coeff(block, k))


def test_solver_config_defaults():
    cfg = sdp.SolverConfig()
    assert [f.name for f in dataclasses.fields(cfg)] == ["feas_tol", "max_iters"]
    assert cfg.feas_tol == 1e-8
    assert cfg.max_iters == 200
    assert sdp.GAP_TOL == 1e-8
    assert sdp._STEP_FRACTION == 0.98


@given(
    a=hnp.arrays(
        np.float64,
        (3, 3),
        elements=st.floats(-5.0, 5.0, allow_nan=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_largest_eigenvalue_property(a):
    sym = 0.5 * (a + a.T)
    target = float(np.linalg.eigvalsh(sym)[-1])
    prob = sdp.SdpProblem(
        num_vars=1,
        objective=np.array([1.0]),
        blocks=[block_from_dense(-sym, {0: np.eye(3)})],
    )
    sol = sdp.solve(prob)
    assert sol.status == sdp.SolveStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(target, rel=1e-6, abs=1e-6)
