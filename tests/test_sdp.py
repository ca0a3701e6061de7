import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from minmaxloc import sdp
from reference_sdp import random_bounded_instance, reference_solve


def lp_problem():
    # min x1 + x2  s.t.  x1 >= 1, x2 >= 2, x1 + x2 <= 10
    return sdp.SdpProblem(
        num_vars=2,
        objective=np.array([1.0, 1.0]),
        blocks=[
            sdp.scalar_block(-1.0, {0: 1.0}),
            sdp.scalar_block(-2.0, {1: 1.0}),
            sdp.scalar_block(10.0, {0: -1.0, 1: -1.0}),
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
        blocks=[sdp.Block.from_dense(-a, {0: np.eye(4)})],
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
            sdp.scalar_block(1.5, {0: -1.0, 1: -1.0}),
        ],
    )
    sol = sdp.solve(prob)
    assert sol.status == sdp.SolveStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-1.5, abs=1e-6)


def test_degenerate_corner():
    prob = sdp.SdpProblem(
        num_vars=1, objective=np.array([1.0]), blocks=[sdp.scalar_block(0.0, {0: 1.0})]
    )
    sol = sdp.solve(prob)
    assert sol.status == sdp.SolveStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(0.0, abs=1e-6)


def test_infeasible_detected():
    prob = sdp.SdpProblem(
        num_vars=1,
        objective=np.array([1.0]),
        blocks=[sdp.scalar_block(-1.0, {0: 1.0}), sdp.scalar_block(0.0, {0: -1.0})],
    )
    sol = sdp.solve(prob)
    assert sol.status == sdp.SolveStatus.INFEASIBLE


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
            blocks=[sdp.Block.from_dense(-q, {0: np.eye(n)})],
        )
        sol = sdp.solve(prob)
        assert sol.status == sdp.SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(target, abs=1e-6)


def test_sign_classes_reproduce_dense_operators():
    # a block wider than the dense cutoff with an exact-negative pair (1, 3),
    # a same-sign duplicate of 1 (6, the shape a duplicated edge gives) and
    # unpaired variables (4, 7); variables 0, 2, 5 and 8 appear elsewhere
    n = sdp._DENSE_DIM_LIMIT + 3
    rng = np.random.default_rng(11)

    def on_support(idx):
        m = np.zeros((n, n))
        r = rng.standard_normal((len(idx), len(idx)))
        m[np.ix_(idx, idx)] = r + r.T
        return m

    a, b = on_support([0, 5, 9, n - 1]), on_support([1, 2, 3])
    full = on_support(list(range(n)))
    coeffs = {1: a, 3: -a, 4: b, 6: a.copy(), 7: full}
    block = sdp.Block.from_dense(on_support([2, 4]), coeffs)
    compiled = sdp._DenseBlock(0, block, 9)
    assert compiled.rank1
    assert compiled.var_cls.tolist() == [0, 0, 1, 0, 2]
    assert compiled.var_sign.tolist() == [1.0, -1.0, 1.0, 1.0, 1.0]

    dense = [block.dense_coeff(k) for k in sorted(coeffs)]
    x = rng.standard_normal((n, n))
    w = x @ x.T / n + np.eye(n)
    u = on_support(list(range(n)))
    y = rng.standard_normal(9)

    def close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    close(
        compiled.schur(w),
        np.array([[np.tensordot(ak, w @ aj @ w) for aj in dense] for ak in dense]),
    )
    close(compiled.adjoint(u), np.array([np.tensordot(ak, u) for ak in dense]))
    close(compiled.combine(y), sum(y[k] * block.dense_coeff(k) for k in coeffs))


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
    report = sdp.check_certificate(prob, sol)
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
            sdp.scalar_block(0.0, {0: 1.0}),
            sdp.scalar_block(5.0, {1: -1.0}),
            sdp.Block.from_dense(-a, {0: np.eye(n)}),
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


def test_from_dense_rejects_asymmetric():
    with pytest.raises(ValueError):
        sdp.Block.from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]), {})


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
            assert np.array_equal(got.dense_const(), block.dense_coeff(k))


def test_solver_config_defaults():
    cfg = sdp.SolverConfig()
    assert cfg.gap_tol == 1e-8
    assert cfg.feas_tol == 1e-8
    assert cfg.max_iters == 200
    assert cfg.step_fraction == 0.98


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
        blocks=[sdp.Block.from_dense(-sym, {0: np.eye(3)})],
    )
    sol = sdp.solve(prob)
    assert sol.status == sdp.SolveStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(target, rel=1e-6, abs=1e-6)
