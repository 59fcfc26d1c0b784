import dataclasses
import math

import numpy as np
import pytest

import oracles
from qcs import solver
from qcs.embedding import build_embedding, vec4
from qcs.errors import NonFiniteInput
from qcs.harness import ExperimentConfig, _sample_problem
from qcs.qlinalg import QMatrix, QVector, lp_norm, matvec, support
from qcs.random import (
    PURPOSE_MATRIX,
    PURPOSE_SIGNAL,
    RngStream,
    sample_gaussian_matrix,
    sample_sparse_signal,
    sample_sphere_noise,
    trial_stream,
)
from qcs.solver import (
    GraphProjector,
    RecoveryProblem,
    SolveStatus,
    SolverParams,
    admm_step,
    block_soft_threshold,
    init_admm_state,
    residuals,
    solve,
)


def sparse_instance(seed, m, n, s, eta=0.0):
    Phi = sample_gaussian_matrix(trial_stream(seed, PURPOSE_MATRIX, m, s, 0),
                                 m, n, 1.0 / m)
    x, S = sample_sparse_signal(trial_stream(seed, PURPOSE_SIGNAL, m, s, 0), n, s)
    y = matvec(Phi, x)
    if eta > 0:
        y = y + sample_sphere_noise(trial_stream(seed, 3, m, s, 0), m, eta)
    return Phi, x, y


def real_instance(seed, m, n, s, eta=0.0):
    """Real Phi and x; the noise, when eta > 0, is real with norm eta."""
    rng = RngStream(seed, 0)
    Phi = sample_gaussian_matrix(rng, m, n, 1.0 / m, 1)
    x, _ = sample_sparse_signal(rng.child(1), n, s, 1)
    y = matvec(Phi, x)
    if eta > 0:
        d = rng.child(2).normals(m, 1.0)
        y = y + QVector.from_real(d * (eta / np.linalg.norm(d)))
    return Phi, x, y


# ---------------------------------------------------------------------------
# block soft threshold


def test_block_soft_threshold_closed_forms():
    v = np.array([3.0, 4.0, 0.0, 0.0])
    # norm 5, shrink by 1: scale by 4/5
    assert np.allclose(block_soft_threshold(v, 1.0), [2.4, 3.2, 0.0, 0.0])
    # kills blocks at or below the threshold
    assert np.array_equal(block_soft_threshold(v, 5.0), np.zeros(4))
    assert np.array_equal(block_soft_threshold(v, 7.5), np.zeros(4))
    # zero block stays zero, no division blowup
    assert np.array_equal(block_soft_threshold(np.zeros(4), 2.0), np.zeros(4))
    # kappa = 0 is the identity
    assert np.array_equal(block_soft_threshold(v, 0.0), v)


def test_block_soft_threshold_batched(np_rng):
    V = np_rng.standard_normal((50, 4))
    out = block_soft_threshold(V, 0.3)
    assert out.shape == V.shape
    for i in range(50):
        assert np.allclose(out[i], block_soft_threshold(V[i], 0.3))
    norms_in = np.linalg.norm(V, axis=1)
    norms_out = np.linalg.norm(out, axis=1)
    dead = norms_in <= 0.3
    assert np.all(norms_out[dead] == 0.0)
    assert np.allclose(norms_out[~dead], norms_in[~dead] - 0.3)


def test_block_soft_threshold_positive_scaling(np_rng):
    # T(alpha v, alpha kappa) = alpha T(v, kappa) for alpha > 0
    v = np_rng.standard_normal(4)
    for alpha in (0.5, 2.0, 10.0):
        assert np.allclose(block_soft_threshold(alpha * v, alpha * 0.7),
                           alpha * block_soft_threshold(v, 0.7), atol=1e-12)


# ---------------------------------------------------------------------------
# parameter and problem validation


def test_solver_params_validation():
    SolverParams()
    SolverParams(rho=np.float64(2.0), max_iters=np.int64(5))
    for kwargs in (dict(rho=0.0), dict(rho=-1.0), dict(max_iters=0),
                   dict(tol_primal=0.0), dict(tol_dual=-1e-9),
                   dict(rho=math.nan), dict(rho=math.inf), dict(tol_primal=math.nan),
                   dict(tol_dual=math.inf), dict(rho="1"), dict(rho=True),
                   dict(max_iters=5.0), dict(max_iters="5"), dict(max_iters=True),
                   dict(polish=1)):
        with pytest.raises(ValueError):
            SolverParams(**kwargs)


def test_problem_validation():
    Phi, x, y = sparse_instance(0, 4, 6, 1)
    RecoveryProblem(Phi=Phi, y=y, eta=0.0)
    with pytest.raises(ValueError):
        RecoveryProblem(Phi=Phi, y=QVector.zeros(5), eta=0.0)
    for eta in (-0.1, math.nan, math.inf, True, "0.1", None, np.float64(-1.0)):
        with pytest.raises(ValueError):
            RecoveryProblem(Phi=Phi, y=y, eta=eta)
    for eta in (np.float64(0.25), np.float32(0.5), 0):
        stored = RecoveryProblem(Phi=Phi, y=y, eta=eta).eta
        assert type(stored) is float and stored == eta


def test_problem_rejects_non_finite_entries():
    Phi, x, y = sparse_instance(0, 4, 6, 1)
    bad_phi = Phi.copy()
    bad_phi.data[1, 2, 3] = math.nan
    with pytest.raises(NonFiniteInput):
        RecoveryProblem(Phi=bad_phi, y=y, eta=0.0)
    bad_y = y.copy()
    bad_y.data[0, 0] = math.inf
    with pytest.raises(NonFiniteInput):
        RecoveryProblem(Phi=Phi, y=bad_y, eta=0.0)


# ---------------------------------------------------------------------------
# graph projection


@pytest.mark.parametrize("m4, n4", [(4, 12), (16, 64), (32, 1024)])
def test_projection_u_equals_a_v(np_rng, m4, n4):
    # project returns u = A v without forming A v. Entries have the
    # variance of a sampled embedding (1/(4m) per real slot); the zero
    # operator is the degenerate end where u must vanish.
    for A in (np_rng.standard_normal((m4, n4)) / math.sqrt(m4), np.zeros((m4, n4))):
        proj = GraphProjector(A)
        for _ in range(3):
            cv = np_rng.standard_normal(n4)
            v, u = proj.project(cv, A @ cv, np_rng.standard_normal(m4))
            assert np.linalg.norm(u - A @ v) <= 1e-12 * (1.0 + np.linalg.norm(u))


# g = 1 shapes (m x n real part) and g = 4 shapes (4m x 4n embedding)
@pytest.mark.parametrize("rows, cols", [(1, 3), (3, 8), (4, 12), (12, 40)])
def test_projection_matches_dense_solve(np_rng, rows, cols):
    # the projection of (cv, cu) onto A v = u is v = (I + A^T A)^{-1}
    # (cv + A^T cu), u = A v; project computes it through
    # M = (I + A A^T)^{-1} from A cv. A shift (-A^T mu, mu) is orthogonal
    # to the graph and leaves the projection where it was.
    for A in (np_rng.standard_normal((rows, cols)) / math.sqrt(rows),
              np.zeros((rows, cols))):
        proj = GraphProjector(A)
        for _ in range(3):
            cv = np_rng.standard_normal(cols)
            cu = np_rng.standard_normal(rows)
            v, u = proj.project(cv, A @ cv, cu)
            v_ref = np.linalg.solve(np.eye(cols) + A.T @ A, cv + A.T @ cu)
            assert np.linalg.norm(v - v_ref) <= 1e-12 * (1.0 + np.linalg.norm(v_ref))
            assert np.linalg.norm(u - A @ v_ref) <= 1e-12 * (1.0 + np.linalg.norm(v_ref))
            mu = np_rng.standard_normal(rows)
            cv_mu = cv - A.T @ mu
            v_mu, u_mu = proj.project(cv_mu, A @ cv_mu, cu + mu)
            assert np.linalg.norm(v_mu - v) <= 1e-12 * (1.0 + np.linalg.norm(v))
            assert np.linalg.norm(u_mu - u) <= 1e-12 * (1.0 + np.linalg.norm(u))


# ---------------------------------------------------------------------------
# pinned iteration-level behavior


def test_first_iteration_primal_residual_is_data_norm():
    # from a cold start the first primal residual equals ||vec4(y)||_2 exactly
    Phi, x, y = sparse_instance(1, 3, 5, 2)
    A, b = build_embedding(Phi, y)
    state = init_admm_state(GraphProjector(A), b, 0.0, 1.0, 4)
    admm_step(state)
    r_pri, _, _, _ = residuals(state)
    assert r_pri == float(np.linalg.norm(b))


def test_dual_scale_halves_when_rho_doubles():
    Phi, x, y = sparse_instance(2, 3, 5, 2)
    A, b = build_embedding(Phi, y)
    state = init_admm_state(GraphProjector(A), b, 0.0, 1.0, 4)
    for _ in range(5):
        admm_step(state)
    _, _, _, scale_before = residuals(state)
    assert scale_before > 0.0
    state.rho *= 2.0
    _, _, _, scale_after = residuals(state)
    assert scale_after == scale_before / 2.0


def test_zero_data_returns_zero():
    Phi, _, _ = sparse_instance(3, 4, 7, 2)
    res = solve(RecoveryProblem(Phi=Phi, y=QVector.zeros(4), eta=0.0))
    assert lp_norm(res.x_hat, 2) == 0.0
    assert res.objective == 0.0
    assert res.status is SolveStatus.CONVERGED


def test_identity_matrix_recovers_input():
    x = QVector(np.array([[1.0, -2.0, 0.5, 0.0],
                          [0.0, 0.0, 0.0, 0.0],
                          [3.0, 0.0, 0.0, 1.0]]))
    Phi = QMatrix.identity(3)
    res = solve(RecoveryProblem(Phi=Phi, y=x, eta=0.0))
    assert lp_norm(res.x_hat - x, 2) < 1e-8


# ---------------------------------------------------------------------------
# solve contract


def test_one_sparse_exact_recovery_block():
    perfect = 0
    for trial in range(20):
        Phi, x, y = sparse_instance(100 + trial, 6, 8, 1)
        res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0))
        if lp_norm(res.x_hat - x, 2) <= 1e-7:
            perfect += 1
    assert perfect == 20


def test_solution_is_feasible_noiseless():
    Phi, x, y = sparse_instance(4, 5, 10, 2)
    res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0))
    assert lp_norm(matvec(Phi, res.x_hat) - y, 2) <= 1e-8


def test_solution_is_feasible_noisy():
    eta = 0.1
    Phi, x, y = sparse_instance(5, 5, 10, 2, eta=eta)
    res = solve(RecoveryProblem(Phi=Phi, y=y, eta=eta))
    assert lp_norm(matvec(Phi, res.x_hat) - y, 2) <= eta + 1e-8
    # noise gives the solver room to shrink the objective below the truth
    assert res.objective <= lp_norm(x, 1) + 1e-8


def test_objective_never_exceeds_truth():
    # x_true is feasible for its own data, so the minimum is at most ||x||_1
    for seed in range(6):
        Phi, x, y = sparse_instance(200 + seed, 5, 9, 3)
        res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0))
        assert res.objective <= lp_norm(x, 1) + 1e-8


def test_minimality_against_brute_force():
    for seed in range(6):
        Phi, x, y = sparse_instance(300 + seed, 4, 5, 2)
        res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0))
        oracle = oracles.brute_force_min_l1(Phi, y, 3)
        assert abs(res.objective - oracle) < 1e-6


def test_max_iters_status():
    Phi, x, y = sparse_instance(6, 5, 10, 2)
    res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0),
                SolverParams(max_iters=3, polish=False))
    assert res.status is SolveStatus.MAX_ITERS
    assert res.iterations == 3


def test_infeasible_detection():
    Phi = QMatrix.zeros(3, 5)
    y = QVector.from_real([1.0, 0.0, 0.0])
    res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0),
                SolverParams(max_iters=50))
    assert res.status is SolveStatus.INFEASIBLE


def test_polish_reports_and_cleans_support():
    Phi, x, y = sparse_instance(7, 6, 12, 2)
    res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0))
    assert res.polished
    assert support(res.x_hat).indices == support(x).indices
    assert lp_norm(res.x_hat - x, 2) < 1e-9


def test_duplicate_column_instance_stays_feasible():
    # two identical columns make the restricted system rank-deficient, so
    # polish must fall back to the raw iterate without breaking feasibility
    rng = RngStream(8, 0)
    base = sample_gaussian_matrix(rng, 4, 5, 0.25)
    data = base.data.copy()
    data[:, 4] = data[:, 3]
    Phi = QMatrix(data)
    x = QVector.zeros(5)
    x.data[3, 0] = 1.0
    y = matvec(Phi, x)
    res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0))
    assert lp_norm(matvec(Phi, res.x_hat) - y, 2) <= 1e-7
    # the split mass across the twin columns still beats nothing: objective
    # cannot exceed placing everything on one copy
    assert res.objective <= 1.0 + 1e-7


def test_trace_file():
    Phi, x, y = sparse_instance(9, 4, 6, 1)
    rows = []
    res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0), SolverParams(),
                on_iteration=lambda *row: rows.append(row))
    assert len(rows) == res.iterations
    assert rows[0][0] == 1
    # residual columns are finite floats
    assert all(math.isfinite(r[1]) and math.isfinite(r[2]) for r in rows)


def test_converged_residuals_below_tolerances():
    Phi, x, y = sparse_instance(10, 5, 8, 2)
    params = SolverParams(tol_primal=1e-10, tol_dual=1e-10)
    res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0), params)
    assert res.status is SolveStatus.CONVERGED
    m4 = 4 * Phi.shape[0]
    norm_b = lp_norm(y, 2)
    assert res.primal_residual <= 1e-10 * (math.sqrt(m4) + norm_b)
    assert res.dual_residual < 1e-6


def test_rho_equivalence_of_solutions():
    # different starting rho must land on the same minimizer
    Phi, x, y = sparse_instance(11, 5, 9, 2)
    sols = []
    for rho in (0.1, 1.0, 10.0):
        res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0), SolverParams(rho=rho))
        sols.append(res.x_hat)
    for other in sols[1:]:
        assert lp_norm(other - sols[0], 2) < 1e-7


# ---------------------------------------------------------------------------
# group size: real problems on the m x n operator


def _padded_form(problem):
    A, b = build_embedding(problem.Phi, problem.y)
    return A, b, 4


@pytest.mark.parametrize("seed, m, n, s, eta, max_iters, status, polished", [
    (0, 6, 24, 3, 0.0, 150, SolveStatus.MAX_ITERS, False),
    (1, 6, 24, 3, 0.0, 150, SolveStatus.MAX_ITERS, True),
    (3, 8, 32, 2, 0.0, 3000, SolveStatus.CONVERGED, True),
    (0, 12, 40, 3, 0.05, 3000, SolveStatus.CONVERGED, False),
])
def test_real_problem_matches_padded_embedding(monkeypatch, seed, m, n, s, eta,
                                               max_iters, status, polished):
    # with real Phi and y the padded 4m x 4n run keeps every imaginary slot
    # at zero, so the m x n run must retrace it step for step
    Phi, x, y = real_instance(seed, m, n, s, eta)
    problem = RecoveryProblem(Phi=Phi, y=y, eta=eta)
    params = SolverParams(max_iters=max_iters)

    def no_embedding(*args):
        raise AssertionError("a real problem built the quaternion embedding")

    with monkeypatch.context() as patch:
        patch.setattr(solver, "build_embedding", no_embedding)
        real = solve(problem, params)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_real_form", _padded_form)
        padded = solve(problem, params)

    assert (real.status, real.polished) == (status, polished)
    assert (padded.status, padded.iterations, padded.polished) == \
        (real.status, real.iterations, real.polished)
    assert not real.x_hat.data[:, 1:].any()
    assert lp_norm(real.x_hat - padded.x_hat, 2) <= 1e-12
    assert abs(lp_norm(real.x_hat - x, 2) - lp_norm(padded.x_hat - x, 2)) <= 1e-12


@pytest.mark.parametrize("seed, m, n, s", [(5, 4, 5, 2), (1, 4, 6, 1)])
def test_one_imaginary_entry_takes_quaternion_path(monkeypatch, seed, m, n, s):
    Phi, x, y = real_instance(seed, m, n, s)
    y.data[1, 2] = 0.25
    built = []
    monkeypatch.setattr(solver, "build_embedding",
                        lambda *args: built.append(1) or build_embedding(*args))
    res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0))
    assert built == [1]
    assert res.status is SolveStatus.CONVERGED
    assert res.x_hat.data[:, 1:].any()
    # the brute-force oracle is exact when the minimizer has at most m
    # nonzero coordinates
    assert len(support(res.x_hat)) <= m
    assert abs(res.objective - oracles.brute_force_min_l1(Phi, y, m)) < 1e-6


# ---------------------------------------------------------------------------
# rho schedule: residual balancing settles after RHO_MAX_CHANGES changes


def sweep_trial(mode, m, s, base_seed):
    """Trial 0 of cell (m, s) of a sweep at n = 256, as the harness samples
    and solves it."""
    config = ExperimentConfig(n=256, m_values=(m,), s_rule=(s,), trials=1,
                              base_seed=base_seed, scalar_mode=mode)
    Phi, x, y = _sample_problem(config, m, s, 0)
    return RecoveryProblem(Phi=Phi, y=y, eta=config.eta), x, config


# With a schedule that never settled, both trials ran to the sweep's
# 3000-iteration cap with a wrong verdict: H (8, 1) at base seed 2 after
# 666 changes of rho (err_l2 0.45), R (32, 4) at base seed 0 after 351
# (err_l2 1.6e-5).
@pytest.mark.parametrize("mode, m, s, base_seed",
                         [("quaternion", 8, 1, 2), ("real", 32, 4, 0)])
def test_capped_trials_converge_once_rho_settles(mode, m, s, base_seed):
    problem, x, config = sweep_trial(mode, m, s, base_seed)
    res = solve(problem, config.solver)
    assert res.status is SolveStatus.CONVERGED
    assert res.rho_changes <= solver.RHO_MAX_CHANGES
    # both verdicts are now success; for R the exact LP must agree
    assert lp_norm(res.x_hat - x, 2) <= config.perfect_threshold
    if mode == "real":
        z = oracles.lp_min_l1(problem.Phi.data[..., 0], problem.y.data[:, 0])
        assert np.linalg.norm(z - x.data[:, 0]) <= config.perfect_threshold


# A recoverable trial that the sweep profile caps even with a settled rho:
# the exact LP returns x, and twice the sweep's 3000 iterations reach it.
def test_capped_recoverable_trial_converges_with_more_iterations():
    problem, x, config = sweep_trial("real", 32, 4, 7)
    z = oracles.lp_min_l1(problem.Phi.data[..., 0], problem.y.data[:, 0])
    assert np.linalg.norm(z - x.data[:, 0]) <= config.perfect_threshold
    res = solve(problem, dataclasses.replace(config.solver, max_iters=6000))
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations > config.solver.max_iters
    assert lp_norm(res.x_hat - x, 2) <= config.perfect_threshold


@pytest.mark.xfail(strict=True, reason="the sweep profile caps this recoverable trial "
                   "at 3000 iterations (err_l2 9.2e-4); ROADMAP direction 2's "
                   "certificate would decide it without the iteration budget")
def test_sweep_profile_recovers_capped_recoverable_trial():
    problem, x, config = sweep_trial("real", 32, 4, 7)
    res = solve(problem, config.solver)
    assert lp_norm(res.x_hat - x, 2) <= config.perfect_threshold


# Converging benchmark cells use few changes of rho (these two: 2 and 7;
# at most 10 over 24 rounds of the nine cells), so the bound must leave
# their solves bit-identical.
@pytest.mark.parametrize("mode, m, s, base_seed",
                         [("quaternion", 32, 9, 0), ("quaternion", 8, 2, 0)])
def test_converged_trials_do_not_reach_the_bound(monkeypatch, mode, m, s, base_seed):
    problem, _, config = sweep_trial(mode, m, s, base_seed)
    bounded = solve(problem, config.solver)
    assert bounded.status is SolveStatus.CONVERGED
    assert bounded.rho_changes < solver.RHO_MAX_CHANGES
    monkeypatch.setattr(solver, "RHO_MAX_CHANGES", 10 ** 9)
    unbounded = solve(problem, config.solver)
    assert np.array_equal(bounded.x_hat.data, unbounded.x_hat.data)
    for name in ("iterations", "primal_residual", "dual_residual", "objective",
                 "polished", "status", "rho", "rho_changes"):
        assert getattr(bounded, name) == getattr(unbounded, name)


# The state carries A v_half for the termination check, and the
# projection leaves out the dual because it stays orthogonal to the graph
# (lam_v = -A^T lam_u). Over a capped solve (R (32, 4) at base seed 7,
# 3000 iterations) and a long converging one (H (4, 1) at base seed 0,
# about 2560 iterations) both must hold to rounding.
@pytest.mark.parametrize("mode, m, s, base_seed",
                         [("real", 32, 4, 7), ("quaternion", 4, 1, 0)])
def test_carried_products_do_not_drift(monkeypatch, mode, m, s, base_seed):
    problem, _, config = sweep_trial(mode, m, s, base_seed)
    states = []
    init = solver.init_admm_state
    monkeypatch.setattr(solver, "init_admm_state",
                        lambda *args: states.append(init(*args)) or states[-1])
    res = solve(problem, config.solver)
    assert res.iterations > 2500
    state, = states
    A = state.projector.A
    direct = A @ state.v_half
    assert np.linalg.norm(state.A_v_half - direct) <= 1e-13 * np.linalg.norm(direct)
    assert (np.linalg.norm(state.lam_v + A.T @ state.lam_u)
            <= 1e-12 * np.linalg.norm(state.lam_v))


def test_rho_stops_changing_at_the_bound():
    problem, _, config = sweep_trial("quaternion", 8, 1, 2)
    rhos = []
    res = solve(problem, config.solver,
                on_iteration=lambda it, pri, dual, obj, rho: rhos.append(rho))
    changes = [k for k in range(1, len(rhos)) if rhos[k] != rhos[k - 1]]
    assert len(changes) == res.rho_changes == solver.RHO_MAX_CHANGES
    assert rhos[-1] == res.rho
