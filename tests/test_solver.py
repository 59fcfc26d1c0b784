import dataclasses
import math

import numpy as np
import pytest

import oracles
from qcs import solver
from qcs.embedding import (build_embedding, compact_gram, compact_operator, component_rows,
                           vec4)
from qcs.errors import DimensionMismatch, NonFiniteInput
from qcs.harness import PERFECT_THRESHOLD, SWEEP_SOLVER, ExperimentConfig, _sample_problem
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


@pytest.mark.parametrize("group", [1, 2, 4])
@pytest.mark.parametrize("kappa", [0.0, 2.0 ** -20, 0.3, 1.0, 2.0 ** 20])
def test_block_soft_threshold_matches_reference_bit_for_bit(np_rng, group, kappa):
    # every bit, the sign of zero included, with and without buffers: groups
    # of +-0, groups whose norm is kappa or one ulp either side of it, and
    # random groups whose norms straddle kappa
    rows = [np.zeros(group), -np.zeros(group), np.where(np.arange(group) % 2, -0.0, 0.0)]
    for edge in (np.nextafter(kappa, 0.0), kappa, np.nextafter(kappa, np.inf)):
        for sign in (1.0, -1.0):
            row = -np.zeros(group)
            row[-1] = sign * edge
            rows.append(row)
    spread = np.exp(np_rng.uniform(-2.0, 2.0, (300, 1))) / math.sqrt(group)
    rows.extend(np_rng.standard_normal((300, group)) * spread * (kappa or 1.0))
    V = np.array(rows)
    want = oracles.ref_block_soft_threshold(V, kappa)
    out, scale = np.full_like(V, np.nan), np.full((len(V), 1), np.nan)
    for got in (block_soft_threshold(V, kappa),
                block_soft_threshold(V, kappa, out=out, scale=scale)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got is out


@pytest.mark.parametrize("kappa", [-1.0, -1e-300, math.inf, math.nan])
def test_block_soft_threshold_rejects_kappa(kappa):
    with pytest.raises(ValueError, match="kappa"):
        block_soft_threshold(np.ones((3, 4)), kappa)


# ---------------------------------------------------------------------------
# parameter and problem validation


def test_solver_params_validation():
    SolverParams()
    SolverParams(tol=np.float64(1e-9), max_iters=np.int64(5))
    for kwargs in (dict(max_iters=0), dict(tol=0.0), dict(tol=-1e-9),
                   dict(tol=math.nan), dict(tol=math.inf), dict(tol="1e-9"),
                   dict(tol=True), dict(max_iters=5.0), dict(max_iters="5"),
                   dict(max_iters=True)):
        with pytest.raises(ValueError):
            SolverParams(**kwargs)


def test_problem_validation():
    Phi, x, y = sparse_instance(0, 4, 6, 1)
    RecoveryProblem(Phi=Phi, y=y, eta=0.0)
    with pytest.raises(DimensionMismatch):
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
            cu = np_rng.standard_normal(m4)
            v, u = proj.project(cv, cu, A @ cv - cu)
            assert np.linalg.norm(u - A @ v) <= 1e-12 * (1.0 + np.linalg.norm(u))


# g = 1 shapes (m x n real part) and g = 4 shapes (4m x 4n embedding)
@pytest.mark.parametrize("rows, cols", [(1, 3), (3, 8), (4, 12), (12, 40)])
def test_projection_matches_dense_solve(np_rng, rows, cols):
    # the projection of (cv, cu) onto A v = u is v = (I + A^T A)^{-1}
    # (cv + A^T cu), u = A v; project computes it through
    # M = (I + A A^T)^{-1} from A cv - cu. A shift (-A^T mu, mu) is orthogonal
    # to the graph and leaves the projection where it was.
    for A in (np_rng.standard_normal((rows, cols)) / math.sqrt(rows),
              np.zeros((rows, cols))):
        proj = GraphProjector(A)
        for _ in range(3):
            cv = np_rng.standard_normal(cols)
            cu = np_rng.standard_normal(rows)
            v, u = proj.project(cv, cu, A @ cv - cu)
            v_ref = np.linalg.solve(np.eye(cols) + A.T @ A, cv + A.T @ cu)
            assert np.linalg.norm(v - v_ref) <= 1e-12 * (1.0 + np.linalg.norm(v_ref))
            assert np.linalg.norm(u - A @ v_ref) <= 1e-12 * (1.0 + np.linalg.norm(v_ref))
            mu = np_rng.standard_normal(rows)
            cv_mu = cv - A.T @ mu
            v_mu, u_mu = proj.project(cv_mu, cu + mu, A @ cv_mu - (cu + mu))
            assert np.linalg.norm(v_mu - v) <= 1e-12 * (1.0 + np.linalg.norm(v))
            assert np.linalg.norm(u_mu - u) <= 1e-12 * (1.0 + np.linalg.norm(u))


def _rel_close(got, want, rtol=1e-13):
    return np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


# group 4: the products and the Gram from F against the entrywise 4x4-block
# embedding, on random Phi and on Phi with whole components exactly zero
@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (5, 1), (3, 7), (12, 6)])
def test_structured_products_match_the_block_embedding(np_rng, m, n):
    for zero in (None, 0, 2):
        data = np_rng.standard_normal((m, n, 4))
        if zero is not None:
            data[..., zero] = 0.0
        Phi = QMatrix(data)
        A = oracles.ref_real_matrix(Phi)
        proj = GraphProjector(component_rows(Phi), 4)
        assert proj.shape == A.shape == (4 * m, 4 * n)
        for _ in range(3):
            v, t = np_rng.standard_normal(4 * n), np_rng.standard_normal(4 * m)
            A_v = oracles.ref_apply(proj, v)
            At_t = oracles.ref_apply_adjoint(proj, t)
            assert _rel_close(A_v, A @ v)
            assert _rel_close(At_t, A.T @ t)
            assert abs(A_v @ t - v @ At_t) <= 1e-13 * np.linalg.norm(A_v) * np.linalg.norm(t)
        assert _rel_close(compact_gram(proj.F), A @ A.T)
        assert _rel_close(proj.M, np.linalg.inv(np.eye(4 * m) + A @ A.T))


# group 1 runs the products and the factor of the plain m x n matrix
@pytest.mark.parametrize("m, n", [(1, 3), (4, 12), (12, 40), (32, 256)])
def test_real_products_are_the_dense_products(np_rng, m, n):
    A = np_rng.standard_normal((m, n)) / math.sqrt(m)
    proj = GraphProjector(A)
    v, t = np_rng.standard_normal(n), np_rng.standard_normal(m)
    assert np.array_equal(oracles.ref_apply(proj, v), A @ v)
    assert np.array_equal(oracles.ref_apply_adjoint(proj, t), A.T @ t)
    assert np.array_equal(proj.M, np.linalg.inv(np.eye(m) + A @ A.T))


# ---------------------------------------------------------------------------
# pinned iteration-level behavior


def test_first_iteration_primal_residual_is_data_norm():
    # from a cold start the first primal residual equals ||vec4(y)||_2 exactly
    Phi, x, y = sparse_instance(1, 3, 5, 2)
    b = vec4(y)
    state = init_admm_state(GraphProjector(component_rows(Phi), 4), b, 0.0, 1.0)
    admm_step(state)
    r_pri, _, _, _ = residuals(state)
    assert r_pri == float(np.linalg.norm(b))


def test_dual_scale_halves_when_rho_doubles():
    Phi, x, y = sparse_instance(2, 3, 5, 2)
    state = init_admm_state(GraphProjector(component_rows(Phi), 4), vec4(y), 0.0, 1.0)
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
                SolverParams(max_iters=3))
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


@pytest.mark.parametrize("group, kept", [(1, 5), (4, 2), (1, 4), (4, 1)])
def test_polish_refuses_a_support_wider_than_the_rows(monkeypatch, group, kept):
    # more kept slots (g * kept) than the 4 rows make the restricted system
    # rank-deficient, so least squares is not run; up to 4 slots it is
    def refuse(*args, **kwargs):
        raise AssertionError("lstsq ran")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    # a 4 x 12 real Phi for group 1, a 1 x 12 quaternion one for group 4
    data = np.random.default_rng(group).standard_normal((4 // group, 12, 4))
    if group == 1:
        data[..., 1:] = 0.0
    Phi = QMatrix(data)
    proj = GraphProjector(data[..., 0] if group == 1 else component_rows(Phi), group)
    v = np.zeros(12 * group)
    v[:group * kept] = 1.0
    b = oracles.ref_apply(proj, v)
    if group * kept > 4:
        assert solver._polish_candidate(Phi, proj, b, 0.0, v,
                                        solver.POLISH_THRESHOLD) is None
    else:
        with pytest.raises(AssertionError, match="lstsq ran"):
            solver._polish_candidate(Phi, proj, b, 0.0, v, solver.POLISH_THRESHOLD)


def solve_watched(problem, params=None):
    """solve, and the AdmmState that on_iteration received: one object,
    passed once per iteration."""
    seen = []
    res = solve(problem, params, on_iteration=seen.append)
    assert len(seen) == res.iterations
    assert all(state is seen[0] for state in seen)
    return res, seen[0]


def test_trace_file():
    Phi, x, y = sparse_instance(9, 4, 6, 1)
    rows = []
    res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0), SolverParams(),
                on_iteration=lambda state: rows.append((state.iteration,
                                                        *residuals(state)[:2])))
    assert len(rows) == res.iterations
    assert rows[0][0] == 1
    # residual columns are finite floats
    assert all(math.isfinite(r[1]) and math.isfinite(r[2]) for r in rows)


def test_converged_residuals_below_tolerances():
    Phi, x, y = sparse_instance(10, 5, 8, 2)
    params = SolverParams(tol=1e-10)
    res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0), params)
    assert res.status is SolveStatus.CONVERGED
    m4 = 4 * Phi.shape[0]
    norm_b = lp_norm(y, 2)
    assert res.primal_residual <= 1e-10 * (math.sqrt(m4) + norm_b)
    assert res.dual_residual < 1e-6


def test_rho_equivalence_of_solutions(monkeypatch):
    # different starting rho must land on the same minimizer
    Phi, x, y = sparse_instance(11, 5, 9, 2)
    sols = []
    for rho in (0.1, 1.0, 10.0):
        monkeypatch.setattr(solver, "RHO_INIT", rho)
        res = solve(RecoveryProblem(Phi=Phi, y=y, eta=0.0))
        sols.append(res.x_hat)
    for other in sols[1:]:
        assert lp_norm(other - sols[0], 2) < 1e-7


# ---------------------------------------------------------------------------
# group size: real problems on the m x n operator


def _padded_form(problem):
    return component_rows(problem.Phi), vec4(problem.y), 4


@pytest.mark.parametrize("seed, m, n, s, eta, max_iters, status, polished", [
    (0, 6, 24, 3, 0.0, 150, SolveStatus.MAX_ITERS, False),
    (1, 6, 24, 3, 0.0, 150, SolveStatus.MAX_ITERS, True),
    (3, 8, 32, 2, 0.0, 3000, SolveStatus.CONVERGED, True),
    (0, 12, 40, 3, 0.05, 3000, SolveStatus.CONVERGED, False),
])
def test_real_problem_matches_padded_embedding(monkeypatch, seed, m, n, s, eta,
                                               max_iters, status, polished):
    # with real Phi and y the padded run on the 4m x 4n compact embedding
    # keeps every imaginary slot at zero, so the m x n run must retrace it
    # step for step
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
def test_one_imaginary_entry_takes_quaternion_path(seed, m, n, s):
    Phi, x, y = real_instance(seed, m, n, s)
    y.data[1, 2] = 0.25
    problem = RecoveryProblem(Phi=Phi, y=y, eta=0.0)
    assert solver._real_form(problem)[2] == 4
    res = solve(problem)
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
    it: (problem, x). The harness solves it with SWEEP_SOLVER and calls it
    perfect within PERFECT_THRESHOLD."""
    config = ExperimentConfig(n=256, m_values=(m,), s_rule=(s,), trials=1,
                              base_seed=base_seed, scalar_mode=mode)
    Phi, x, y = _sample_problem(config, m, s, 0)
    return RecoveryProblem(Phi=Phi, y=y, eta=config.eta), x


# With a schedule that never settled, both trials ran to the sweep's
# 3000-iteration cap with a wrong verdict: H (8, 1) at base seed 2 after
# 666 changes of rho (err_l2 0.45), R (32, 4) at base seed 0 after 351
# (err_l2 1.6e-5).
@pytest.mark.parametrize("mode, m, s, base_seed",
                         [("quaternion", 8, 1, 2), ("real", 32, 4, 0)])
def test_capped_trials_converge_once_rho_settles(mode, m, s, base_seed):
    problem, x = sweep_trial(mode, m, s, base_seed)
    res, state = solve_watched(problem, SWEEP_SOLVER)
    assert res.status is SolveStatus.CONVERGED
    assert state.rho_changes <= solver.RHO_MAX_CHANGES
    # both verdicts are now success; for R the exact LP must agree
    assert lp_norm(res.x_hat - x, 2) <= PERFECT_THRESHOLD
    if mode == "real":
        z = oracles.lp_min_l1(problem.Phi.data[..., 0], problem.y.data[:, 0])
        assert np.linalg.norm(z - x.data[:, 0]) <= PERFECT_THRESHOLD


# A recoverable trial that the sweep profile caps even with a settled rho:
# the exact LP returns x, and twice the sweep's 3000 iterations reach it.
def test_capped_recoverable_trial_converges_with_more_iterations():
    problem, x = sweep_trial("real", 32, 4, 7)
    z = oracles.lp_min_l1(problem.Phi.data[..., 0], problem.y.data[:, 0])
    assert np.linalg.norm(z - x.data[:, 0]) <= PERFECT_THRESHOLD
    res = solve(problem, dataclasses.replace(SWEEP_SOLVER, max_iters=6000))
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations > SWEEP_SOLVER.max_iters
    assert lp_norm(res.x_hat - x, 2) <= PERFECT_THRESHOLD


@pytest.mark.xfail(strict=True, reason="the sweep profile caps this recoverable trial "
                   "at 3000 iterations (err_l2 9.2e-4); ROADMAP direction 3 (the "
                   "success certificate and a budget past the cap) would decide it")
def test_sweep_profile_recovers_capped_recoverable_trial():
    problem, x = sweep_trial("real", 32, 4, 7)
    res = solve(problem, SWEEP_SOLVER)
    assert lp_norm(res.x_hat - x, 2) <= PERFECT_THRESHOLD


# Converging benchmark cells use few changes of rho (these two: 2 and 7;
# at most 10 over 24 rounds of the nine cells), so the bound must leave
# their solves bit-identical.
@pytest.mark.parametrize("mode, m, s, base_seed",
                         [("quaternion", 32, 9, 0), ("quaternion", 8, 2, 0)])
def test_converged_trials_do_not_reach_the_bound(monkeypatch, mode, m, s, base_seed):
    problem, _ = sweep_trial(mode, m, s, base_seed)
    bounded, bounded_state = solve_watched(problem, SWEEP_SOLVER)
    assert bounded.status is SolveStatus.CONVERGED
    assert bounded_state.rho_changes < solver.RHO_MAX_CHANGES
    monkeypatch.setattr(solver, "RHO_MAX_CHANGES", 10 ** 9)
    unbounded, unbounded_state = solve_watched(problem, SWEEP_SOLVER)
    assert np.array_equal(bounded.x_hat.data, unbounded.x_hat.data)
    for name in ("iterations", "primal_residual", "dual_residual", "objective",
                 "polished", "status"):
        assert getattr(bounded, name) == getattr(unbounded, name)
    for name in ("rho", "rho_changes"):
        assert getattr(bounded_state, name) == getattr(unbounded_state, name)


# The state carries A v_half for the termination check, and the
# projection leaves out the dual because it stays orthogonal to the graph
# (lam_v = -A^T lam_u). Over a capped solve (R (32, 4) at base seed 7,
# 3000 iterations) and a long converging one (H (4, 1) at base seed 0,
# about 2560 iterations) both must hold to rounding.
@pytest.mark.parametrize("mode, m, s, base_seed",
                         [("real", 32, 4, 7), ("quaternion", 4, 1, 0)])
def test_carried_products_do_not_drift(mode, m, s, base_seed):
    problem, _ = sweep_trial(mode, m, s, base_seed)
    res, state = solve_watched(problem, SWEEP_SOLVER)
    assert res.iterations > 2500
    if state.group == 1:
        A = problem.Phi.data[..., 0]
    else:
        A, _ = build_embedding(problem.Phi, problem.y)
    direct = A @ state.v_half
    assert np.linalg.norm(state.A_v_half - direct) <= 1e-13 * np.linalg.norm(direct)
    assert (np.linalg.norm(state.lam_v + A.T @ state.lam_u)
            <= 1e-12 * np.linalg.norm(state.lam_v))


def test_converging_quaternion_trial_builds_no_embedding(monkeypatch):
    # the solve and its polish run on F and on the kept columns alone; the
    # 4m x 4n embedding is built only for the gap of a solve that did not
    # converge
    problem, x = sweep_trial("quaternion", 8, 2, 0)

    def no_embedding(*args):
        raise AssertionError("a converging solve built the quaternion embedding")

    built = []

    def kept_columns(Phi):
        built.append(Phi.shape)
        return compact_operator(Phi)

    monkeypatch.setattr(solver, "build_embedding", no_embedding)
    monkeypatch.setattr(solver, "compact_operator", kept_columns)
    res = solve(problem, SWEEP_SOLVER)
    assert (res.status, res.polished) == (SolveStatus.CONVERGED, True)
    assert lp_norm(res.x_hat - x, 2) <= PERFECT_THRESHOLD
    assert [shape[0] for shape in built] == [8]
    assert all(cols < 256 for _, cols in built)


def test_rho_stops_changing_at_the_bound():
    # the hook runs before the rho update, so from one call to the next rho
    # moves by the balancing rule applied to the first call's residuals,
    # until the bound holds it
    problem, _ = sweep_trial("quaternion", 8, 1, 2)
    states, rows = [], []

    def watch(state):
        states.append(state)
        rows.append((state.rho, *residuals(state)[:2], state.rho_changes))

    solve(problem, SWEEP_SOLVER, on_iteration=watch)
    state = states[-1]
    rhos = [row[0] for row in rows]
    changes = [k for k in range(1, len(rhos)) if rhos[k] != rhos[k - 1]]
    assert len(changes) == state.rho_changes == solver.RHO_MAX_CHANGES
    assert rhos[-1] == state.rho
    for (rho, pri, dual, n_changes), (next_rho, *_) in zip(rows, rows[1:]):
        if n_changes < solver.RHO_MAX_CHANGES and pri > solver.RHO_TRIGGER * dual:
            rho *= solver.RHO_FACTOR
        elif n_changes < solver.RHO_MAX_CHANGES and dual > solver.RHO_TRIGGER * pri:
            rho /= solver.RHO_FACTOR
        assert next_rho == rho


# ---------------------------------------------------------------------------
# the in-place iteration against its allocating reference


@pytest.mark.parametrize("group", [1, 4])
@pytest.mark.parametrize("eta", [0.0, 0.05])
def test_step_matches_allocating_reference_bit_for_bit(group, eta):
    # 300 iterations under the solve's rho schedule, with rho tripled at
    # iteration 150 so that it leaves the powers of two; every array and
    # residual must be equal
    if group == 1:
        Phi, _, y = real_instance(12, 12, 40, 3, eta)
        F, b = Phi.data[..., 0], y.data[:, 0]
    else:
        Phi, _, y = sparse_instance(12, 6, 24, 2, eta)
        F, b = component_rows(Phi), vec4(y)
    projector = GraphProjector(F, group)
    state = init_admm_state(projector, b, eta, 1.0)
    ref = oracles.ref_init_admm_state(projector, b, eta, 1.0)
    rhos = set()
    for it in range(300):
        admm_step(state)
        oracles.ref_admm_step(ref)
        got, want = residuals(state), oracles.ref_residuals(ref)
        assert got == want, it
        assert solver.step_sq(state) == ref.step_sq
        for name in ("v_half", "u_half", "lam_v", "lam_u", "A_v_half"):
            assert np.array_equal(getattr(state, name), getattr(ref, name)), (it, name)
        assert np.array_equal(state.proj.v, ref.v_proj)
        assert np.array_equal(state.proj.u, ref.u_proj)
        assert np.array_equal(state.r, ref.A_v_half - ref.u_half)
        r_pri, r_dual = got[:2]
        if it == 150:
            state.rho = ref.rho = state.rho * 3.0
        elif r_pri > solver.RHO_TRIGGER * r_dual:
            state.rho = ref.rho = state.rho * solver.RHO_FACTOR
        elif r_dual > solver.RHO_TRIGGER * r_pri:
            state.rho = ref.rho = state.rho / solver.RHO_FACTOR
        rhos.add(state.rho)
    assert len(rhos) > 1
    assert state.iteration == ref.iteration == 300


# R (32, 4) at base seed 7 settles its rho schedule and runs to the cap, so
# most of its iterations skip the dual residual; H (8, 2) at base seed 0
# converges with a live schedule.
@pytest.mark.parametrize("mode, m, s, base_seed, status",
                         [("real", 32, 4, 7, SolveStatus.MAX_ITERS),
                          ("quaternion", 8, 2, 0, SolveStatus.CONVERGED)])
def test_solve_matches_the_reference_loop(monkeypatch, mode, m, s, base_seed, status):
    # the lazy check gives the bits of the reference drop-in, and its
    # decisions are those of a check that computes all four residuals in
    # every iteration
    problem, _ = sweep_trial(mode, m, s, base_seed)
    got, state = solve_watched(problem, SWEEP_SOLVER)
    for name, ref in oracles.REF_LOOP.items():
        monkeypatch.setattr(solver, name, ref)
    want, ref_state = solve_watched(problem, SWEEP_SOLVER)
    assert got.status is status
    assert (state.rho, state.rho_changes) == (ref_state.rho, ref_state.rho_changes)
    if status is SolveStatus.MAX_ITERS:
        assert state.rho_changes == solver.RHO_MAX_CHANGES
    assert np.array_equal(got.x_hat.data, want.x_hat.data)
    for name in ("iterations", "status", "primal_residual", "dual_residual",
                 "objective", "polished"):
        assert getattr(got, name) == getattr(want, name)

    rows = []
    solve(problem, SWEEP_SOLVER, on_iteration=lambda st: rows.append(solver.residuals(st)))
    _, b, _ = solver._real_form(problem)
    n = problem.Phi.shape[1]
    tol, norm_b = SWEEP_SOLVER.tol, float(np.linalg.norm(b))
    passed = [pri <= tol * (math.sqrt(4 * m) + max(s_pri, norm_b))
              and dual <= tol * (math.sqrt(4 * (m + n)) + s_dual)
              for pri, dual, s_pri, s_dual in rows]
    assert len(passed) == want.iterations
    assert not any(passed[:-1])
    assert passed[-1] == (status is SolveStatus.CONVERGED)
    assert (want.primal_residual, want.dual_residual) == rows[-1][:2]


def test_solve_result_does_not_alias_the_state():
    # x_hat is a copy, so a state that iterates on after the solve leaves
    # the result as it was
    Phi, _, y = sparse_instance(13, 5, 10, 2)
    for polished in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if not polished:
                patch.setattr(solver, "_polish_candidate", lambda *args: None)
            res, state = solve_watched(RecoveryProblem(Phi=Phi, y=y, eta=0.0))
        assert res.polished is polished
        before = res.x_hat.data.copy()
        for _ in range(5):
            admm_step(state)
        assert np.array_equal(res.x_hat.data, before)
