"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles so that a bug
in the package cannot hide behind a shared helper: multiplication comes from
a basis table, the real embedding from a hand-written left-multiplication
block, operator norms from power iteration, and minimizers from support
enumeration or, for real basis pursuit, from an exact linear program.
The reference ADMM iteration is the allocating form of the solver's
in-place step, one fresh array per operation, and the reference RIP
enumeration runs one eigensolve per support; both are for bit-for-bit
checks.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from qcs.qlinalg import QMatrix, QVector, hermitian_inner, lp_norm
from qcs.quaternion import Quaternion
from qcs.random import RngStream, sample_gaussian_matrix

# Frozen before the rip module was written: plain-float evaluation of
# 2(1 + (sqrt(2)-1) d) / (1 - (sqrt(2)+1) d) and 4 sqrt(1+d) / (1 - (sqrt(2)+1) d)
# at d = 0.2.
C0_AT_02 = 4.1876726427121085
C1_AT_02 = 8.472819712177566

# Basis products e_a * e_b with signs, for e in (1, i, j, k).  Row = left
# factor, column = right factor; entry = (sign, basis index).
_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def ref_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Table-driven Hamilton product, independent of qcs.quaternion.mul."""
    pc = p.components
    qc = q.components
    out = [0.0, 0.0, 0.0, 0.0]
    for a in range(4):
        if pc[a] == 0.0:
            continue
        for b in range(4):
            sign, idx = _TABLE[(a, b)]
            out[idx] += sign * pc[a] * qc[b]
    return Quaternion(*out)


def ref_left_block(q: Quaternion) -> np.ndarray:
    """4x4 real matrix of left multiplication by q on (a, b, c, d) coords."""
    a, b, c, d = q.components
    return np.array([
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ])


def ref_vec4(x: QVector) -> np.ndarray:
    return x.data.reshape(-1).copy()


def ref_real_matrix(Phi: QMatrix) -> np.ndarray:
    """4m x 4n real matrix acting on stacked coordinates, built entrywise."""
    m, n = Phi.shape
    A = np.zeros((4 * m, 4 * n))
    for i in range(m):
        for k in range(n):
            A[4 * i:4 * i + 4, 4 * k:4 * k + 4] = ref_left_block(Phi.entry(i, k))
    return A


def ref_power_opnorm(M: np.ndarray, iters: int = 5000, seed: int = 0,
                     rtol: float = 1e-15) -> float:
    """Operator norm of a Hermitian matrix by power iteration on M @ M.

    M @ M is positive semidefinite, so the iteration converges to the
    squared spectral radius of M regardless of the sign of the extreme
    eigenvalue.
    """
    if M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    H = M @ M
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = H @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        new = float(np.real(np.vdot(v, H @ v)))
        if abs(new - lam) <= rtol * max(1.0, abs(new)):
            lam = new
            break
        lam = new
    return math.sqrt(max(lam, 0.0))


def ref_best_s_sparse(x: QVector, s: int) -> QVector:
    """Best s-sparse l2 approximation by exhaustive support search."""
    n = len(x)
    if s >= n:
        return x.copy()
    best = None
    best_err = math.inf
    for S in itertools.combinations(range(n), s):
        cand = np.zeros_like(x.data)
        for k in S:
            cand[k] = x.data[k]
        err = float(np.linalg.norm(x.data - cand))
        if err < best_err - 1e-15:
            best_err = err
            best = cand
    return QVector(best)


def ref_enumerate_delta(chi: np.ndarray, n: int, s: int) -> tuple[float, tuple[int, ...], int]:
    """The per-support loop rip._enumerate_delta stacks: one eigvalsh per
    size-s support S of the 2s x 2s principal submatrix of chi on rows
    2i, 2i+1 for i in S. Returns (the largest |eigenvalue|, the first S
    attaining it, the number of supports)."""
    best = -1.0
    best_S: tuple[int, ...] = tuple(range(s))
    count = 0
    for S in itertools.combinations(range(n), s):
        rows = np.array([(2 * i, 2 * i + 1) for i in S]).reshape(-1)
        w = np.linalg.eigvalsh(chi[np.ix_(rows, rows)])
        val = float(max(-w[0], w[-1]) + 0.0)
        count += 1
        if val > best:
            best, best_S = val, S
    return best, best_S, count


def brute_force_min_l1(Phi: QMatrix, y: QVector, max_support: int,
                       feas_tol: float = 1e-9) -> float:
    """Minimum l1 norm over exactly-feasible candidates Phi x = y whose
    support has size <= max_support, each solved by least squares on the
    hand-built real embedding.  Valid oracle for eta = 0 problems whose
    optimum is at most max_support-sparse.
    """
    A = ref_real_matrix(Phi)
    b = ref_vec4(y)
    n = Phi.shape[1]
    best = math.inf
    if np.linalg.norm(b) <= feas_tol:
        return 0.0
    for size in range(1, max_support + 1):
        for S in itertools.combinations(range(n), size):
            cols = np.concatenate([np.arange(4 * k, 4 * k + 4) for k in S])
            sol, _, _, _ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            if np.linalg.norm(A[:, cols] @ sol - b) > feas_tol:
                continue
            groups = sol.reshape(size, 4)
            best = min(best, float(np.sum(np.sqrt(np.sum(groups ** 2, axis=1)))))
    return best


def lp_min_l1(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A minimizer of ||z||_1 subject to A z = b for real A and b: the
    linear program min 1'(z+ + z-) s.t. A (z+ - z-) = b, z+, z- >= 0,
    solved exactly by HiGHS. The result is a vertex, so it is the
    minimizer whenever the minimizer is unique.
    """
    from scipy.optimize import linprog

    A = np.asarray(A, dtype=np.float64)
    n = A.shape[1]
    res = linprog(np.ones(2 * n), A_eq=np.hstack([A, -A]), b_eq=b,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError(f"linprog failed: {res.message}")
    return res.x[:n] - res.x[n:]


def near_isometry_matrix(seed: int, m: int, n: int) -> QMatrix:
    """m x n quaternion matrix with orthonormal rows (right-module sense),
    so Phi* Phi is a rank-m projection and all restricted spectra sit in
    [0, 1].  Built by Gram-Schmidt on the columns of the adjoint.
    """
    stream = RngStream(seed, 0)
    G = sample_gaussian_matrix(stream, n, m, 1.0)
    cols: list[QVector] = []
    for j in range(m):
        v = G.column(j)
        for c in cols:
            v = v - c.right_mul(hermitian_inner(v, c))
        nrm = lp_norm(v, 2)
        if nrm < 1e-8:
            raise ValueError("degenerate draw, pick another seed")
        v = v.scale(1.0 / nrm)
        cols.append(v)
    data = np.stack([c.data for c in cols], axis=1)
    from qcs.qlinalg import adjoint
    return adjoint(QMatrix(data))


# ---------------------------------------------------------------------------
# Reference ADMM iteration: the same float operations, in the same order, as
# qcs.solver.admm_step and the termination check, written with fresh arrays.
# Drop-in for solver.init_admm_state / admm_step / primal_norms / step_sq /
# dual_scale / residuals inside solver.solve (REF_LOOP maps the names).


@dataclass
class RefAdmmState:
    A: np.ndarray
    M: np.ndarray
    group: int
    b: np.ndarray
    eta: float
    rho: float
    rho_changes: int
    v_half: np.ndarray
    u_half: np.ndarray
    v_proj: np.ndarray
    u_proj: np.ndarray
    lam_v: np.ndarray
    lam_u: np.ndarray
    A_v_half: np.ndarray
    iteration: int = 0
    step_sq: float = 0.0


def ref_init_admm_state(projector, b, eta, rho, group) -> RefAdmmState:
    """Cold start at zero, on the operator and inverse of a GraphProjector;
    u_half is b from the start when eta = 0, as in solver.init_admm_state."""
    rows, cols = projector.A.shape
    z_v, z_u = np.zeros(cols), np.zeros(rows)
    b = np.asarray(b, dtype=np.float64)
    return RefAdmmState(A=projector.A, M=projector.M, group=group, b=b, eta=float(eta),
                        rho=float(rho), rho_changes=0, v_half=z_v,
                        u_half=b if eta == 0 else z_u,
                        v_proj=z_v, u_proj=z_u, lam_v=z_v, lam_u=z_u, A_v_half=z_u)


def ref_block_soft_threshold(v: np.ndarray, kappa: float) -> np.ndarray:
    norms = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    denom = np.where(norms > 0, norms, 1.0)
    return np.maximum(0.0, 1.0 - kappa / denom) * v


def ref_project_ball(c: np.ndarray, b: np.ndarray, eta: float) -> np.ndarray:
    d = c - b
    nd = float(np.linalg.norm(d))
    if nd <= eta:
        return c
    return b + d * (eta / nd)


def ref_admm_step(state: RefAdmmState) -> RefAdmmState:
    rho = state.rho
    v_arg = (state.v_proj - state.lam_v / rho).reshape(-1, state.group)
    v_half = ref_block_soft_threshold(v_arg, 1.0 / rho).reshape(-1)
    u_half = state.b if state.eta == 0 else ref_project_ball(
        state.u_proj - state.lam_u / rho, state.b, state.eta)
    A_v_half = state.A @ v_half
    t = state.M @ (A_v_half - u_half)
    v_proj, u_proj = v_half - state.A.T @ t, u_half + t
    state.step_sq = (float(np.sum((v_proj - state.v_proj) ** 2))
                     + float(np.sum((u_proj - state.u_proj) ** 2)))
    state.v_half, state.u_half, state.A_v_half = v_half, u_half, A_v_half
    state.v_proj, state.u_proj = v_proj, u_proj
    state.lam_v = state.lam_v + rho * (v_half - v_proj)
    state.lam_u = state.lam_u + rho * (u_half - u_proj)
    state.iteration += 1
    return state


def ref_primal_norms(state: RefAdmmState) -> tuple[float, float]:
    Av = state.A_v_half
    return float(np.linalg.norm(Av - state.u_half)), float(np.linalg.norm(Av))


def ref_step_sq(state: RefAdmmState) -> float:
    return state.step_sq


def ref_dual_scale(state: RefAdmmState) -> float:
    return math.sqrt(float(np.sum(state.lam_v ** 2))
                     + float(np.sum(state.lam_u ** 2))) / state.rho


def ref_residuals(state: RefAdmmState) -> tuple[float, float, float, float]:
    primal, norm_Av = ref_primal_norms(state)
    dual = state.rho * math.sqrt(ref_step_sq(state))
    primal_scale = max(norm_Av, float(np.linalg.norm(state.u_half)))
    return primal, dual, primal_scale, ref_dual_scale(state)


# solver attribute -> its reference, for monkeypatching solver.solve
REF_LOOP = {
    "init_admm_state": ref_init_admm_state,
    "admm_step": ref_admm_step,
    "primal_norms": ref_primal_norms,
    "step_sq": ref_step_sq,
    "dual_scale": ref_dual_scale,
    "residuals": ref_residuals,
}
