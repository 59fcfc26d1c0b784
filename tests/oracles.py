"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles so that a bug
in the package cannot hide behind a shared helper: multiplication comes from
a basis table, the real embedding from a hand-written left-multiplication
block, operator norms from power iteration, and minimizers from support
enumeration or, for real basis pursuit, from an exact linear program.
"""
from __future__ import annotations

import itertools
import math

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
