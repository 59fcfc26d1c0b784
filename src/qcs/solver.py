"""Group basis pursuit on a real operator with groups of g slots.

Solves  minimize ||z||_1  over z in H^n  subject to  Phi z = y  (eta = 0)
or ||Phi z - y||_2 <= eta (eta > 0), by ADMM on the equivalent real
problem

    minimize  sum_k ||v_{gk:gk+g}||_2 + I_C(u)   subject to  A v = u,

where C is {b} or the ball of radius eta around b, and each group of g
real slots is one coordinate. solve picks the group size from the data:

- g = 1 when every imaginary part of Phi and y is exactly zero. A = Re Phi
  (m x n) and b = Re y. This is exact: |z_k| >= |Re z_k| and Re z alone
  is feasible, so the quaternion minimum is attained at a real vector,
  and x_hat comes back with zero imaginary slots.
- g = 4 otherwise. A is the 4m x 4n compact embedding and b = vec4(y),
  so a group is the four components of a quaternion coordinate.

The absolute terms of the stopping rule use the dimensions in H,
sqrt(4m) and sqrt(4(m + n)), for either group size, so a real problem
stops where its padded 4m x 4n form would.

The splitting is consensus form between the separable term F(v, u) and
the indicator of the graph {(v, u): A v = u}. The graph projection uses
the explicit inverse M = (I + A A^T)^{-1}, formed once per solve over
the rows of A, and is independent of the penalty rho, so
residual-balancing rho updates are free. An iteration costs two products
with the operator (A v_half, which the termination check reads as well,
and one with A^T in the projection) and one over the rows (with M). Dual
variables are stored unscaled; proximal arguments divide by rho where
needed. Residual balancing multiplies or divides rho by RHO_FACTOR
whenever one residual exceeds RHO_TRIGGER times the other, and settles
after RHO_MAX_CHANGES such changes: from then on rho stays fixed for the
rest of the solve. ADMM with a varying penalty is only known to converge
when the penalty is constant in the end (Boyd et al. 2011, section
3.4.1; He, Yang & Wang 2000); a schedule that never settles keeps
throwing the iterate back out, and many trials then run to max_iters.
solve does no I/O; a caller that wants per-iteration diagnostics passes
on_iteration.
"""

from __future__ import annotations

import enum
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .embedding import build_embedding, unvec4
from .errors import NonFiniteInput
from .qlinalg import QMatrix, QVector, lp_norm

RHO_MIN = 1e-10
RHO_MAX = 1e10
RHO_FACTOR = 2.0
RHO_TRIGGER = 10.0
# Residual balancing stops after this many changes of rho. Measured in
# the sweep profile (tol 1e-9, 3000 iterations) at n = 256 on the nine
# benchmark cells, 24 base seeds each: every trial that converged with a
# schedule that never stops used at most 10 changes, so the bound leaves
# those solves bit-identical, while the trials of H (4,1), (8,1), (8,2)
# and R (32,4) that ran to the cap used 67-656. On 10 other base seeds
# (602000000-602000009) those four cells left 19 of 30 H and 10 of 10 R
# trials capped with no bound; with a bound of 10 / 20 / 40, 1 / 0 / 2
# of 30 and 0 of 10 each. 10 sits too close to the changes that
# converging trials need.
RHO_MAX_CHANGES = 20
POLISH_THRESHOLD = 1e-5
POLISH_FEAS_SLACK = 1e-12
POLISH_OBJ_SLACK = 1e-9


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class RecoveryProblem:
    """(Phi, y, eta) instance of the l1 minimization."""

    Phi: QMatrix
    y: QVector
    eta: float = 0.0

    def __post_init__(self):
        m, n = self.Phi.shape
        if len(self.y) != m:
            raise ValueError(f"y has length {len(self.y)}, Phi has {m} rows")
        if (isinstance(self.eta, bool) or not isinstance(self.eta, numbers.Real)
                or not (math.isfinite(self.eta) and self.eta >= 0)):
            raise ValueError(f"eta must be a finite number >= 0, got {self.eta!r}")
        # a plain float, so that numpy numbers serialize
        object.__setattr__(self, "eta", float(self.eta))
        for name, data in (("Phi", self.Phi.data), ("y", self.y.data)):
            if not np.isfinite(data).all():
                raise NonFiniteInput(f"{name} holds NaN or Inf entries")


@dataclass
class SolverParams:
    rho: float = 1.0
    max_iters: int = 50000
    tol_primal: float = 1e-10
    tol_dual: float = 1e-10
    polish: bool = True

    def __post_init__(self):
        # numpy numbers pass; a bool is taken only as polish
        for name in ("rho", "tol_primal", "tol_dual"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not (math.isfinite(v) and v > 0)):
                raise ValueError(f"{name} must be a finite positive number, got {v!r}")
            # a plain float, so that numpy numbers serialize
            setattr(self, name, float(v))
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral)
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        self.max_iters = int(self.max_iters)
        if not isinstance(self.polish, bool):
            raise ValueError(f"polish must be true or false, got {self.polish!r}")


@dataclass
class SolveResult:
    x_hat: QVector
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    polished: bool
    status: SolveStatus
    # rho at the end of the solve, and the number of residual-balancing
    # updates; at RHO_MAX_CHANGES the bound, not the residuals, stopped them
    rho: float
    rho_changes: int


def block_soft_threshold(v: np.ndarray, kappa: float) -> np.ndarray:
    """prox of kappa * ||.||_2 on the trailing axis: max(0, 1 - kappa/||v||) v."""
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    v = np.asarray(v, dtype=np.float64)
    norms = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    denom = np.where(norms > 0, norms, 1.0)
    return np.maximum(0.0, 1.0 - kappa / denom) * v


class GraphProjector:
    """Euclidean projection onto {(v, u): A v = u}.

    The projection of (c_v, c_u) is
    (v, u) = (c_v - A^T t, c_u + t) with t = M (A c_v - c_u) and
    M = (I + A A^T)^{-1}, formed once over the rows of A: t is the
    multiplier of A v = u, and A v = u is A c_v - A A^T t = c_u + t. For
    finite A the eigenvalues of I + A A^T are at least 1, so M always
    exists, with eigenvalues in (0, 1]. The caller passes A c_v, so the
    projection does one product with A^T.
    """

    def __init__(self, A: np.ndarray):
        self.A = np.ascontiguousarray(A)
        self.M = np.linalg.inv(np.eye(A.shape[0]) + self.A @ self.A.T)

    def project(self, cv: np.ndarray, Acv: np.ndarray,
                cu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(v, u) for the point (cv, cu), given Acv = A cv."""
        t = self.M @ (Acv - cu)
        return cv - self.A.T @ t, cu + t


@dataclass
class AdmmState:
    projector: GraphProjector
    group: int
    b: np.ndarray
    eta: float
    rho: float
    v_half: np.ndarray
    u_half: np.ndarray
    v_proj: np.ndarray
    u_proj: np.ndarray
    lam_v: np.ndarray
    lam_u: np.ndarray
    # A v_half, formed once per iteration and read by residuals
    A_v_half: np.ndarray
    iteration: int = 0
    # squared step of the projected iterate (v_proj, u_proj) in the last
    # iteration; the dual residual is rho times its root
    step_sq: float = 0.0


def init_admm_state(projector: GraphProjector, b: np.ndarray, eta: float,
                    rho: float, group: int) -> AdmmState:
    """Cold start at zero (no warm starts across trials); group is the
    number of real slots per coordinate."""
    rows, cols = projector.A.shape
    z_v = np.zeros(cols)
    z_u = np.zeros(rows)
    return AdmmState(projector=projector, group=group,
                     b=np.asarray(b, dtype=np.float64),
                     eta=float(eta), rho=float(rho),
                     v_half=z_v, u_half=z_u, v_proj=z_v, u_proj=z_u,
                     lam_v=z_v, lam_u=z_u, A_v_half=z_u)


def _project_data_set(r: np.ndarray, b: np.ndarray, eta: float) -> np.ndarray:
    """Projection onto C: the point {b} when eta = 0, else the ball B(b, eta)."""
    if eta == 0:
        return b
    d = r - b
    nd = float(np.linalg.norm(d))
    if nd <= eta:
        return r
    return b + d * (eta / nd)


def admm_step(state: AdmmState) -> AdmmState:
    rho = state.rho
    v_arg = (state.v_proj - state.lam_v / rho).reshape(-1, state.group)
    v_half = block_soft_threshold(v_arg, 1.0 / rho).reshape(-1)
    u_half = _project_data_set(state.u_proj - state.lam_u / rho, state.b, state.eta)

    A_v_half = state.projector.A @ v_half
    # The scaled dual lam / rho is a sum of projection residuals, so it
    # stays orthogonal to the graph (lam_v = -A^T lam_u), and the
    # projection of (v_half, u_half) + lam / rho is that of (v_half, u_half).
    v_proj, u_proj = state.projector.project(v_half, A_v_half, u_half)

    state.step_sq = (float(np.sum((v_proj - state.v_proj) ** 2))
                     + float(np.sum((u_proj - state.u_proj) ** 2)))
    state.v_half, state.u_half, state.A_v_half = v_half, u_half, A_v_half
    state.v_proj, state.u_proj = v_proj, u_proj
    state.lam_v = state.lam_v + rho * (v_half - v_proj)
    state.lam_u = state.lam_u + rho * (u_half - u_proj)
    state.iteration += 1
    return state


def residuals(state: AdmmState) -> tuple[float, float, float, float]:
    """(primal, dual, primal scale, dual scale) of the current state.

    Primal: violation of A v_half = u_half (u_half lies in C exactly).
    Dual: rho times the step of the projected iterate.
    Scales for the relative tolerances: max(||A v_half||, ||u_half||) on
    the primal side, the scaled-dual norm ||lambda|| / rho on the dual
    side. A v_half is the product admm_step formed for the projection;
    no product with A is done here.
    """
    Av = state.A_v_half
    primal = float(np.linalg.norm(Av - state.u_half))
    dual = state.rho * math.sqrt(state.step_sq)
    primal_scale = max(float(np.linalg.norm(Av)), float(np.linalg.norm(state.u_half)))
    dual_scale = math.sqrt(float(np.sum(state.lam_v ** 2))
                           + float(np.sum(state.lam_u ** 2)))
    return primal, dual, primal_scale, dual_scale / state.rho


def _group_l1(v_flat: np.ndarray, group: int) -> float:
    groups = v_flat.reshape(-1, group)
    return float(np.sqrt(np.sum(groups * groups, axis=1)).sum())


def _polish_candidate(A: np.ndarray, b: np.ndarray, eta: float, v_half: np.ndarray,
                      threshold: float, group: int) -> np.ndarray | None:
    """Least squares restricted to the active support; None when the
    restricted system is rank-deficient or the candidate fails the
    feasibility / objective acceptance rules."""
    groups = v_half.reshape(-1, group)
    gnorm = np.sqrt(np.sum(groups * groups, axis=1))
    gmax = float(gnorm.max()) if gnorm.size else 0.0
    if gmax == 0.0:
        return None
    keep = np.nonzero(gnorm > threshold * gmax)[0]
    slots = (group * keep[:, None] + np.arange(group)[None, :]).reshape(-1)
    A_S = A[:, slots]
    w, _, rank, _ = np.linalg.lstsq(A_S, b, rcond=None)
    if rank < A_S.shape[1]:
        return None
    z = np.zeros_like(v_half)
    z[slots] = w
    if float(np.linalg.norm(A @ z - b)) > eta + POLISH_FEAS_SLACK:
        return None
    if _group_l1(z, group) > _group_l1(v_half, group) + POLISH_OBJ_SLACK:
        return None
    return z


def solve(problem: RecoveryProblem, params: SolverParams | None = None,
          on_iteration: Callable[[int, float, float, float, float], None] | None = None,
          ) -> SolveResult:
    """ADMM to the tolerances or max_iters, then the infeasibility check
    and the support polish.

    on_iteration, when given, is called after every iteration with
    (iteration, primal residual, dual residual, group-l1 objective of
    v_half, rho), rho being the value that iteration used.
    """
    if params is None:
        params = SolverParams()
    A, b, group = _real_form(problem)
    # absolute tolerance terms count dimensions in H for either group size
    m, n = problem.Phi.shape
    root_pri = math.sqrt(4 * m)
    root_dual = math.sqrt(4 * (m + n))
    norm_b = float(np.linalg.norm(b))

    projector = GraphProjector(A)
    state = init_admm_state(projector, b, problem.eta, params.rho, group)

    converged = False
    r_pri = r_dual = math.inf
    rho_changes = 0
    for _ in range(params.max_iters):
        admm_step(state)
        r_pri, r_dual, s_pri, s_dual = residuals(state)
        if on_iteration is not None:
            on_iteration(state.iteration, r_pri, r_dual,
                         _group_l1(state.v_half, group), state.rho)
        eps_pri = params.tol_primal * (root_pri + max(s_pri, norm_b))
        eps_dual = params.tol_dual * (root_dual + s_dual)
        if r_pri <= eps_pri and r_dual <= eps_dual:
            converged = True
            break
        if rho_changes == RHO_MAX_CHANGES:
            continue  # the schedule has settled
        if r_pri > RHO_TRIGGER * r_dual:
            state.rho = min(state.rho * RHO_FACTOR, RHO_MAX)
            rho_changes += 1
        elif r_dual > RHO_TRIGGER * r_pri:
            state.rho = max(state.rho / RHO_FACTOR, RHO_MIN)
            rho_changes += 1

    if converged:
        status = SolveStatus.CONVERGED
    else:
        gap = _least_squares_gap(A, b)
        if gap > problem.eta + 1e-9 * (1.0 + norm_b):
            status = SolveStatus.INFEASIBLE
        else:
            status = SolveStatus.MAX_ITERS

    x_flat = state.v_half
    polished = False
    if params.polish and status is not SolveStatus.INFEASIBLE:
        cand = _polish_candidate(A, b, problem.eta, state.v_half, POLISH_THRESHOLD,
                                 group)
        if cand is not None:
            x_flat = cand
            polished = True

    x_hat = unvec4(x_flat) if group == 4 else QVector.from_real(x_flat)
    return SolveResult(x_hat=x_hat, iterations=state.iteration,
                       primal_residual=r_pri, dual_residual=r_dual,
                       objective=lp_norm(x_hat, 1), polished=polished,
                       status=status, rho=state.rho, rho_changes=rho_changes)


def _real_form(problem: RecoveryProblem) -> tuple[np.ndarray, np.ndarray, int]:
    """(A, b, g): the real operator, the data it must hit and the group
    size; g = 1 on the m x n real part when every imaginary part of Phi
    and y is exactly zero, else g = 4 on the compact embedding."""
    Phi, y = problem.Phi.data, problem.y.data
    if Phi[..., 1:].any() or y[:, 1:].any():
        A, b = build_embedding(problem.Phi, problem.y)
        return A, b, 4
    return np.ascontiguousarray(Phi[..., 0]), np.ascontiguousarray(y[:, 0]), 1


def _least_squares_gap(A: np.ndarray, b: np.ndarray) -> float:
    """Smallest achievable ||A z - b||; certifies infeasibility when it
    exceeds eta."""
    z, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    return float(np.linalg.norm(A @ z - b))
