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
  so a group is the four components of a quaternion coordinate. A is
  never formed on the solve path: GraphProjector applies it through F,
  Phi's components as a 4m x n array (embedding.component_rows), which
  holds each component once where A holds it four times. Only the
  least-squares gap of a solve that did not converge builds A
  (build_embedding), and the polish builds A's columns on the kept
  support.

SolverParams holds the two settings callers vary: max_iters and tol, the
relative tolerance of both residuals. The absolute terms of the stopping
rule use the dimensions in H, sqrt(4m) and sqrt(4(m + n)), for either
group size, so a real problem stops where its padded 4m x 4n form would.
After the loop, every solve that is not certified infeasible polishes
the support (least squares on it, kept when it is feasible and no worse
in objective).

The splitting is consensus form between the separable term
sum_k ||v_k|| + I_C(u) and the indicator of the graph
{(v, u): A v = u}. The graph projection uses the explicit inverse
M = (I + A A^T)^{-1}, formed once per solve over the rows of A, and is
independent of the penalty rho, so residual-balancing rho updates are
free. An iteration costs two products with the operator (A v_half and
one with A^T in the projection) and one over the rows (with M). For
g = 4 a product with A is a 4-column product with F,
(4m x n) @ (n x 4), and a (m x 16) @ (16 x 4) combine (for A^T, the
combine comes first), so it reads the 4mn doubles of F instead of the
16mn of A; M comes from F F^T, a quarter of the flops of A A^T. The
iteration forms r = A v_half - u_half once: r is the projection's input
and its norm is the primal residual.

init_admm_state allocates every array of the solve once. The iterate is
stacked as z = (v, u), cols + rows slots, for the half step, the
projected point (two buffers, swapped each iteration), the unscaled dual
and the scratch, so the dual update, the step and the dual scale are
one in-place ufunc each over z; A v_half, r and the shrink factors have
buffers of their own. At eta = 0, u_half is b throughout, so admm_step
forms the proximal argument on the v half only. admm_step allocates
nothing. It does the float operations of the allocating form (kept in
tests/oracles.py as the reference) in the same order, so its results
are the same bits. Every array of an AdmmState is overwritten by the
next admm_step: a caller that keeps one must copy it (solve's x_hat and
polish are copies).

The termination check (Boyd et al. 2011, section 3.3.1) computes only
what its decision reads. In every iteration: the primal residual ||r||
and ||A v_half|| (at eta = 0, ||u_half|| = ||b|| once per solve). The
dual residual, rho times the step of the projected iterate, while the
rho schedule is live or when the primal test passes; the step is taken
between state.proj and state.spare, the point the iteration left, which
stays intact until the next admm_step. The dual scale ||lambda|| / rho
only when the primal test passes. A skipped dual residual of the last
iteration is computed after the loop. Each value comes from the helpers
that residuals(state) uses, so every decision and both residuals of a
SolveResult are the bits of a check that computes everything.

rho starts at RHO_INIT, on which the minimizer does not depend.
Residual balancing multiplies or divides rho by RHO_FACTOR whenever one
residual exceeds RHO_TRIGGER times the other, and settles after
RHO_MAX_CHANGES such changes: from then on rho stays fixed for the rest
of the solve. ADMM with a varying penalty is only known to converge
when the penalty is constant in the end (Boyd et al. 2011, section
3.4.1; He, Yang & Wang 2000); a schedule that never settles keeps
throwing the iterate back out, and many trials then run to max_iters.
solve does no I/O; a caller that watches a solve passes on_iteration,
which receives the AdmmState after every iteration (and must copy any
array it keeps, as above). After solve returns, that state still holds
the final rho and rho_changes. A caller can also end a solve: when
on_iteration returns True, solve stops at that iteration with status
STOPPED and returns v_half unpolished, with no least-squares gap and no
polish. The sweep's failure certificate (qcs.harness) stops a solve this
way, from feasible_point: at eta = 0, the point nearest v_half on
{z: A z = b}, through (A A^T)^{-1}, which GraphProjector forms on first
use from the Gram that M was formed from.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embedding import (ADJOINT_TABLE, PRODUCT_TABLE, build_embedding, compact_gram,
                        compact_operator, component_rows, unvec4, vec4)
from .errors import DimensionMismatch, NonFiniteInput, check_number
from .qlinalg import QMatrix, QVector, lp_norm

RHO_INIT = 1.0
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
    # on_iteration returned True
    STOPPED = "stopped"


@dataclass(frozen=True)
class RecoveryProblem:
    """(Phi, y, eta) instance of the l1 minimization."""

    Phi: QMatrix
    y: QVector
    eta: float = 0.0

    def __post_init__(self):
        m, n = self.Phi.shape
        if len(self.y) != m:
            raise DimensionMismatch(f"y has length {len(self.y)}, Phi has {m} rows")
        object.__setattr__(self, "eta", check_number(self.eta, "eta", low=0.0))
        for name, data in (("Phi", self.Phi.data), ("y", self.y.data)):
            if not np.isfinite(data).all():
                raise NonFiniteInput(f"{name} holds NaN or Inf entries")


@dataclass
class SolverParams:
    max_iters: int = 50000
    # relative tolerance of both the primal and the dual residual
    tol: float = 1e-10

    def __post_init__(self):
        self.max_iters = check_number(self.max_iters, "max_iters", int, 1)
        self.tol = check_number(self.tol, "tol", low=0.0, low_open=True)


@dataclass
class SolveResult:
    x_hat: QVector
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    polished: bool
    status: SolveStatus


def block_soft_threshold(v: np.ndarray, kappa: float, out: np.ndarray | None = None,
                         scale: np.ndarray | None = None) -> np.ndarray:
    """prox of kappa * ||.||_2 on the trailing axis: max(0, 1 - kappa/||v||) v.

    out (v's shape, not overlapping v) and scale (v's shape with a
    trailing axis of 1) are buffers a caller may pass so that the call
    allocates nothing; the result is written to out.
    """
    if not 0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    v = np.asarray(v, dtype=np.float64)
    if out is None:
        out = np.empty_like(v)
    if kappa == 0:
        np.copyto(out, v)
        return out
    if scale is None:
        scale = np.empty(v.shape[:-1] + (1,))
    np.multiply(v, v, out=out)
    if v.shape[-1] == 1:
        np.sqrt(out, out=scale)
    else:
        # a group's squares summed column by column, ((a0 + a1) + a2) + a3:
        # the order of add.reduce over the short trailing axis, at less
        # than half its cost
        total = scale[..., 0]
        np.add(out[..., 0], out[..., 1], out=total)
        for k in range(2, v.shape[-1]):
            np.add(total, out[..., k], out=total)
        np.sqrt(scale, out=scale)
    # With the norm clamped to kappa, kappa / scale <= 1, so the factor
    # 1 - kappa / scale is >= +0 and is +0 for every group of norm <= kappa,
    # the zero groups included, whose entries +-0 stay +-0.
    np.maximum(scale, kappa, out=scale)
    np.divide(kappa, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    return np.multiply(scale, v, out=out)


class GraphProjector:
    """The products with A and the Euclidean projection onto
    {(v, u): A v = u}.

    A is never formed. group = 1: A is F itself. group = 4: F is Phi's
    components as a 4m x n array (embedding.component_rows) and A is the
    4m x 4n compact embedding, applied through the structure constants
    of H: A v is one (4m x n) @ (n x 4) product and a combine of its 16
    columns per row into 4, A^T t the same in reverse. The products take
    v (4n) and t (4m) shaped as operand() gives, (n, 4) and (m, 4), and
    F.T is a view, so F is the only copy of Phi a solve keeps. The
    products and the projection write their intermediates to buffers of
    the projector, so a projector serves one call at a time.

    The projection of (c_v, c_u) is
    (v, u) = (c_v - A^T t, c_u + t) with t = M (A c_v - c_u) and
    M = (I + A A^T)^{-1}, formed once over the rows of A from the Gram
    A A^T = F F^T (embedding.compact_gram for group 4), which the
    projector keeps for nearest_solution: t is the multiplier of
    A v = u, and A v = u is A c_v - A A^T t = c_u + t. For finite A the
    eigenvalues of I + A A^T are at least 1, so M always exists, with
    eigenvalues in (0, 1]. The caller passes r = A c_v - c_u, so the
    projection does one product with A^T.
    """

    def __init__(self, F: np.ndarray, group: int = 1):
        self.F = np.ascontiguousarray(F)
        self.group = group
        rows, n = self.F.shape
        self.shape = (rows, group * n)
        if group == 4:
            m = rows // 4
            self._T = np.empty((rows, 4))
            self._T16 = self._T.reshape(m, 16)
            self._W = np.empty((m, 16))
            self._W4 = self._W.reshape(rows, 4)
        self.gram = self.F @ self.F.T if group == 1 else compact_gram(self.F)
        self.M = np.linalg.inv(np.eye(rows) + self.gram)
        self._gram_inv = None
        # the projection's t and A^T t, flat and as operands
        self._t = np.empty(rows)
        self._t_op = self.operand(self._t)
        self._At_t = np.empty(self.shape[1])
        self._At_t_op = self.operand(self._At_t)

    def operand(self, x: np.ndarray) -> np.ndarray:
        """A view of the flat vector x in the shape the products take."""
        return x if self.group == 1 else x.reshape(-1, 4)

    def apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A v, for v an operand; written to out (an operand) when given."""
        if self.group == 1:
            return np.matmul(self.F, v, out=out)
        np.matmul(self.F, v, out=self._T)
        return np.matmul(self._T16, PRODUCT_TABLE, out=out)

    def apply_adjoint(self, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A^T t, for t an operand; written to out (an operand) when given."""
        if self.group == 1:
            return np.matmul(self.F.T, t, out=out)
        np.matmul(t, ADJOINT_TABLE, out=self._W)
        return np.matmul(self.F.T, self._W4, out=out)

    def project(self, cv: np.ndarray, cu: np.ndarray, r: np.ndarray,
                out: tuple[np.ndarray, np.ndarray] | None = None,
                ) -> tuple[np.ndarray, np.ndarray]:
        """(v, u) for the flat point (cv, cu), given r = A cv - cu; written
        to out = (v, u) when given, which must not overlap the inputs."""
        v, u = out if out is not None else (np.empty_like(cv), np.empty_like(cu))
        t = np.matmul(self.M, r, out=self._t)
        self.apply_adjoint(self._t_op, out=self._At_t_op)
        np.subtract(cv, self._At_t, out=v)
        np.add(cu, t, out=u)
        return v, u

    def nearest_solution(self, v: np.ndarray, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """v - A^T (A A^T)^{-1} r, written to out: the point nearest the flat
        v on {z: A z = A v - r}. (A A^T)^{-1} is formed from the Gram on the
        first call, so a projector that never calls this never pays for it;
        A A^T must be invertible (A has full row rank)."""
        if self._gram_inv is None:
            L_inv = _lower_inverse(np.linalg.cholesky(self.gram))
            self._gram_inv = L_inv.T @ L_inv
        np.matmul(self._gram_inv, r, out=self._t)
        self.apply_adjoint(self._t_op, out=self._At_t_op)
        return np.subtract(v, self._At_t, out=out)


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """L^{-1} for a lower-triangular L, by halves:
    [[P, 0], [C, Q]]^{-1} = [[P^{-1}, 0], [-Q^{-1} C P^{-1}, Q^{-1}]].
    With the Cholesky factor, (A A^T)^{-1} = L^{-T} L^{-1} costs 1.6 ms at
    256 x 256 on one core of an x86-64 VM, against 2.9-4.3 ms for
    np.linalg.inv, which does not use the symmetry."""
    k = len(L)
    if k <= 32:
        return np.linalg.inv(L)
    h = k // 2
    out = np.zeros_like(L)
    out[:h, :h] = P_inv = _lower_inverse(L[:h, :h])
    out[h:, h:] = Q_inv = _lower_inverse(L[h:, h:])
    out[h:, :h] = -(Q_inv @ (L[h:, :h] @ P_inv))
    return out


class Stacked(NamedTuple):
    """One stacked vector z = (v, u) and its views; groups is v as
    (n_groups, group)."""

    z: np.ndarray
    v: np.ndarray
    u: np.ndarray
    groups: np.ndarray


def _stacked(cols: int, rows: int, group: int) -> Stacked:
    z = np.zeros(cols + rows)
    return Stacked(z, z[:cols], z[cols:], z[:cols].reshape(-1, group))


@dataclass
class AdmmState:
    """The iterate and every buffer an iteration writes, allocated once
    per solve by init_admm_state and overwritten by every admm_step."""

    projector: GraphProjector
    group: int
    b: np.ndarray
    eta: float
    rho: float
    # residual-balancing updates of rho so far; at RHO_MAX_CHANGES the
    # bound, not the residuals, stopped them
    rho_changes: int
    half: Stacked        # (v_half, u_half)
    proj: Stacked        # (v_proj, u_proj), the last projected point
    spare: Stacked       # where the next projection goes; swapped with proj
    lam: Stacked         # unscaled dual (lam_v, lam_u)
    work: Stacked        # scratch
    A_v_half: np.ndarray  # A v_half, read by the termination check
    r: np.ndarray        # A v_half - u_half: the projection input and the primal residual
    scale: np.ndarray    # (n_groups, 1) shrink factors
    # v_half and A_v_half as the operands of the projector's products
    v_half_op: np.ndarray
    A_v_half_op: np.ndarray
    iteration: int = 0

    @property
    def v_half(self) -> np.ndarray:
        return self.half.v

    @property
    def u_half(self) -> np.ndarray:
        return self.half.u

    @property
    def lam_v(self) -> np.ndarray:
        return self.lam.v

    @property
    def lam_u(self) -> np.ndarray:
        return self.lam.u


def init_admm_state(projector: GraphProjector, b: np.ndarray, eta: float,
                    rho: float) -> AdmmState:
    """Cold start at zero (no warm starts across trials); a coordinate is
    a group of projector.group real slots."""
    rows, cols = projector.shape
    group = projector.group
    b = np.asarray(b, dtype=np.float64)
    half, proj, spare, lam, work = (_stacked(cols, rows, group) for _ in range(5))
    if eta == 0:
        half.u[:] = b  # C = {b}: u_half is b in every iteration
    A_v_half = np.zeros(rows)
    return AdmmState(projector=projector, group=group, b=b, eta=float(eta),
                     rho=float(rho), rho_changes=0, half=half, proj=proj,
                     spare=spare, lam=lam, work=work, A_v_half=A_v_half,
                     r=np.zeros(rows), scale=np.zeros((cols // group, 1)),
                     v_half_op=projector.operand(half.v),
                     A_v_half_op=projector.operand(A_v_half))


def _project_ball(c: np.ndarray, b: np.ndarray, eta: float, out: np.ndarray) -> None:
    """Projection of c onto the ball B(b, eta), written to out."""
    d = np.subtract(c, b, out=out)
    nd = math.sqrt(d.dot(d))
    if nd <= eta:
        np.copyto(out, c)
    else:
        np.multiply(d, eta / nd, out=out)
        np.add(b, out, out=out)


def admm_step(state: AdmmState) -> AdmmState:
    rho = state.rho
    half, proj, nxt, lam, work = state.half, state.proj, state.spare, state.lam, state.work
    # the proximal arguments (v_proj, u_proj) - lam / rho; u_half holds b
    # throughout when eta = 0, so then only the v half is formed
    if state.eta > 0:
        np.divide(lam.z, rho, out=work.z)
        np.subtract(proj.z, work.z, out=work.z)
    else:
        np.divide(lam.v, rho, out=work.v)
        np.subtract(proj.v, work.v, out=work.v)
    block_soft_threshold(work.groups, 1.0 / rho, out=half.groups, scale=state.scale)
    if state.eta > 0:
        _project_ball(work.u, state.b, state.eta, half.u)

    state.projector.apply(state.v_half_op, out=state.A_v_half_op)
    np.subtract(state.A_v_half, half.u, out=state.r)
    # The scaled dual lam / rho is a sum of projection residuals, so it
    # stays orthogonal to the graph (lam_v = -A^T lam_u), and the
    # projection of (v_half, u_half) + lam / rho is that of (v_half, u_half).
    state.projector.project(half.v, half.u, state.r, out=(nxt.v, nxt.u))

    np.subtract(half.z, nxt.z, out=work.z)
    np.multiply(rho, work.z, out=work.z)
    np.add(lam.z, work.z, out=lam.z)
    state.proj, state.spare = nxt, proj
    state.iteration += 1
    return state


def _norm(x: np.ndarray) -> float:
    """sqrt(x.x), which is what np.linalg.norm computes for a vector."""
    return math.sqrt(x.dot(x))


def _sum_sq(z: np.ndarray, work: Stacked) -> float:
    """Sum of squares of the stacked vector z, over v and then over u;
    work may be z itself."""
    np.multiply(z, z, out=work.z)
    return float(np.add.reduce(work.v)) + float(np.add.reduce(work.u))


def primal_norms(state: AdmmState) -> tuple[float, float]:
    """(||r||, ||A v_half||): the primal residual and the part of its
    scale that changes in every iteration."""
    return _norm(state.r), _norm(state.A_v_half)


def step_sq(state: AdmmState) -> float:
    """Squared step of the projected iterate in the last iteration, from
    the point it left (state.spare, intact until the next admm_step) to
    the one it reached (state.proj); the dual residual is rho times its
    root."""
    work = state.work
    np.subtract(state.proj.z, state.spare.z, out=work.z)
    return _sum_sq(work.z, work)


def _dual_residual(state: AdmmState) -> float:
    return state.rho * math.sqrt(step_sq(state))


def dual_scale(state: AdmmState) -> float:
    """The scaled-dual norm ||lambda|| / rho."""
    return math.sqrt(_sum_sq(state.lam.z, state.work)) / state.rho


def residuals(state: AdmmState) -> tuple[float, float, float, float]:
    """(primal, dual, primal scale, dual scale) of the current state.

    Primal: violation of A v_half = u_half (u_half lies in C exactly),
    the norm of the r that admm_step formed for the projection.
    Dual: rho times the step of the projected iterate.
    Scales for the relative tolerances: max(||A v_half||, ||u_half||) on
    the primal side, the scaled-dual norm ||lambda|| / rho on the dual
    side. No product with A is done here. solve computes the same four
    numbers with the same helpers, each only when its test reads it.
    """
    primal, norm_Av = primal_norms(state)
    return (primal, _dual_residual(state), max(norm_Av, _norm(state.u_half)),
            dual_scale(state))


def feasible_point(state: AdmmState, out: np.ndarray) -> np.ndarray:
    """At eta = 0, the point nearest v_half that solves A z = b, written to
    out (a flat buffer of v_half's length): z = v_half - A^T (A A^T)^{-1} r,
    with the r = A v_half - b that admm_step formed (u_half is b). Needs A
    of full row rank."""
    if state.eta != 0:
        raise ValueError(f"feasible_point needs eta = 0, got {state.eta}")
    return state.projector.nearest_solution(state.v_half, state.r, out)


def group_l1(v_flat: np.ndarray, group: int) -> float:
    groups = v_flat.reshape(-1, group)
    return float(np.sqrt(np.sum(groups * groups, axis=1)).sum())


def _polish_candidate(Phi: QMatrix, projector: GraphProjector, b: np.ndarray, eta: float,
                      v_half: np.ndarray, threshold: float) -> np.ndarray | None:
    """Least squares restricted to the active support; None when the
    restricted system is rank-deficient or the candidate fails the
    feasibility / objective acceptance rules.

    Only the support's columns of A are built: those of F for group 1,
    the compact embedding of Phi's kept columns for group 4, which are
    the entries of A[:, slots] exactly.
    """
    group = projector.group
    groups = v_half.reshape(-1, group)
    gnorm = np.sqrt(np.sum(groups * groups, axis=1))
    gmax = float(gnorm.max()) if gnorm.size else 0.0
    if gmax == 0.0:
        return None
    keep = np.nonzero(gnorm > threshold * gmax)[0]
    slots = (group * keep[:, None] + np.arange(group)[None, :]).reshape(-1)
    if len(slots) > projector.shape[0]:
        # more unknowns than rows: the rank is below the column count
        return None
    if group == 1:
        A_S = projector.F[:, keep]
    else:
        A_S = compact_operator(QMatrix(Phi.data[:, keep]))
    w, _, rank, _ = np.linalg.lstsq(A_S, b, rcond=None)
    if rank < A_S.shape[1]:
        return None
    z = np.zeros_like(v_half)
    z[slots] = w
    A_z = projector.apply(projector.operand(z)).reshape(-1)
    if float(np.linalg.norm(A_z - b)) > eta + POLISH_FEAS_SLACK:
        return None
    if group_l1(z, group) > group_l1(v_half, group) + POLISH_OBJ_SLACK:
        return None
    return z


def solve(problem: RecoveryProblem, params: SolverParams | None = None,
          on_iteration: Callable[[AdmmState], bool | None] | None = None,
          ) -> SolveResult:
    """ADMM to the tolerance or max_iters, then the infeasibility check
    and the support polish.

    on_iteration, when given, gets the AdmmState after every iteration,
    before the termination check and the rho update, so state.rho is the
    value that iteration used. The next step overwrites every array of
    the state. When it returns True, the solve stops at that iteration
    with status STOPPED: x_hat is v_half as it stands, unpolished, and
    neither the infeasibility check nor the polish runs. Any other
    return value (None included) lets the solve go on. The termination
    check computes only what its decision reads, as the module docstring
    sets out.
    """
    if params is None:
        params = SolverParams()
    F, b, group = _real_form(problem)
    # absolute tolerance terms count dimensions in H for either group size
    m, n = problem.Phi.shape
    root_pri = math.sqrt(4 * m)
    root_dual = math.sqrt(4 * (m + n))
    norm_b = float(np.linalg.norm(b))

    projector = GraphProjector(F, group)
    state = init_admm_state(projector, b, problem.eta, RHO_INIT)

    # u_half holds b throughout when eta = 0
    norm_u = _norm(state.u_half) if problem.eta == 0 else None
    converged = stopped = False
    r_pri = r_dual = math.inf
    for _ in range(params.max_iters):
        admm_step(state)
        if on_iteration is not None and on_iteration(state) is True:
            stopped = True
            break
        r_pri, norm_Av = primal_norms(state)
        s_pri = max(norm_Av, _norm(state.u_half) if norm_u is None else norm_u)
        primal_ok = r_pri <= params.tol * (root_pri + max(s_pri, norm_b))
        settled = state.rho_changes == RHO_MAX_CHANGES
        r_dual = _dual_residual(state) if primal_ok or not settled else None
        if primal_ok and r_dual <= params.tol * (root_dual + dual_scale(state)):
            converged = True
            break
        if settled:
            continue
        if r_pri > RHO_TRIGGER * r_dual:
            state.rho *= RHO_FACTOR
            state.rho_changes += 1
        elif r_dual > RHO_TRIGGER * r_pri:
            state.rho /= RHO_FACTOR
            state.rho_changes += 1
    if stopped:
        # the residuals of the iteration the hook stopped at
        r_pri, r_dual = primal_norms(state)[0], _dual_residual(state)
    elif r_dual is None:
        # the last iteration ran after the schedule settled and failed the
        # primal test; its rho and projected points are still in the state
        r_dual = _dual_residual(state)

    if stopped:
        status = SolveStatus.STOPPED
    elif converged:
        status = SolveStatus.CONVERGED
    else:
        # the one step that needs A itself; a converged solve never builds it
        A = F if group == 1 else build_embedding(problem.Phi, problem.y)[0]
        gap = _least_squares_gap(A, b)
        if gap > problem.eta + 1e-9 * (1.0 + norm_b):
            status = SolveStatus.INFEASIBLE
        else:
            status = SolveStatus.MAX_ITERS

    x_flat = state.v_half
    polished = False
    if status in (SolveStatus.CONVERGED, SolveStatus.MAX_ITERS):
        cand = _polish_candidate(problem.Phi, projector, b, problem.eta, state.v_half,
                                 POLISH_THRESHOLD)
        if cand is not None:
            x_flat = cand
            polished = True

    x_hat = field_vector(x_flat, group)
    return SolveResult(x_hat=x_hat, iterations=state.iteration,
                       primal_residual=r_pri, dual_residual=r_dual,
                       objective=lp_norm(x_hat, 1), polished=polished,
                       status=status)


def field_vector(v_flat: np.ndarray, group: int) -> QVector:
    """The QVector of a flat solution in the real form of group size g:
    groups of four slots (unvec4), or one real slot per coordinate."""
    return unvec4(v_flat) if group == 4 else QVector.from_real(v_flat)


def _real_form(problem: RecoveryProblem) -> tuple[np.ndarray, np.ndarray, int]:
    """(F, b, g): the array GraphProjector(F, g) applies A through, the
    data A must hit and the group size. g = 1 when every imaginary part
    of Phi and y is exactly zero: F = Re Phi (m x n) is A and b = Re y.
    Else g = 4: F = component_rows(Phi) (4m x n), A is the compact
    embedding and b = vec4(y)."""
    Phi, y = problem.Phi.data, problem.y.data
    if Phi[..., 1:].any() or y[:, 1:].any():
        return component_rows(problem.Phi), vec4(problem.y), 4
    return np.ascontiguousarray(Phi[..., 0]), np.ascontiguousarray(y[:, 0]), 1


def _least_squares_gap(A: np.ndarray, b: np.ndarray) -> float:
    """Smallest achievable ||A z - b||; certifies infeasibility when it
    exceeds eta."""
    z, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    return float(np.linalg.norm(A @ z - b))
