"""Restricted isometry constants and the recovery-guarantee constants.

delta_s is computed two ways: exact enumeration of all size-s supports
(the Gram characterization delta_s = max_S ||Phi_S* Phi_S - Id||) and a
sampled lower bound straight from the defining inequality on random
s-sparse unit vectors. Supports smaller than s never attain the max:
Phi_S* Phi_S - Id is a principal submatrix of the size-s version, and
Hermitian principal submatrices never increase the operator norm.

All spectral work happens on the 2n x 2n complex adjoint of the Gram
residual, computed once. The enumeration streams the supports in chunks
of at most CHUNK_BYTES of gathered 2s x 2s submatrices and calls
eigvalsh once per chunk, so its memory grows with neither C(n, s) nor s.

The sampled tools, sampled_delta_lower_bound and check_rip_ip, draw
through one helper, _sparse_images: uniform supports from one random
permutation per draw, entries by the qcs.random rule (unit variance in
H) scaled to unit norm, and images through qlinalg._pair_product.
"""

from __future__ import annotations

import enum
import math
import time
import warnings
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import BudgetExceeded, ConditionViolated, DegenerateDelta, check_number
from .qlinalg import (QMatrix, SupportSet, _pair_product, _split_complex, adjoint,
                      complex_adjoint, matmul)
from .random import PURPOSE_RIP, RngStream, derive_stream_id, field_normals

DELTA_FLOOR = 1e-14
DEFAULT_BUDGET = 2_000_000
SQRT2 = math.sqrt(2.0)
# the most bytes of stacked Gram submatrices exact_delta gathers at once
CHUNK_BYTES = 32 << 20


class RipMethod(enum.Enum):
    EXACT_ENUMERATION = "exact_enumeration"
    SAMPLED_LOWER_BOUND = "sampled_lower_bound"


@dataclass(frozen=True)
class RipReport:
    s: int
    delta: float
    method: RipMethod
    supports_examined: int
    argmax_support: SupportSet
    elapsed: float


@dataclass(frozen=True)
class ErrorBoundConstants:
    delta2s: float
    C0: float
    C1: float


def _gram_residual_adjoint(Phi: QMatrix) -> np.ndarray:
    """Complex adjoint of Phi*Phi - Id (2n x 2n)."""
    n = Phi.shape[1]
    gram = matmul(adjoint(Phi), Phi)
    chi = complex_adjoint(gram)
    chi[np.diag_indices(2 * n)] -= 1.0
    return chi


def _enumerate_delta(chi: np.ndarray, n: int, s: int) -> tuple[float, tuple[int, ...], int]:
    """(max over size-s supports S of ||chi_S||, the first S attaining it,
    the number of supports), one stacked eigvalsh per chunk of supports.
    chi_S is the 2s x 2s principal submatrix on rows 2i, 2i+1 for i in S."""
    per_chunk = max(1, CHUNK_BYTES // (chi.itemsize * (2 * s) ** 2))
    supports = combinations(range(n), s)
    best = -1.0
    best_S: tuple[int, ...] = tuple(range(s))
    count = 0
    while True:
        S = np.fromiter(islice(supports, per_chunk), dtype=np.dtype((np.intp, s)))
        if not len(S):
            return best, best_S, count
        rows = (2 * S[:, :, None] + np.arange(2)).reshape(len(S), 2 * s)
        w = np.linalg.eigvalsh(chi[rows[:, :, None], rows[:, None, :]])
        vals = np.maximum(-w[:, 0], w[:, -1]) + 0.0
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_S = float(vals[k]), tuple(int(i) for i in S[k])
        count += len(S)


def exact_delta(Phi: QMatrix, s: int, budget: int = DEFAULT_BUDGET) -> RipReport:
    """delta_s by brute force over all C(n, s) supports of size exactly s."""
    n = Phi.shape[1]
    s = check_number(s, "s", int, 1, n)
    required = math.comb(n, s)
    if required > budget:
        raise BudgetExceeded(required, budget)
    t0 = time.perf_counter()
    chi = _gram_residual_adjoint(Phi)
    delta, best_S, count = _enumerate_delta(chi, n, s)
    return RipReport(s=s, delta=delta, method=RipMethod.EXACT_ENUMERATION,
                     supports_examined=count, argmax_support=SupportSet(best_S),
                     elapsed=time.perf_counter() - t0)


def _sparse_images(rng: RngStream, Phi: QMatrix, sizes: tuple[int, ...], trials: int):
    """Per chunk of at most 2^15 draws, one (idx, Y1, Y2) per size s in
    sizes: idx (T, s) the support of a unit s-sparse x, from consecutive
    slots of one random permutation per draw, so the sizes' supports are
    disjoint, and (Y1, Y2) the complex pair of Phi x, shape (m, T). An
    all-zero draw of entries stays zero.
    """
    m, n = Phi.shape
    P1, P2 = _split_complex(Phi.data)
    bounds = np.cumsum((0, *sizes))
    done = 0
    while done < trials:
        T = min(trials - done, 1 << 15)
        perm = np.argsort(rng.normals((T, n)), axis=1)
        chunk = []
        for lo, hi in zip(bounds, bounds[1:]):
            idx = perm[:, lo:hi]
            comp = field_normals(rng, idx.shape, 1.0)
            nrm = np.sqrt(np.sum(comp * comp, axis=(1, 2), keepdims=True))
            nrm[nrm == 0] = 1.0
            z1, z2 = _split_complex(comp / nrm)
            Y1 = np.zeros((m, T), dtype=np.complex128)
            Y2 = np.zeros((m, T), dtype=np.complex128)
            for j, cols in enumerate(idx.T):
                C1, C2 = _pair_product(P1[:, cols], P2[:, cols], z1[:, j], z2[:, j],
                                       np.multiply)
                Y1 += C1
                Y2 += C2
            chunk.append((idx, Y1, Y2))
        yield chunk
        done += T


def sampled_delta_lower_bound(Phi: QMatrix, s: int, trials: int,
                              rng: RngStream | None = None) -> RipReport:
    """max over sampled s-sparse unit x of |  ||Phi x||_2^2 - 1 |.

    A lower bound on delta_s by definition, approaching it from below as
    trials grow.
    """
    s = check_number(s, "s", int, 1, Phi.shape[1])
    trials = check_number(trials, "trials", int, 1)
    if rng is None:
        rng = RngStream(0, derive_stream_id(PURPOSE_RIP, Phi.shape[0], s, 0))
    t0 = time.perf_counter()
    best = -1.0
    best_S: tuple[int, ...] = tuple(range(s))
    for [(idx, Y1, Y2)] in _sparse_images(rng, Phi, (s,), trials):
        vals = np.abs(np.sum(np.abs(Y1) ** 2 + np.abs(Y2) ** 2, axis=0) - 1.0)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            best_S = tuple(sorted(int(i) for i in idx[k]))
    return RipReport(s=s, delta=best, method=RipMethod.SAMPLED_LOWER_BOUND,
                     supports_examined=trials, argmax_support=SupportSet(best_S),
                     elapsed=time.perf_counter() - t0)


def check_rip_ip(Phi: QMatrix, s1: int, s2: int, trials: int,
                 rng: RngStream | None = None, budget: int = DEFAULT_BUDGET) -> float:
    """max over sampled disjoint-support pairs of unit x, y of
    |<Phi x, Phi y>| / delta_{s1+s2}, which the disjoint-support bound
    keeps at or below 1."""
    s1 = check_number(s1, "s1", int, 1, Phi.shape[1] - 1)
    s2 = check_number(s2, "s2", int, 1, Phi.shape[1] - s1)
    trials = check_number(trials, "trials", int, 1)
    if rng is None:
        rng = RngStream(0, derive_stream_id(PURPOSE_RIP, Phi.shape[0], s1 + s2, 1))
    delta = exact_delta(Phi, s1 + s2, budget=budget).delta
    if delta < DELTA_FLOOR:
        warnings.warn(f"delta_{s1 + s2} = {delta:.3e} is numerically zero; "
                      "ratios are reported as 0", DegenerateDelta)
        return 0.0
    best = 0.0
    for (_, X1, X2), (_, Y1, Y2) in _sparse_images(rng, Phi, (s1, s2), trials):
        # <Phi x, Phi y> = sum_i conj(q_i) p_i, and conj(z1 + z2*j) = conj(z1) - z2*j
        I1, I2 = _pair_product(np.conj(Y1), -Y2, X1, X2, np.multiply)
        ip = np.sqrt(np.abs(I1.sum(axis=0)) ** 2 + np.abs(I2.sum(axis=0)) ** 2)
        best = max(best, float(ip.max()) / delta)
    return best


def error_constants(delta2s: float) -> ErrorBoundConstants:
    """C0 = 2(1 + (sqrt2 - 1) d) / (1 - (sqrt2 + 1) d),
    C1 = 4 sqrt(1 + d) / (1 - (sqrt2 + 1) d); requires d < sqrt2 - 1."""
    delta2s = check_number(delta2s, "delta2s", low=0.0)
    if delta2s >= SQRT2 - 1:
        raise ConditionViolated(
            f"delta2s = {delta2s} >= sqrt(2) - 1 = {SQRT2 - 1}; "
            "the recovery guarantee does not apply")
    denom = 1.0 - (SQRT2 + 1.0) * delta2s
    C0 = 2.0 * (1.0 + (SQRT2 - 1.0) * delta2s) / denom
    C1 = 4.0 * math.sqrt(1.0 + delta2s) / denom
    return ErrorBoundConstants(delta2s=delta2s, C0=C0, C1=C1)
