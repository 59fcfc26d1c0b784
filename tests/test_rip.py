import math

import numpy as np
import pytest

import oracles
from qcs import rip
from qcs.errors import BudgetExceeded, ConditionViolated, DegenerateDelta
from qcs.qlinalg import (
    QMatrix,
    QVector,
    adjoint,
    complex_adjoint,
    hermitian_inner,
    lp_norm,
    matmul,
    matvec,
    submatrix,
)
from qcs.random import (
    PURPOSE_RIP,
    RngStream,
    derive_stream_id,
    sample_gaussian_matrix,
)
from qcs.rip import (
    DEFAULT_BUDGET,
    RipMethod,
    check_rip_ip,
    error_constants,
    exact_delta,
    sampled_delta_lower_bound,
)

SQRT2M1 = math.sqrt(2.0) - 1.0


def rip_instance(k, m=5, n=8):
    rng = RngStream(0, derive_stream_id(PURPOSE_RIP, m, 2, k))
    return sample_gaussian_matrix(rng, m, n, 1.0 / m)


# ---------------------------------------------------------------------------
# exact enumeration


def test_exact_delta_identity_is_zero():
    rep = exact_delta(QMatrix.identity(5), 2)
    assert rep.delta <= 1e-12
    assert rep.method is RipMethod.EXACT_ENUMERATION
    assert rep.supports_examined == math.comb(5, 2)


def test_exact_delta_scaled_identity():
    # ||(2I)_S^* (2I)_S - I|| = 3 on every support
    Phi = QMatrix.from_real(2.0 * np.eye(4))
    rep = exact_delta(Phi, 1)
    assert abs(rep.delta - 3.0) < 1e-12


def test_exact_delta_report_fields():
    Phi = rip_instance(0)
    rep = exact_delta(Phi, 2)
    assert rep.s == 2
    assert len(rep.argmax_support) == 2
    assert rep.supports_examined == math.comb(8, 2)
    assert rep.elapsed >= 0.0
    # the reported support attains the reported delta
    sub = submatrix(Phi, rep.argmax_support)
    gram = complex_adjoint(matmul(adjoint(sub), sub)) - np.eye(4)
    assert abs(float(np.abs(np.linalg.eigvalsh(gram)).max()) - rep.delta) < 1e-10


def test_exact_delta_monotone_in_s():
    # every size-(s-1) support lies in a size-s one, and the Gram
    # submatrix's eigenvalues interlace: delta_{s-1} <= delta_s. Quaternion
    # and real matrices, n <= 8, every s.
    for group, m, n, k in ((4, 4, 6, 1), (4, 3, 8, 2), (4, 5, 7, 3), (1, 4, 8, 4),
                           (1, 6, 5, 5)):
        rng = RngStream(0, derive_stream_id(PURPOSE_RIP, m, 2, k))
        Phi = sample_gaussian_matrix(rng, m, n, 1.0 / m, group)
        ds = [exact_delta(Phi, s).delta for s in range(1, n + 1)]
        for smaller, larger in zip(ds, ds[1:]):
            assert smaller <= larger + 1e-12


def test_exact_delta_argument_checks():
    Phi = rip_instance(2)
    for bad in (0, 9):
        with pytest.raises(ValueError):
            exact_delta(Phi, bad)


@pytest.mark.parametrize("s", [2.0, True, "2", np.float64(2.0)])
def test_exact_delta_refuses_s_that_is_not_an_integer(s):
    with pytest.raises(ValueError):
        exact_delta(rip_instance(2), s)


def test_budget_exceeded():
    Phi = sample_gaussian_matrix(RngStream(1, 0), 4, 30, 0.25)
    with pytest.raises(BudgetExceeded) as exc:
        exact_delta(Phi, 15)
    assert exc.value.required == math.comb(30, 15)
    assert exc.value.budget == DEFAULT_BUDGET
    # small budgets bite early
    with pytest.raises(BudgetExceeded):
        exact_delta(rip_instance(3), 2, budget=10)


def test_real_matrix_consistency():
    # for a real ensemble the quaternion enumeration reduces to the real one
    Phi = sample_gaussian_matrix(RngStream(2, 0), 6, 9, 1.0 / 6, 1)
    A = Phi.data[..., 0]
    got = exact_delta(Phi, 2).delta
    want = 0.0
    import itertools
    for S in itertools.combinations(range(9), 2):
        G = A[:, S].T @ A[:, S] - np.eye(2)
        want = max(want, float(np.abs(np.linalg.eigvalsh(G)).max()))
    assert abs(got - want) < 1e-10


def chunk_of(supports, s):
    """A CHUNK_BYTES that stacks this many supports of size s per eigvalsh."""
    return supports * 16 * (2 * s) ** 2


@pytest.mark.parametrize("group, m, n", [(4, 5, 9), (1, 6, 10)])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("per_chunk", [None, 1, 7])
def test_stacked_enumeration_matches_the_per_support_loop(monkeypatch, group, m, n, s,
                                                          per_chunk):
    # bit for bit: delta, the first support attaining it and the count, with
    # the default chunk and with chunks that the supports cross
    if per_chunk is not None:
        monkeypatch.setattr(rip, "CHUNK_BYTES", chunk_of(per_chunk, s))
    rng = RngStream(0, derive_stream_id(PURPOSE_RIP, m, s, group))
    Phi = sample_gaussian_matrix(rng, m, n, 1.0 / m, group)
    want = oracles.ref_enumerate_delta(rip._gram_residual_adjoint(Phi), n, s)
    rep = exact_delta(Phi, s)
    assert (rep.delta, rep.argmax_support.indices, rep.supports_examined) == want
    assert type(rep.delta) is float


@pytest.mark.parametrize("per_chunk", [None, 1, 2, 4])
def test_tied_supports_report_the_first(monkeypatch, per_chunk):
    if per_chunk is not None:
        monkeypatch.setattr(rip, "CHUNK_BYTES", chunk_of(per_chunk, 1))
    # orthonormal columns tie every support at delta = 0
    rep = exact_delta(QMatrix.identity(6), 3)
    assert (rep.delta, rep.argmax_support.indices) == (0.0, (0, 1, 2))
    # columns 2 and 4 of norm 2 tie at delta_1 = 3, in one chunk or two
    Phi = QMatrix.from_real(np.diag([1.0, 1.0, 2.0, 1.0, 2.0, 1.0]))
    rep = exact_delta(Phi, 1)
    assert (rep.delta, rep.argmax_support.indices) == (3.0, (2,))


# ---------------------------------------------------------------------------
# sampled lower bound


def test_sampled_is_lower_bound():
    for k in range(5):
        Phi = rip_instance(k)
        exact = exact_delta(Phi, 2).delta
        samp = sampled_delta_lower_bound(Phi, 2, 20_000)
        assert samp.method is RipMethod.SAMPLED_LOWER_BOUND
        assert samp.delta <= exact + 1e-12
        assert samp.supports_examined == 20_000


def test_sampled_approaches_exact():
    Phi = rip_instance(6)
    exact = exact_delta(Phi, 2).delta
    samp = sampled_delta_lower_bound(Phi, 2, 100_000)
    assert samp.delta >= 0.8 * exact


def test_sampled_deterministic_default_stream():
    Phi = rip_instance(7)
    a = sampled_delta_lower_bound(Phi, 2, 5_000)
    b = sampled_delta_lower_bound(Phi, 2, 5_000)
    assert a.delta == b.delta
    assert a.argmax_support.indices == b.argmax_support.indices


def test_sampled_argument_checks():
    Phi = rip_instance(8)
    with pytest.raises(ValueError):
        sampled_delta_lower_bound(Phi, 0, 10)
    with pytest.raises(ValueError):
        sampled_delta_lower_bound(Phi, 2, 0)


@pytest.mark.parametrize("trials", [True, 2.5, "10", np.float64(10.0)])
def test_sampled_tools_refuse_trials_that_are_not_an_integer(trials):
    Phi = rip_instance(8)
    with pytest.raises(ValueError):
        sampled_delta_lower_bound(Phi, 2, trials)
    with pytest.raises(ValueError):
        check_rip_ip(Phi, 1, 1, trials)


# ---------------------------------------------------------------------------
# disjoint-support inner product bound


def test_rip_ip_bound_holds():
    for k in range(5):
        Phi = rip_instance(k)
        ratio = check_rip_ip(Phi, 1, 1, 2_000)
        assert 0.0 < ratio <= 1.0 + 1e-10


def test_rip_ip_degenerate_delta_warns():
    with pytest.warns(DegenerateDelta):
        out = check_rip_ip(QMatrix.identity(4), 1, 1, 100)
    assert out == 0.0


def test_rip_ip_argument_checks():
    Phi = rip_instance(9)
    with pytest.raises(ValueError):
        check_rip_ip(Phi, 0, 1, 10)
    with pytest.raises(ValueError):
        check_rip_ip(Phi, 5, 4, 10)
    with pytest.raises(ValueError):
        check_rip_ip(Phi, 1, 1, 0)


# ---------------------------------------------------------------------------
# the sampled diagnostics replayed draw by draw through matvec and
# hermitian_inner: same RngStream, same draw order, one vector at a time


def _sparse(n, idx, comp):
    data = np.zeros((n, 4))
    data[idx] = comp
    return QVector(data)


@pytest.mark.parametrize("s", [1, 3])
def test_sampled_bound_replays_through_matvec(s):
    n, trials = 20, 300
    Phi = sample_gaussian_matrix(RngStream(3, 0), 6, n, 1.0 / 6)
    report = sampled_delta_lower_bound(Phi, s, trials, RngStream(5, s))
    rng = RngStream(5, s)
    idx = np.argsort(rng.normals((trials, n)), axis=1)[:, :s]
    comp = rng.normals((trials, s, 4), 0.5)
    vals = [abs(lp_norm(matvec(Phi, _sparse(n, i, c / np.linalg.norm(c))), 2) ** 2 - 1.0)
            for i, c in zip(idx, comp)]
    k = int(np.argmax(vals))
    assert abs(report.delta - vals[k]) <= 1e-12
    assert report.argmax_support.indices == tuple(sorted(int(i) for i in idx[k]))


@pytest.mark.parametrize("s1, s2", [(1, 2), (2, 2)])
def test_rip_ip_replays_through_hermitian_inner(s1, s2):
    n, trials = 9, 300
    Phi = sample_gaussian_matrix(RngStream(4, 0), 5, n, 1.0 / 5)
    got = check_rip_ip(Phi, s1, s2, trials, RngStream(6, s1))
    delta = exact_delta(Phi, s1 + s2).delta
    rng = RngStream(6, s1)
    perm = np.argsort(rng.normals((trials, n)), axis=1)
    cx = rng.normals((trials, s1, 4), 0.5)
    cy = rng.normals((trials, s2, 4), 0.5)
    want = max(abs(hermitian_inner(matvec(Phi, _sparse(n, p[:s1], a)),
                                   matvec(Phi, _sparse(n, p[s1:s1 + s2], b))))
               / (delta * np.linalg.norm(a) * np.linalg.norm(b))
               for p, a, b in zip(perm, cx, cy))
    assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# error-bound constants


def test_error_constants_frozen_values():
    c = error_constants(0.2)
    assert abs(c.C0 - oracles.C0_AT_02) < 1e-15
    assert abs(c.C1 - oracles.C1_AT_02) < 1e-15
    assert c.delta2s == 0.2


def test_error_constants_limits():
    c = error_constants(0.0)
    assert abs(c.C0 - 2.0) < 1e-15
    assert abs(c.C1 - 4.0) < 1e-15


def test_error_constants_monotone():
    deltas = np.linspace(0.0, SQRT2M1 - 1e-3, 30)
    cs = [error_constants(float(d)) for d in deltas]
    c0s = [c.C0 for c in cs]
    c1s = [c.C1 for c in cs]
    assert all(a < b for a, b in zip(c0s, c0s[1:]))
    assert all(a < b for a, b in zip(c1s, c1s[1:]))
    assert all(c.C0 >= 2.0 and c.C1 >= 4.0 for c in cs)


def test_error_constants_condition_violated():
    for bad in (SQRT2M1, 0.5, 1.0):
        with pytest.raises(ConditionViolated):
            error_constants(bad)
    with pytest.raises(ValueError):
        error_constants(-0.1)
    with pytest.raises(ValueError):
        error_constants(math.nan)


@pytest.mark.parametrize("delta2s", [False, "0.1", None, math.inf])
def test_error_constants_refuses_a_delta_that_is_not_a_finite_number(delta2s):
    with pytest.raises(ValueError):
        error_constants(delta2s)


# ---------------------------------------------------------------------------
# cross-checks against independent oracles


def test_delta_matches_power_iteration():
    for k in range(5):
        Phi = rip_instance(k)
        rep = exact_delta(Phi, 2)
        sub = submatrix(Phi, rep.argmax_support)
        M = complex_adjoint(matmul(adjoint(sub), sub)) - np.eye(4)
        assert abs(oracles.ref_power_opnorm(M) - rep.delta) < 1e-8


def test_near_isometry_construction_qualifies():
    # rescaled partial isometries sit well inside the delta2 < sqrt(2)-1 regime
    Phi = oracles.near_isometry_matrix(7000, 10, 12)
    raw = exact_delta(Phi, 2).delta
    assert raw <= 1.0 + 1e-12
    scaled = Phi.scale(math.sqrt(2.0 / (2.0 - raw)))
    assert exact_delta(scaled, 2).delta < SQRT2M1

