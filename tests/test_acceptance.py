"""Desk-scale acceptance suite.

Each test prints one PASS/FAIL line (run with -s to see them) and asserts
the same condition, so the suite doubles as a checklist:

  1. perfect-recovery rate at n=256, m=32, s=9
  2. perfect-recovery rate at n=256, m=64, s=20
  3. quaternion-vs-real recovery gap at m=32, s=12
  4. measurement-ratio statistic against Gamma(2m, 2m)
  5. enumerated delta_2 vs sampled supremum and power iteration
  6. disjoint-support inner-product bound
  7. l2 error bound soundness on certified-delta instances
  8. bulk algebra / Hermitian-form / embedding property suites
  9. solver unit contract (shrinkage closed forms, 1-sparse recovery)
"""
import math

import numpy as np
import pytest

import oracles
from qcs import harness
from qcs.embedding import build_embedding, vec4
from qcs.qlinalg import (
    QMatrix,
    QVector,
    adjoint,
    best_s_sparse,
    complex_adjoint,
    hermitian_eigensystem,
    hermitian_inner,
    hermitian_opnorm,
    lp_norm,
    matmul,
    matvec,
    quat_abs_arrays,
    quat_conj_arrays,
    quat_mul_arrays,
    submatrix,
)
from qcs.quaternion import Quaternion, conj, mul, norm
from qcs.random import (
    PURPOSE_MATRIX,
    PURPOSE_RIP,
    PURPOSE_SIGNAL,
    RngStream,
    derive_stream_id,
    sample_dense_signal,
    sample_gaussian_matrix,
    sample_sparse_signal,
    sample_sphere_noise,
    trial_stream,
)
from qcs.rip import check_rip_ip, error_constants, exact_delta, sampled_delta_lower_bound
from qcs.solver import RecoveryProblem, SolverParams, block_soft_threshold, solve

SQRT2M1 = math.sqrt(2.0) - 1.0


def report(num: int, desc: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} {desc}: {detail} -> {'PASS' if ok else 'FAIL'}"
    print(line, flush=True)
    assert ok, line


def recovery_rate(tmp_path, tag, n, m, s, trials, mode="quaternion"):
    config = harness.ExperimentConfig(
        n=n, m_values=(m,), s_rule=(s,), trials=trials, base_seed=0,
        scalar_mode=mode, out_dir=str(tmp_path / tag))
    return harness.run_sweep(config).rates[(m, s)]


def test_criterion_1_recovery_rate_m32(tmp_path):
    rate = recovery_rate(tmp_path, "c1", 256, 32, 9, 200)
    report(1, "recovery rate n=256 m=32 s=9 (200 trials)",
           rate >= 0.93, f"rate {rate:.3f} >= 0.93")


def test_criterion_2_recovery_rate_m64(tmp_path):
    rate = recovery_rate(tmp_path, "c2", 256, 64, 20, 100)
    report(2, "recovery rate n=256 m=64 s=20 (100 trials)",
           rate >= 0.90, f"rate {rate:.3f} >= 0.90")


def test_criterion_3_quaternion_beats_real(tmp_path):
    q = recovery_rate(tmp_path, "c3q", 256, 32, 12, 200, mode="quaternion")
    r = recovery_rate(tmp_path, "c3r", 256, 32, 12, 200, mode="real")
    gap = q - r
    report(3, "quaternion-vs-real gap m=32 s=12 (200 trials each)",
           gap >= 0.10, f"quaternion {q:.3f} vs real {r:.3f}, gap {gap:+.3f} >= 0.10")


def test_criterion_4_ratio_statistic():
    out = harness.run_ratio_test(16, 20_000)
    mean_ok = abs(out["mean"] - 1.0) <= 0.01
    var_ok = abs(out["variance"] - 1.0 / 32.0) <= 0.1 / 32.0
    ks_ok = out["ks_distance_to_gamma"] < 0.02
    report(4, "ratio statistic m=16 (2e4 samples)",
           mean_ok and var_ok and ks_ok,
           f"mean {out['mean']:.4f}, var {out['variance']:.5f} "
           f"(target {1 / 32:.5f}), KS {out['ks_distance_to_gamma']:.4f}")


def rip_instances():
    for k in range(20):
        rng = RngStream(0, derive_stream_id(PURPOSE_RIP, 5, 2, k))
        yield sample_gaussian_matrix(rng, 5, 8, 1.0 / 5)


def test_criterion_5_delta_oracle_equivalence():
    worst_gap = 0.0
    worst_pi = 0.0
    for Phi in rip_instances():
        rep = exact_delta(Phi, 2)
        samp = sampled_delta_lower_bound(Phi, 2, 10**6)
        assert samp.delta <= rep.delta + 1e-12
        worst_gap = max(worst_gap, (rep.delta - samp.delta) / rep.delta)
        sub = submatrix(Phi, rep.argmax_support)
        M = complex_adjoint(matmul(adjoint(sub), sub)) - np.eye(4)
        worst_pi = max(worst_pi, abs(oracles.ref_power_opnorm(M) - rep.delta))
    report(5, "delta_2 enumeration vs sampled supremum and power iteration "
              "(20 instances, 1e6 samples)",
           worst_gap <= 0.05 and worst_pi <= 1e-8,
           f"max sampling gap {worst_gap:.4%} <= 5%, "
           f"max power-iteration diff {worst_pi:.2e} <= 1e-8")


def test_criterion_6_disjoint_support_bound():
    worst = 0.0
    for Phi in rip_instances():
        worst = max(worst, check_rip_ip(Phi, 1, 1, 10**5))
    report(6, "disjoint-support inner products s1=s2=1 (20 x 1e5 pairs)",
           worst <= 1.0 + 1e-10, f"max ratio {worst:.6f} <= 1 + 1e-10")


def certified_instances(count=20, m=10, n=12):
    """Rescaled partial isometries whose exact delta_2 clears the
    sqrt(2)-1 condition; random Gaussian draws at this aspect ratio do
    not, so the instances are constructed rather than filtered."""
    found = []
    seed = 0
    while len(found) < count and seed < 3 * count:
        Phi = oracles.near_isometry_matrix(7000 + seed, m, n)
        raw = exact_delta(Phi, 2).delta
        Phi = Phi.scale(math.sqrt(2.0 / (2.0 - raw)))
        delta = exact_delta(Phi, 2).delta
        if delta < SQRT2M1:
            found.append((seed, Phi, delta))
        seed += 1
    return found


def test_criterion_7_error_bound_soundness():
    instances = certified_instances()
    assert len(instances) == 20
    n, s = 12, 1
    violations = []
    worst_ratio = 0.0
    for seed, Phi, delta in instances:
        consts = error_constants(delta)
        x = sample_dense_signal(RngStream(7100 + seed, 0), n, 1.0)
        tail1 = lp_norm(x - best_s_sparse(x, s), 1)
        y0 = matvec(Phi, x)
        for eta in (0.0, 0.01, 0.1):
            y = y0
            if eta > 0:
                y = y0 + sample_sphere_noise(
                    RngStream(7200 + seed, int(eta * 1000)), 10, eta)
            res = solve(RecoveryProblem(Phi=Phi, y=y, eta=eta))
            err2 = lp_norm(res.x_hat - x, 2)
            rhs = consts.C0 / math.sqrt(s) * tail1 + consts.C1 * eta
            worst_ratio = max(worst_ratio, err2 / rhs)
            if err2 > rhs:
                violations.append((seed, eta, "main"))
            if eta == 0.0:
                err1 = lp_norm(res.x_hat - x, 1)
                if err1 > consts.C0 * tail1:
                    violations.append((seed, eta, "exact-l1"))
                if err2 > consts.C0 / math.sqrt(s) * tail1:
                    violations.append((seed, eta, "exact-l2"))
    report(7, "error bound soundness (20 certified instances, "
              "eta in {0, 0.01, 0.1})",
           not violations,
           f"0 violations in 60 runs, worst LHS/RHS {worst_ratio:.3f}"
           if not violations else f"violations: {violations[:3]}")


def test_criterion_8_property_suites(np_rng):
    cases = 10_000
    failures = []

    # quaternion axioms
    P = np_rng.standard_normal((cases, 4))
    Q = np_rng.standard_normal((cases, 4))
    R = np_rng.standard_normal((cases, 4))
    assoc = np.max(np.abs(quat_mul_arrays(quat_mul_arrays(P, Q), R)
                          - quat_mul_arrays(P, quat_mul_arrays(Q, R))))
    conj_anti = np.max(np.abs(quat_conj_arrays(quat_mul_arrays(P, Q))
                              - quat_mul_arrays(quat_conj_arrays(Q),
                                                quat_conj_arrays(P))))
    norm_mult = np.max(np.abs(quat_abs_arrays(quat_mul_arrays(P, Q))
                              - quat_abs_arrays(P) * quat_abs_arrays(Q)))
    if max(assoc, conj_anti, norm_mult) > 1e-8:
        failures.append(f"axioms {max(assoc, conj_anti, norm_mult):.2e}")

    # Hermitian form: conjugate symmetry, right linearity, positivity,
    # Cauchy-Schwarz
    worst_sym = worst_lin = worst_pos = worst_cs = 0.0
    for _ in range(cases):
        x = QVector(np_rng.standard_normal((5, 4)))
        y = QVector(np_rng.standard_normal((5, 4)))
        q = Quaternion(*np_rng.standard_normal(4))
        ip_xy = hermitian_inner(x, y)
        ip_yx = hermitian_inner(y, x)
        worst_sym = max(worst_sym, max(abs(a - b) for a, b in
                                       zip(ip_xy.components, conj(ip_yx).components)))
        lin = hermitian_inner(x.right_mul(q), y)
        want = mul(ip_xy, q)
        worst_lin = max(worst_lin, max(abs(a - b) for a, b in
                                       zip(lin.components, want.components)))
        ip_xx = hermitian_inner(x, x)
        worst_pos = max(worst_pos,
                        abs(ip_xx.a - lp_norm(x, 2) ** 2),
                        abs(ip_xx.b), abs(ip_xx.c), abs(ip_xx.d))
        worst_cs = max(worst_cs,
                       norm(ip_xy) - lp_norm(x, 2) * lp_norm(y, 2))
    if worst_sym > 1e-8 or worst_lin > 1e-8 or worst_pos > 1e-8:
        failures.append(f"hermitian form {max(worst_sym, worst_lin, worst_pos):.2e}")
    if worst_cs > 1e-8:
        failures.append(f"cauchy-schwarz excess {worst_cs:.2e}")

    # complex-adjoint homomorphism on matrix products
    worst_hom = 0.0
    for _ in range(cases):
        A = QMatrix(np_rng.standard_normal((2, 2, 4)))
        B = QMatrix(np_rng.standard_normal((2, 2, 4)))
        d = np.max(np.abs(complex_adjoint(matmul(A, B))
                          - complex_adjoint(A) @ complex_adjoint(B)))
        worst_hom = max(worst_hom, float(d))
    if worst_hom > 1e-8:
        failures.append(f"homomorphism {worst_hom:.2e}")

    # operator norm attained as a Hermitian quadratic form on the sphere
    worst_att = 0.0
    worst_exceed = 0.0
    for _ in range(cases):
        A = QMatrix(np_rng.standard_normal((2, 2, 4)))
        Psi = matmul(adjoint(A), A)
        nrm = hermitian_opnorm(Psi)
        vals, vecs = hermitian_eigensystem(Psi)
        k = int(np.argmax(np.abs(vals)))
        attained = abs(hermitian_inner(matvec(Psi, vecs[k]), vecs[k]).a)
        worst_att = max(worst_att, abs(attained - nrm))
        probe = QVector(np_rng.standard_normal((2, 4)))
        probe = probe.scale(1.0 / lp_norm(probe, 2))
        quad = abs(hermitian_inner(matvec(Psi, probe), probe).a)
        worst_exceed = max(worst_exceed, quad - nrm)
    if worst_att > 1e-8 or worst_exceed > 1e-10:
        failures.append(f"norm attainment {max(worst_att, worst_exceed):.2e}")

    # real embedding intertwines the action
    worst_emb = 0.0
    for mat in range(100):
        Phi = QMatrix(np_rng.standard_normal((4, 6, 4)))
        A, _ = build_embedding(Phi, QVector.zeros(4))
        for _ in range(100):
            z = QVector(np_rng.standard_normal((6, 4)))
            d = np.max(np.abs(A @ vec4(z) - vec4(matvec(Phi, z))))
            worst_emb = max(worst_emb, float(d))
    if worst_emb > 1e-8:
        failures.append(f"embedding {worst_emb:.2e}")

    report(8, "property suites (6 suites x 1e4 cases)",
           not failures,
           "all within 1e-8" if not failures else "; ".join(failures))


def test_criterion_9_solver_unit_contract():
    v = np.array([3.0, 4.0, 0.0, 0.0])
    closed_forms = (
        np.allclose(block_soft_threshold(v, 1.0), [2.4, 3.2, 0.0, 0.0])
        and np.array_equal(block_soft_threshold(v, 5.0), np.zeros(4))
        and np.array_equal(block_soft_threshold(np.zeros(4), 1.0), np.zeros(4))
        and np.array_equal(block_soft_threshold(v, 0.0), v)
    )
    perfect = 0
    for trial in range(100):
        Phi = sample_gaussian_matrix(
            trial_stream(0, PURPOSE_MATRIX, 6, 1, trial), 6, 8, 1.0 / 6)
        x, _ = sample_sparse_signal(
            trial_stream(0, PURPOSE_SIGNAL, 6, 1, trial), 8, 1)
        res = solve(RecoveryProblem(Phi=Phi, y=matvec(Phi, x), eta=0.0))
        if lp_norm(res.x_hat - x, 2) <= 1e-7:
            perfect += 1
    report(9, "solver unit contract (shrinkage closed forms, "
              "1-sparse n=8 m=6 x100)",
           closed_forms and perfect >= 99,
           f"closed forms {'ok' if closed_forms else 'BAD'}, "
           f"perfect {perfect}/100 >= 99")
