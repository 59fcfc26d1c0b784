import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from qcs.errors import DimensionMismatch, IndexOutOfRange, NotHermitian
from qcs.qlinalg import (
    QMatrix,
    QVector,
    SupportSet,
    adjoint,
    best_s_sparse,
    complex_adjoint,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    hermitian_inner,
    hermitian_opnorm,
    load_json,
    lp_norm,
    matmul,
    matvec,
    qmatrix_from_json,
    qmatrix_to_json,
    quat_abs_arrays,
    quat_conj_arrays,
    quat_mul_arrays,
    qvector_from_json,
    qvector_to_json,
    restrict,
    save_json,
    submatrix,
    support,
)
from qcs.quaternion import I, J, K, ONE, Quaternion, conj, mul, norm


def rand_qvector(rng, n):
    return QVector(rng.standard_normal((n, 4)))


def rand_qmatrix(rng, m, n):
    return QMatrix(rng.standard_normal((m, n, 4)))


# ---------------------------------------------------------------------------
# array helpers


def test_quat_mul_arrays_matches_scalar(np_rng):
    P = np_rng.standard_normal((200, 4))
    Q = np_rng.standard_normal((200, 4))
    R = quat_mul_arrays(P, Q)
    for i in range(200):
        want = oracles.ref_mul(Quaternion(*P[i]), Quaternion(*Q[i]))
        assert np.allclose(R[i], want.components, atol=1e-12)


def test_bulk_axioms_10k(np_rng):
    # vectorized associativity, conjugation, and norm multiplicativity
    P = np_rng.standard_normal((10_000, 4))
    Q = np_rng.standard_normal((10_000, 4))
    R = np_rng.standard_normal((10_000, 4))
    left = quat_mul_arrays(quat_mul_arrays(P, Q), R)
    right = quat_mul_arrays(P, quat_mul_arrays(Q, R))
    assert np.max(np.abs(left - right)) < 1e-8

    cpq = quat_conj_arrays(quat_mul_arrays(P, Q))
    qcpc = quat_mul_arrays(quat_conj_arrays(Q), quat_conj_arrays(P))
    assert np.max(np.abs(cpq - qcpc)) < 1e-8

    nm = quat_abs_arrays(quat_mul_arrays(P, Q))
    assert np.max(np.abs(nm - quat_abs_arrays(P) * quat_abs_arrays(Q))) < 1e-8


# ---------------------------------------------------------------------------
# containers


def test_qvector_construction():
    x = QVector.from_quaternions([ONE, I])
    assert len(x) == 2
    assert x[1] == I
    assert np.array_equal(QVector.from_real([1.0, -2.0]).data[:, 0], [1.0, -2.0])
    assert np.all(QVector.from_real([1.0, -2.0]).data[:, 1:] == 0.0)
    with pytest.raises(DimensionMismatch):
        QVector(np.zeros((3, 3)))


def test_qmatrix_construction():
    A = QMatrix.identity(3)
    assert A.shape == (3, 3)
    assert A.entry(0, 0) == ONE and A.entry(0, 1) == Quaternion(0, 0, 0, 0)
    B = QMatrix.from_rows([[I, J], [K, ONE]])
    assert B.entry(0, 1) == J
    assert B.column(0)[1] == K
    with pytest.raises(DimensionMismatch):
        QMatrix(np.zeros((2, 2)))


def test_vector_arithmetic(np_rng):
    x = rand_qvector(np_rng, 4)
    y = rand_qvector(np_rng, 4)
    assert np.allclose((x + y).data, x.data + y.data)
    assert np.allclose((x - y).data, x.data - y.data)
    assert np.allclose(x.scale(-2.5).data, -2.5 * x.data)
    with pytest.raises(DimensionMismatch):
        x + rand_qvector(np_rng, 5)


def test_right_mul_is_coordinatewise(np_rng):
    x = rand_qvector(np_rng, 5)
    q = Quaternion(*np_rng.standard_normal(4))
    y = x.right_mul(q)
    for k in range(5):
        want = mul(x[k], q)
        assert np.allclose(y.data[k], want.components, atol=1e-12)


def test_support_set_validation():
    assert SupportSet((0, 3, 7)).indices == (0, 3, 7)
    assert SupportSet.from_iterable([7, 0, 3, 3]).indices == (0, 3, 7)
    with pytest.raises(ValueError):
        SupportSet((3, 3))
    with pytest.raises(ValueError):
        SupportSet((5, 2))
    with pytest.raises(IndexOutOfRange):
        SupportSet((-1, 2))


# ---------------------------------------------------------------------------
# Hermitian form and norms


def test_hermitian_inner_pinned():
    x = QVector.from_quaternions([I])
    y = QVector.from_quaternions([J])
    # <x, y> = conj(j) i = -ji = k
    assert hermitian_inner(x, y) == K
    z = QVector.from_quaternions([Quaternion(1, 1, 0, 0), J])
    got = hermitian_inner(z, z)
    assert abs(got.a - 3.0) < 1e-14 and abs(got.b) + abs(got.c) + abs(got.d) < 1e-14


def test_hermitian_inner_conj_symmetry(np_rng):
    for _ in range(50):
        x = rand_qvector(np_rng, 6)
        y = rand_qvector(np_rng, 6)
        assert np.allclose(hermitian_inner(x, y).components,
                           conj(hermitian_inner(y, x)).components, atol=1e-12)


def test_hermitian_inner_right_linearity(np_rng):
    # <x q, y> = <x, y> q in this convention (conjugation on the second slot)
    for _ in range(50):
        x = rand_qvector(np_rng, 5)
        y = rand_qvector(np_rng, 5)
        q = Quaternion(*np_rng.standard_normal(4))
        left = hermitian_inner(x.right_mul(q), y)
        right = mul(hermitian_inner(x, y), q)
        assert np.allclose(left.components, right.components, atol=1e-10)


def test_cauchy_schwarz_bulk(np_rng):
    for _ in range(200):
        x = rand_qvector(np_rng, 7)
        y = rand_qvector(np_rng, 7)
        assert norm(hermitian_inner(x, y)) <= lp_norm(x, 2) * lp_norm(y, 2) * (1 + 1e-12)


def test_lp_norms():
    x = QVector.from_quaternions([Quaternion(3, 4, 0, 0), Quaternion(0, 0, 0, 0), ONE])
    assert lp_norm(x, 0) == 2.0
    assert abs(lp_norm(x, 1) - 6.0) < 1e-14
    assert abs(lp_norm(x, 2) - math.sqrt(26.0)) < 1e-14
    assert lp_norm(x, np.inf) == 5.0
    assert lp_norm(QVector.zeros(3), 0) == 0.0
    with pytest.raises(ValueError):
        lp_norm(x, 3)


def test_l0_is_exact():
    x = QVector(np.array([[1e-300, 0, 0, 0], [0.0, 0, 0, 0]]))
    assert lp_norm(x, 0) == 1.0
    assert support(x).indices == (0,)


def test_l2_consistent_with_inner(np_rng):
    x = rand_qvector(np_rng, 9)
    assert abs(lp_norm(x, 2) ** 2 - hermitian_inner(x, x).a) < 1e-10


# ---------------------------------------------------------------------------
# matrix algebra


def test_matvec_identity(np_rng):
    x = rand_qvector(np_rng, 4)
    assert np.allclose(matvec(QMatrix.identity(4), x).data, x.data)
    with pytest.raises(DimensionMismatch):
        matvec(QMatrix.identity(3), x)


def test_matvec_matches_scalar_loop(np_rng):
    A = rand_qmatrix(np_rng, 3, 5)
    x = rand_qvector(np_rng, 5)
    y = matvec(A, x)
    for i in range(3):
        acc = Quaternion(0, 0, 0, 0)
        for k in range(5):
            acc = acc + mul(A.entry(i, k), x[k])
        assert np.allclose(y.data[i], acc.components, atol=1e-12)


def test_matmul_associative_with_vec(np_rng):
    A = rand_qmatrix(np_rng, 3, 4)
    B = rand_qmatrix(np_rng, 4, 6)
    x = rand_qvector(np_rng, 6)
    left = matvec(matmul(A, B), x)
    right = matvec(A, matvec(B, x))
    assert np.allclose(left.data, right.data, atol=1e-10)


def test_adjoint_pinned():
    A = QMatrix.from_rows([[I]])
    assert adjoint(A).entry(0, 0) == -I
    B = QMatrix.from_rows([[Quaternion(1, 2, 3, 4), J]])
    At = adjoint(B)
    assert At.shape == (2, 1)
    assert At.entry(0, 0) == Quaternion(1, -2, -3, -4)
    assert At.entry(1, 0) == -J


def test_adjoint_reverses_products(np_rng):
    A = rand_qmatrix(np_rng, 3, 4)
    B = rand_qmatrix(np_rng, 4, 2)
    left = adjoint(matmul(A, B))
    right = matmul(adjoint(B), adjoint(A))
    assert np.allclose(left.data, right.data, atol=1e-10)


def test_adjoint_duality(np_rng):
    # <A x, y> = <x, A* y>
    A = rand_qmatrix(np_rng, 4, 3)
    x = rand_qvector(np_rng, 3)
    y = rand_qvector(np_rng, 4)
    left = hermitian_inner(matvec(A, x), y)
    right = hermitian_inner(x, matvec(adjoint(A), y))
    assert np.allclose(left.components, right.components, atol=1e-10)


def test_submatrix_and_restrict(np_rng):
    A = rand_qmatrix(np_rng, 3, 6)
    S = SupportSet((1, 4))
    sub = submatrix(A, S)
    assert sub.shape == (3, 2)
    assert np.array_equal(sub.data[:, 0], A.data[:, 1])
    x = rand_qvector(np_rng, 6)
    assert np.array_equal(restrict(x, S).data, x.data[[1, 4]])
    with pytest.raises(IndexOutOfRange):
        submatrix(A, SupportSet((0, 6)))
    with pytest.raises(IndexOutOfRange):
        restrict(x, SupportSet((7,)))


# ---------------------------------------------------------------------------
# complex adjoint and spectra


def test_complex_adjoint_pinned():
    X = complex_adjoint(QMatrix.from_rows([[J]]))
    assert np.allclose(X, np.array([[0, 1], [-1, 0]], dtype=complex))
    Xi = complex_adjoint(QMatrix.from_rows([[I]]))
    assert np.allclose(Xi, np.array([[1j, 0], [0, -1j]]))


def test_complex_adjoint_homomorphism(np_rng):
    for _ in range(100):
        A = rand_qmatrix(np_rng, 2, 3)
        B = rand_qmatrix(np_rng, 3, 2)
        assert np.allclose(complex_adjoint(matmul(A, B)),
                           complex_adjoint(A) @ complex_adjoint(B), atol=1e-10)
        assert np.allclose(complex_adjoint(adjoint(A)),
                           complex_adjoint(A).conj().T, atol=1e-12)


def test_eigenvalues_pinned():
    two_id = QMatrix.from_real(2.0 * np.eye(2))
    assert np.allclose(hermitian_eigenvalues(two_id), [2.0, 2.0])
    Psi = QMatrix.from_rows([[Quaternion(0, 0, 0, 0), I], [-I, Quaternion(0, 0, 0, 0)]])
    assert np.allclose(hermitian_eigenvalues(Psi), [-1.0, 1.0])


def test_eigenvalues_trace_identity(np_rng):
    A = rand_qmatrix(np_rng, 4, 4)
    Psi = matmul(adjoint(A), A)
    vals = hermitian_eigenvalues(Psi)
    trace = sum(Psi.entry(k, k).a for k in range(4))
    assert abs(vals.sum() - trace) < 1e-8
    assert np.all(vals >= -1e-10)


def test_not_hermitian_raises(np_rng):
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(QMatrix.from_rows([[I, J], [J, ONE]]))
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(rand_qmatrix(np_rng, 2, 3))


def test_eigensystem_reconstructs(np_rng):
    A = rand_qmatrix(np_rng, 3, 3)
    Psi = matmul(adjoint(A), A)
    vals, vecs = hermitian_eigensystem(Psi)
    assert len(vecs) == 3
    for lam, v in zip(vals, vecs):
        assert abs(lp_norm(v, 2) - 1.0) < 1e-10
        resid = matvec(Psi, v) - v.scale(lam)
        assert lp_norm(resid, 2) < 1e-8


def test_opnorm_attained_on_unit_sphere(np_rng):
    A = rand_qmatrix(np_rng, 3, 3)
    Psi = matmul(adjoint(A), A)
    nrm = hermitian_opnorm(Psi)
    vals, vecs = hermitian_eigensystem(Psi)
    k = int(np.argmax(np.abs(vals)))
    quad = hermitian_inner(matvec(Psi, vecs[k]), vecs[k])
    assert abs(abs(quad.a) - nrm) < 1e-8
    # no unit vector sampled at random beats it
    for _ in range(200):
        v = rand_qvector(np_rng, 3)
        v = v.scale(1.0 / lp_norm(v, 2))
        assert abs(hermitian_inner(matvec(Psi, v), v).a) <= nrm + 1e-10


def test_opnorm_matches_power_iteration(np_rng):
    for _ in range(10):
        A = rand_qmatrix(np_rng, 4, 4)
        Psi = matmul(adjoint(A), A) - QMatrix.from_real(np.eye(4) * 2.0)
        got = hermitian_opnorm(Psi)
        want = oracles.ref_power_opnorm(complex_adjoint(Psi))
        assert abs(got - want) < 1e-8


# ---------------------------------------------------------------------------
# best s-sparse approximation


def test_best_s_sparse_pinned():
    x = QVector.from_quaternions([Quaternion(3, 0, 0, 0), Quaternion(0, 4, 0, 0), ONE])
    kept = best_s_sparse(x, 1)
    assert support(kept).indices == (1,)
    assert lp_norm(best_s_sparse(x, 0), 0) == 0.0
    assert np.array_equal(best_s_sparse(x, 3).data, x.data)
    with pytest.raises(ValueError):
        best_s_sparse(x, 4)


def test_best_s_sparse_tie_prefers_lower_index():
    x = QVector.from_quaternions([I, Quaternion(0, 1, 0, 0), J])
    assert support(best_s_sparse(x, 1)).indices == (0,)


def test_best_s_sparse_matches_brute_force(np_rng):
    for _ in range(25):
        x = rand_qvector(np_rng, 6)
        for s in (1, 2, 3):
            got = best_s_sparse(x, s)
            want = oracles.ref_best_s_sparse(x, s)
            assert abs(lp_norm(x - got, 2) - lp_norm(x - want, 2)) < 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_vector_json_roundtrip(np_rng):
    x = rand_qvector(np_rng, 5)
    obj = qvector_to_json(x)
    assert obj["schema_version"] == 1
    back = qvector_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(back.data, x.data)


def test_matrix_json_file_roundtrip(tmp_path, np_rng):
    A = rand_qmatrix(np_rng, 3, 4)
    path = tmp_path / "mat.json"
    save_json(A, path)
    back = load_json(path)
    assert isinstance(back, QMatrix)
    assert np.array_equal(back.data, A.data)
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "mystery"}')
    with pytest.raises(ValueError):
        load_json(bad)
