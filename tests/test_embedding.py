import numpy as np
import pytest

import oracles
from qcs.embedding import build_embedding, left_mult_blocks, unvec4, vec4
from qcs.errors import BadLength
from qcs.qlinalg import QMatrix, QVector, lp_norm, matvec
from qcs.quaternion import I, ONE, Quaternion
from qcs.random import RngStream, sample_gaussian_matrix, sample_dense_signal


def rand_instance(seed, m, n):
    rng = RngStream(seed, 0)
    Phi = sample_gaussian_matrix(rng, m, n, 1.0 / m)
    x = sample_dense_signal(rng.child(1), n, 1.0)
    return Phi, x, matvec(Phi, x)


# ---------------------------------------------------------------------------
# left multiplication blocks


def test_block_of_one_is_identity():
    B = left_mult_blocks(QMatrix.from_rows([[ONE]]))
    assert B.shape == (1, 1, 4, 4)
    assert np.array_equal(B[0, 0], np.eye(4))


def test_block_of_i_pinned():
    B = left_mult_blocks(QMatrix.from_rows([[I]]))[0, 0]
    want = np.array([
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ], dtype=float)
    assert np.array_equal(B, want)


def test_blocks_match_reference(np_rng):
    Phi = QMatrix(np_rng.standard_normal((3, 4, 4)))
    B = left_mult_blocks(Phi)
    for i in range(3):
        for k in range(4):
            assert np.allclose(B[i, k], oracles.ref_left_block(Phi.entry(i, k)),
                               atol=1e-14)


def test_block_transpose_is_conjugate(np_rng):
    q = Quaternion(*np_rng.standard_normal(4))
    B = oracles.ref_left_block(q)
    Bc = oracles.ref_left_block(Quaternion(q.a, -q.b, -q.c, -q.d))
    assert np.allclose(B.T, Bc, atol=1e-14)
    assert np.allclose(B.T @ B, (q.a**2 + q.b**2 + q.c**2 + q.d**2) * np.eye(4),
                       atol=1e-12)


# ---------------------------------------------------------------------------
# vec4


def test_vec4_roundtrip_and_isometry(np_rng):
    x = QVector(np_rng.standard_normal((6, 4)))
    v = vec4(x)
    assert v.shape == (24,)
    assert np.array_equal(unvec4(v).data, x.data)
    assert abs(np.linalg.norm(v) - lp_norm(x, 2)) < 1e-12
    with pytest.raises(BadLength):
        unvec4(np.zeros(11))


def test_unvec4_decodes_coordinate_major():
    v = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
    got = unvec4(v)
    assert len(got) == 2
    assert got[0] == Quaternion(1, 2, 3, 4)
    assert got[1] == Quaternion(0, 0, 0, 0)


# ---------------------------------------------------------------------------
# compact embedding


def test_compact_embedding_matches_reference():
    Phi, x, y = rand_instance(21, 3, 5)
    A, _ = build_embedding(Phi, y)
    assert A.shape == (12, 20)
    assert np.allclose(A, oracles.ref_real_matrix(Phi), atol=1e-14)


def test_compact_action_equals_matvec():
    Phi, x, y = rand_instance(22, 3, 5)
    A, _ = build_embedding(Phi, y)
    got = A @ vec4(x)
    assert np.allclose(got, vec4(matvec(Phi, x)), atol=1e-12)


def test_compact_action_bulk(np_rng):
    # many vectors through a handful of matrices
    for seed in range(5):
        Phi, _, y = rand_instance(30 + seed, 4, 6)
        A, _ = build_embedding(Phi, y)
        X = np_rng.standard_normal((6 * 4, 200))
        got = A @ X
        for t in range(0, 200, 40):
            x = unvec4(X[:, t])
            assert np.allclose(got[:, t], vec4(matvec(Phi, x)), atol=1e-12)


def test_least_squares_transfers_to_real_form():
    # solving the real system recovers the quaternion signal
    Phi, x, y = rand_instance(23, 6, 4)
    A, _ = build_embedding(Phi, y)
    sol, _, _, _ = np.linalg.lstsq(A, vec4(y), rcond=None)
    assert np.allclose(sol, vec4(x), atol=1e-8)


def test_embedding_stores_compact_layout_only():
    # two arrays: the operator, block (i, k) at rows 4i.., columns 4k..,
    # entry for entry the left-multiplication block, and vec4(y)
    Phi, x, y = rand_instance(27, 3, 5)
    built = build_embedding(Phi, y)
    assert len(built) == 2
    A, b = built
    B = left_mult_blocks(Phi)
    for i in range(3):
        for k in range(5):
            assert np.array_equal(A[4 * i:4 * i + 4, 4 * k:4 * k + 4], B[i, k])
    assert np.array_equal(b, vec4(y))


def test_y_layouts_agree():
    # the data vector is y in the coordinate-major layout of the operator rows
    Phi, x, y = rand_instance(26, 4, 3)
    A, b = build_embedding(Phi, y)
    assert b.shape == (A.shape[0],)
    assert np.array_equal(b, vec4(y))
    assert np.array_equal(unvec4(b).data, y.data)
