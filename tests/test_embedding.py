import dataclasses
import json

import numpy as np
import pytest

import oracles
from qcs.embedding import (
    RealEmbedding,
    build_embedding,
    extract_solution,
    left_mult_blocks,
    save_socp_csv,
    save_socp_json,
    socp_row_permutation,
    socp_to_json,
    unvec4,
    vec4,
)
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


# ---------------------------------------------------------------------------
# compact embedding


def test_compact_embedding_matches_reference():
    Phi, x, y = rand_instance(21, 3, 5)
    emb = build_embedding(Phi, y)
    assert emb.A_compact.shape == (12, 20)
    assert np.allclose(emb.A_compact, oracles.ref_real_matrix(Phi), atol=1e-14)


def test_compact_action_equals_matvec():
    Phi, x, y = rand_instance(22, 3, 5)
    emb = build_embedding(Phi, y)
    got = emb.A_compact @ vec4(x)
    assert np.allclose(got, vec4(matvec(Phi, x)), atol=1e-12)


def test_compact_action_bulk(np_rng):
    # many vectors through a handful of matrices
    for seed in range(5):
        Phi, _, y = rand_instance(30 + seed, 4, 6)
        emb = build_embedding(Phi, y)
        X = np_rng.standard_normal((6 * 4, 200))
        got = emb.A_compact @ X
        for t in range(0, 200, 40):
            x = unvec4(X[:, t])
            assert np.allclose(got[:, t], vec4(matvec(Phi, x)), atol=1e-12)


def test_least_squares_transfers_to_real_form():
    # solving the real system recovers the quaternion signal
    Phi, x, y = rand_instance(23, 6, 4)
    emb = build_embedding(Phi, y)
    sol, _, _, _ = np.linalg.lstsq(emb.A_compact, vec4(y), rcond=None)
    assert np.allclose(sol, vec4(x), atol=1e-8)


# ---------------------------------------------------------------------------
# cone-program layout


def test_row_permutation_is_permutation():
    perm = socp_row_permutation(7)
    assert sorted(perm) == list(range(28))
    # coordinate (i, component e) sits at component-major position e*m + i
    m = 7
    for i in range(m):
        for e in range(4):
            assert perm[4 * i + e] == e * m + i


def test_socp_t_columns_zero_and_drop():
    Phi, x, y = rand_instance(24, 3, 5)
    emb = build_embedding(Phi, y)
    assert emb.A_socp.shape == (12, 25)
    assert np.all(emb.A_socp[:, 0::5] == 0.0)
    keep = [c for c in range(25) if c % 5 != 0]
    perm = socp_row_permutation(3)
    assert np.allclose(emb.A_socp[perm][:, keep], emb.A_compact, atol=1e-14)


def test_embedding_stores_compact_layout_only():
    # the cone layout is derived on access, entry for entry from the blocks
    Phi, x, y = rand_instance(27, 3, 5)
    emb = build_embedding(Phi, y)
    arrays = {f.name for f in dataclasses.fields(emb)
              if isinstance(getattr(emb, f.name), np.ndarray)}
    assert arrays == {"A_compact", "y_compact"}
    B = left_mult_blocks(Phi)
    for i in range(3):
        for k in range(5):
            for e in range(4):
                assert np.array_equal(emb.A_socp[e * 3 + i, 5 * k + 1:5 * k + 5],
                                      B[i, k, e])
    assert np.array_equal(emb.y_tilde, y.data.T.reshape(-1))


def test_socp_objective_vector():
    Phi, x, y = rand_instance(25, 2, 4)
    emb = build_embedding(Phi, y)
    assert np.array_equal(emb.c[0::5], np.ones(4))
    mask = np.ones(20, dtype=bool)
    mask[0::5] = False
    assert np.all(emb.c[mask] == 0.0)
    # objective value at (t_k = |x_k|, x) equals the l1 norm
    z = np.zeros(20)
    for k in range(4):
        z[5 * k] = float(np.linalg.norm(x.data[k]))
        z[5 * k + 1:5 * k + 5] = x.data[k]
    assert abs(emb.c @ z - lp_norm(x, 1)) < 1e-12


def test_y_layouts_agree():
    Phi, x, y = rand_instance(26, 4, 3)
    emb = build_embedding(Phi, y)
    assert np.array_equal(emb.y_compact, vec4(y))
    perm = socp_row_permutation(4)
    assert np.array_equal(emb.y_tilde[perm], vec4(y))


# ---------------------------------------------------------------------------
# solution extraction


def test_extract_from_cone_layout():
    z = np.zeros(10)
    z[0] = 1.4     # t slot, ignored
    z[1] = 1.0     # scalar part of x_0
    z[4] = 1.0     # k part of x_0
    got = extract_solution(z)
    assert len(got) == 2
    assert got[0] == Quaternion(1, 0, 0, 1)
    assert got[1] == Quaternion(0, 0, 0, 0)


def test_extract_from_compact_layout():
    v = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
    got = extract_solution(v)
    assert got[0] == Quaternion(1, 2, 3, 4)


def test_extract_ambiguous_needs_n():
    z = np.zeros(20)
    with pytest.raises(BadLength):
        extract_solution(z)
    assert len(extract_solution(z, n=4)) == 4
    assert len(extract_solution(z, n=5)) == 5
    with pytest.raises(BadLength):
        extract_solution(z, n=3)
    with pytest.raises(BadLength):
        extract_solution(np.zeros(7))


def test_extract_inverts_vec4(np_rng):
    x = QVector(np_rng.standard_normal((5, 4)))
    assert np.array_equal(extract_solution(vec4(x), n=5).data, x.data)


# ---------------------------------------------------------------------------
# export


def test_socp_json_export(tmp_path):
    Phi, x, y = rand_instance(27, 2, 3)
    emb = build_embedding(Phi, y)
    obj = socp_to_json(emb)
    assert obj["m"] == 2 and obj["n"] == 3
    assert len(obj["cone_groups"]) == 3
    assert obj["cone_groups"][1] == [5, 6, 7, 8, 9]
    path = tmp_path / "prob.json"
    save_socp_json(emb, path)
    back = json.loads(path.read_text())
    assert back["A_shape"] == [8, 15]
    assert np.allclose(np.array(back["A"]), emb.A_socp)
    assert np.allclose(np.array(back["y_tilde"]), emb.y_tilde)


def test_socp_csv_export(tmp_path):
    Phi, x, y = rand_instance(28, 2, 3)
    emb = build_embedding(Phi, y)
    save_socp_csv(emb, tmp_path / "prob")
    A = np.loadtxt(tmp_path / "prob_A.csv", delimiter=",")
    yv = np.loadtxt(tmp_path / "prob_y.csv", delimiter=",")
    cv = np.loadtxt(tmp_path / "prob_c.csv", delimiter=",")
    assert np.allclose(A, emb.A_socp)
    assert np.allclose(yv, emb.y_tilde)
    assert np.allclose(cv, emb.c)
