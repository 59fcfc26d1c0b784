"""Real reformulation of the quaternion l1 problem.

One layout, coordinate-major: vec4(x) stores the four components of
coordinate k contiguously at slots 4k..4k+3, and A_compact is the
4m x 4n real operator with A_compact @ vec4(z) = vec4(Phi z). Its
(i, k) block is the 4x4 left-multiplication matrix of Phi[i, k], so a
quaternion coordinate is a group of four real slots and ||z||_1 is the
group norm sum_k ||vec4(z)_{4k:4k+4}||_2. unvec4 inverts vec4.

A_compact holds each component of Phi four times. The solver's loop
never forms it: it keeps F = component_rows(Phi), the 4m x n array with
F[4i + a, k] = Phi[i, k]_a, and applies A_compact through the structure
constants of H (PRODUCT_TABLE, ADJOINT_TABLE and compact_gram below).
build_embedding is the layout reference for the solver's
least-squares gap and for the tests, not for the loop; compact_operator
on a subset of Phi's columns gives the solver's polish exactly those
columns of A_compact.
"""

from __future__ import annotations

import numpy as np

from .errors import BadLength, DimensionMismatch
from .qlinalg import QMatrix, QVector, quat_mul_arrays


# _UNIT_PRODUCTS[a, e] = e_a e_e for the basis units (1, i, j, k): the
# structure constants of H, every component 0 or +-1.
_UNIT_PRODUCTS = quat_mul_arrays(np.eye(4)[:, None], np.eye(4)[None, :])

# The products with A_compact from F, for v = vec4(z) and t = vec4(w):
# T = F @ v.reshape(n, 4) is (4m, 4) with T[4i + a, b] = sum_k Phi[i, k]_a z_kb,
# and vec4(Phi z) = T.reshape(m, 16) @ PRODUCT_TABLE. W = t.reshape(m, 4) @
# ADJOINT_TABLE is (m, 16), and vec4(Phi* w) = F.T @ W.reshape(4m, 4).
PRODUCT_TABLE = _UNIT_PRODUCTS.reshape(16, 4)
ADJOINT_TABLE = np.ascontiguousarray(_UNIT_PRODUCTS.transpose(2, 0, 1).reshape(4, 16))
# _GRAM_TABLE[(a, b), (c, d)] = sum_e (e_a e_e)_c (e_b e_e)_d
_GRAM_TABLE = np.einsum("aec,bed->abcd", _UNIT_PRODUCTS, _UNIT_PRODUCTS).reshape(16, 16)


def component_rows(Phi: QMatrix) -> np.ndarray:
    """F, the 4m x n array of Phi's components: F[4i + a, k] = Phi[i, k]_a."""
    m, n = Phi.shape
    return Phi.data.transpose(0, 2, 1).reshape(4 * m, n)


def compact_gram(F: np.ndarray) -> np.ndarray:
    """A_compact A_compact^T (4m x 4m) from F = component_rows(Phi).

    K = F F^T holds sum_k Phi[i, k]_a Phi[j, k]_b at (4i + a, 4j + b).
    Each 4x4 block of K, indexed by (a, b), maps to the block of the
    Gram, indexed by (c, d), through _GRAM_TABLE: one (m^2 x 16) @
    (16 x 16) product.
    """
    m = F.shape[0] // 4
    K = F @ F.T
    blocks = K.reshape(m, 4, m, 4).transpose(0, 2, 1, 3).reshape(m * m, 16)
    G = (blocks @ _GRAM_TABLE).reshape(m, m, 4, 4).transpose(0, 2, 1, 3)
    return G.reshape(4 * m, 4 * m)


def left_mult_blocks(Phi: QMatrix) -> np.ndarray:
    """(m, n, 4, 4) array of per-entry real left-multiplication matrices.

    Column e of block (i, k) is Phi[i, k] times the e-th basis unit,
    sum_a Phi[i, k]_a (e_a e_e). Each component of that sum has one
    nonzero term, +-Phi[i, k]_a, so it equals the Hamilton product
    exactly, up to the sign of a zero.
    """
    return np.tensordot(Phi.data, _UNIT_PRODUCTS, ([2], [0])).transpose(0, 1, 3, 2)


def compact_operator(Phi: QMatrix) -> np.ndarray:
    """A_compact, the 4m x 4n real operator of Phi."""
    m, n = Phi.shape
    return left_mult_blocks(Phi).transpose(0, 2, 1, 3).reshape(4 * m, 4 * n)


def build_embedding(Phi: QMatrix, y: QVector) -> tuple[np.ndarray, np.ndarray]:
    """(A_compact, vec4(y)): the 4m x 4n operator and the data it must hit."""
    m, n = Phi.shape
    if len(y) != m:
        raise DimensionMismatch(f"y has length {len(y)}, expected {m}")
    return compact_operator(Phi), vec4(y)


def vec4(x: QVector) -> np.ndarray:
    """Coordinate-major flattening (x_r1, x_i1, x_j1, x_k1, x_r2, ...)."""
    return x.data.reshape(-1).copy()


def unvec4(v: np.ndarray) -> QVector:
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size % 4:
        raise BadLength(f"length {v.size} is not a multiple of 4")
    return QVector(v.reshape(-1, 4).copy())
