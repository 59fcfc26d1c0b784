"""Real reformulation of the quaternion l1 problem.

One layout, coordinate-major: vec4(x) stores the four components of
coordinate k contiguously at slots 4k..4k+3, and A_compact is the
4m x 4n real operator with A_compact @ vec4(z) = vec4(Phi z). Its
(i, k) block is the 4x4 left-multiplication matrix of Phi[i, k], so a
quaternion coordinate is a group of four real slots and ||z||_1 is the
group norm sum_k ||vec4(z)_{4k:4k+4}||_2. unvec4 inverts vec4.
"""

from __future__ import annotations

import numpy as np

from .errors import BadLength, DimensionMismatch
from .qlinalg import QMatrix, QVector, quat_mul_arrays


# _UNIT_PRODUCTS[a, e] = e_a e_e for the basis units (1, i, j, k): the
# structure constants of H, every component 0 or +-1.
_UNIT_PRODUCTS = quat_mul_arrays(np.eye(4)[:, None], np.eye(4)[None, :])


def left_mult_blocks(Phi: QMatrix) -> np.ndarray:
    """(m, n, 4, 4) array of per-entry real left-multiplication matrices.

    Column e of block (i, k) is Phi[i, k] times the e-th basis unit,
    sum_a Phi[i, k]_a (e_a e_e). Each component of that sum has one
    nonzero term, +-Phi[i, k]_a, so it equals the Hamilton product
    exactly, up to the sign of a zero.
    """
    return np.tensordot(Phi.data, _UNIT_PRODUCTS, ([2], [0])).transpose(0, 1, 3, 2)


def build_embedding(Phi: QMatrix, y: QVector) -> tuple[np.ndarray, np.ndarray]:
    """(A_compact, vec4(y)): the 4m x 4n operator and the data it must hit."""
    m, n = Phi.shape
    if len(y) != m:
        raise DimensionMismatch(f"y has length {len(y)}, expected {m}")
    A_compact = left_mult_blocks(Phi).transpose(0, 2, 1, 3).reshape(4 * m, 4 * n)
    return A_compact, vec4(y)


def vec4(x: QVector) -> np.ndarray:
    """Coordinate-major flattening (x_r1, x_i1, x_j1, x_k1, x_r2, ...)."""
    return x.data.reshape(-1).copy()


def unvec4(v: np.ndarray) -> QVector:
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size % 4:
        raise BadLength(f"length {v.size} is not a multiple of 4")
    return QVector(v.reshape(-1, 4).copy())
