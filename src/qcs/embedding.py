"""Real reformulation of the quaternion l1 problem.

Two layouts coexist and both are fixed here:

* vec4 / A_compact: coordinate-major. vec4(x) stores the four components
  of coordinate k contiguously at slots 4k..4k+3, and A_compact is the
  4m x 4n real operator with A_compact @ vec4(z) = vec4(Phi z). Its
  (i, k) block is the 4x4 left-multiplication matrix of Phi[i, k].
* A_socp / y_tilde: the cone-program data in its printed form. Rows come
  in four blocks of m (r, i, j, k components of the measurements), and
  columns in n groups of five [t_k, z_rk, z_ik, z_jk, z_kk], with the t_k
  columns identically zero inside the constraint matrix. The objective
  c picks out the t slots, so c @ z_tilde = sum_k t_k.

The two constraint matrices hold the same 4x4 blocks; they differ only
by the fixed row permutation socp_row_permutation(m) and the zero t
columns. RealEmbedding stores the compact layout, which is all the
solver reads, and derives the cone layout on access for the export.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import BadLength, DimensionMismatch
from .qlinalg import QMatrix, QVector


def left_mult_blocks(Phi: QMatrix) -> np.ndarray:
    """(m, n, 4, 4) array of per-entry real left-multiplication matrices."""
    a, b, c, d = (Phi.data[..., e] for e in range(4))
    m, n = Phi.shape
    B = np.empty((m, n, 4, 4))
    B[..., 0, 0] = a
    B[..., 0, 1] = -b
    B[..., 0, 2] = -c
    B[..., 0, 3] = -d
    B[..., 1, 0] = b
    B[..., 1, 1] = a
    B[..., 1, 2] = -d
    B[..., 1, 3] = c
    B[..., 2, 0] = c
    B[..., 2, 1] = d
    B[..., 2, 2] = a
    B[..., 2, 3] = -b
    B[..., 3, 0] = d
    B[..., 3, 1] = -c
    B[..., 3, 2] = b
    B[..., 3, 3] = a
    return B


def socp_row_permutation(m: int) -> np.ndarray:
    """perm with compact row 4i+e = cone-form row e*m+i, for all e<4, i<m."""
    i = np.arange(m)
    e = np.arange(4)
    return (e[None, :] * m + i[:, None]).ravel()


@dataclass(frozen=True)
class RealEmbedding:
    """Frozen real data for one (Phi, y) instance; the cone-program
    fields are properties computed from the compact ones."""

    A_compact: np.ndarray   # 4m x 4n, coordinate-major rows and columns
    y_compact: np.ndarray   # 4m, vec4(y), matching A_compact's row order
    m: int
    n: int

    @property
    def A_socp(self) -> np.ndarray:
        """4m x 5n, component-major rows, t columns zero."""
        m, n = self.m, self.n
        rows_by_component = (self.A_compact.reshape(m, 4, 4 * n)
                             .transpose(1, 0, 2).reshape(4 * m, 4 * n))
        A = np.zeros((4 * m, 5 * n))
        col_map = (5 * np.arange(n)[:, None] + 1 + np.arange(4)[None, :]).ravel()
        A[:, col_map] = rows_by_component
        return A

    @property
    def y_tilde(self) -> np.ndarray:
        """4m, component-major (y_r, y_i, y_j, y_k)."""
        return self.y_compact.reshape(self.m, 4).T.reshape(4 * self.m)

    @property
    def c(self) -> np.ndarray:
        """5n objective, ones at the t slots."""
        c = np.zeros(5 * self.n)
        c[0::5] = 1.0
        return c


def build_embedding(Phi: QMatrix, y: QVector) -> RealEmbedding:
    m, n = Phi.shape
    if len(y) != m:
        raise DimensionMismatch(f"y has length {len(y)}, expected {m}")
    A_compact = left_mult_blocks(Phi).transpose(0, 2, 1, 3).reshape(4 * m, 4 * n)
    return RealEmbedding(A_compact=A_compact, y_compact=vec4(y), m=m, n=n)


def vec4(x: QVector) -> np.ndarray:
    """Coordinate-major flattening (x_r1, x_i1, x_j1, x_k1, x_r2, ...)."""
    return x.data.reshape(-1).copy()


def unvec4(v: np.ndarray) -> QVector:
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size % 4:
        raise BadLength(f"length {v.size} is not a multiple of 4")
    return QVector(v.reshape(-1, 4).copy())


def extract_solution(x_tilde: np.ndarray, n: int | None = None) -> QVector:
    """Quaternion signal from a real solution vector.

    Accepts the 5n cone-program layout (t slots dropped) or the 4n
    compact layout. Lengths divisible by both 20 and 16 fit either
    reading, so n must be passed to disambiguate there.
    """
    v = np.asarray(x_tilde, dtype=np.float64).reshape(-1)
    L = v.size
    if n is not None:
        if L == 5 * n:
            groups = v.reshape(n, 5)
            return QVector(groups[:, 1:].copy())
        if L == 4 * n:
            return unvec4(v)
        raise BadLength(f"length {L} matches neither 5n nor 4n for n={n}")
    five = L % 5 == 0
    four = L % 4 == 0
    if five and four and L > 0:
        raise BadLength(f"length {L} is ambiguous (5n or 4n); pass n")
    if five and L > 0:
        return QVector(v.reshape(-1, 5)[:, 1:].copy())
    if four:
        return unvec4(v)
    raise BadLength(f"length {L} is neither 5n nor 4n")


# ---------------------------------------------------------------------------
# Cone-program data export for external cross-checks.

SOCP_SCHEMA_VERSION = 1


def socp_to_json(emb: RealEmbedding) -> dict:
    """Standard-form data: minimize c^T z s.t. A z = y_tilde, per-coordinate
    cones ||z[5k+1:5k+5]||_2 <= z[5k]."""
    return {
        "schema_version": SOCP_SCHEMA_VERSION,
        "kind": "socp",
        "m": emb.m,
        "n": emb.n,
        "A_shape": [4 * emb.m, 5 * emb.n],
        "A": emb.A_socp.tolist(),
        "y_tilde": emb.y_tilde.tolist(),
        "c": emb.c.tolist(),
        "cone_groups": [[5 * k, 5 * k + 1, 5 * k + 2, 5 * k + 3, 5 * k + 4]
                        for k in range(emb.n)],
    }


def save_socp_json(emb: RealEmbedding, path) -> None:
    with open(path, "w") as fh:
        json.dump(socp_to_json(emb), fh)


def save_socp_csv(emb: RealEmbedding, path_prefix) -> None:
    """Writes <prefix>_A.csv, <prefix>_y.csv, <prefix>_c.csv."""
    for suffix, arr in (("A", emb.A_socp), ("y", emb.y_tilde[:, None]),
                        ("c", emb.c[:, None])):
        with open(f"{path_prefix}_{suffix}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in np.atleast_2d(arr):
                writer.writerow(repr(float(v)) for v in row)
