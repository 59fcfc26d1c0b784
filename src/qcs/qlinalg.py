"""Dense quaternion vectors and matrices.

Storage is a float64 component array with a trailing axis of size 4
holding (a, b, c, d). Products are evaluated through the complex-pair
representation q = z1 + z2*j with z1 = a + b*i, z2 = c + d*i, which turns
a quaternion matmul into four complex matmuls. _pair_product is the one
place that formula is written; matvec, matmul, the RIP diagnostics and
the ratio test all call it. Spectral computations go
through the complex adjoint representation (an algebra homomorphism into
2m x 2n complex matrices), so Hermitian eigenvalues come from a standard
complex Hermitian eigensolver.

Vectors live in the right quaternion module: matrices act on the left,
scalars multiply coordinates on the right.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BadLength, DimensionMismatch, IndexOutOfRange, NotHermitian
from .quaternion import Quaternion

HERMITIAN_TOL = 1e-10       # max entry deviation allowed in |Psi - Psi*|
EIG_PAIR_TOL = 1e-9         # complex-adjoint eigenvalues must pair up this tightly


# ---------------------------------------------------------------------------
# Component-array helpers (shape (..., 4), broadcastable)

def quat_mul_arrays(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Elementwise Hamilton product of two (..., 4) component arrays."""
    pa, pb, pc, pd = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qa, qb, qc, qd = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        pa * qa - pb * qb - pc * qc - pd * qd,
        pa * qb + pb * qa + pc * qd - pd * qc,
        pa * qc - pb * qd + pc * qa + pd * qb,
        pa * qd + pb * qc - pc * qb + pd * qa,
    ], axis=-1)


def quat_conj_arrays(q: np.ndarray) -> np.ndarray:
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def quat_abs_arrays(q: np.ndarray) -> np.ndarray:
    """Moduli of a (..., 4) component array; result drops the last axis."""
    return np.sqrt(np.sum(q * q, axis=-1))


def _split_complex(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z1, z2) with q = z1 + z2*j."""
    return data[..., 0] + 1j * data[..., 1], data[..., 2] + 1j * data[..., 3]


def _join_complex(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)


def _pair_product(A1, A2, B1, B2, prod=np.matmul):
    """(C1, C2) with (A1 + A2*j)(B1 + B2*j) = C1 + C2*j, from j*z = conj(z)*j.

    prod multiplies the complex parts: np.matmul (the default) for matrix
    products, np.multiply for entrywise ones.
    """
    return (prod(A1, B1) - prod(A2, np.conj(B2)),
            prod(A1, B2) + prod(A2, np.conj(B1)))


# ---------------------------------------------------------------------------
# Core types

class QVector:
    """Dense quaternion vector of fixed length."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != 4:
            raise DimensionMismatch(f"expected (n, 4) components, got {data.shape}")
        self.data = data

    @classmethod
    def zeros(cls, n: int) -> QVector:
        return cls(np.zeros((n, 4)))

    @classmethod
    def from_quaternions(cls, entries) -> QVector:
        return cls(np.array([q.components for q in entries], dtype=np.float64).reshape(-1, 4))

    @classmethod
    def from_real(cls, values) -> QVector:
        values = np.asarray(values, dtype=np.float64).ravel()
        data = np.zeros((values.size, 4))
        data[:, 0] = values
        return cls(data)

    def __len__(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, i: int) -> Quaternion:
        return Quaternion(*self.data[i])

    def __add__(self, other: QVector) -> QVector:
        _check_same_length(self, other)
        return QVector(self.data + other.data)

    def __sub__(self, other: QVector) -> QVector:
        _check_same_length(self, other)
        return QVector(self.data - other.data)

    def scale(self, factor: float) -> QVector:
        """Real scalar multiple (reals commute with H)."""
        return QVector(self.data * float(factor))

    def right_mul(self, q: Quaternion) -> QVector:
        """Coordinatewise right scalar multiplication x*q."""
        qq = np.array(q.components)[None, :]
        return QVector(quat_mul_arrays(self.data, np.broadcast_to(qq, self.data.shape)))

    def copy(self) -> QVector:
        return QVector(self.data.copy())

    def __repr__(self) -> str:
        return f"QVector(n={len(self)})"


class QMatrix:
    """Dense m x n quaternion matrix (row-major component storage)."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[2] != 4:
            raise DimensionMismatch(f"expected (m, n, 4) components, got {data.shape}")
        self.data = data

    @classmethod
    def zeros(cls, m: int, n: int) -> QMatrix:
        return cls(np.zeros((m, n, 4)))

    @classmethod
    def identity(cls, n: int) -> QMatrix:
        data = np.zeros((n, n, 4))
        data[np.arange(n), np.arange(n), 0] = 1.0
        return cls(data)

    @classmethod
    def from_rows(cls, rows) -> QMatrix:
        arr = np.array([[q.components for q in row] for row in rows], dtype=np.float64)
        return cls(arr)

    @classmethod
    def from_real(cls, values) -> QMatrix:
        values = np.asarray(values, dtype=np.float64)
        data = np.zeros(values.shape + (4,))
        data[..., 0] = values
        return cls(data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[0], self.data.shape[1]

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion(*self.data[i, j])

    def column(self, j: int) -> QVector:
        return QVector(self.data[:, j].copy())

    def __add__(self, other: QMatrix) -> QMatrix:
        _check_same_shape(self, other)
        return QMatrix(self.data + other.data)

    def __sub__(self, other: QMatrix) -> QMatrix:
        _check_same_shape(self, other)
        return QMatrix(self.data - other.data)

    def scale(self, factor: float) -> QMatrix:
        return QMatrix(self.data * float(factor))

    def copy(self) -> QMatrix:
        return QMatrix(self.data.copy())

    def __repr__(self) -> str:
        return f"QMatrix(shape={self.shape})"


@dataclass(frozen=True)
class SupportSet:
    """Strictly increasing column indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 for i in idx):
            raise IndexOutOfRange(f"negative index in {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing: {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_iterable(cls, indices) -> SupportSet:
        return cls(tuple(sorted(set(int(i) for i in indices))))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def _check_same_length(x: QVector, y: QVector) -> None:
    if len(x) != len(y):
        raise DimensionMismatch(f"vector lengths differ: {len(x)} vs {len(y)}")


def _check_same_shape(a: QMatrix, b: QMatrix) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"matrix shapes differ: {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# Hermitian form and norms

def hermitian_inner(x: QVector, y: QVector) -> Quaternion:
    """<x, y> = y* x = sum_i conj(y_i) x_i (quaternion valued, order matters)."""
    _check_same_length(x, y)
    terms = quat_mul_arrays(quat_conj_arrays(y.data), x.data)
    return Quaternion(*terms.sum(axis=0))


def lp_norm(x: QVector, p) -> float:
    """l_p norm over quaternion moduli for p in {0, 1, 2, inf}.

    l_0 counts entries with |x_i| > 0 exactly (no tolerance).
    """
    if p == 0:
        return float(np.count_nonzero(np.any(x.data != 0.0, axis=1)))
    moduli = quat_abs_arrays(x.data)
    if p == 1:
        return float(moduli.sum())
    if p == 2:
        return float(np.sqrt(np.sum(x.data * x.data)))
    if p == np.inf or p == "inf":
        return float(moduli.max()) if moduli.size else 0.0
    raise ValueError(f"unsupported p: {p!r}")


def support(x: QVector) -> SupportSet:
    """Indices of the exactly-nonzero coordinates."""
    nz = np.nonzero(np.any(x.data != 0.0, axis=1))[0]
    return SupportSet(tuple(int(i) for i in nz))


# ---------------------------------------------------------------------------
# Matrix algebra

def matvec(A: QMatrix, x: QVector) -> QVector:
    """A @ x in the right-module convention: (Ax)_i = sum_k a_ik x_k."""
    m, n = A.shape
    if n != len(x):
        raise DimensionMismatch(f"matvec shapes: {A.shape} @ {len(x)}")
    y1, y2 = _pair_product(*_split_complex(A.data), *_split_complex(x.data))
    return QVector(_join_complex(y1, y2))


def matmul(A: QMatrix, B: QMatrix) -> QMatrix:
    ma, na = A.shape
    mb, nb = B.shape
    if na != mb:
        raise DimensionMismatch(f"matmul shapes: {A.shape} @ {B.shape}")
    C1, C2 = _pair_product(*_split_complex(A.data), *_split_complex(B.data))
    return QMatrix(_join_complex(C1, C2))


def adjoint(A: QMatrix) -> QMatrix:
    """Conjugate transpose A*."""
    return QMatrix(quat_conj_arrays(np.transpose(A.data, (1, 0, 2))))


def submatrix(A: QMatrix, S: SupportSet) -> QMatrix:
    """Columns of A selected by S, in S order."""
    m, n = A.shape
    if any(i >= n for i in S.indices):
        raise IndexOutOfRange(f"support {S.indices} exceeds {n} columns")
    return QMatrix(A.data[:, list(S.indices)].copy())


def restrict(x: QVector, S: SupportSet) -> QVector:
    """Coordinates of x selected by S, in S order (length |S|)."""
    if any(i >= len(x) for i in S.indices):
        raise IndexOutOfRange(f"support {S.indices} exceeds length {len(x)}")
    return QVector(x.data[list(S.indices)].copy())


# ---------------------------------------------------------------------------
# Complex adjoint representation and Hermitian spectral theory

def complex_adjoint(A: QMatrix) -> np.ndarray:
    """2m x 2n complex matrix, entrywise blocks [[z1, z2], [-conj(z2), conj(z1)]].

    The map is an algebra homomorphism: products and adjoints commute with it.
    """
    m, n = A.shape
    Z1, Z2 = _split_complex(A.data)
    out = np.empty((2 * m, 2 * n), dtype=np.complex128)
    out[0::2, 0::2] = Z1
    out[0::2, 1::2] = Z2
    out[1::2, 0::2] = -np.conj(Z2)
    out[1::2, 1::2] = np.conj(Z1)
    return out


def _check_hermitian(Psi: QMatrix) -> None:
    m, n = Psi.shape
    if m != n:
        raise NotHermitian(f"matrix is not square: {Psi.shape}")
    dev = quat_abs_arrays(Psi.data - adjoint(Psi).data).max() if n else 0.0
    if dev > HERMITIAN_TOL:
        raise NotHermitian(f"max |Psi - Psi*| entry deviation {dev:.3e} > {HERMITIAN_TOL}")


def _collapse_pairs(w: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the complex adjoint come in coincident pairs."""
    even, odd = w[0::2], w[1::2]
    gap = np.abs(even - odd).max() if even.size else 0.0
    if gap > EIG_PAIR_TOL:
        raise ArithmeticError(
            f"complex-adjoint eigenvalues failed to pair within {EIG_PAIR_TOL} (gap {gap:.3e})"
        )
    return even


def hermitian_eigenvalues(Psi: QMatrix) -> np.ndarray:
    """The n real right eigenvalues of a Hermitian matrix, ascending.

    Computed as the eigenvalues of the 2n x 2n complex adjoint; each occurs
    with even multiplicity and one representative per pair is returned.
    """
    _check_hermitian(Psi)
    w = np.linalg.eigvalsh(complex_adjoint(Psi))
    return _collapse_pairs(w)


def hermitian_eigensystem(Psi: QMatrix) -> tuple[np.ndarray, list[QVector]]:
    """Eigenvalues (ascending) plus unit quaternion eigenvectors.

    A complex eigenvector v of the adjoint maps back to the quaternion
    vector with coordinates x_k = v[2k] + (-conj(v[2k+1]))*j.
    """
    _check_hermitian(Psi)
    w, V = np.linalg.eigh(complex_adjoint(Psi))
    vals = _collapse_pairs(w)
    vectors = []
    for idx in range(0, len(w), 2):
        v = V[:, idx]
        z1 = v[0::2]
        z2 = -np.conj(v[1::2])
        vectors.append(QVector(_join_complex(z1, z2)))
    return vals, vectors


def hermitian_opnorm(Psi: QMatrix) -> float:
    """Operator norm of a Hermitian matrix: max |eigenvalue|."""
    vals = hermitian_eigenvalues(Psi)
    return float(np.abs(vals).max()) if vals.size else 0.0


def best_s_sparse(x: QVector, s: int) -> QVector:
    """Keep the s largest-modulus coordinates, ties broken toward lower index."""
    n = len(x)
    if not 0 <= s <= n:
        raise ValueError(f"s={s} outside [0, {n}]")
    moduli = quat_abs_arrays(x.data)
    keep = np.argsort(-moduli, kind="stable")[:s]
    out = np.zeros_like(x.data)
    out[keep] = x.data[keep]
    return QVector(out)


# ---------------------------------------------------------------------------
# JSON / CSV interfaces: entries are [a, b, c, d] quadruples, row-major.

SCHEMA_VERSION = 1


def qvector_to_json(x: QVector) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "qvector",
        "length": len(x),
        "data": x.data.tolist(),
    }


def _payload_fields(obj, kind: str, *keys: str) -> list:
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        raise ValueError(f"a {kind} payload is a JSON object with keys {', '.join(keys)}")
    return [obj[k] for k in keys]


def qvector_from_json(obj: dict) -> QVector:
    length, data = _payload_fields(obj, "qvector", "length", "data")
    data = np.asarray(data, dtype=np.float64)
    if data.shape != (int(length), 4):
        raise BadLength(f"payload shape {data.shape} != ({length}, 4)")
    return QVector(data)


def qmatrix_to_json(A: QMatrix) -> dict:
    m, n = A.shape
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "qmatrix",
        "shape": [m, n],
        "data": A.data.reshape(m * n, 4).tolist(),
    }


def qmatrix_from_json(obj: dict) -> QMatrix:
    shape, data = _payload_fields(obj, "qmatrix", "shape", "data")
    if np.shape(shape) != (2,):
        raise BadLength(f"shape {shape!r} is not [m, n]")
    m, n = (int(v) for v in shape)
    data = np.asarray(data, dtype=np.float64)
    if data.shape != (m * n, 4):
        raise BadLength(f"payload shape {data.shape} != ({m * n}, 4)")
    return QMatrix(data.reshape(m, n, 4))


def save_json(obj, path) -> None:
    payload = obj
    if isinstance(obj, QVector):
        payload = qvector_to_json(obj)
    elif isinstance(obj, QMatrix):
        payload = qmatrix_to_json(obj)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_json(path):
    with open(path) as fh:
        obj = json.load(fh)
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in ("qvector", "qmatrix"):
        raise ValueError(f"unknown payload kind {kind!r} in {path}")
    try:
        return qvector_from_json(obj) if kind == "qvector" else qmatrix_from_json(obj)
    except TypeError as exc:
        # a field of the wrong JSON type, such as "shape": [null, 2]
        raise ValueError(f"malformed {kind} payload in {path}: {exc}") from exc

