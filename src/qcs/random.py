"""Seeded, reproducible samplers for Gaussian data in R and H.

One rule draws an entry of variance sigma2 in R or in H: each of its
field's g real components (GROUP_SIZES: g = 1 for R, 4 for H) is
N(0, sigma2/g), and the other components of its quaternion slot are 0.

Every consumer owns an RngStream identified by (seed, stream_id). Streams
are backed by the counter-based Philox generator keyed through a
SeedSequence, so distinct stream_ids give statistically independent
sequences and a given id replays bit-identically regardless of how many
workers are running or in what order trials complete.

Stream ids for experiment trials are packed as

    stream_id = purpose << 56 | m << 40 | s << 24 | trial

with purpose < 2^8, m < 2^16, s < 2^16, trial < 2^24.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidVariance, SparsityOutOfRange
from .qlinalg import QMatrix, QVector, SupportSet
from .quaternion import Quaternion

PURPOSE_MATRIX = 1
PURPOSE_SIGNAL = 2
PURPOSE_NOISE = 3
PURPOSE_RATIO = 4
PURPOSE_DENSE = 5
PURPOSE_RIP = 6

_MAX_SEED = 2 ** 64

# g, the real components per entry, of each scalar mode's field
GROUP_SIZES = {"quaternion": 4, "real": 1}


class RngStream:
    """One independent Philox stream. Draws advance the stream state."""

    def __init__(self, seed: int, stream_id: int = 0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed < _MAX_SEED:
            raise ValueError(f"seed {seed} outside [0, 2^64)")
        if not 0 <= stream_id < _MAX_SEED:
            raise ValueError(f"stream_id {stream_id} outside [0, 2^64)")
        self.seed = seed
        self.stream_id = stream_id
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
        self._gen = np.random.Generator(np.random.Philox(ss))

    def child(self, stream_id: int) -> RngStream:
        """Fresh stream with the same base seed and a new id."""
        return RngStream(self.seed, stream_id)

    def normals(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def integer_below(self, bound: int) -> int:
        return int(self._gen.integers(bound))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def derive_stream_id(purpose: int, m: int = 0, s: int = 0, trial: int = 0) -> int:
    """Pack a trial coordinate into a 64-bit stream id (layout in module doc)."""
    if not 0 <= purpose < 2 ** 8:
        raise ValueError(f"purpose {purpose} needs 8 bits")
    if not 0 <= m < 2 ** 16:
        raise ValueError(f"m {m} needs 16 bits")
    if not 0 <= s < 2 ** 16:
        raise ValueError(f"s {s} needs 16 bits")
    if not 0 <= trial < 2 ** 24:
        raise ValueError(f"trial {trial} needs 24 bits")
    return purpose << 56 | m << 40 | s << 24 | trial


def trial_stream(base_seed: int, purpose: int, m: int = 0, s: int = 0,
                 trial: int = 0) -> RngStream:
    return RngStream(base_seed, derive_stream_id(purpose, m, s, trial))


def _check_variance(sigma2: float) -> None:
    if not (isinstance(sigma2, (int, float)) and math.isfinite(sigma2) and sigma2 > 0):
        raise InvalidVariance(f"sigma2 must be finite and positive, got {sigma2!r}")


def _check_group(group: int) -> None:
    if group not in GROUP_SIZES.values():
        raise ValueError(f"group size {group!r} is not in {sorted(GROUP_SIZES.values())}")


def sample_quaternion_gaussian(rng: RngStream, sigma2: float) -> Quaternion:
    """N_H(0, sigma2): four independent real components, each N(0, sigma2/4)."""
    return Quaternion(*field_normals(rng, (), sigma2))


def field_normals(rng: RngStream, shape: tuple[int, ...], sigma2: float,
                  group: int = 4) -> np.ndarray:
    """The g real components of i.i.d. entries of variance sigma2, by the
    module rule: an array of shape + (g,), each N(0, sigma2/g)."""
    _check_variance(sigma2)
    _check_group(group)
    return rng.normals((*shape, group), math.sqrt(sigma2 / group))


def _pad(c: np.ndarray) -> np.ndarray:
    """Quaternion slots holding the g components c, zero in the other 4 - g."""
    return np.pad(c, [(0, 0)] * (c.ndim - 1) + [(0, 4 - c.shape[-1])])


def sample_gaussian_matrix(rng: RngStream, m: int, n: int, sigma2: float,
                           group: int = 4) -> QMatrix:
    """m x n of i.i.d. entries of variance sigma2 in the field of group size
    g; sigma2 = 1/m normalizes columns."""
    if m < 1 or n < 1:
        raise ValueError(f"matrix shape ({m}, {n}) must be positive")
    return QMatrix(_pad(field_normals(rng, (m, n), sigma2, group)))


def sample_support(rng: RngStream, n: int, s: int) -> SupportSet:
    """Uniform s-subset of [0, n) by partial Fisher-Yates."""
    if not 0 <= s <= n:
        raise SparsityOutOfRange(f"s={s} outside [0, {n}]")
    pool = list(range(n))
    for i in range(s):
        j = i + rng.integer_below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return SupportSet(tuple(sorted(pool[:s])))


def sample_sparse_signal(rng: RngStream, n: int, s: int,
                         group: int = 4) -> tuple[QVector, SupportSet]:
    """s-sparse signal with uniform support and i.i.d. unit-variance entries
    in the field of group size g."""
    S = sample_support(rng, n, s)
    data = np.zeros((n, 4))
    data[list(S.indices), :group] = field_normals(rng, (s,), 1.0, group)
    return QVector(data), S


def sample_dense_signal(rng: RngStream, n: int, sigma2: float = 1.0,
                        group: int = 4) -> QVector:
    """Dense vector of i.i.d. entries of variance sigma2 in the field of
    group size g (no sparsity)."""
    return QVector(_pad(field_normals(rng, (n,), sigma2, group)))


def sample_sphere_noise(rng: RngStream, m: int, radius: float,
                        group: int = 4) -> QVector:
    """Uniform on the l2 sphere of the given radius in the field of group
    size g, to the power m (H^m for g = 4, R^m for g = 1); zero when
    radius=0.

    Drawing at exactly ||e||_2 = radius (rather than inside the ball)
    makes noise-bound experiments sharp: eta is the realized norm, not
    just a cap.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    _check_group(group)
    if radius == 0 or m == 0:
        return QVector.zeros(m)
    while True:
        data = rng.normals((m, group), 1.0)
        nrm = math.sqrt(float(np.sum(data * data)))
        if nrm > 0:
            return QVector(_pad(data * (radius / nrm)))
