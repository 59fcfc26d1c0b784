import math

import numpy as np
import pytest

from qcs.errors import InvalidVariance, SparsityOutOfRange
from qcs.qlinalg import lp_norm, support
from qcs.random import (
    GROUP_SIZES,
    PURPOSE_MATRIX,
    PURPOSE_SIGNAL,
    RngStream,
    derive_stream_id,
    sample_dense_signal,
    sample_gaussian_matrix,
    sample_quaternion_gaussian,
    sample_sparse_signal,
    sample_sphere_noise,
    sample_support,
    trial_stream,
)


def test_stream_id_packing():
    sid = derive_stream_id(3, 32, 9, 41)
    assert sid == (3 << 56) | (32 << 40) | (9 << 24) | 41
    assert derive_stream_id(0) == 0
    # field boundaries
    derive_stream_id(255, 65535, 65535, 2**24 - 1)
    for bad in [dict(purpose=256), dict(purpose=-1), dict(purpose=1, m=65536),
                dict(purpose=1, s=65536), dict(purpose=1, trial=2**24),
                dict(purpose=1, m=2.5), dict(purpose=1, m=True)]:
        with pytest.raises(ValueError):
            derive_stream_id(**{"purpose": 0, **bad})


def test_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)
    s = RngStream(7, 3)
    assert s.child(9).stream_id == 9 and s.child(9).seed == 7


@pytest.mark.parametrize("seed, stream_id", [(2.5, 0), (True, 0), ("3", 0), (0, 2.5),
                                             (0, False), (np.float64(2.0), 0)])
def test_stream_refuses_ids_that_are_not_integers(seed, stream_id):
    with pytest.raises(ValueError):
        RngStream(seed, stream_id)


def test_stream_takes_numpy_integers():
    s = RngStream(np.uint64(2 ** 64 - 1), np.int32(3))
    assert type(s.seed) is int and type(s.stream_id) is int
    assert np.array_equal(s.normals(4), RngStream(2 ** 64 - 1, 3).normals(4))


def test_replay_determinism():
    a = trial_stream(11, PURPOSE_MATRIX, 4, 2, 0).normals((3, 4))
    b = trial_stream(11, PURPOSE_MATRIX, 4, 2, 0).normals((3, 4))
    assert np.array_equal(a, b)
    c = trial_stream(11, PURPOSE_MATRIX, 4, 2, 1).normals((3, 4))
    assert not np.array_equal(a, c)
    d = trial_stream(11, PURPOSE_SIGNAL, 4, 2, 0).normals((3, 4))
    assert not np.array_equal(a, d)
    e = trial_stream(12, PURPOSE_MATRIX, 4, 2, 0).normals((3, 4))
    assert not np.array_equal(a, e)


def test_variance_validation():
    rng = RngStream(0, 0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidVariance):
            sample_quaternion_gaussian(rng, bad)
        with pytest.raises(InvalidVariance):
            sample_gaussian_matrix(rng, 2, 2, bad)
    # a shape must be a positive integer, not a float or a bool
    for m, n in ((2.5, 4), (2, 0), (True, 4), (2, "4")):
        with pytest.raises(ValueError):
            sample_gaussian_matrix(rng, m, n, 0.25)
    with pytest.raises(ValueError):
        sample_dense_signal(rng, 3.0)


@pytest.mark.parametrize("group", [4, 1])
def test_variance_takes_numpy_numbers(group):
    want = sample_gaussian_matrix(RngStream(0, 0), 3, 4, 0.25, group)
    for sigma2 in (np.float32(0.25), np.float64(0.25)):
        got = sample_gaussian_matrix(RngStream(0, 0), 3, 4, sigma2, group)
        assert np.array_equal(got.data, want.data)
    for bad in (True, "0.25", np.float32(np.inf)):
        with pytest.raises(InvalidVariance):
            sample_gaussian_matrix(RngStream(0, 0), 3, 4, bad, group)


def test_component_variance():
    # each of the 4 components carries sigma2 / 4
    x = sample_dense_signal(RngStream(5, 1), 50_000, 1.0)
    per_comp = x.data.var(axis=0)
    assert np.all(np.abs(per_comp - 0.25) < 0.25 * 0.05)
    mean_sq = float(np.mean(np.sum(x.data**2, axis=1)))
    assert abs(mean_sq - 1.0) < 0.03


def test_matrix_column_normalization():
    # sigma2 = 1/m makes column l2 norms concentrate near 1
    Phi = sample_gaussian_matrix(RngStream(3, 0), 64, 500, 1.0 / 64)
    norms = np.sqrt(np.sum(Phi.data**2, axis=(0, 2)))
    assert abs(float(norms.mean()) - 1.0) < 0.05


def test_real_matrix_mode():
    Phi = sample_gaussian_matrix(RngStream(4, 0), 40, 300, 1.0 / 40, 1)
    assert np.all(Phi.data[..., 1:] == 0.0)
    # full variance sits in the scalar slot
    assert abs(Phi.data[..., 0].var() * 40 - 1.0) < 0.05
    norms = np.sqrt(np.sum(Phi.data**2, axis=(0, 2)))
    assert abs(float(norms.mean()) - 1.0) < 0.05


@pytest.mark.parametrize("m, n, sigma2", [(3, 5, 1.0 / 3), (6, 4, 2.5)])
def test_group_one_replays_real_draws(m, n, sigma2):
    # all of an entry's variance in slot 0, the draws of a real sampler
    Phi = sample_gaussian_matrix(RngStream(12, 0), m, n, sigma2, 1)
    assert np.array_equal(Phi.data[..., 0],
                          RngStream(12, 0).normals((m, n), math.sqrt(sigma2)))
    assert np.all(Phi.data[..., 1:] == 0.0)
    x = sample_dense_signal(RngStream(12, 1), n, sigma2, 1)
    assert np.array_equal(x.data[:, 0], RngStream(12, 1).normals(n, math.sqrt(sigma2)))
    assert np.all(x.data[:, 1:] == 0.0)
    x, S = sample_sparse_signal(RngStream(12, 2), n + 6, 3, 1)
    rng = RngStream(12, 2)
    assert sample_support(rng, n + 6, 3).indices == S.indices
    expected = np.zeros((n + 6, 4))
    expected[list(S.indices), 0] = rng.normals(3, 1.0)
    assert np.array_equal(x.data, expected)


@pytest.mark.parametrize("m, n, sigma2", [(3, 5, 1.0 / 3), (6, 4, 2.5)])
def test_group_four_replays_quaternion_draws(m, n, sigma2):
    # sigma2/4 in each of the four slots; 4 is the default group
    scale = math.sqrt(sigma2 / 4)
    for args in ((), (4,)):
        Phi = sample_gaussian_matrix(RngStream(13, 0), m, n, sigma2, *args)
        assert np.array_equal(Phi.data, RngStream(13, 0).normals((m, n, 4), scale))
        x = sample_dense_signal(RngStream(13, 1), n, sigma2, *args)
        assert np.array_equal(x.data, RngStream(13, 1).normals((n, 4), scale))
        x, S = sample_sparse_signal(RngStream(13, 2), n + 6, 3, *args)
        rng = RngStream(13, 2)
        assert sample_support(rng, n + 6, 3).indices == S.indices
        expected = np.zeros((n + 6, 4))
        expected[list(S.indices)] = rng.normals((3, 4), 0.5)
        assert np.array_equal(x.data, expected)
    q = sample_quaternion_gaussian(RngStream(13, 3), sigma2)
    assert np.array_equal(q.components, RngStream(13, 3).normals(4, scale))


@pytest.mark.parametrize("group", [0, 2, 3, 5])
def test_group_size_outside_table_is_refused(group):
    assert group not in GROUP_SIZES.values()
    rng = RngStream(14, 0)
    with pytest.raises(ValueError, match="group size"):
        sample_gaussian_matrix(rng, 2, 3, 0.5, group)
    with pytest.raises(ValueError, match="group size"):
        sample_sparse_signal(rng, 5, 2, group)
    with pytest.raises(ValueError, match="group size"):
        sample_dense_signal(rng, 5, 1.0, group)
    with pytest.raises(ValueError, match="group size"):
        sample_sphere_noise(rng, 5, 0.1, group)


def test_support_sampling():
    S = sample_support(RngStream(6, 0), 10, 4)
    assert len(S) == 4
    assert all(0 <= i < 10 for i in S)
    assert sample_support(RngStream(6, 1), 5, 5).indices == (0, 1, 2, 3, 4)
    assert len(sample_support(RngStream(6, 2), 5, 0)) == 0
    for bad in (-1, 6, 2.0, True):
        with pytest.raises(SparsityOutOfRange):
            sample_support(RngStream(6, 3), 5, bad)


def test_support_inclusion_frequencies():
    # every index should appear with probability s/n
    n, s, draws = 16, 4, 4000
    counts = np.zeros(n)
    rng = RngStream(8, 0)
    for _ in range(draws):
        for i in sample_support(rng, n, s):
            counts[i] += 1
    p = s / n
    sigma = math.sqrt(p * (1 - p) / draws)
    assert np.all(np.abs(counts / draws - p) < 4 * sigma)


def test_sparse_signal():
    x, S = sample_sparse_signal(RngStream(9, 0), 20, 5)
    assert len(x) == 20 and len(S) == 5
    assert support(x).indices == S.indices
    assert lp_norm(x, 0) == 5.0
    z, S0 = sample_sparse_signal(RngStream(9, 1), 6, 0)
    assert lp_norm(z, 0) == 0.0 and len(S0) == 0
    for bad in (7, 2.0):
        with pytest.raises(SparsityOutOfRange):
            sample_sparse_signal(RngStream(9, 2), 6, bad)


def test_sparse_signal_entry_law():
    # nonzero entries are unit-variance quaternion Gaussians
    acc = []
    rng = RngStream(10, 0)
    for _ in range(500):
        x, S = sample_sparse_signal(rng, 12, 6)
        acc.append(np.sum(x.data**2) / 6)
    assert abs(float(np.mean(acc)) - 1.0) < 0.05


def test_real_sparse_signal():
    x, S = sample_sparse_signal(RngStream(11, 0), 15, 4, 1)
    assert np.all(x.data[:, 1:] == 0.0)
    assert support(x).indices == S.indices
    nz = x.data[list(S.indices), 0]
    assert np.all(nz != 0.0)


def test_sphere_noise_radius():
    for radius in (1e-3, 0.5, 2.0):
        e = sample_sphere_noise(RngStream(12, 0), 7, radius)
        assert abs(lp_norm(e, 2) - radius) < 1e-12 * max(1.0, radius)
    z = sample_sphere_noise(RngStream(12, 1), 7, 0.0)
    assert lp_norm(z, 2) == 0.0
    with pytest.raises(ValueError):
        sample_sphere_noise(RngStream(12, 2), 7, -0.1)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, True, "0.5", None])
def test_sphere_noise_refuses_a_radius_that_is_not_a_finite_number(radius):
    with pytest.raises(ValueError):
        sample_sphere_noise(RngStream(12, 2), 7, radius)


@pytest.mark.parametrize("m, radius", [(1, 0.5), (7, 0.01), (30, 2.0)])
def test_sphere_noise_replays_quaternion_draws(m, radius):
    # (m, 4) unit normals scaled onto the sphere; 4 is the default group
    d = RngStream(15, 0).normals((m, 4), 1.0)
    expected = d * (radius / math.sqrt(float(np.sum(d * d))))
    for args in ((), (4,)):
        e = sample_sphere_noise(RngStream(15, 0), m, radius, *args)
        assert np.array_equal(e.data, expected)


@pytest.mark.parametrize("m, radius", [(1, 0.5), (7, 0.01), (30, 2.0)])
def test_sphere_noise_group_one_is_real(m, radius):
    e = sample_sphere_noise(RngStream(16, 0), m, radius, 1)
    d = RngStream(16, 0).normals((m, 1), 1.0)
    assert not e.data[:, 1:].any()
    assert np.array_equal(e.data[:, :1], d * (radius / math.sqrt(float(np.sum(d * d)))))
    assert abs(lp_norm(e, 2) - radius) < 1e-12 * max(1.0, radius)
