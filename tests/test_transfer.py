import math

import numpy as np
import pytest

from wegnerlab import transfer
from wegnerlab.randomfield import DistributionSpec, draw_values
from wegnerlab.transfer import LyapunovEstimate, lyapunov, lyapunov_sweep, transfer_matrix

FREE = DistributionSpec.point_mass(0.0)


def test_rotation_point():
    t = transfer_matrix(2.0, 0.0)
    assert np.array_equal(t, [[0.0, -1.0], [1.0, 0.0]])


def test_transfer_matrix_entries():
    t = transfer_matrix(5.0, 0.0)
    assert np.array_equal(t, [[-3.0, -1.0], [1.0, 0.0]])
    rho = max(abs(np.linalg.eigvals(t)))
    assert rho == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-12)


def test_determinant_is_one_exactly():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        e, v = rng.uniform(-10, 10, 2)
        t = transfer_matrix(float(e), float(v))
        det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
        assert det == 1.0


def test_lyapunov_requires_enough_steps():
    with pytest.raises(ValueError):
        lyapunov(2.0, FREE, steps=100, seed=0)


def test_lyapunov_rejects_more_batches_than_steps():
    with pytest.raises(ValueError, match="batches"):
        lyapunov(2.0, FREE, steps=1000, seed=0, batches=2000)
    assert lyapunov(2.0, FREE, steps=1000, seed=0, batches=1000).stderr >= 0.0


def test_lyapunov_rejects_steps_above_the_limit(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the recursion started")

    monkeypatch.setattr(transfer, "draw_values", no_sampling)
    with pytest.raises(ValueError, match="steps"):
        lyapunov(2.0, FREE, steps=transfer.STEPS_LIMIT + 1, seed=0)


def _per_step_lyapunov(energy, spec, steps, seed, trial, batches):
    """The unchunked recursion: every draw at once, one step at a time."""
    draws = draw_values(spec, np.arange(steps, dtype=np.int64).reshape(-1, 1), seed, trial)
    logs = np.empty(steps)
    shift = 2.0 - energy
    a, b = 1.0, 0.0
    for k, v in enumerate(draws.tolist()):
        na = (shift + v) * a - b
        nb = a
        norm = math.hypot(na, nb)
        logs[k] = math.log(norm)
        a = na / norm
        b = nb / norm
    block = steps // batches
    means = logs[: batches * block].reshape(batches, block).mean(axis=1)
    return float(np.mean(logs)), float(np.std(means, ddof=1) / math.sqrt(batches))


@pytest.mark.parametrize(
    "steps",
    [1000, transfer._CHUNK - 1, transfer._CHUNK, transfer._CHUNK + 1, 2 * transfer._CHUNK + 7],
)
@pytest.mark.parametrize(
    "spec",
    [
        DistributionSpec.bernoulli(0.5, 0.0, 1.0),
        DistributionSpec.uniform(-1.0, 2.0),
        DistributionSpec.point_mass(0.25),
    ],
    ids=["bernoulli", "uniform", "point_mass"],
)
def test_chunked_lyapunov_is_bitwise_the_per_step_loop(spec, steps):
    est = lyapunov(2.3, spec, steps, seed=19, trial=4, batches=7)
    assert (est.gamma_hat, est.stderr) == _per_step_lyapunov(2.3, spec, steps, 19, 4, 7)


def test_lyapunov_free_hyperbolic():
    est = lyapunov(5.0, FREE, steps=10**5, seed=1)
    assert isinstance(est, LyapunovEstimate)
    assert abs(est.gamma_hat - math.log((3.0 + math.sqrt(5.0)) / 2.0)) <= 5e-3


def test_lyapunov_free_rotation():
    est = lyapunov(2.0, FREE, steps=10**5, seed=1)
    assert abs(est.gamma_hat) <= 5e-3


def test_lyapunov_bernoulli_positive():
    est = lyapunov(2.5, DistributionSpec.bernoulli(0.5, 0.0, 1.0), steps=10**5, seed=3)
    assert est.gamma_hat - 2.0 * est.stderr > 0.0
    assert est.stderr > 0.0


def test_lyapunov_noise_floor():
    # never significantly negative
    for energy in (0.5, 2.0, 3.5):
        est = lyapunov(energy, DistributionSpec.bernoulli(0.5, 0.0, 1.0), steps=10**4, seed=5)
        assert est.gamma_hat >= -1e-3


def test_lyapunov_symmetric_disorder_even_about_center():
    # Bernoulli {-a, a}: gamma(2 + t) and gamma(2 - t) agree within 2 joint SE
    spec = DistributionSpec.bernoulli(0.5, -0.5, 0.5)
    up = lyapunov(2.0 + 0.8, spec, steps=2 * 10**5, seed=7, trial=0)
    down = lyapunov(2.0 - 0.8, spec, steps=2 * 10**5, seed=7, trial=1)
    joint = math.hypot(up.stderr, down.stderr)
    assert abs(up.gamma_hat - down.gamma_hat) <= 2.0 * joint


def test_lyapunov_deterministic():
    a = lyapunov(2.5, DistributionSpec.bernoulli(0.5, 0.0, 1.0), steps=10**4, seed=11)
    b = lyapunov(2.5, DistributionSpec.bernoulli(0.5, 0.0, 1.0), steps=10**4, seed=11)
    assert a == b


def test_lyapunov_sweep_shape():
    rows = lyapunov_sweep([1.0, 2.0, 3.0], DistributionSpec.bernoulli(0.5, 0.0, 1.0), 10**3, seed=2)
    assert [e for e, _ in rows] == [1.0, 2.0, 3.0]
    assert all(est.steps == 10**3 for _, est in rows)
