import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from wegnerlab import transfer
from wegnerlab.cli import main
from wegnerlab.randomfield import DistributionSpec, draw_values
from wegnerlab.transfer import LyapunovEstimate, lyapunov, lyapunov_sweep, transfer_matrix

FREE = DistributionSpec.point_mass(0.0)
REPO = Path(__file__).resolve().parents[1]


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


def _per_step_logs(energy, draws):
    """The unchunked recursion over the draws, one step at a time: logs and final state."""
    logs = np.empty(len(draws))
    shift = 2.0 - energy
    a, b = 1.0, 0.0
    for k, v in enumerate(draws.tolist()):
        na = (shift + v) * a - b
        nb = a
        norm = math.hypot(na, nb)
        logs[k] = math.log(norm)
        a = na / norm
        b = nb / norm
    return logs, a, b


def _estimate(logs, batches):
    block = len(logs) // batches
    means = logs[: batches * block].reshape(batches, block).mean(axis=1)
    return float(np.mean(logs)), float(np.std(means, ddof=1) / math.sqrt(batches))


def _per_step_lyapunov(energy, spec, steps, seed, trial, batches):
    """The unchunked recursion: every draw at once, one step at a time."""
    draws = draw_values(spec, np.arange(steps, dtype=np.int64).reshape(-1, 1), seed, trial)
    return _estimate(_per_step_logs(energy, draws)[0], batches)


# (energy, measure): chains whose coefficients vary, an elliptic constant
# chain that never cycles, and four constant chains that do
CHAINS = {
    "bernoulli": (2.3, DistributionSpec.bernoulli(0.5, 0.0, 1.0)),
    "uniform": (2.3, DistributionSpec.uniform(-1.0, 2.0)),
    "point_mass": (2.3, DistributionSpec.point_mass(0.25)),  # elliptic
    "free_5": (5.0, FREE),
    "free_2": (2.0, FREE),
    "free_-1": (-1.0, FREE),
    "shifted_6": (6.0, DistributionSpec.point_mass(0.25)),
}
# steps at which each cycling chain's state first equals the saved one, and
# the period; the elliptic point-mass chain has no repeat in a whole chunk
CYCLES = {"free_5": (33, 2), "free_2": (7, 4), "free_-1": (32, 1), "shifted_6": (17, 2)}


@pytest.mark.parametrize("name", ["point_mass", *CYCLES])
def test_constant_chains_repeat_with_the_measured_periods(name):
    energy, spec = CHAINS[name]
    c = 2.0 - energy + spec.values[0]
    out = np.empty(transfer._CHUNK)
    steps, period, _, _ = transfer._walk_to_cycle(c, 1.0, 0.0, out)
    norms = out[:steps]
    assert (len(norms), period) == CYCLES.get(name, (transfer._CHUNK, 0))


@pytest.mark.parametrize(
    "steps",
    [
        1000,
        transfer._CHUNK - 1, transfer._CHUNK, transfer._CHUNK + 1, 2 * transfer._CHUNK + 7,
        2**16 - 1, 2**16, 2**16 + 1, 2 * 2**16 + 7,
    ],
)
@pytest.mark.parametrize("chain", list(CHAINS))
def test_chunked_lyapunov_is_bitwise_the_per_step_loop(chain, steps):
    # odd step counts are not a multiple of any period; the counts around
    # one and two chunks cross chunk boundaries, where a cycle fills whole
    # chunks, and those around 2^16 end on, just before or just after a
    # chunk edge four or more chunks into the chain
    energy, spec = CHAINS[chain]
    est = lyapunov(energy, spec, steps, seed=19, trial=4, batches=7)
    assert (est.gamma_hat, est.stderr) == _per_step_lyapunov(energy, spec, steps, 19, 4, 7)


@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("chain", list(CYCLES))
def test_cycle_found_at_a_chunk_edge_is_bitwise_the_per_step_loop(monkeypatch, chain, shift):
    # a chunk one step short of the repeat leaves it to the next chunk's
    # search; one that ends on it or one step after it fills nothing, and
    # every later chunk starts on the cycle
    energy, spec = CHAINS[chain]
    monkeypatch.setattr(transfer, "_CHUNK", CYCLES[chain][0] + shift)
    for steps in (1000, 1003):
        est = lyapunov(energy, spec, steps, seed=19, trial=4, batches=7)
        assert (est.gamma_hat, est.stderr) == _per_step_lyapunov(energy, spec, steps, 19, 4, 7)


def _patch_draws(monkeypatch, values):
    """Make the chain draw ``values[k]`` at step k."""
    def draws(spec, points, seed, trial):
        return values[np.asarray(points)[:, 0]]

    monkeypatch.setattr(transfer, "draw_values", draws)


@pytest.mark.parametrize("energy", [5.0, 2.0])
def test_cycle_leaves_at_the_right_phase(monkeypatch, energy):
    # constant past the first chunk, then varying: the first chunk ends at
    # phase 1 of its cycle, and the second (not constant) steps from there
    steps = 3 * transfer._CHUNK + 11
    values = np.zeros(steps)
    tail = transfer._CHUNK + 1000
    values[tail:] = np.random.default_rng(3).integers(0, 2, steps - tail)
    _patch_draws(monkeypatch, values)
    est = lyapunov(energy, FREE, steps, seed=0, batches=9)
    assert (est.gamma_hat, est.stderr) == _estimate(_per_step_logs(energy, values)[0], 9)


@pytest.mark.parametrize(
    "pattern",
    [
        [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],  # constant, another constant, the first again
        [0.0, "vary", 0.0, 0.0, "vary", 0.0],  # each constant chunk searched anew
        [1.0, 0.0, "vary", 0.0, 1.0, 1.0],
    ],
    ids=["constants", "interleaved", "mixed"],
)
def test_constant_runs_switch_bitwise_as_the_per_step_loop(monkeypatch, pattern):
    chunk = 64
    monkeypatch.setattr(transfer, "_CHUNK", chunk)
    rng = np.random.default_rng(5)
    values = np.concatenate(
        [rng.integers(0, 2, chunk).astype(float) if p == "vary" else np.full(chunk, p)
         for p in pattern * 3]
    )[:1100]
    _patch_draws(monkeypatch, values)
    for energy in (5.0, 2.0, 3.0, 2.3):
        est = lyapunov(energy, FREE, len(values), seed=0, batches=5)
        assert (est.gamma_hat, est.stderr) == _estimate(_per_step_logs(energy, values)[0], 5)


@pytest.mark.parametrize("extra", [0, 1, 2, 5])
def test_cycle_found_in_the_last_steps_is_bitwise_the_per_step_loop(monkeypatch, extra):
    # varying draws for one chunk of 1000 steps, then a constant run whose
    # repeat is found ``extra`` steps before the chain ends
    start, energy = 1000, 5.0
    values = np.random.default_rng(8).integers(0, 2, start).astype(float)
    _, a, b = _per_step_logs(energy, values)
    found = transfer._walk_to_cycle(2.0 - energy, a, b, np.empty(start))[0]
    assert found < start - extra
    values = np.concatenate([values, np.zeros(found + extra)])
    monkeypatch.setattr(transfer, "_CHUNK", start)
    _patch_draws(monkeypatch, values)
    est = lyapunov(energy, FREE, len(values), seed=0, batches=4)
    assert (est.gamma_hat, est.stderr) == _estimate(_per_step_logs(energy, values)[0], 4)


@pytest.mark.parametrize(
    ("energy", "spec", "steps"),
    [
        (2.5, DistributionSpec.bernoulli(0.5, 0.0, 1.0), 10**6),
        (2.5, DistributionSpec.bernoulli(0.5, 0.0, 1.0), 4 * 10**6),
        (*CHAINS["free_5"], 2 * 10**6),
        (*CHAINS["free_5"], 4 * 10**6),
    ],
    ids=["bernoulli-1000000", "bernoulli-4000000", "free_5-2000000", "free_5-4000000"],
)
def test_chain_memory_does_not_grow_with_its_steps(energy, spec, steps):
    # the logs stream through one chunk and the summation carry: no array
    # as long as the chain, whether it is stepped or filled in place from
    # whole periods of its cycle
    tracemalloc.start()
    try:
        lyapunov(energy, spec, steps, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def _streamed_estimate(logs, batches):
    """The estimate of ``logs`` fed to the summation accumulator one chunk at a time."""
    sums = transfer._PairwiseSums(len(logs), batches)
    for start in range(0, len(logs), transfer._CHUNK):
        sums.add(logs[start : start + transfer._CHUNK])
    return sums.estimate()


# numpy sums by halves down to blocks of at most 128 summed with 8
# accumulators; the lengths cross those edges, the accumulator's leaf and
# its chunk, and 999983 is prime
STREAM_LENGTHS = [
    1, 7, 8, 127, 128, 129,
    transfer._LEAF - 1, transfer._LEAF + 1, transfer._CHUNK - 1, transfer._CHUNK + 1,
    999983, 10**6,
]


@pytest.mark.parametrize(
    ("length", "batches"),
    [(n, b) for n in STREAM_LENGTHS for b in (2, 7, 20) if b <= n] + [(1, 1), (1000, 1000)],
)
def test_streamed_estimate_is_bitwise_numpys(length, batches):
    logs = np.log(np.random.default_rng(length).uniform(0.2, 4.0, length))
    with warnings.catch_warnings():
        if batches == 1:  # one batch has no spread: the stderr is NaN on both sides
            warnings.simplefilter("ignore", RuntimeWarning)
        streamed, numpys = _streamed_estimate(logs, batches), _estimate(logs, batches)
    assert np.array_equal(streamed, numpys, equal_nan=batches == 1)


def test_degenerate_sweep_across_the_band_edge_is_the_per_step_loop(tmp_path):
    # bernoulli with p = 1 always draws hi = 1, so the coefficient is 3 - E:
    # the band is 1 < E < 5, and the grid holds energies that cycle and
    # energies that never do
    doc = json.loads((REPO / "configs" / "lyapunov_sweep.json").read_text())
    doc["model"]["distribution"] = {"kind": "bernoulli", "p": 1.0, "lo": 0.0, "hi": 1.0}
    doc["sweep"] = {"e_min": -1.0, "e_max": 7.0, "points": 17, "steps": 3000}
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    args = ["lyapunov-sweep", "--config", str(config), "--out", str(out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    spec = DistributionSpec.bernoulli(1.0, 0.0, 1.0)
    energies = np.linspace(-1.0, 7.0, 17)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == len(energies)
    for k, (energy, row) in enumerate(zip(energies.tolist(), rows)):
        gamma, stderr = _per_step_lyapunov(energy, spec, 3000, doc["run"]["seed"], k, 20)
        assert row == [repr(energy), repr(gamma), repr(stderr)]
    periods = [
        transfer._walk_to_cycle(3.0 - e, 1.0, 0.0, np.empty(3000))[1] for e in energies.tolist()
    ]
    assert 0 in periods and any(periods)


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
