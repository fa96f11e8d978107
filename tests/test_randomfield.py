import math

import numpy as np
import pytest

import wegnerlab.randomfield as randomfield
from wegnerlab.errors import DistributionError
from wegnerlab.randomfield import (
    DistributionSpec,
    derive_seed,
    draw_values,
    hash_uniform01,
    sample_field,
    validate,
)

REGION_1D = np.arange(-3, 4).reshape(-1, 1)


def test_validate_single_point_finite():
    assert validate(DistributionSpec.finite([5.0], [1.0])) == ["single-point support"]


def test_validate_bernoulli_ok():
    assert validate(DistributionSpec.bernoulli(0.5, 0.0, 1.0)) == []


def test_validate_degenerate_bernoulli():
    assert "single-point support" in validate(DistributionSpec.bernoulli(1.0, 0.0, 1.0))
    assert "single-point support" in validate(DistributionSpec.bernoulli(0.0, 0.0, 1.0))
    assert "single-point support" in validate(DistributionSpec.bernoulli(0.5, 2.0, 2.0))


def test_validate_bernoulli_p_outside_unit_interval():
    # p = 1.5 draws hi at every site, as p = 1 does, but is no probability
    assert validate(DistributionSpec.bernoulli(1.5)) == ["p must lie in [0, 1], got 1.5"]
    assert validate(DistributionSpec.bernoulli(-0.25)) == ["p must lie in [0, 1], got -0.25"]


def test_validate_weights():
    assert "weights do not sum to 1" in validate(
        DistributionSpec.finite([0.0, 1.0], [0.5, 0.6])
    )
    assert "negative weight" in validate(
        DistributionSpec.finite([0.0, 1.0, 2.0], [0.5, -0.1, 0.6])
    )
    # zero-weight atoms do not count toward the support
    assert "single-point support" in validate(
        DistributionSpec.finite([0.0, 1.0], [1.0, 0.0])
    )


def test_validate_non_finite_weights():
    # abs(nan - 1) > 1e-12 is False, so the sum check alone passes a NaN weight
    nan = float("nan")
    assert validate(DistributionSpec.finite((0.0, 1.0, 2.0), (0.5, 0.5, nan))) == [
        "non-finite weight"
    ]
    assert "non-finite weight" in validate(DistributionSpec.finite((0.0, 1.0), (0.5, math.inf)))
    with pytest.raises(DistributionError, match="non-finite weight"):
        sample_field(DistributionSpec.finite((0.0, 1.0), (1.0, nan)), REGION_1D, 1, 0)


def test_sample_field_rejects_invalid_spec():
    with pytest.raises(DistributionError, match="single-point support"):
        sample_field(DistributionSpec.bernoulli(1.0), REGION_1D, 1, 0)


def test_point_mass_draws_are_constant():
    # validation bypassed through draw_values, the diagnostic path
    vals = draw_values(DistributionSpec.point_mass(3.5), np.arange(50).reshape(-1, 1), 9, 0)
    assert np.all(vals == 3.5)


def test_same_key_same_sample():
    spec = DistributionSpec.bernoulli(0.5, 0.0, 1.0)
    a = sample_field(spec, REGION_1D, seed=42, trial=7)
    b = sample_field(spec, REGION_1D, seed=42, trial=7)
    assert a.shape == (7,)
    assert np.array_equal(a, b)


def test_different_trial_different_sample():
    spec = DistributionSpec.bernoulli(0.5, 0.0, 1.0)
    region = np.arange(64).reshape(-1, 1)
    a = sample_field(spec, region, seed=42, trial=0)
    b = sample_field(spec, region, seed=42, trial=1)
    assert not np.array_equal(a, b)


def test_point_values_independent_of_region():
    # the value at a point depends on (seed, trial, point) only
    spec = DistributionSpec.uniform(0.0, 1.0)
    small = sample_field(spec, [(0,), (1,)], seed=5, trial=3)
    large = sample_field(spec, [(x,) for x in range(-5, 6)], seed=5, trial=3)
    assert small[0] == large[5]
    assert small[1] == large[6]


def test_region_order_does_not_matter():
    spec = DistributionSpec.uniform(0.0, 1.0)
    pts = [(x,) for x in range(10)]
    a = sample_field(spec, pts, seed=11, trial=2)
    b = sample_field(spec, list(reversed(pts)), seed=11, trial=2)
    assert np.array_equal(a, b[::-1])


def test_draws_keep_the_leading_shape_and_repeat_bitwise():
    # a (cubes, n, side^d, d) stack of particle points, with repeated points
    spec = DistributionSpec.uniform(-1.0, 1.0)
    points = np.arange(-3, 3).reshape(1, 1, 6, 1) + np.array([0, 2]).reshape(1, 2, 1, 1)
    points = np.concatenate([points, points[:, ::-1] + 1])
    values = draw_values(spec, points, 13, 4)
    assert values.shape == (2, 2, 6)
    flat = draw_values(spec, points.reshape(-1, 1), 13, 4)
    assert np.array_equal(values.ravel(), flat)
    for p, v in zip(points.reshape(-1, 1), values.ravel()):
        assert draw_values(spec, [p], 13, 4)[0] == v
    assert np.array_equal(sample_field(spec, points, 13, 4), values)


def test_bernoulli_mean_law_of_large_numbers():
    # tolerance 6 binomial sigma at 1e5 draws, far below 0.01
    n = 10**5
    vals = draw_values(
        DistributionSpec.bernoulli(0.5, 0.0, 1.0),
        np.arange(n).reshape(-1, 1),
        seed=2026,
        trial=0,
    )
    assert abs(vals.mean() - 0.5) < 6 * 0.5 / np.sqrt(n) < 0.01


def _atomic_ks_distance(sample, atoms, cumulative):
    # both CDFs step only at the atoms, so the sup is attained there
    return max(
        abs(np.mean(sample <= a) - c) for a, c in zip(atoms, cumulative)
    )


@pytest.mark.parametrize(
    "spec,atoms,cumulative",
    [
        (DistributionSpec.bernoulli(0.3, 0.0, 1.0), (0.0, 1.0), (0.7, 1.0)),
        (
            DistributionSpec.finite((0.0, 1.0, 2.0), (0.25, 0.5, 0.25)),
            (0.0, 1.0, 2.0),
            (0.25, 0.75, 1.0),
        ),
    ],
)
def test_empirical_cdf_matches_spec_discrete(spec, atoms, cumulative):
    vals = draw_values(spec, np.arange(10**5).reshape(-1, 1), seed=77, trial=0)
    assert _atomic_ks_distance(vals, atoms, cumulative) < 0.01


def _uniform_ks_distance(sample, lo, hi):
    # F_n steps by 1/n at each sorted draw, so the sup of |F_n - F| is
    # attained just before or at a draw
    cdf = (np.sort(sample) - lo) / (hi - lo)
    steps = np.arange(sample.size + 1) / sample.size
    return max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1]))


def test_empirical_cdf_matches_spec_uniform():
    vals = draw_values(
        DistributionSpec.uniform(-1.0, 3.0), np.arange(10**5).reshape(-1, 1), seed=77, trial=0
    )
    assert _uniform_ks_distance(vals, -1.0, 3.0) < 0.01


def test_uniform01_is_uniform_and_keyed():
    words = np.arange(2 * 10**4).reshape(-1, 2)
    u1 = hash_uniform01(1, 2, words)
    u2 = hash_uniform01(1, 3, words)
    assert np.all((0.0 <= u1) & (u1 < 1.0))
    assert not np.array_equal(u1, u2)
    assert abs(u1.mean() - 0.5) < 0.01


def test_derive_seed_spreads():
    seeds = {derive_seed(7, tag, k) for tag in range(4) for k in range(100)}
    assert len(seeds) == 400


def test_negative_coordinates_hash_cleanly():
    spec = DistributionSpec.uniform(0.0, 1.0)
    region = [(-(10**9), -3), (10**9, 3), (0, 0)]
    field = sample_field(spec, region, seed=3, trial=1)
    assert field.shape == (3,)
    assert all(0.0 <= v < 1.0 for v in field)
    assert np.array_equal(field, draw_values(spec, region, 3, 1))
    assert sample_field(spec, [(10**9, -3)], seed=3, trial=1)[0] not in field



def test_scalar_prefix_matches_vector_chain():
    # derive_seed absorbs (seed, trial) once and hash_uniform01 the seed once,
    # ahead of its rows; the uint64 numpy chain over every row is the
    # reference, bit for bit, for seeds and trials of either sign
    mask = 0xFFFFFFFFFFFFFFFF
    rng = np.random.default_rng(5)
    words = rng.integers(-(2**63), 2**63 - 1, size=(40, 3), endpoint=True)
    for seed in (0, 1, -1, 2**63, 2**64 - 1, 123456789123):
        for trial in (0, 7, -5, 2**40):
            h = np.full(40, randomfield._INIT)
            for w in (np.uint64(seed & mask), np.uint64(trial & mask)):
                h = randomfield._mix64(h ^ w)
            assert derive_seed(seed, trial) == int(h[0])
            for w in words.view(np.uint64).T:
                h = randomfield._mix64(h ^ w)
            u = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
            assert np.array_equal(hash_uniform01(seed, trial, words), u)


@pytest.mark.parametrize(
    "spec",
    [
        DistributionSpec.bernoulli(0.3, -1.0, 2.0),
        DistributionSpec.uniform(-1.0, 3.0),
        DistributionSpec.finite([-1.0, 0.5, 2.0], [0.25, 0.5, 0.25]),
    ],
    ids=["bernoulli", "uniform", "finite"],
)
def test_trial_block_draw_is_bitwise_the_per_trial_draws(spec):
    # a block of trials is drawn in one call; each trial's slice must be
    # bit for bit its own draw, for any trial indices in any order
    top = 2**63 - 1
    points = np.array([[-4, 0], [0, 0], [3, -2], [10**9, 5], [-3, 7], [2, 2]]).reshape(2, 3, 2)
    blocks = [
        np.arange(5),
        np.array([17, 3, 3, 40000, 0, -9]),
        np.array([top, top - 1, top - 7, 0]),
        np.arange(12)[::3],
        np.array([[5, 9], [top, 1]]),
    ]
    for seed in (0, 2**64 - 1, 123456789123):
        for trials in blocks:
            block = draw_values(spec, points, seed, trials)
            assert block.shape == trials.shape + points.shape[:-1]
            for index, trial in np.ndenumerate(trials):
                assert np.array_equal(block[index], draw_values(spec, points, seed, int(trial)))
        assert draw_values(spec, points, seed, np.array(7)).shape == (2, 3)
        assert draw_values(spec, points, seed, np.arange(0)).shape == (0, 2, 3)
