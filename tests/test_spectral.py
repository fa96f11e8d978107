import math
import warnings

import numpy as np
import pytest

from wegnerlab.errors import CapacityError
from wegnerlab.hamiltonian import InteractionSpec, SymMatrix, build_hamiltonian
from wegnerlab.lattice import Cube, Site
from wegnerlab.randomfield import DistributionSpec, sample_field
from wegnerlab.spectral import (
    Spectrum,
    count_below,
    dist_to_spectrum,
    full_spectrum,
    gershgorin_interval,
    resolvent_norm,
    smallest_singular_value,
)
from wegnerlab.tensor import sorted_sums


def diag_matrix(*values):
    return SymMatrix.from_dense(np.diag(np.asarray(values, dtype=float)))


def random_hamiltonian(seed, n=1, d=1, L=12, h=0.0, inter=None):
    cube = Cube(Site(n, d, (0,) * (n * d)), L)
    potentials = sample_field(
        DistributionSpec.uniform(0.0, 2.0), cube.particle_points(), seed, 0
    )
    return build_hamiltonian(cube, potentials, inter or InteractionSpec.none(), h)


def test_full_spectrum_diagonal():
    s = full_spectrum(diag_matrix(3.0, 1.0))
    assert np.array_equal(s.eigenvalues, [1.0, 3.0])
    assert s.dim == 2


def test_full_spectrum_offdiagonal_pair():
    s = full_spectrum(SymMatrix.from_dense(np.array([[0.0, -1.0], [-1.0, 0.0]])))
    assert np.allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_full_spectrum_dirichlet_chain():
    m = np.diag([2.0, 2.0, 2.0]) + np.diag([-1.0, -1.0], 1) + np.diag([-1.0, -1.0], -1)
    ev = full_spectrum(SymMatrix.from_dense(m)).eigenvalues
    expected = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    assert np.allclose(ev, expected, atol=1e-10)


def test_full_spectrum_capacity():
    none = np.zeros(0, dtype=np.int64)
    big = SymMatrix(np.ones(5000), none, none, np.zeros(0))
    with pytest.raises(CapacityError, match="count_below"):
        full_spectrum(big)


def test_spectrum_type_checks_order():
    with pytest.raises(ValueError, match="sorted"):
        Spectrum(eigenvalues=np.array([1.0, 0.0]), dim=2)
    with pytest.raises(ValueError, match="eigenvalues"):
        Spectrum(eigenvalues=np.array([1.0, 2.0]), dim=3)


def test_trace_identity():
    for seed in range(5):
        m = random_hamiltonian(seed, n=2, L=2)
        ev = full_spectrum(m).eigenvalues
        scale = 1e-8 * m.dim * (1.0 + m.inf_norm())
        assert abs(ev.sum() - np.trace(m.dense())) <= scale


def test_count_below_simple():
    m = diag_matrix(0.0, 1.0, 2.0)
    assert count_below(m, 1.5) == 2
    assert count_below(m, -0.5) == 0
    assert count_below(m, 99.0) == 3


def test_count_below_under_gershgorin():
    m = random_hamiltonian(1, L=10)
    lo, _ = gershgorin_interval(m)
    assert count_below(m, lo - 0.1) == 0


def test_count_below_matches_dense_counts():
    rng = np.random.default_rng(8)
    for seed in range(10):
        m = random_hamiltonian(seed, L=24)  # 49 sites
        ev = full_spectrum(m).eigenvalues
        for energy in rng.uniform(ev[0] - 1, ev[-1] + 1, 6):
            assert count_below(m, float(energy)) == int(np.sum(ev < energy))


def test_count_below_is_monotone_and_jumps_by_multiplicity():
    m = diag_matrix(1.0, 1.0, 1.0, 4.0)
    assert count_below(m, 1.0 - 1e-9) == 0
    assert count_below(m, 1.0 + 1e-9) == 3
    counts = [count_below(m, e) for e in np.linspace(0.0, 5.0, 40)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_count_below_is_strict_at_exact_eigenvalues():
    # E exactly on an eigenvalue, as two-point disorder produces
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simple, degenerate = diag_matrix(1.0, 2.0, 3.0), diag_matrix(1.0, 1.0, 1.0, 4.0)
        assert count_below(simple, 2.0) == 1
        assert count_below(degenerate, 1.0) == 0
        assert count_below(simple, 2.0) == count_below(simple, 2.0)


def test_dist_examples():
    m = diag_matrix(1.0, 3.0)
    assert dist_to_spectrum(m, 2.0) == 1.0
    assert dist_to_spectrum(m, 3.0) <= 1e-12
    assert dist_to_spectrum(m, -1.0) == 2.0


def test_dist_agrees_with_dense_spectrum():
    rng = np.random.default_rng(17)
    for seed in range(20):
        m = random_hamiltonian(seed, L=20)
        lo, hi = gershgorin_interval(m)
        energy = float(rng.uniform(lo, hi))
        dense = float(np.min(np.abs(full_spectrum(m).eigenvalues - energy)))
        assert abs(dist_to_spectrum(m, energy) - dense) <= 1e-9


def test_dirichlet_chain_above_dense_limit():
    # -laplacian + 2 on a chain of N sites: eigenvalues 2 - 2cos(k pi / (N+1))
    n = 8201
    rows = np.arange(n - 1)
    chain = SymMatrix(np.full(n, 2.0), rows, rows + 1, np.full(n - 1, -1.0))
    ev = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1))
    k = n // 3
    energy = 0.5 * (ev[k - 1] + ev[k])  # about 3e-4 from both neighbours
    assert abs(dist_to_spectrum(chain, energy) - (energy - ev[k - 1])) <= 1e-9
    assert count_below(chain, energy) == k
    assert chain.banded().shape == (2, n)


def test_two_particle_distances_match_sumset():
    cube = Cube(Site(2, 1, (0, 0)), 20)
    potentials = sample_field(
        DistributionSpec.bernoulli(0.5, 0.0, 1.0), cube.particle_points(), 5, 0
    )
    none = InteractionSpec.none()
    m = build_hamiltonian(cube, potentials, none, 0.0)
    assert m.dim == 1681 and m.banded().shape == (42, 1681)
    factors = [Cube(Site(1, 1, cube.center.particle(i)), cube.radius) for i in range(2)]
    singles = [
        full_spectrum(build_hamiltonian(f, potentials[i : i + 1], none, 0.0))
        for i, f in enumerate(factors)
    ]
    sums = sorted_sums([single.eigenvalues for single in singles])
    gaps = np.flatnonzero(np.diff(sums) > 1e-6)
    for i in gaps[[0, gaps.size // 2, -1]]:
        energy = 0.5 * (sums[i] + sums[i + 1])
        assert abs(dist_to_spectrum(m, energy) - np.min(np.abs(sums - energy))) <= 1e-9
        assert count_below(m, energy) == i + 1


def test_resolvent_norm_examples():
    m = diag_matrix(1.0, 3.0)
    assert resolvent_norm(m, 2.0) == 1.0
    assert math.isinf(resolvent_norm(m, 3.0))


def test_resolvent_matches_singular_value_oracle():
    rng = np.random.default_rng(23)
    for seed in range(10):
        m = random_hamiltonian(seed, L=15)  # 31 sites
        lo, hi = gershgorin_interval(m)
        energy = float(rng.uniform(lo, hi))
        while dist_to_spectrum(m, energy) < 1e-6 * (1 + m.inf_norm()):
            energy = float(rng.uniform(lo, hi))
        product = resolvent_norm(m, energy) * smallest_singular_value(m, energy)
        assert abs(product - 1.0) <= 1e-8


def test_resolvent_dist_product_is_one_by_construction():
    m = random_hamiltonian(31, L=10)
    energy = 0.123
    assert resolvent_norm(m, energy) * dist_to_spectrum(m, energy) == 1.0


def test_dist_zero_iff_count_jumps():
    m = diag_matrix(1.0, 2.0, 3.0)
    eps = 1e-6
    for energy in (2.0, 2.5):
        jumps = count_below(m, energy + eps) > count_below(m, energy - eps)
        assert (dist_to_spectrum(m, energy) <= 1e-12) == jumps
