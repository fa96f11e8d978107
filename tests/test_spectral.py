import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import wegnerlab
import wegnerlab.spectral as spectral
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
    assert spectral._band_blocks(chain)[0].shape == (n, 1, 1)


def test_two_particle_distances_match_sumset():
    cube = Cube(Site(2, 1, (0, 0)), 20)
    potentials = sample_field(
        DistributionSpec.bernoulli(0.5, 0.0, 1.0), cube.particle_points(), 5, 0
    )
    none = InteractionSpec.none()
    m = build_hamiltonian(cube, potentials, none, 0.0)
    assert m.dim == 1681 and spectral._band_blocks(m)[0].shape == (41, 41, 41)
    factors = [Cube(Site(1, 1, cube.center.coords[i : i + 1]), cube.radius) for i in range(2)]
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


def test_two_particle_distances_above_dense_limit_match_sumset():
    # b = 65 above the cap: the bracket stops at the counts' backward error
    cube = Cube(Site(2, 1, (0, 0)), 32)
    potentials = sample_field(
        DistributionSpec.bernoulli(0.5, 0.0, 1.0), cube.particle_points(), 5, 0
    )
    none = InteractionSpec.none()
    m = build_hamiltonian(cube, potentials, none, 0.0)
    assert m.dim == 4225 > spectral.DENSE_LIMIT
    assert spectral._band_blocks(m)[0].shape == (65, 65, 65)
    factors = [Cube(Site(1, 1, cube.center.coords[i : i + 1]), cube.radius) for i in range(2)]
    sums = sorted_sums([
        full_spectrum(build_hamiltonian(f, potentials[i : i + 1], none, 0.0)).eigenvalues
        for i, f in enumerate(factors)
    ])
    gaps = np.flatnonzero(np.diff(sums) > 1e-6)
    for i in gaps[[0, gaps.size // 2, -1]]:
        assert count_below(m, 0.5 * (sums[i] + sums[i + 1])) == i + 1
    i = gaps[gaps.size // 2]
    energy = 0.5 * (sums[i] + sums[i + 1])
    assert abs(dist_to_spectrum(m, energy) - np.min(np.abs(sums - energy))) <= 1e-9


def _count_cases():
    """(matrix, points per eigenvalue side) for each shape the recursion meets.

    n = 1, 2, 3, d = 1, 2, h = 0 and +-0.5.  A chain (b = 1) counts any
    number of points in one pass over its sites, so it takes more of them.
    """
    shapes = [
        (1, 1, 12), (1, 1, 40), (1, 2, 4), (2, 1, 3), (2, 1, 4), (2, 2, 1), (3, 1, 1), (3, 1, 2)
    ]
    dists = [DistributionSpec.uniform(0.0, 2.0), DistributionSpec.bernoulli(0.5, 0.0, 1.0)]
    contact = InteractionSpec.pair_contact(0, 1.0)
    for n, d, L in shapes:
        cube = Cube(Site(n, d, (0,) * (n * d)), L)
        chain = n * d == 1
        for h in (0.0,) if n == 1 else (0.0, 0.5, -0.5):
            for seed in range(16 if chain else 8):
                potentials = sample_field(dists[seed % 2], cube.particle_points(), seed, 0)
                yield build_hamiltonian(cube, potentials, contact, h), 60 if chain else 12


def test_certified_counts_match_dense_counts():
    # random points, and points 1e-9 either side of random eigenvalues
    rng = np.random.default_rng(2026)
    certified_counts = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, per_side in _count_cases():
            ev = full_spectrum(m).eigenvalues
            near = ev[rng.integers(0, m.dim, per_side)]
            points = np.concatenate(
                [rng.uniform(ev[0] - 1, ev[-1] + 1, 4 * per_side // 3), near - 1e-9, near + 1e-9]
            )
            counts, certified = spectral.band_inertia(m, points)
            dense = np.searchsorted(ev, points)
            assert np.array_equal(counts[certified], dense[certified])
            certified_counts += int(np.count_nonzero(certified))
    assert certified_counts >= 10**4, certified_counts


def test_a_near_singular_pivot_leaves_its_counts_uncertified():
    # the dist suite's instance 35 at its default seed: n = 3, L = 1, h = 0,
    # dim 27, b = 9.  Next to its 6-fold eigenvalue 4.5858 the first slab's
    # pivot is near singular, and the rounding it carries can flip a count.
    from wegnerlab.verify import _random_instance

    m = _random_instance(20260802, 35)
    ev = full_spectrum(m).eigenvalues
    lam = ev[np.argmin(np.abs(ev - 4.5858))]
    assert m.dim == 27 and np.count_nonzero(np.abs(ev - lam) < 1e-12) == 6
    points = lam + np.array([-1e-6, -1e-9, 1e-9, 1e-6])
    counts, certified = spectral.band_inertia(m, points)
    dense = np.searchsorted(ev, points)
    assert dense.tolist() == [4, 4, 10, 10]
    assert np.array_equal(counts[certified], dense[certified])
    assert [count_below(m, float(p)) for p in points] == dense.tolist()


def test_exact_zero_pivots_give_no_warning_and_no_wrong_count():
    # diag(1, 2, 3) at 2, and 0/1 potentials at integer energies, where a
    # prefix continuant and so a pivot is exactly zero
    bernoulli = DistributionSpec.bernoulli(0.5, 0.0, 1.0)
    uncertified = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, certified = spectral.band_inertia(diag_matrix(1.0, 2.0, 3.0), np.array([2.0]))
        assert counts.tolist() == [1] and not certified[0]
        assert count_below(diag_matrix(1.0, 2.0, 3.0), 2.0) == 1
        for n, d, L in [(1, 1, 8), (1, 1, 30), (1, 2, 3), (2, 1, 3)]:
            cube = Cube(Site(n, d, (0,) * (n * d)), L)
            energies = np.arange(2.0 * n * d + 2.0)
            for seed in range(8):
                potentials = sample_field(bernoulli, cube.particle_points(), seed, 0)
                m = build_hamiltonian(cube, potentials, InteractionSpec.none(), 0.0)
                counts, certified = spectral.band_inertia(m, energies)
                dense = np.searchsorted(full_spectrum(m).eigenvalues, energies)
                assert np.array_equal(counts[certified], dense[certified])
                uncertified += int(np.count_nonzero(~certified))
    assert uncertified > 0


def test_count_below_refuses_an_uncertified_count_above_the_dense_limit():
    # 2 is the middle eigenvalue of the odd chain, and its first pivot is 0
    n = 4097
    rows = np.arange(n - 1)
    chain = SymMatrix(np.full(n, 2.0), rows, rows + 1, np.full(n - 1, -1.0))
    with pytest.raises(ValueError, match="the count below 2.0 is not certified"):
        count_below(chain, 2.0)
    assert count_below(chain, 2.0 - 1e-9) == 2048
    assert count_below(chain, 2.0 + 1e-9) == 2049
    assert dist_to_spectrum(chain, 2.0) <= 1e-12 * (1.0 + 2.0 + 4.0)


def test_band_inertia_takes_infinite_and_nan_points():
    m = random_hamiltonian(3, n=2, L=2)
    counts, certified = spectral.band_inertia(m, np.array([-math.inf, math.inf, math.nan]))
    assert counts.tolist() == [0, m.dim, 0]
    assert certified.tolist() == [True, True, False]


@pytest.mark.parametrize("n", [1, 2], ids=["chain", "blocks"])
def test_band_inertia_takes_points_of_any_shape(n):
    m = random_hamiltonian(3, n=n, L=2)
    flat = np.array([4.0, -math.inf, math.nan, 1.0, 2.5, math.inf])
    counts, certified = spectral.band_inertia(m, flat)
    for points in (flat.reshape(2, 3), flat.reshape(3, 1, 2)):
        shaped = spectral.band_inertia(m, points)
        assert np.array_equal(shaped[0], counts.reshape(points.shape))
        assert np.array_equal(shaped[1], certified.reshape(points.shape))
    count, sure = spectral.band_inertia(m, 4.0)
    assert count.shape == sure.shape == ()
    assert count == counts[0] and sure == certified[0]


def _assert_stacked_counts_are_each_matrix_alone(a, points):
    counts, certified = spectral.band_inertia(a, points)
    lead = a.diag.shape[:-1]
    assert counts.shape == certified.shape == points.shape
    for index in np.ndindex(lead):
        alone = SymMatrix(a.diag[index], a.rows, a.cols, a.vals)
        want = spectral.band_inertia(alone, points[index])
        assert np.array_equal(counts[index], want[0]), index
        assert np.array_equal(certified[index], want[1]), index
    return certified


@pytest.mark.parametrize("seed", [20260802, 20263802, 11])
def test_stacked_band_inertia_is_each_matrix_alone(seed):
    # every dist suite shape, stacked as the suite stacks it, under lead
    # shapes (N,) and (2, 3): random points, points within 1e-9 of an
    # eigenvalue, on it, and +-inf and NaN
    from wegnerlab.verify import _shape_blocks

    rng = np.random.default_rng(seed)
    widths, uncertified = set(), 0
    for _, mats, a in _shape_blocks(seed, 36):
        ev = np.stack([full_spectrum(m).eigenvalues for m in mats])
        near = np.take_along_axis(ev, rng.integers(0, a.dim, (len(mats), 2)), axis=1)
        inf = np.full((len(mats), 1), math.inf)
        points = np.concatenate([
            rng.uniform(ev[:, :1] - 1.0, ev[:, -1:] + 1.0, (len(mats), 4)),
            near - 1e-9, near, near + 1e-9, inf, -inf, np.full_like(inf, math.nan),
        ], axis=1)
        certified = _assert_stacked_counts_are_each_matrix_alone(a, points)
        uncertified += int(np.count_nonzero(~certified[:, :-1]))
        six = SymMatrix(a.diag.reshape(2, 3, a.dim), a.rows, a.cols, a.vals)
        _assert_stacked_counts_are_each_matrix_alone(six, points.reshape(2, 3, 1, -1))
        blocks = spectral._band_blocks(six)[0]
        b = blocks.shape[-1]
        assert blocks.shape == (2, 3, -(-a.dim // b), b, b)
        assert np.array_equal(blocks.reshape((6,) + blocks.shape[2:]), spectral._band_blocks(a)[0])
        widths.add(b)
    assert widths == {1, 7, 9, 11, 13}
    assert uncertified > 0


def test_band_inertia_points_must_start_with_the_stack_shape():
    m = random_hamiltonian(3, n=2, L=2)
    stack = SymMatrix(np.stack([m.diag, m.diag + 1.0]), m.rows, m.cols, m.vals)
    for points in (np.zeros((3, 4)), np.zeros(3), 1.0, np.zeros((4, 2))):
        with pytest.raises(ValueError, match=r"do not start with the stack's shape \(2,\)"):
            spectral.band_inertia(stack, points)
    counts, _ = spectral.band_inertia(stack, np.array([0.5, 0.5]))
    assert counts.shape == (2,)


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


@pytest.mark.parametrize("query", [count_below, dist_to_spectrum, resolvent_norm])
def test_nan_energy_is_rejected_before_any_solve(monkeypatch, query):
    # unchecked, count_below(m, nan) is 0 and the distance and norm are nan
    def no_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(spectral, "_inertia", no_solve)
    monkeypatch.setattr(spectral, "full_spectrum", no_solve)
    with pytest.raises(ValueError, match="energy must be a number, got nan"):
        query(diag_matrix(1.0, 3.0), math.nan)


def test_infinite_energies_keep_their_meaning():
    m = diag_matrix(1.0, 3.0)
    assert count_below(m, math.inf) == 2 and count_below(m, -math.inf) == 0
    assert dist_to_spectrum(m, math.inf) == math.inf
    assert resolvent_norm(m, -math.inf) == 0.0


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
def test_smallest_singular_value_rejects_a_non_finite_energy(energy):
    # unchecked, the SVD of a non-finite matrix does not converge
    with pytest.raises(ValueError, match=f"energy must be finite, got {energy}"):
        smallest_singular_value(diag_matrix(1.0, 3.0), energy)


def test_smallest_singular_value_shifts_the_one_dense_matrix_in_place():
    # dim 1001: the solve holds the dense matrix and nothing of its size
    # beside it, as DENSE_LIMIT assumes
    dim = 1001
    sites = np.arange(dim - 1)
    m = SymMatrix(np.linspace(0.0, 2.0, dim), sites, sites + 1, np.full(dim - 1, -1.0))
    energy = 0.3
    smallest_singular_value(diag_matrix(1.0), 0.0)  # numpy's first-call set-up is not traced
    tracemalloc.start()
    try:
        sigma = smallest_singular_value(m, energy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * dim * dim, peak / (8 * dim * dim)
    assert sigma == pytest.approx(dist_to_spectrum(m, energy), rel=1e-10)
    assert smallest_singular_value(diag_matrix(1.0, -3.0, 2.5), 0.5) == 0.5


def test_smallest_singular_value_does_not_load_scipy():
    # a fresh process: pytest itself has already imported scipy
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from wegnerlab.hamiltonian import SymMatrix\n"
        "from wegnerlab.spectral import smallest_singular_value\n"
        "m = SymMatrix.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))\n"
        "print(smallest_singular_value(m, 0.5), 'scipy' in sys.modules)\n"
    )
    src = str(Path(wegnerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    sigma, loaded = proc.stdout.split()
    assert float(sigma) == pytest.approx(0.5, rel=1e-14)
    assert loaded == "False"
