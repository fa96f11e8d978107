import numpy as np
import pytest

from wegnerlab.hamiltonian import InteractionSpec, build_hamiltonian
from wegnerlab.lattice import Cube, Site
from wegnerlab.randomfield import DistributionSpec, draw_values, sample_field
from wegnerlab.spectral import full_spectrum
from wegnerlab.tensor import SumsetAssembly, sorted_sums, verify_decomposition


def test_sumset_basic():
    s = sorted_sums([[0.0, 1.0], [0.0, 10.0]])
    assert np.array_equal(s, [0.0, 1.0, 10.0, 11.0])


def test_sumset_single_spectrum_is_identity():
    base = np.array([0.5, 1.5, 2.5])
    s = sorted_sums([base])
    assert np.array_equal(s, base)


def test_sumset_three_singletons():
    s = sorted_sums([[1.0], [2.0], [4.0]])
    assert np.array_equal(s, [7.0])


def test_sumset_keeps_duplicates():
    s = sorted_sums([[0.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(s, [0.0, 1.0, 1.0, 2.0])
    assert np.min(s) == 0.0 and np.max(s) == 2.0


def test_decomposition_point_cube():
    # n=2, L=0 with constant potential c on the only point: direct entry 4 + 2c
    c = 0.7
    cube = Cube(Site(2, 1, (0, 0)), 0)
    potentials = np.full((2, 1), c)
    assert verify_decomposition(cube, potentials) == 0.0
    direct = build_hamiltonian(cube, potentials, InteractionSpec.none(), 0.0)
    assert np.array_equal(direct.dense(), [[4.0 + 2.0 * c]])


@pytest.mark.parametrize("seed", range(10))
def test_decomposition_two_particles(seed):
    cube = Cube(Site(2, 1, (0, 0)), 2)
    potentials = sample_field(
        DistributionSpec.bernoulli(0.5, 0.0, 1.0), cube.particle_points(), seed, 0
    )
    assert verify_decomposition(cube, potentials) <= 1e-9


def test_decomposition_three_particles():
    cube = Cube(Site(3, 1, (0, 0, 0)), 1)  # 27 x 27 direct matrix
    potentials = sample_field(
        DistributionSpec.bernoulli(0.5, 0.0, 1.0), cube.particle_points(), 13, 0
    )
    assert verify_decomposition(cube, potentials) <= 1e-9


def test_decomposition_distinct_centers():
    cube = Cube(Site(2, 1, (0, 4)), 1)
    potentials = sample_field(
        DistributionSpec.uniform(0.0, 2.0), cube.particle_points(), 29, 0
    )
    assert verify_decomposition(cube, potentials) <= 1e-9


def test_sumset_count():
    cube = Cube(Site(2, 1, (0, 0)), 2)
    potentials = sample_field(
        DistributionSpec.bernoulli(0.5, 0.0, 1.0), cube.particle_points(), 3, 0
    )
    none = InteractionSpec.none()
    singles = [
        full_spectrum(build_hamiltonian(cube.particle_cube(i), potentials[i : i + 1], none, 0.0))
        for i in range(2)
    ]
    s = sorted_sums([single.eigenvalues for single in singles])
    assert s.size == (2 * 2 + 1) ** 2 == cube.site_count
    assert np.min(s) == singles[0].eigenvalues[0] + singles[1].eigenvalues[0]
    assert np.max(s) == singles[0].eigenvalues[-1] + singles[1].eigenvalues[-1]


def test_shift_covariance():
    # adding c to every site value shifts every sum by n*c
    cube = Cube(Site(2, 1, (0, 0)), 1)
    base = sample_field(
        DistributionSpec.bernoulli(0.5, 0.0, 1.0), cube.particle_points(), 11, 0
    )
    shifted = base + 0.25
    none = InteractionSpec.none()

    def sums(potentials):
        singles = [
            full_spectrum(build_hamiltonian(cube.particle_cube(i), v[None], none, 0.0))
            for i, v in enumerate(potentials)
        ]
        return sorted_sums([single.eigenvalues for single in singles])

    assert np.allclose(sums(shifted), sums(base) + 2 * 0.25, atol=1e-10)


def test_flipped_hopping_breaks_decomposition():
    # mutation sanity: a single off-diagonal sign flip must be caught
    cube = Cube(Site(2, 1, (0, 0)), 1)
    potentials = sample_field(
        DistributionSpec.bernoulli(0.5, 0.0, 1.0), cube.particle_points(), 17, 0
    )
    none = InteractionSpec.none()
    singles = [
        full_spectrum(build_hamiltonian(cube.particle_cube(i), potentials[i : i + 1], none, 0.0))
        for i in range(2)
    ]
    good = sorted_sums([single.eigenvalues for single in singles])
    broken = build_hamiltonian(cube, potentials, none, 0.0).dense()
    broken[0, 1] = broken[1, 0] = +1.0
    ev = np.linalg.eigvalsh(broken)
    assert np.max(np.abs(ev - good)) > 1e-6


def test_decomposition_two_particles_two_dimensions():
    cube = Cube(Site(2, 2, (0, 0, 1, -1)), 1)  # 81 x 81 direct matrix
    potentials = sample_field(
        DistributionSpec.uniform(0.0, 2.0), cube.particle_points(), 37, 0
    )
    assert verify_decomposition(cube, potentials) <= 1e-9


def test_sumset_block_is_bitwise_the_per_cube_spectra():
    # a (trials, cubes, n, m) block gives each cube the sorted sums of its
    # own single-particle solves, bit for bit, and nothing else
    for d, L, n in ((1, 2, 2), (2, 1, 2), (1, 1, 3)):
        assembly = SumsetAssembly.of(d, L)
        cube = Cube(Site(n, d, (0,) * (n * d)), L)
        points = np.stack([cube.particle_points()] * 2)
        trials = np.arange(7)
        block = draw_values(DistributionSpec.uniform(0.0, 2.0), points, 3, trials)
        sums = sorted_sums(assembly.eigenvalues(block))
        assert sums.shape == (7, 2, cube.site_count)
        assert np.all(np.diff(sums, axis=-1) >= 0)
        none = InteractionSpec.none()
        for t, c in np.ndindex(7, 2):
            v = block[t, c]
            singles = [
                np.linalg.eigvalsh(
                    build_hamiltonian(cube.particle_cube(i), v[i : i + 1], none, 0.0).dense()
                )
                for i in range(n)
            ]
            assert np.array_equal(sums[t, c], sorted_sums(singles))
            assert np.array_equal(sums[t, c], sorted_sums(assembly.eigenvalues(v)))


def _full_stack(assembly, potentials):
    """Every row of ``potentials`` given its own matrix in one stack, repeats included."""
    m = assembly.kinetic.shape[0]
    stack = np.empty(potentials.shape + (m,))
    stack[...] = assembly.kinetic
    stack.reshape(potentials.shape[:-1] + (m * m,))[..., :: m + 1] += potentials
    return np.linalg.eigvalsh(stack)


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _stacked_solves(monkeypatch):
    """Record the number of matrices in each np.linalg.eigvalsh call."""
    sizes = []

    def recording(a):
        sizes.append(len(a))
        return eigvalsh(a)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes


@pytest.mark.parametrize("d, L", [(1, 2), (2, 1)])
@pytest.mark.parametrize(
    "spec",
    [DistributionSpec.bernoulli(0.5, 0.0, 1.0), DistributionSpec.uniform(0.0, 2.0)],
    ids=["bernoulli", "uniform"],
)
def test_box_solve_stacks_each_distinct_row_once(monkeypatch, spec, d, L):
    # a (trials, k, m) block of three boxes: Bernoulli rows repeat heavily,
    # uniform rows never; either way the result is bitwise the full stack's
    assembly = SumsetAssembly.of(d, L)
    box = Cube(Site(1, d, (0,) * d), L).particle_points()[0]
    points = np.stack([box, box + 1, box + 2])
    block = draw_values(spec, points, 5, np.arange(300))
    want = _full_stack(assembly, block)
    rows = block.reshape(-1, block.shape[-1])
    distinct = len({row.tobytes() for row in rows})
    sizes = _stacked_solves(monkeypatch)
    assert _bitwise_equal(assembly.eigenvalues(block), want)
    assert sizes == [distinct]
    if spec.kind == "bernoulli":
        assert distinct <= 2 ** rows.shape[1] < len(rows)
    else:
        assert distinct == len(rows)


def test_box_solve_keys_rows_on_their_bits(monkeypatch):
    # rows equal as numbers but not as bits (-0.0 against 0.0, one ulp
    # apart) are solved apart; bitwise repeats are solved once
    assembly = SumsetAssembly.of(1, 1)
    base = [0.0, 1.0, 0.5]
    rows = np.array(
        [base, [-0.0, 1.0, 0.5], base, [0.0, np.nextafter(1.0, 2.0), 0.5], [-0.0, 1.0, 0.5]]
    )
    want = _full_stack(assembly, rows)
    sizes = _stacked_solves(monkeypatch)
    got = assembly.eigenvalues(rows)
    assert _bitwise_equal(got, want)
    assert sizes == [3]
    for row, ev in zip(rows, got):
        assert _bitwise_equal(ev, _full_stack(assembly, row[None])[0])


def test_box_solve_of_an_empty_block():
    assembly = SumsetAssembly.of(1, 2)
    empty = np.empty((0, 2, 5))
    got = assembly.eigenvalues(empty)
    assert got.shape == (0, 2, 5)
    assert _bitwise_equal(got, _full_stack(assembly, empty))
