import io
import math

import numpy as np
import pytest

from wegnerlab.hamiltonian import (
    _BLOCK_ELEMENTS,
    CubeAssembly,
    InteractionSpec,
    SymMatrix,
    build_hamiltonian,
    interaction_sup_norm,
    read_matrix_dump,
    write_matrix_dump,
)
from wegnerlab.lattice import Cube, Site
from wegnerlab.randomfield import DistributionSpec, draw_values, sample_field
from wegnerlab.spectral import full_spectrum, gershgorin_interval

NONE = InteractionSpec.none()
BERNOULLI = DistributionSpec.bernoulli(0.5, 0.0, 1.0)


def zero_field(cube: Cube) -> np.ndarray:
    return np.zeros((cube.center.n, cube.side**cube.center.d))


def bernoulli_field(cube: Cube, seed: int, trial: int = 0) -> np.ndarray:
    return sample_field(BERNOULLI, cube.particle_points(), seed, trial)


def point_value(spec: DistributionSpec, point, seed: int, trial: int = 0) -> float:
    """The field at one lattice point, from its own one-point draw."""
    return float(draw_values(spec, [point], seed, trial)[0])


def test_single_site_free():
    cube = Cube(Site(1, 1, (0,)), 0)
    m = build_hamiltonian(cube, zero_field(cube), NONE, 0.0)
    assert np.array_equal(m.dense(), [[2.0]])


def test_three_site_chain_spectrum():
    cube = Cube(Site(1, 1, (0,)), 1)
    m = build_hamiltonian(cube, zero_field(cube), NONE, 0.0)
    ev = full_spectrum(m).eigenvalues
    expected = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    assert np.allclose(ev, expected, atol=1e-10)


def test_pair_contact_diagonal():
    # two particles on a 3-site segment: h*U = 0.1 exactly on the diagonal x1 == x2
    cube = Cube(Site(2, 1, (0, 0)), 1)
    m = build_hamiltonian(cube, zero_field(cube), InteractionSpec.pair_contact(0, 1.0), 0.1)
    diag = m.diagonal()
    coincident = [i for i, s in enumerate(cube_sites(cube)) if s[0] == s[1]]
    assert len(coincident) == 3
    for i in range(9):
        assert diag[i] == pytest.approx(4.1 if i in coincident else 4.0)


def cube_sites(cube):
    from wegnerlab.lattice import coords_array

    return [tuple(r) for r in coords_array(cube).tolist()]


def test_diagonal_reads_shared_field():
    # configuration (a, a) picks up 2 V(a) exactly
    cube = Cube(Site(2, 1, (0, 0)), 1)
    field = bernoulli_field(cube, seed=5)
    m = build_hamiltonian(cube, field, NONE, 0.0)
    diag = m.diagonal()
    for i, s in enumerate(cube_sites(cube)):
        v0, v1 = (point_value(BERNOULLI, (x,), 5) for x in s)
        assert diag[i] == 4.0 + v0 + v1
        if s[0] == s[1]:
            assert diag[i] == 4.0 + 2.0 * v0


def test_symmetry_is_bitwise():
    cube = Cube(Site(2, 1, (0, 0)), 2)
    m = build_hamiltonian(cube, bernoulli_field(cube, 1), NONE, 0.0).dense()
    assert np.array_equal(m, m.T)


def test_row_structure():
    # every row has at most 2nd off-diagonal entries, all equal to -1
    for n, d, L in [(1, 1, 3), (2, 1, 2), (1, 2, 2)]:
        cube = Cube(Site(n, d, (0,) * (n * d)), L)
        m = build_hamiltonian(cube, bernoulli_field(cube, 2), NONE, 0.0).dense()
        off = m - np.diag(np.diag(m))
        assert set(np.unique(off)) <= {-1.0, 0.0}
        assert np.max(np.count_nonzero(off, axis=1)) <= 2 * n * d


def test_neighbor_pairs_match_one_norm():
    cube = Cube(Site(2, 1, (0, 0)), 1)
    sites = cube_sites(cube)
    m = build_hamiltonian(cube, zero_field(cube), NONE, 0.0).dense()
    for i, a in enumerate(sites):
        for j, b in enumerate(sites):
            expected = -1.0 if sum(abs(x - y) for x, y in zip(a, b)) == 1 else 0.0
            if i != j:
                assert m[i, j] == expected


def test_gershgorin_contains_spectrum():
    for seed in range(4):
        cube = Cube(Site(2, 1, (0, 0)), 2)
        m = build_hamiltonian(
            cube, bernoulli_field(cube, seed), InteractionSpec.pair_contact(1, 0.5), 0.3
        )
        lo, hi = gershgorin_interval(m)
        ev = full_spectrum(m).eigenvalues
        assert ev[0] >= lo - 1e-12 and ev[-1] <= hi + 1e-12
        n, d = 2, 1
        assert lo >= np.min(m.diagonal()) - 2 * n * d - 1e-12
        assert hi <= np.max(m.diagonal()) + 2 * n * d + 1e-12


def test_h_linearity():
    cube = Cube(Site(2, 1, (0, 0)), 2)
    field = bernoulli_field(cube, 3)
    inter = InteractionSpec.pair_contact(1, 2.0)
    m1 = build_hamiltonian(cube, field, inter, 0.7).dense()
    m2 = build_hamiltonian(cube, field, inter, 0.2).dense()
    diff = m1 - m2
    assert np.count_nonzero(diff - np.diag(np.diag(diff))) == 0
    u = build_hamiltonian(cube, field, inter, 1.0).dense() - build_hamiltonian(
        cube, field, inter, 0.0
    ).dense()
    assert np.allclose(np.diag(diff), 0.5 * np.diag(u), atol=1e-12)


def test_wrong_shape_potentials_are_rejected():
    cube = Cube(Site(2, 1, (0, 5)), 1)
    assert build_hamiltonian(cube, zero_field(cube), NONE, 0.0).dim == 9
    wrong = [
        np.zeros((2, 2)),  # a particle cube point missing
        np.zeros((1, 3)),  # a particle missing
        np.zeros(6),  # the flat points of both particles
        np.zeros((2, 3, 1)),  # shaped like the particle points, not their values
    ]
    for potentials in wrong:
        with pytest.raises(ValueError, match=r"shape \(n, side\^d\) = \(2, 3\)"):
            build_hamiltonian(cube, potentials, NONE, 0.0)


def test_interaction_sup_norm_none():
    cube = Cube(Site(2, 1, (0, 0)), 1)
    assert interaction_sup_norm(cube, NONE) == 0.0


def test_interaction_sup_norm_single_pair():
    for L in (0, 1, 3):
        cube = Cube(Site(2, 1, (0, 0)), L)
        assert interaction_sup_norm(cube, InteractionSpec.pair_contact(0, 1.0)) == 1.0


def test_interaction_sup_norm_three_clustered():
    cube = Cube(Site(3, 1, (0, 0, 0)), 1)
    assert interaction_sup_norm(cube, InteractionSpec.pair_contact(1, 2.0)) == 6.0


def test_interaction_sup_norm_separated_centers_scans():
    # centers too far apart for any contact pair
    cube = Cube(Site(2, 1, (0, 10)), 1)
    assert interaction_sup_norm(cube, InteractionSpec.pair_contact(0, 1.0)) == 0.0
    # partially reachable: one clustered configuration exists
    near = Cube(Site(2, 1, (0, 2)), 1)
    assert interaction_sup_norm(near, InteractionSpec.pair_contact(0, 1.0)) == 1.0


def test_assembly_above_dense_limit():
    # two-point field with values {-2, 1}: the diagonal 2 + V is zero wherever V = -2
    cube = Cube(Site(1, 1, (0,)), 2500)  # 5001 sites
    spec = DistributionSpec.bernoulli(0.5, -2.0, 1.0)
    m = build_hamiltonian(cube, sample_field(spec, cube.particle_points(), 6, 0), NONE, 0.0)
    assert m.dim == 5001
    assert m.inf_norm() == 5.0
    zero_sites = np.flatnonzero(m.diagonal() == 0.0)
    assert 0 < zero_sites.size < m.dim
    entries = list(m.nonzeros())
    assert all(v != 0.0 for _, _, v in entries)
    assert len(entries) == (m.dim - zero_sites.size) + 2 * (m.dim - 1)
    assert entries == sorted(entries)
    row = {c: v for r, c, v in entries if r == 1}
    assert row[0] == -1.0 and row[2] == -1.0 and set(row) <= {0, 1, 2}
    assert row.get(1, 0.0) == 2.0 + point_value(spec, (-2499,), 6)
    buf = io.StringIO()
    write_matrix_dump(m, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2 + len(entries)
    assert not any(line.split()[2] in ("0.0", "-0.0") for line in lines[2:])


def test_matrix_dump_round_trip():
    cube = Cube(Site(2, 1, (0, 0)), 1)
    m = build_hamiltonian(cube, bernoulli_field(cube, 4), InteractionSpec.pair_contact(0, 1.0), 0.25)
    buf = io.StringIO()
    write_matrix_dump(m, buf)
    text = buf.getvalue()
    assert text.splitlines()[1] == "# dim 9"
    back = read_matrix_dump(io.StringIO(text))
    assert np.array_equal(back.dense(), m.dense())


def _unband(ab: np.ndarray) -> np.ndarray:
    bw, dim = ab.shape[0] - 1, ab.shape[1]
    m = np.zeros((dim, dim))
    for k in range(bw + 1):
        for j in range(bw - k, dim):
            m[j - bw + k, j] = m[j, j - bw + k] = ab[k, j]
    return m


def test_banded_storage_holds_the_matrix():
    for n, d, L in ((1, 1, 3), (2, 1, 2), (1, 2, 2), (3, 1, 1)):
        cube = Cube(Site(n, d, (0,) * (n * d)), L)
        m = build_hamiltonian(cube, bernoulli_field(cube, 8), NONE, 0.0)
        ab = m.banded()
        assert ab.shape == (cube.side ** (n * d - 1) + 1, m.dim)
        assert np.array_equal(_unband(ab), m.dense())
        buf = io.StringIO()
        write_matrix_dump(m, buf)
        back = read_matrix_dump(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.banded(), ab)
    single = SymMatrix.from_dense(np.diag([3.0, -1.0]))
    assert np.array_equal(single.banded(), [[3.0, -1.0]])


def test_symmatrix_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        SymMatrix.from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        read_matrix_dump(io.StringIO("# dim 2\n0 1 1.0\n1 0 0.5\n"))
    with pytest.raises(ValueError, match="symmetric"):
        read_matrix_dump(io.StringIO("# dim 3\n0 2 -1.0\n"))
    with pytest.raises(ValueError, match="outside"):
        read_matrix_dump(io.StringIO("# dim 2\n2 2 1.0\n"))


def test_square_lattice_spectrum_separates():
    # free d=2 Dirichlet square: eigenvalues are sums of two 1D chain values
    cube2 = Cube(Site(1, 2, (0, 0)), 2)
    chain = Cube(Site(1, 1, (0,)), 2)
    ev2 = full_spectrum(build_hamiltonian(cube2, zero_field(cube2), NONE, 0.0)).eigenvalues
    ev1 = full_spectrum(build_hamiltonian(chain, zero_field(chain), NONE, 0.0)).eigenvalues
    expected = np.sort(np.add.outer(ev1, ev1).ravel())
    assert np.allclose(ev2, expected, atol=1e-10)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _recorded_eigvalsh(monkeypatch):
    """Record the shape of each np.linalg.eigvalsh call."""
    shapes = []

    def recording(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


@pytest.mark.parametrize(
    ("n", "d", "L", "coupled"),
    [(1, 1, 3, False), (1, 2, 1, False), (2, 1, 2, False), (2, 1, 2, True),
     (2, 2, 1, True), (3, 1, 1, False), (3, 1, 1, True)],
)
def test_cube_assembly_eigenvalues_are_bitwise_the_dense_spectra(monkeypatch, n, d, L, coupled):
    # a (trials, 2, n, m) block with Bernoulli repeats and rows that differ
    # only in -0.0 against 0.0: every row is bitwise full_spectrum of its
    # own matrix, and the stacked calls keep to the element budget
    cube = Cube(Site(n, d, (0,) * (n * d)), L)
    inter = InteractionSpec.pair_contact(0, 1.0) if coupled else NONE
    assembly = CubeAssembly.of(cube, inter, 0.01 if coupled else 0.0)
    assert (assembly.coupling is not None) == coupled
    block = draw_values(BERNOULLI, cube.particle_points(), 5, np.arange(60))
    block = np.stack([block, np.where(block == 0.0, -0.0, block)], axis=1)
    assert np.any(np.signbit(block)) and not np.array_equal(_bits(block[:, 0]), _bits(block[:, 1]))
    shapes = _recorded_eigvalsh(monkeypatch)
    got = assembly.eigenvalues(block)
    assert got.shape == (60, 2, cube.site_count)
    dim = cube.site_count
    assert all(k * dim * dim <= _BLOCK_ELEMENTS or k == 1 for k, _, _ in shapes)
    solved = sum(k for k, _, _ in shapes)
    assert solved <= len(np.unique(_bits(assembly.diagonals(block)).reshape(120, -1), axis=0))
    shapes.clear()
    for t, c in np.ndindex(60, 2):
        want = full_spectrum(assembly.matrix(block[t, c])).eigenvalues
        assert np.array_equal(_bits(got[t, c]), _bits(want)), (t, c)


def test_cube_assembly_eigenvalues_split_distinct_rows_into_budget_chunks(monkeypatch):
    # 40 distinct uniform rows of dim 49 take four stacked calls of at most
    # 2^15 floats; a dim 183 matrix alone exceeds the budget and is solved
    # on its own
    cube = Cube(Site(2, 1, (0, 0)), 3)
    assembly = CubeAssembly.of(cube, InteractionSpec.pair_contact(0, 1.0), -0.02)
    block = draw_values(DistributionSpec.uniform(0.0, 2.0), cube.particle_points(), 9, np.arange(40))
    shapes = _recorded_eigvalsh(monkeypatch)
    got = assembly.eigenvalues(block)
    assert shapes == [(13, 49, 49)] * 3 + [(1, 49, 49)]
    for t in range(40):
        want = full_spectrum(assembly.matrix(block[t])).eigenvalues
        assert np.array_equal(_bits(got[t]), _bits(want)), t
    chain = Cube(Site(1, 1, (0,)), 91)
    single = CubeAssembly.of(chain, NONE, 0.0)
    rows = draw_values(BERNOULLI, chain.particle_points(), 3, np.arange(3))
    shapes.clear()
    got = single.eigenvalues(rows)
    assert shapes == [(1, 183, 183)] * 3
    for t in range(3):
        assert np.array_equal(_bits(got[t]), _bits(full_spectrum(single.matrix(rows[t])).eigenvalues))


def test_cube_assembly_eigenvalues_of_an_empty_block(monkeypatch):
    cube = Cube(Site(2, 1, (0, 0)), 1)
    assembly = CubeAssembly.of(cube, InteractionSpec.pair_contact(0, 1.0), 0.01)
    shapes = _recorded_eigvalsh(monkeypatch)
    got = assembly.eigenvalues(np.empty((0, 4, 2, 3)))
    assert got.shape == (0, 4, 9) and shapes == []


def test_cube_assembly_matrix_is_the_block_diagonal():
    # matrix() of one instance carries the diagonal the block solve keys on
    cube = Cube(Site(3, 1, (0, 1, -1)), 1)
    assembly = CubeAssembly.of(cube, InteractionSpec.pair_contact(0, 1.0), 0.3)
    block = draw_values(DistributionSpec.uniform(-1.0, 1.0), cube.particle_points(), 4, np.arange(5))
    diagonals = assembly.diagonals(block)
    for t in range(5):
        assert np.array_equal(_bits(assembly.matrix(block[t]).diag), _bits(diagonals[t]))
        assert np.array_equal(
            assembly.matrix(block[t]).dense(),
            build_hamiltonian(cube, block[t], InteractionSpec.pair_contact(0, 1.0), 0.3).dense(),
        )
