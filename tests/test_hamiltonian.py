import io
import math
import tracemalloc

import numpy as np
import pytest

from wegnerlab.errors import CapacityError
from wegnerlab.hamiltonian import (
    _BLOCK_ELEMENTS,
    DENSE_LIMIT,
    SCAN_LIMIT,
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
from wegnerlab.spectral import (
    _band_blocks,
    full_spectrum,
    gershgorin_interval,
    smallest_singular_value,
)
from wegnerlab.tensor import verify_decomposition
from wegnerlab.wegner import perturbation_check

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


@pytest.mark.parametrize(
    "inter", [NONE, InteractionSpec.pair_contact(0, 1.0)], ids=["none", "contact"]
)
def test_interaction_sup_norm_scans_within_the_scan_limit(inter):
    # the sup norm is the scan's maximum, so it keeps the scan's capacity,
    # and no kind allocates a site array before the check
    cube = Cube(Site(2, 1, (0, 0)), 1024)  # 2049^2 sites
    assert cube.site_count > SCAN_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="interaction scan over 4198401 sites"):
            interaction_sup_norm(cube, inter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * cube.site_count // 16


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


def _unblock(diag, coupling, last):
    """The dense matrix of ``_band_blocks``' blocks, checking that their padding is zero."""
    m, b = diag.shape[:2]
    full = np.zeros((m * b, m * b))
    for k in range(m):
        full[k * b : (k + 1) * b, k * b : (k + 1) * b] = diag[k]
    for k in range(m - 1):
        full[k * b : (k + 1) * b, (k + 1) * b : (k + 2) * b] = coupling[k]
        full[(k + 1) * b : (k + 2) * b, k * b : (k + 1) * b] = coupling[k].T
    dim = (m - 1) * b + last
    assert not full[dim:].any() and not full[:, dim:].any()
    return full[:dim, :dim]


def test_band_blocks_hold_the_matrix():
    for n, d, L in ((1, 1, 3), (2, 1, 2), (1, 2, 2), (3, 1, 1)):
        cube = Cube(Site(n, d, (0,) * (n * d)), L)
        m = build_hamiltonian(cube, bernoulli_field(cube, 8), NONE, 0.0)
        blocks = _band_blocks(m)
        b = cube.side ** (n * d - 1)
        assert blocks[0].shape == (-(-m.dim // b), b, b)
        assert np.array_equal(_unblock(*blocks), m.dense())
        buf = io.StringIO()
        write_matrix_dump(m, buf)
        back = read_matrix_dump(io.StringIO(buf.getvalue()))
        assert all(map(np.array_equal, _band_blocks(back), blocks))
    diag, coupling, last = _band_blocks(SymMatrix.from_dense(np.diag([3.0, -1.0])))
    assert diag.shape == (2, 1, 1) and coupling.shape == (1, 1, 1) and last == 1
    assert np.array_equal(diag[:, 0, 0], [3.0, -1.0]) and not coupling.any()


def test_symmatrix_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        SymMatrix.from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        read_matrix_dump(io.StringIO("# dim 2\n0 1 1.0\n1 0 0.5\n"))
    with pytest.raises(ValueError, match="symmetric"):
        read_matrix_dump(io.StringIO("# dim 3\n0 2 -1.0\n"))
    with pytest.raises(ValueError, match="outside"):
        read_matrix_dump(io.StringIO("# dim 2\n2 2 1.0\n"))


def test_matrix_dump_rejects_a_second_dim_header():
    # unchecked, the later header wins and pads the matrix with zeros
    with pytest.raises(ValueError, match="gives '# dim' twice: 2, then 5"):
        read_matrix_dump(io.StringIO("# dim 2\n0 0 1.0\n# dim 5\n"))


@pytest.mark.parametrize("entry", ["0 1", "0 1 -1.0 7", "0 x 1.0", "0 0 one"])
def test_matrix_dump_names_a_malformed_entry_line(entry):
    # unchecked, "0 1" raises only "not enough values to unpack"
    dump = f"# wegnerlab matrix dump v1\n# dim 2\n0 0 1.0\n{entry}\n"
    with pytest.raises(ValueError, match=f"line 4 is not 'row col value': '{entry}'"):
        read_matrix_dump(io.StringIO(dump))


def test_inf_norm_is_per_matrix_of_a_stack():
    # unchecked, a stack got the largest norm over the whole stack
    m = SymMatrix.from_dense([[1.0, -2.0, 0.0], [-2.0, 3.0, 0.5], [0.0, 0.5, -4.0]])
    assert m.inf_norm() == 5.5 and type(m.inf_norm()) is float
    diags = np.array([[[1.0, 3.0, -4.0], [9.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [-1.0, -1.0, -7.0]]])
    stack = SymMatrix(diags, m.rows, m.cols, m.vals)
    norms = stack.inf_norm()
    assert norms.shape == (2, 2)
    for i, j in np.ndindex(2, 2):
        assert norms[i, j] == SymMatrix(diags[i, j], m.rows, m.cols, m.vals).inf_norm()
    assert norms.tolist() == [[5.5, 11.0], [2.5, 7.5]]


@pytest.mark.parametrize("dim", [0, -1])
def test_symmatrix_rejects_dimension_below_one(dim):
    # unchecked, a "# dim 0" dump loads and every count or distance on it
    # fails with numpy's zero-size reduction error
    with pytest.raises(ValueError, match=f"matrix dimension must be >= 1, got {dim}"):
        read_matrix_dump(io.StringIO(f"# wegnerlab matrix dump v1\n# dim {dim}\n"))
    with pytest.raises(ValueError, match=f"matrix dimension must be >= 1, got {dim}"):
        SymMatrix.from_entries(dim, [], [], [])
    with pytest.raises(ValueError, match="matrix dimension must be >= 1, got 0"):
        SymMatrix.from_dense(np.zeros((0, 0)))


def test_symmatrix_rejects_repeated_entries():
    # a repeated diagonal entry would keep only its last value, and a
    # repeated off-diagonal pair would count twice in the Gershgorin radii
    # and the inf-norm but once in the dense matrix
    dump = "# dim 2\n0 0 1.0\n0 0 5.0\n0 1 -1.0\n1 0 -1.0\n0 1 -1.0\n1 0 -1.0\n1 1 2.0\n"
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is given more than once"):
        read_matrix_dump(io.StringIO(dump))
    with pytest.raises(ValueError, match=r"entry \(0, 1\) is given more than once"):
        SymMatrix.from_entries(2, [0, 1, 0, 1], [1, 0, 1, 0], [-1.0] * 4)


@pytest.mark.parametrize(
    ("entries", "bad"), [("0 0 nan\n1 1 inf\n", r"\(0, 0\) is not finite: nan"),
                         ("0 1 -inf\n1 0 -inf\n", r"\(0, 1\) is not finite: -inf")],
    ids=["diagonal", "off_diagonal"],
)
def test_symmatrix_rejects_non_finite_entries(entries, bad):
    # unchecked, a dump with 0 0 nan and 1 1 inf loads and its
    # full_spectrum is a silent [-1.414, 1.414]
    with pytest.raises(ValueError, match=rf"matrix entry {bad}"):
        read_matrix_dump(io.StringIO("# dim 2\n" + entries))
    with pytest.raises(ValueError, match=r"matrix entry \(1, 1\) is not finite: nan"):
        SymMatrix.from_dense(np.diag([1.0, math.nan]))


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


def test_every_dense_solve_is_refused_above_the_dense_limit(monkeypatch):
    # n = 2, d = 1, L = 32 has dim 65^2 = 4225 > DENSE_LIMIT: every route to
    # a dense matrix raises full_spectrum's CapacityError from
    # SymMatrix.dense, before any matrix of that size is allocated
    cube = Cube(Site(2, 1, (0, 0)), 32)
    dim = cube.site_count
    assert dim == 4225 > DENSE_LIMIT
    potentials = np.zeros((1, 2, 65))
    matrix = build_hamiltonian(cube, potentials[0], NONE, 0.0)
    with pytest.raises(CapacityError) as expected:
        full_spectrum(matrix)
    assert str(expected.value) == (
        "dim 4225 exceeds the dense eigensolver limit 4096; use count_below or dist_to_spectrum"
    )
    contact = InteractionSpec.pair_contact(0, 1.0)
    routes = {
        "dense": matrix.dense,
        "CubeAssembly.eigenvalues": lambda: CubeAssembly.of(cube, NONE, 0.0).eigenvalues(
            potentials
        ),
        "perturbation_check": lambda: perturbation_check(
            cube, potentials, contact, 0.0, 0.3, 1.0, 0.5, 4
        ),
        "verify_decomposition": lambda: verify_decomposition(cube, potentials),
        "smallest_singular_value": lambda: smallest_singular_value(matrix, 0.3),
    }
    shapes = _recorded_eigvalsh(monkeypatch)
    for name, route in routes.items():
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as raised:
                route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(raised.value) == str(expected.value), name
        assert peak < 8 * dim * dim // 16, (name, peak)
    # only verify_decomposition's single-particle solve, of dim 65, ran
    assert shapes == [(1, 65, 65)]
    assert all(shape[-1] <= DENSE_LIMIT for shape in shapes)
