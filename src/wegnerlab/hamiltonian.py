"""Finite-volume n-particle Hamiltonians on a cube.

The operator is  H = -laplacian + sum_j V(x_j) + h*U  with the kinetic part
stored positive semidefinite: +2nd on the diagonal and -1 on every pair of
cube sites at l1 distance 1.  The cube restriction is the Dirichlet
one: hopping terms leaving the cube are dropped, the diagonal is untouched.
This keeps the h=0 operator an exact Kronecker sum of the n single-particle
Hamiltonians, which the tensor module relies on.  The disorder enters as an
(n, side^d) potential array, V at each particle's single-particle cube
points, so the diagonal is that Kronecker sum of the rows plus h*U
(``unsorted_sums``, which also forms the sumset spectra).

``CubeAssembly.eigenvalues`` solves a whole block of such operators: it
forms every diagonal at once, solves each distinct one once and never
holds more than ``_BLOCK_ELEMENTS`` floats of dense matrices (or a
single matrix, when one alone is larger).
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .lattice import Cube, coords_array

SCAN_LIMIT = 1 << 22
DENSE_LIMIT = 4096
_BLOCK_ELEMENTS = 1 << 15


def require_dense(dim: int) -> None:
    """Raise CapacityError when a dense solve of dimension ``dim`` is above DENSE_LIMIT."""
    if dim > DENSE_LIMIT:
        raise CapacityError(
            f"dim {dim} exceeds the dense eigensolver limit {DENSE_LIMIT}; "
            "use count_below or dist_to_spectrum"
        )


@dataclass(frozen=True)
class InteractionSpec:
    """Inter-particle potential U; ``pair_contact`` counts close pairs.

    U(x) = amplitude * #{(i, j): i < j, sup-dist(x_i, x_j) <= radius}, so
    |U| is bounded by |amplitude| * n(n-1)/2.
    """

    kind: str
    radius: int = 0
    amplitude: float = 0.0

    @classmethod
    def none(cls):
        return cls(kind="none")

    @classmethod
    def pair_contact(cls, radius: int, amplitude: float):
        if radius < 0:
            raise ValueError(f"contact radius must be >= 0, got {radius}")
        return cls(kind="pair_contact", radius=int(radius), amplitude=float(amplitude))

    def sup_bound(self, n: int) -> float:
        """|amplitude| * n(n-1)/2, a bound on |U| over every n-particle configuration."""
        if self.kind == "none":
            return 0.0
        return abs(self.amplitude) * (n * (n - 1) // 2)


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric matrix in the cube enumeration basis.

    Stored as the diagonal plus the strictly upper triangle as
    (rows, cols, vals) with rows < cols; each off-diagonal entry is held
    once, so the matrix is symmetric by construction.  A stacked
    (..., dim) diagonal is a stack of matrices that share their
    off-diagonal triples: ``dense`` gives the (..., dim, dim) stack,
    ``diagonal`` and ``gershgorin_radii`` serve every matrix of it and
    ``inf_norm`` gives one norm per matrix, while ``nonzeros`` takes only
    one matrix.
    """

    diag: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def dim(self) -> int:
        return self.diag.shape[-1]

    @classmethod
    def from_entries(cls, dim: int, rows, cols, vals) -> "SymMatrix":
        """From (row, col, value) triples.

        Rejects a dim below 1 and non-finite, repeated and unmirrored entries.
        """
        if dim < 1:
            raise ValueError(f"matrix dimension must be >= 1, got {dim}")
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if np.any((rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim)):
            raise ValueError(f"matrix entry index outside dim {dim}")
        if not np.all(np.isfinite(vals)):
            i = np.argmin(np.isfinite(vals))
            raise ValueError(f"matrix entry ({rows[i]}, {cols[i]}) is not finite: {vals[i]}")
        entries, counts = np.unique(np.stack([rows, cols], axis=1), axis=0, return_counts=True)
        if np.any(counts > 1):
            r, c = entries[np.argmax(counts > 1)]
            raise ValueError(f"matrix entry ({r}, {c}) is given more than once")
        upper, lower = rows < cols, rows > cols
        up = np.lexsort((cols[upper], rows[upper]))
        down = np.lexsort((rows[lower], cols[lower]))
        upper_entries = (rows[upper][up], cols[upper][up], vals[upper][up])
        mirrored = (cols[lower][down], rows[lower][down], vals[lower][down])
        if not all(map(np.array_equal, upper_entries, mirrored)):
            raise ValueError("matrix entries are not exactly symmetric")
        diag = np.zeros(dim)
        on_diag = rows == cols
        diag[rows[on_diag]] = vals[on_diag]
        return cls(diag, *upper_entries)

    @classmethod
    def from_dense(cls, m) -> "SymMatrix":
        """From a square array; rejects one that is not exactly symmetric."""
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        rows, cols = np.nonzero(m)
        return cls.from_entries(m.shape[0], rows, cols, m[rows, cols])

    def dense(self) -> np.ndarray:
        """The (..., dim, dim) dense matrices by flat index; CapacityError above DENSE_LIMIT."""
        dim, lead = self.dim, self.diag.shape[:-1]
        require_dense(dim)
        m = np.zeros(lead + (dim * dim,))
        m[..., self.rows * dim + self.cols] = self.vals
        m[..., self.cols * dim + self.rows] = self.vals
        m[..., :: dim + 1] = self.diag
        return m.reshape(lead + (dim, dim))

    def diagonal(self) -> np.ndarray:
        return self.diag

    def gershgorin_radii(self) -> np.ndarray:
        """Sum of |off-diagonal entries| per row."""
        mags = np.abs(self.vals)
        return np.bincount(self.rows, mags, self.dim) + np.bincount(self.cols, mags, self.dim)

    def inf_norm(self):
        """max_i sum_j |A_ij|: a float for one matrix, an array for a stack."""
        norms = np.max(np.abs(self.diag) + self.gershgorin_radii(), axis=-1)
        return float(norms) if norms.ndim == 0 else norms

    def nonzeros(self):
        """Iterator over (row, col, value) of the nonzero entries, sorted by (row, col)."""
        sites = np.arange(self.dim)
        rows = np.concatenate([sites, self.rows, self.cols])
        cols = np.concatenate([sites, self.cols, self.rows])
        vals = np.concatenate([self.diag, self.vals, self.vals])
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, rows))
        return zip(rows[order].tolist(), cols[order].tolist(), vals[order].tolist())


def _pair_counts(coords: np.ndarray, n: int, d: int, radius: int) -> np.ndarray:
    """Number of particle pairs within sup-distance ``radius``, per site."""
    counts = np.zeros(coords.shape[0], dtype=np.int64)
    for i in range(n):
        ci = coords[:, i * d : (i + 1) * d]
        for j in range(i + 1, n):
            cj = coords[:, j * d : (j + 1) * d]
            counts += np.max(np.abs(ci - cj), axis=1) <= radius
    return counts


def interaction_values(cube: Cube, inter: InteractionSpec) -> np.ndarray:
    """U(x) over the cube sites in enumeration order; CapacityError above SCAN_LIMIT sites."""
    dim = cube.site_count
    if dim > SCAN_LIMIT:
        raise CapacityError(f"interaction scan over {dim} sites not supported")
    if inter.kind == "none":
        return np.zeros(dim)
    n, d = cube.center.n, cube.center.d
    counts = _pair_counts(coords_array(cube), n, d, inter.radius)
    return inter.amplitude * counts


def interaction_sup_norm(cube: Cube, inter: InteractionSpec) -> float:
    """max over cube sites of |U(x)|, exact, by the scan of ``interaction_values``."""
    return float(np.max(np.abs(interaction_values(cube, inter))))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _hopping_pairs(cube: Cube):
    """(rows, cols) with cols = rows + stride, per axis, for in-cube bonds."""
    nd = cube.center.n * cube.center.d
    side = cube.side
    dim = cube.site_count
    idx = np.arange(dim)
    stride = dim
    for _ in range(nd):
        stride //= side
        pos = (idx // stride) % side
        rows = idx[pos < side - 1]
        yield rows, rows + stride


@dataclass(frozen=True)
class CubeAssembly:
    """The field-independent part of H on one cube, ready for any field.

    Holds the constant 2nd, the read-only hopping triples and ``coupling``,
    the read-only h*U over the cube sites (None when h*U is identically
    zero).  ``matrix`` adds one instance's particle potentials as a
    Kronecker sum; ``eigenvalues`` solves a block of instances.
    """

    kinetic: float
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    coupling: np.ndarray | None

    @classmethod
    def of(cls, cube: Cube, inter: InteractionSpec, h: float) -> "CubeAssembly":
        rows, cols = (np.concatenate(part) for part in zip(*_hopping_pairs(cube)))
        coupling = None
        if inter.kind != "none" and h != 0.0:
            coupling = _read_only(h * interaction_values(cube, inter))
        return cls(
            kinetic=2.0 * cube.center.n * cube.center.d,
            rows=_read_only(rows),
            cols=_read_only(cols),
            vals=_read_only(np.full(rows.size, -1.0)),
            coupling=coupling,
        )

    def diagonals(self, potentials: np.ndarray) -> np.ndarray:
        """The (..., side^(nd)) diagonals for (..., n, side^d) potentials.

        Row i of an instance holds V at particle i's single-particle cube
        points in lexicographic order, which is the order of digit i of
        the cube enumeration, so the diagonal is the rows' unsorted_sums
        with 2nd added to the first row.
        """
        rows = np.array(potentials, dtype=np.float64)
        rows[..., 0, :] += self.kinetic
        diag = unsorted_sums(rows)
        if self.coupling is not None:
            diag = diag + self.coupling
        return diag

    def matrix(self, potentials: np.ndarray) -> SymMatrix:
        """H for one instance's (n, side^d) potentials, or H's stack for (..., n, side^d) ones."""
        return SymMatrix(self.diagonals(potentials), self.rows, self.cols, self.vals)

    def eigenvalues(self, potentials: np.ndarray) -> np.ndarray:
        """The ascending eigenvalues of H for each instance of a block.

        ``potentials`` has shape (..., n, side^d); the result has shape
        (..., dim), each row bitwise ``full_spectrum(self.matrix(p))`` of
        its instance.  The diagonals are keyed on their bits, so each
        distinct operator is solved once and every repeat gathers its
        result; under a finite-support measure a block repeats them.  The
        distinct operators are solved in stacked ``eigvalsh`` calls of at
        most _BLOCK_ELEMENTS floats each, or of one matrix when a single
        one is larger; each matrix of a stacked call is bitwise its own
        solve.
        """
        diag = self.diagonals(np.asarray(potentials, dtype=np.float64))
        dim = diag.shape[-1]
        flat = np.ascontiguousarray(diag).reshape(-1, dim)
        keys = flat.view(np.dtype((np.void, flat.itemsize * dim)))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        distinct = flat[first]
        solved = np.empty_like(distinct)
        chunk = max(1, _BLOCK_ELEMENTS // (dim * dim))
        for start in range(0, len(distinct), chunk):
            part = SymMatrix(distinct[start : start + chunk], self.rows, self.cols, self.vals)
            solved[start : start + chunk] = np.linalg.eigvalsh(part.dense())
        return solved[inverse].reshape(diag.shape)


def unsorted_sums(rows) -> np.ndarray:
    """The Kronecker sum {sum_i rows[i, j_i]} of (..., n, m) rows, summed left to right.

    The result has shape (..., m^n), duplicates retained, in the
    lexicographic order of the index tuples (j_1, ..., j_n).
    """
    rows = np.asarray(rows, dtype=np.float64)
    sums = rows[..., 0, :]
    for i in range(1, rows.shape[-2]):
        sums = sums[..., :, None] + rows[..., None, i, :]
        sums = sums.reshape(sums.shape[:-2] + (sums.shape[-2] * sums.shape[-1],))
    return sums


def build_hamiltonian(
    cube: Cube, potentials: np.ndarray, inter: InteractionSpec, h: float
) -> SymMatrix:
    """Assemble H on the cube in enumeration order.

    ``potentials`` is the (n, side^d) array of V at each particle's cube
    points, as ``sample_field(spec, cube.particle_points(), seed, trial)``
    draws it; any other shape raises ValueError.  Diagonal entry at
    configuration x is 2nd + sum_j V(x_j) + h*U(x); the off-diagonal entry
    is exactly -1 between cube sites at l1 distance 1, and 0 elsewhere.
    """
    return CubeAssembly.of(cube, inter, h).matrix(potential_array(cube, potentials))


def potential_array(cube: Cube, potentials) -> np.ndarray:
    """``potentials`` as a float array, checked to have shape (n, side^d)."""
    potentials = np.asarray(potentials, dtype=np.float64)
    expected = (cube.center.n, cube.side**cube.center.d)
    if potentials.shape != expected:
        raise ValueError(
            f"potentials must have shape (n, side^d) = {expected}, got {potentials.shape}"
        )
    return potentials


def write_matrix_dump(matrix: SymMatrix, stream):
    """Text dump, one line per nonzero: ``row col value`` sorted by (row, col).

    First two lines are ``# wegnerlab matrix dump v1`` and ``# dim N``.
    """
    stream.write("# wegnerlab matrix dump v1\n")
    stream.write(f"# dim {matrix.dim}\n")
    for r, c, v in matrix.nonzeros():
        stream.write(f"{r} {c} {v!r}\n")


def read_matrix_dump(stream) -> SymMatrix:
    """Parse the write_matrix_dump format back into a SymMatrix.

    Raises ValueError for a second ``# dim`` header, naming both values,
    and for an entry line that is not ``row col value``, naming its line
    number and text.
    """
    dim = None
    triples = []
    for number, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "dim":
                if dim is not None:
                    raise ValueError(f"matrix dump gives '# dim' twice: {dim}, then {parts[1]}")
                dim = int(parts[1])
            continue
        try:
            r, c, v = line.split()
            triples.append((int(r), int(c), float(v)))
        except ValueError:
            message = f"matrix dump line {number} is not 'row col value': {line!r}"
            raise ValueError(message) from None
    if dim is None:
        raise ValueError("matrix dump is missing the '# dim N' header")
    rows, cols, vals = zip(*triples) if triples else ((), (), ())
    return SymMatrix.from_entries(dim, rows, cols, vals)
