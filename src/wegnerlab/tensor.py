"""Spectral decomposition of the non-interacting multi-particle operator.

At h = 0 the cube Hamiltonian is the Kronecker sum of the n single-particle
Hamiltonians built from the same field, so its spectrum is the multiset of
all sums of one eigenvalue per particle; for n = 1 that is the spectrum
itself.  Row i of the cube's (n, side^d) potential array is the whole
field of particle i's single-particle cube.  Only the sums are
materialized; the tensor-product eigenfunctions are never needed
downstream.

``SumsetAssembly`` solves single-particle operators: one read-only kinetic
matrix serves every particle box, and ``eigenvalues`` solves a whole
(..., m) stack of box potentials, m = side^d, in one stacked ``eigvalsh``
call over its distinct rows.  A campaign block passes its (trials, k, m)
potentials of the k distinct particle boxes.  Under a finite-support
measure a box has at most s^m potential patterns, so a block repeats them
across its trials, and each pattern is solved once; the stack never holds
more than trials * k * m^2 floats, which the campaign's block size keeps
under a fixed element budget (``wegner``).  The campaign then gathers each
cube's n rows and forms the sums with ``unsorted_sums``; ``sorted_sums``
sorts them, and ``verify_decomposition`` composes it with the same solve,
so the ``tensor`` suite checks the sums a campaign trial decides on.  No
Spectrum objects are built.
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonian import CubeAssembly, InteractionSpec, build_hamiltonian
from .lattice import Cube, Site
from .spectral import full_spectrum


def unsorted_sums(eigenvalues) -> np.ndarray:
    """The multiset {sum_i lambda_(i, j_i)} over one entry of each row.

    ``eigenvalues`` has shape (..., n, m): n rows of m eigenvalues for each
    leading index.  The result has shape (..., m^n), duplicates retained,
    in the lexicographic order of the index tuples (j_1, ..., j_n).
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    sums = eigenvalues[..., 0, :]
    for k in range(1, eigenvalues.shape[-2]):
        ev = eigenvalues[..., k, :]
        sums = sums[..., :, None] + ev[..., None, :]
        sums = sums.reshape(sums.shape[:-2] + (sums.shape[-2] * sums.shape[-1],))
    return sums


def sorted_sums(eigenvalues) -> np.ndarray:
    """``unsorted_sums`` sorted along the last axis."""
    return np.sort(unsorted_sums(eigenvalues), axis=-1)


@dataclass(frozen=True)
class SumsetAssembly:
    """The field-independent part of every single-particle operator of a query.

    ``kinetic`` is the read-only (m, m) matrix, m = side^d, of the
    single-particle kinetic term: +2d on the diagonal and -1 between
    neighbouring points of a particle cube.  It depends on the cube shape
    only, so it serves every particle of every cube.
    """

    kinetic: np.ndarray

    @classmethod
    def of(cls, d: int, L: int) -> "SumsetAssembly":
        particle = Cube(Site(1, d, (0,) * d), L)
        zero = np.zeros((1, particle.site_count))
        kinetic = CubeAssembly.of(particle, InteractionSpec.none(), 0.0).matrix(zero).dense()
        kinetic.flags.writeable = False
        return cls(kinetic)

    def eigenvalues(self, potentials: np.ndarray) -> np.ndarray:
        """The ascending eigenvalues of each single-particle operator.

        ``potentials`` has shape (..., m), one particle box's potentials per
        leading index, in a campaign (trials, k, m); the result has the same
        shape.  Rows are keyed on their raw bytes, so each distinct bit
        pattern is copied from ``kinetic`` into one fresh stack once, given
        its potentials on the diagonal and solved in one stacked call, and
        every repeat gathers its row's result.  Each row of a stacked call
        is bitwise its own solve, so every result is bitwise the one a
        stack of all rows gives; rows that differ in any bit, even -0.0
        against 0.0, are solved apart.
        """
        m = self.kinetic.shape[0]
        rows = np.ascontiguousarray(potentials, dtype=np.float64).reshape(-1, m)
        keys = rows.view(np.dtype((np.void, rows.itemsize * m)))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        stack = np.empty((len(first), m, m))
        stack[...] = self.kinetic
        stack.reshape(-1, m * m)[:, :: m + 1] += rows[first]
        return np.linalg.eigvalsh(stack)[inverse].reshape(np.shape(potentials))


def verify_decomposition(cube: Cube, potentials: np.ndarray) -> float:
    """Max rank-matched deviation between the sumset and direct spectra.

    ``potentials`` is the cube's (n, side^d) potential array.  Solves the n
    single-particle Hamiltonians on the factors of the cube, particle i on
    row i, through ``SumsetAssembly``, and compares their eigenvalue sums
    against direct diagonalization of the full operator at h = 0.
    """
    assembly = SumsetAssembly.of(cube.center.d, cube.radius)
    combined = sorted_sums(assembly.eigenvalues(potentials))
    direct = full_spectrum(build_hamiltonian(cube, potentials, InteractionSpec.none(), 0.0))
    return float(np.max(np.abs(combined - direct.eigenvalues)))
