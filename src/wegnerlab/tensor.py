"""Spectral decomposition of the non-interacting multi-particle operator.

At h = 0 the cube Hamiltonian is the Kronecker sum of the n single-particle
Hamiltonians built from the same field, so its spectrum is the multiset of
all sums of one eigenvalue per particle.  Row i of the cube's (n, side^d)
potential array is the whole field of particle i's single-particle cube.
Only the sums are materialized; the tensor-product eigenfunctions are never
needed downstream.

``SumsetAssembly`` is the campaign's route to those sums: one read-only
single-particle kinetic matrix serves every particle of every cube, and a
trial solves all of them in one stacked call.  ``verify_decomposition``
goes through the same assembly, so the ``tensor`` suite checks the sums a
campaign trial decides on.
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonian import CubeAssembly, InteractionSpec, build_hamiltonian
from .lattice import Cube, Site
from .spectral import Spectrum, full_spectrum


def sorted_sums(eigenvalues) -> np.ndarray:
    """Sorted multiset {sum_i lambda_(i, j_i)} over one entry of each array."""
    sums = eigenvalues[0]
    for ev in eigenvalues[1:]:
        sums = np.add.outer(sums, ev).ravel()
    return np.sort(sums)


@dataclass(frozen=True)
class SumsetSpectrum:
    """All sums of one eigenvalue per source spectrum, duplicates retained.

    Two-point disorder produces exact degeneracies, so the multiset count
    invariant |sums| = prod dim_i must hold with multiplicity.
    """

    terms: tuple[Spectrum, ...]
    sums: np.ndarray


def sumset_spectrum(spectra) -> SumsetSpectrum:
    """Sorted multiset {sum_i lambda_(i, j_i)} over all index choices."""
    terms = tuple(spectra)
    if not terms:
        raise ValueError("sumset of zero spectra is undefined")
    return SumsetSpectrum(terms=terms, sums=sorted_sums([t.eigenvalues for t in terms]))


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

    def spectra(self, potentials: np.ndarray) -> list[Spectrum]:
        """The h = 0 spectrum of each cube, from its (n, m) potentials.

        ``potentials`` has shape (cubes, n, m).  All cubes * n
        single-particle matrices are copied from ``kinetic`` into a fresh
        stack, given their potentials on the diagonal and solved in one
        stacked call; each cube's spectrum is the sorted sumset of its n
        rows of eigenvalues.
        """
        m = self.kinetic.shape[0]
        stack = np.empty(potentials.shape + (m,))
        stack[...] = self.kinetic
        diagonals = stack.reshape(potentials.shape[:-1] + (m * m,))[..., :: m + 1]
        diagonals += potentials
        singles = np.linalg.eigvalsh(stack)
        return [Spectrum(sorted_sums(rows), m ** len(rows)) for rows in singles]


def verify_decomposition(cube: Cube, potentials: np.ndarray) -> float:
    """Max rank-matched deviation between the sumset and direct spectra.

    ``potentials`` is the cube's (n, side^d) potential array.  Solves the n
    single-particle Hamiltonians on the factors of the cube, particle i on
    row i, through ``SumsetAssembly``, and compares their eigenvalue sums
    against direct diagonalization of the full operator at h = 0.
    """
    assembly = SumsetAssembly.of(cube.center.d, cube.radius)
    (combined,) = assembly.spectra(np.asarray(potentials, dtype=np.float64)[None])
    direct = full_spectrum(build_hamiltonian(cube, potentials, InteractionSpec.none(), 0.0))
    return float(np.max(np.abs(combined.eigenvalues - direct.eigenvalues)))
