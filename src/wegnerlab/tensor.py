"""Spectral decomposition of the non-interacting multi-particle operator.

At h = 0 the cube Hamiltonian is the Kronecker sum of the n single-particle
Hamiltonians built from the same field, so its spectrum is the multiset of
all sums of one eigenvalue per particle.  Row i of the cube's (n, side^d)
potential array is the whole field of particle i's single-particle cube.
Only the sums are materialized; the tensor-product eigenfunctions are never
needed downstream.
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonian import InteractionSpec, build_hamiltonian
from .lattice import Cube
from .spectral import Spectrum, full_spectrum


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
    sums = terms[0].eigenvalues
    for term in terms[1:]:
        sums = np.add.outer(sums, term.eigenvalues).ravel()
    return SumsetSpectrum(terms=terms, sums=np.sort(sums))


def verify_decomposition(cube: Cube, potentials: np.ndarray) -> float:
    """Max rank-matched deviation between the sumset and direct spectra.

    ``potentials`` is the cube's (n, side^d) potential array.  Builds the n
    single-particle Hamiltonians on the factors of the cube, particle i on
    row i, forms their eigenvalue sums, and compares against direct
    diagonalization of the full operator at h = 0.
    """
    none = InteractionSpec.none()
    singles = [
        full_spectrum(build_hamiltonian(cube.particle_cube(i), potentials[i : i + 1], none, 0.0))
        for i in range(cube.center.n)
    ]
    combined = sumset_spectrum(singles)
    direct = full_spectrum(build_hamiltonian(cube, potentials, none, 0.0))
    return float(np.max(np.abs(combined.sums - direct.eigenvalues)))
