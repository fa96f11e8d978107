"""Spectral decomposition of the non-interacting multi-particle operator.

At h = 0 the cube Hamiltonian is the Kronecker sum of the n single-particle
Hamiltonians built from the same field, so its spectrum is the multiset of
all sums of one eigenvalue per particle; for n = 1 that is the spectrum
itself.  Row i of the cube's (n, side^d) potential array is the whole
field of particle i's single-particle cube.  Only the sums are
materialized; the tensor-product eigenfunctions are never needed
downstream.

The single-particle operators are solved by the one-particle cube's
``CubeAssembly.eigenvalues``: a campaign passes the (trials, k, m) box
potentials of its k distinct particle boxes, m = side^d, and gathers each
cube's n rows of eigenvalues; ``hamiltonian.unsorted_sums``, the
Kronecker sum that also forms the cube diagonals, forms the sums and
``sorted_sums`` sorts them.  ``verify_decomposition`` composes the same
solve and sums, so the ``tensor`` suite checks the sums a campaign trial
decides on, against the direct solve of the whole cube.  No Spectrum
objects are built.
"""

import numpy as np

from .hamiltonian import CubeAssembly, InteractionSpec, unsorted_sums
from .lattice import Cube, Site


def sorted_sums(eigenvalues) -> np.ndarray:
    """``unsorted_sums`` sorted along the last axis."""
    return np.sort(unsorted_sums(eigenvalues), axis=-1)


def particle_assembly(d: int, L: int) -> CubeAssembly:
    """The CubeAssembly of one particle's cube of radius L in Z^d.

    Its kinetic part does not depend on where the cube sits, so it
    solves every particle box of that shape.
    """
    return CubeAssembly.of(Cube(Site(1, d, (0,) * d), L), InteractionSpec.none(), 0.0)


def verify_decomposition(cube: Cube, potentials: np.ndarray) -> float:
    """Max rank-matched deviation between the sumset and direct spectra.

    ``potentials`` is an (..., n, side^d) block of the cube's potential
    arrays.  Solves the n single-particle Hamiltonians on the factors of
    the cube, particle i on row i, and compares their eigenvalue sums
    against direct diagonalization of the full operator at h = 0; the
    result is the largest deviation over the block (0 for an empty one).
    """
    potentials = np.asarray(potentials, dtype=np.float64)
    singles = particle_assembly(cube.center.d, cube.radius).eigenvalues(potentials[..., None, :])
    direct = CubeAssembly.of(cube, InteractionSpec.none(), 0.0).eigenvalues(potentials)
    return float(np.max(np.abs(sorted_sums(singles) - direct), initial=0.0))
