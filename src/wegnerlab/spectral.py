"""Symmetric eigenvalue machinery.

Full spectra come from LAPACK on dense matrices, which ``SymMatrix.dense``
refuses above DENSE_LIMIT.  Eigenvalue counts and distance-to-spectrum
queries take the eigenvalues of the matrix in its lexicographic band form
(LAPACK symmetric band reduction) at every size.  Resolvent norms use
1/dist, which is exact for self-adjoint operators; an independent
smallest-singular-value check, a numpy SVD of the one shifted dense
matrix, is exposed alongside.  The band route is the only user of scipy,
which it imports on first call, so a campaign, a matrix dump or the SVD
never loads it.  A NaN energy is rejected before any solve.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import DENSE_LIMIT, SymMatrix  # noqa: F401  (DENSE_LIMIT is re-exported)


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues of a symmetric matrix."""

    eigenvalues: np.ndarray
    dim: int

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        if ev.ndim != 1 or ev.size != self.dim:
            raise ValueError(f"expected {self.dim} eigenvalues, got shape {ev.shape}")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be sorted non-decreasing")
        object.__setattr__(self, "eigenvalues", ev)


def gershgorin_interval(a: SymMatrix):
    """Interval [min diag - R, max diag + R] containing every eigenvalue, per matrix of a stack."""
    diag = a.diagonal()
    radii = a.gershgorin_radii()
    return np.min(diag - radii, axis=-1), np.max(diag + radii, axis=-1)


def full_spectrum(a: SymMatrix) -> Spectrum:
    """All eigenvalues by dense symmetric diagonalization.

    Raises CapacityError above DENSE_LIMIT, from ``SymMatrix.dense``; use
    count_below / dist_to_spectrum there instead.
    """
    return Spectrum(eigenvalues=np.linalg.eigvalsh(a.dense()), dim=a.dim)


def _banded_eigenvalues(a: SymMatrix) -> np.ndarray:
    """All eigenvalues, ascending, from LAPACK on the band storage."""
    import scipy.linalg

    return scipy.linalg.eigvals_banded(a.banded())


def _require_number(energy: float) -> None:
    """Raise ValueError for a NaN energy, which every comparison would silently pass or fail."""
    if math.isnan(energy):
        raise ValueError(f"energy must be a number, got {energy}")


def count_below(a: SymMatrix, energy: float) -> int:
    """Number of eigenvalues strictly below ``energy``."""
    _require_number(energy)
    return int(np.count_nonzero(_banded_eigenvalues(a) < energy))


def dist_to_spectrum(a: SymMatrix, energy: float) -> float:
    """min over eigenvalues of |lambda - energy|."""
    _require_number(energy)
    return float(np.min(np.abs(_banded_eigenvalues(a) - energy)))


def resolvent_norm(a: SymMatrix, energy: float) -> float:
    """Operator norm of (A - E)^-1, which equals 1/dist for self-adjoint A.

    Returns math.inf when the energy lies on the spectrum (the divergence
    flag).  See smallest_singular_value for the independent cross-check.
    """
    dist = dist_to_spectrum(a, energy)
    return math.inf if dist == 0.0 else 1.0 / dist


def smallest_singular_value(a: SymMatrix, energy: float) -> float:
    """Smallest singular value of A - E*I, by dense SVD; CapacityError above DENSE_LIMIT.

    ``energy`` is subtracted from the diagonal of the one dense matrix in
    place, so the solve holds a single dim x dim matrix; a non-finite
    energy raises ValueError first.
    """
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    shifted = a.dense()
    shifted.reshape(-1)[:: a.dim + 1] -= energy
    return float(np.linalg.svd(shifted, compute_uv=False)[-1])
