"""Symmetric eigenvalue machinery.

Full spectra come from LAPACK on dense matrices up to DENSE_LIMIT.
Eigenvalue counts and distance-to-spectrum queries take the eigenvalues of
the matrix in its lexicographic band form (LAPACK symmetric band
reduction) at every size.  Resolvent norms use 1/dist, which is exact for
self-adjoint operators; an independent smallest-singular-value check is
exposed alongside.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CapacityError
from .hamiltonian import SymMatrix

DENSE_LIMIT = 4096


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


def gershgorin_interval(a: SymMatrix) -> tuple[float, float]:
    """Interval [min diag - R, max diag + R] containing every eigenvalue."""
    diag = a.diagonal()
    radii = a.gershgorin_radii()
    return float(np.min(diag - radii)), float(np.max(diag + radii))


def full_spectrum(a: SymMatrix) -> Spectrum:
    """All eigenvalues by dense symmetric diagonalization.

    Raises CapacityError above DENSE_LIMIT; use count_below / dist_to_spectrum
    there instead.
    """
    if a.dim > DENSE_LIMIT:
        raise CapacityError(
            f"dim {a.dim} exceeds the dense eigensolver limit {DENSE_LIMIT}; "
            "use count_below or dist_to_spectrum"
        )
    return Spectrum(eigenvalues=np.linalg.eigvalsh(a.dense()), dim=a.dim)


def _banded_eigenvalues(a: SymMatrix) -> np.ndarray:
    """All eigenvalues, ascending, from LAPACK on the band storage."""
    return scipy.linalg.eigvals_banded(a.banded())


def count_below(a: SymMatrix, energy: float) -> int:
    """Number of eigenvalues strictly below ``energy``."""
    return int(np.count_nonzero(_banded_eigenvalues(a) < energy))


def dist_to_spectrum(a: SymMatrix, energy: float) -> float:
    """min over eigenvalues of |lambda - energy|."""
    return float(np.min(np.abs(_banded_eigenvalues(a) - energy)))


def resolvent_norm(a: SymMatrix, energy: float) -> float:
    """Operator norm of (A - E)^-1, which equals 1/dist for self-adjoint A.

    Returns math.inf when the energy lies on the spectrum (the divergence
    flag).  See smallest_singular_value for the independent cross-check.
    """
    dist = dist_to_spectrum(a, energy)
    return math.inf if dist == 0.0 else 1.0 / dist


def smallest_singular_value(a: SymMatrix, energy: float) -> float:
    """Smallest singular value of A - E*I, by dense SVD."""
    if a.dim > DENSE_LIMIT:
        raise CapacityError(f"dim {a.dim} exceeds the dense SVD limit {DENSE_LIMIT}")
    shifted = a.dense() - energy * np.eye(a.dim)
    return float(scipy.linalg.svdvals(shifted)[-1])
