"""Symmetric eigenvalue machinery.

Full spectra come from LAPACK on dense matrices up to DENSE_LIMIT.  Above
that, eigenvalue counting by the inertia of a Bunch-Kaufman LDL^T
factorization supports distance-to-spectrum queries through bisection.
Resolvent norms use 1/dist, which is exact for self-adjoint operators; an
independent smallest-singular-value check is exposed alongside.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CapacityError
from .hamiltonian import SymMatrix

DENSE_LIMIT = 4096
_FACTOR_LIMIT = 8192


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


def _block_diag_eigenvalues(d: np.ndarray) -> np.ndarray:
    """Eigenvalues of the 1x1/2x2 block diagonal factor of an LDL^T."""
    n = d.shape[0]
    sub = np.diag(d, -1) if n > 1 else np.zeros(0)
    out = np.empty(n)
    i = 0
    while i < n:
        if i + 1 < n and sub[i] != 0.0:
            a, b, c = d[i, i], d[i + 1, i], d[i + 1, i + 1]
            mid = 0.5 * (a + c)
            r = math.hypot(0.5 * (a - c), b)
            out[i], out[i + 1] = mid - r, mid + r
            i += 2
        else:
            out[i] = d[i, i]
            i += 1
    return out


def count_below(a: SymMatrix, energy: float) -> int:
    """Number of eigenvalues strictly below ``energy`` via LDL^T inertia.

    A factorization pivot smaller than 1e-14*(1+||A||_inf) triggers a retry
    at a deterministically shifted energy; the shift is reported through a
    warning.  Exact degeneracies do occur for two-point disorder, so this
    path is deliberately deterministic.
    """
    if a.dim > _FACTOR_LIMIT:
        raise CapacityError(
            f"dim {a.dim} exceeds the dense factorization limit {_FACTOR_LIMIT}"
        )
    m = a.dense()
    scale = 1.0 + a.inf_norm()
    pivot_tol = 1e-14 * scale
    step = 1e-12 * scale
    shift = 0.0
    for _ in range(64):
        shifted = m - (energy + shift) * np.eye(a.dim)
        _, d, _ = scipy.linalg.ldl(shifted)
        pivots = _block_diag_eigenvalues(d)
        if np.min(np.abs(pivots)) >= pivot_tol:
            if shift != 0.0:
                warnings.warn(
                    f"count_below retried at energy shifted by {shift!r} "
                    "to avoid a near-singular pivot",
                    stacklevel=2,
                )
            return int(np.count_nonzero(pivots < 0.0))
        shift += step
    raise ArithmeticError("count_below could not find a well-pivoted shift")


def _dist_by_bisection(a: SymMatrix, energy: float) -> float:
    lo_g, hi_g = gershgorin_interval(a)
    radius = max(abs(energy - lo_g), abs(energy - hi_g)) * (1.0 + 1e-9) + 1e-12
    tol = 1e-10 * (1.0 + a.inf_norm())

    def hits(r: float) -> bool:
        return count_below(a, energy + r) - count_below(a, energy - r) >= 1

    if not hits(radius):
        # Whole Gershgorin interval inside the bracket, so this cannot happen
        # for a nonempty spectrum; widen defensively.
        radius *= 4.0
    lo, hi = 0.0, radius
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if hits(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def dist_to_spectrum(a: SymMatrix, energy: float, method: str = "auto") -> float:
    """min over eigenvalues of |lambda - energy|.

    ``method`` is "auto" (dense below DENSE_LIMIT, else bisection), "dense",
    or "bisection".  Bisection brackets the distance with count_below to a
    width of 1e-10*(1+||A||_inf).
    """
    if method not in ("auto", "dense", "bisection"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "dense" if a.dim <= DENSE_LIMIT else "bisection"
    if method == "dense":
        spec = full_spectrum(a)
        return float(np.min(np.abs(spec.eigenvalues - energy)))
    return _dist_by_bisection(a, energy)


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
