"""Symmetric eigenvalue machinery, on numpy alone.

Full spectra come from LAPACK on dense matrices, which ``SymMatrix.dense``
refuses above DENSE_LIMIT.  Eigenvalue counts come from the inertia of
A - z on the band layout at every size (``band_inertia``).  Cut into blocks
of the band width b, A is block tridiagonal, with diagonal blocks A_k and
couplings B_k, so by Sylvester's law and Haynsworth's additivity over its
block LDL^T the number of eigenvalues below z is the number of negative
eigenvalues of the pivots  S_0 = A_0 - z,  S_k = A_k - z - B_k^T S_(k-1)^-1 B_k.
For b = 1 this is the scalar Sturm recursion.  Each count at z is taken
as the exact count of a matrix within a backward error eta of A, which for
b > 1 includes the rounding carried through ||S_(k-1)^-1||; eta is a
calibrated bound, not a proven one (``_backward_error``).  A count is
certified when the counts at z -+ 4 eta agree.  A stack of matrices that
share their off-diagonal triples is counted in one pass, each point
reading its own matrix's blocks at every step.  ``count_below`` answers
only certified counts, falling back to the dense count up to DENSE_LIMIT.
``dist_to_spectrum`` is dense up to DENSE_LIMIT and bracketed on counts
above it.
Resolvent norms use 1/dist, which is exact for self-adjoint operators; an
independent smallest-singular-value check, a numpy SVD of the one shifted
dense matrix, is exposed alongside.  A NaN energy is rejected before any
solve.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import DENSE_LIMIT, SymMatrix

# Rounding error of one recursion step on blocks of width b: _ERROR_FACTOR * b * unit roundoff.
_ERROR_FACTOR = 8.0
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_DIST_TOL = 1e-12
# Pivot directions of least modulus carried into the next block rather than inverted.
_DEFERRED = 2


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


def _band_blocks(a: SymMatrix):
    """A's diagonal blocks A_k and couplings B_k = A[block k-1, block k], of the band width b.

    b = max(cols - rows), at least 1; the lexicographic cube enumeration
    gives b = side^(nd-1).  Returns the lead + (m, b, b) stack of a's
    lead + (dim,) diagonals, the (m - 1, b, b) couplings they share and the
    size of the last block, which holds the dim - (m-1) b remaining rows
    (zero-padded in the stacks).
    """
    b = max(1, int(np.max(a.cols - a.rows, initial=0)))
    m = -(-a.dim // b)
    diag, coupling = np.zeros(a.diag.shape[:-1] + (m, b, b)), np.zeros((m - 1, b, b))
    sites = np.arange(a.dim)
    diag[..., sites // b, sites % b, sites % b] = a.diag
    k, i, j = a.rows // b, a.rows % b, a.cols % b
    inside = a.cols // b == k
    diag[..., k[inside], i[inside], j[inside]] = a.vals[inside]
    diag[..., k[inside], j[inside], i[inside]] = a.vals[inside]
    coupling[k[~inside], i[~inside], j[~inside]] = a.vals[~inside]
    return diag, coupling, a.dim - (m - 1) * b


def _chain_pass(diag, c2, z, which):
    """b = 1: negative pivots of the scalar Sturm recursion q_k = a_k - z - c_k^2 / q_(k-1).

    ``diag`` is (matrices, m); point z reads matrix ``which``.  A pivot
    within LAPACK dstebz's pivmin of zero is set to +pivmin, which counts
    the limit from below, as the strict count asks.
    """
    c2 = np.concatenate([[0.0], c2])
    pivmin = np.finfo(np.float64).tiny * max(1.0, float(np.max(c2)))
    counts = np.zeros(z.size, dtype=np.int64)
    q = np.full(z.size, np.inf)
    for k in range(diag.shape[1]):
        q = diag[which, k] - z - c2[k] / q
        q = np.where(np.abs(q) <= pivmin, pivmin, q)
        counts += q < 0
    return counts


def _block_pass(diag, coupling, last, z, which):
    """b > 1: the block recursion over every point, each pivot's inertia and inverse from one eigh.

    ``diag`` is (matrices, m, b, b); point z reads matrix ``which``'s
    blocks.  The _DEFERRED pivot eigenvalues of least modulus are not
    inverted: their directions border the next pivot, [[W, Y], [Y^T, S_k]]
    with W their eigenvalues and Y their couplings into the next block, and
    are counted there (Haynsworth, for the reordered blocks).  A
    near-singular pivot then puts no huge B^T S^-1 B into the next block,
    whose rounding would flip its small eigenvalues.  The pivmin rule of
    ``_chain_pass`` applies to the pivot eigenvalues.  Returns the counts
    and the largest ||B_k||_1 ||B_k||_inf / min |inverted eigenvalue of
    pivot k - 1|.
    """
    m, b = diag.shape[1:3]
    mags = np.abs(coupling)
    norm2 = mags.sum(axis=1).max(axis=1) * mags.sum(axis=2).max(axis=1)
    pivmin = np.finfo(np.float64).tiny * max(1.0, float(np.max(norm2, initial=0.0)))
    counts = np.zeros(z.size, dtype=np.int64)
    reach = np.zeros(z.size)
    border, border_y, s = np.zeros((z.size, 0)), np.zeros((z.size, 0, b)), 0.0
    rows = np.arange(z.size)[:, None]
    for k in range(m):
        size, t = (last if k + 1 == m else b), border.shape[1]
        pivot = np.zeros((z.size, t + size, t + size))
        pivot[:, t:, t:] = diag[which, k, :size, :size] - z[:, None, None] * np.eye(size) - s
        pivot[:, range(t), range(t)] = border
        pivot[:, :t, t:] = border_y
        pivot[:, t:, :t] = np.swapaxes(border_y, 1, 2)
        w, v = np.linalg.eigh(pivot)
        w[np.abs(w) <= pivmin] = pivmin
        if k + 1 == m:
            counts += np.count_nonzero(w < 0, axis=1)
            break
        y = np.swapaxes(v[:, t:], 1, 2) @ coupling[k, :, : last if k + 2 == m else b]
        order = np.argsort(np.abs(w), axis=1)
        deferred, inverted = (rows, order[:, :_DEFERRED]), (rows, order[:, _DEFERRED:])
        border, border_y, w, y = w[deferred], y[deferred], w[inverted], y[inverted]
        counts += np.count_nonzero(w < 0, axis=1)
        s = np.swapaxes(y, 1, 2) @ (y / w[:, :, None])  # B^T S^-1 B over the inverted directions
        np.maximum(reach, norm2[k] / np.min(np.abs(w), axis=1, initial=np.inf), out=reach)
    return counts, reach


def _backward_error(b: int, norm, z: np.ndarray, reach) -> np.ndarray:
    """Backward error eta of the counts at z on blocks of width b: 4 gamma (||A||_inf + |z| + reach).

    ``norm`` is ||A||_inf of each point's own matrix.

    The count at z is taken as the exact count of a matrix within eta of A
    in the 2-norm, so it is correct unless an eigenvalue lies within eta of
    z.  For b = 1 (Kahan 1966), the computed pivots are the exact ones of A
    with each diagonal entry moved by u (|a_k| + |z|) and each coupling by
    a relative 1.5 u, and reach = 0.  For b > 1, each step is taken to be
    exact for its pivot moved by at most
    gamma (2 ||A||_inf + |z| + ||B_k||^2 ||S_(k-1)^-1||): the rounding of
    the step and the eigh backward error of the pivot, where a pivot near
    singular makes the product B_k^T S_(k-1)^-1 B_k large and its rounding
    with it; reach is the largest ||B_k||^2 ||S_(k-1)^-1|| (``_block_pass``).
    A step's pivot spans its block and the directions deferred from the one
    before, so only consecutive steps overlap, and 4 gamma (...) bounds
    their sum.  gamma = _ERROR_FACTOR b u, and the factor 8 is calibrated,
    not derived from a published eigh backward-error bound: over 28800
    counts 1e-9 to 1e-13 from eigenvalues (n = 1, 2, 3; d = 1, 2; h = 0,
    +-0.5), every one of the 343 raw miscounts lay within 2.4e-4 eta of an
    eigenvalue.
    """
    return 4.0 * _ERROR_FACTOR * b * _UNIT_ROUNDOFF * (norm + np.abs(z) + reach)


def _inertia(blocks, norm, z: np.ndarray, which=0):
    """Counts of negative pivots at finite points z, each with its backward error eta.

    Point z counts matrix ``which`` (a scalar, or an array like z) of the
    blocks' stack, whose ||A||_inf are ``norm``.
    """
    diag, coupling, last = blocks
    diag, norm = diag.reshape((-1,) + diag.shape[-3:]), np.take(norm, which)
    b = diag.shape[-1]
    if b == 1:
        counts = _chain_pass(diag[..., 0, 0], coupling[:, 0, 0] ** 2, z, which)
        return counts, _backward_error(1, norm, z, 0.0)
    counts, reach = _block_pass(diag, coupling, last, z, which)
    return counts, _backward_error(b, norm, z, reach)


def band_inertia(a: SymMatrix, points):
    """(counts, certified): eigenvalues strictly below each point, and whether that count is sure.

    ``points`` is an array of any shape, which the results take.  For a
    stack of matrices (``a.diag`` of shape lead + (dim,), off-diagonal
    triples shared) the points' shape must start with lead, else ValueError,
    and each matrix's points are counted on it, with its own ||A||_inf: its
    counts and flags are those of a call on that matrix alone.  The points
    are counted in one pass of the block recursion over A's band layout
    (module docstring), with a backward error eta at each point
    (``_backward_error``).  A second pass counts at z -+ 4 eta: the count at
    z is certified when those two agree, each with a backward error of at
    most 2 eta, for then no eigenvalue lies within 2 eta of z.  For b = 1,
    eta does not depend on the pass, so one pass counts z and z -+ 4 eta
    together.  An uncertified count may be wrong, and a certified one is as
    sure as eta.  Infinite points count 0 or dim, certified; NaN points
    count 0, uncertified.
    """
    shape, lead = np.shape(points), a.diag.shape[:-1]
    if shape[: len(lead)] != lead:
        raise ValueError(f"points of shape {shape} do not start with the stack's shape {lead}")
    z = np.asarray(points, dtype=np.float64).reshape(-1)
    counts = np.where(z > 0, a.dim, 0).astype(np.int64)
    certified = np.isinf(z)
    finite = np.isfinite(z)
    if np.any(finite):
        which = np.arange(math.prod(lead)).repeat(math.prod(shape[len(lead) :]))[finite]
        blocks, norm, zf = _band_blocks(a), a.inf_norm(), z[finite]
        if blocks[0].shape[-1] == 1:
            eta = _backward_error(1, np.take(norm, which), zf, 0.0)
            all_points = np.concatenate([zf, zf - 4 * eta, zf + 4 * eta])
            counts[finite], below, above = np.split(
                _inertia(blocks, norm, all_points, np.tile(which, 3))[0], 3
            )
            certified[finite] = below == above
        else:
            counts[finite], eta = _inertia(blocks, norm, zf, which)
            around, eta_around = _inertia(
                blocks, norm, np.concatenate([zf - 4 * eta, zf + 4 * eta]), np.tile(which, 2)
            )
            below, above = np.split(around, 2)
            certified[finite] = (below == above) & (np.max(np.split(eta_around, 2), axis=0) <= 2 * eta)
    return counts.reshape(shape), certified.reshape(shape)


def _require_number(energy: float) -> None:
    """Raise ValueError for a NaN energy, which every comparison would silently pass or fail."""
    if math.isnan(energy):
        raise ValueError(f"energy must be a number, got {energy}")


def count_below(a: SymMatrix, energy: float) -> int:
    """Number of eigenvalues strictly below ``energy``.

    The certified count of ``band_inertia`` at every size, as sure as its
    calibrated backward error.  An uncertified one, as at an energy within
    rounding of an eigenvalue, takes the dense count up to DENSE_LIMIT;
    above it, ValueError names the energy rather than return the
    uncertified count.
    """
    _require_number(energy)
    counts, certified = band_inertia(a, np.array([energy]))
    if certified[0]:
        return int(counts[0])
    if a.dim > DENSE_LIMIT:
        raise ValueError(
            f"the count below {energy} is not certified, and dim {a.dim} exceeds "
            f"the dense limit {DENSE_LIMIT}"
        )
    return int(np.count_nonzero(full_spectrum(a).eigenvalues < energy))


def dist_to_spectrum(a: SymMatrix, energy: float) -> float:
    """min over eigenvalues of |lambda - energy|.

    Dense up to DENSE_LIMIT.  Above it, the distance is the smallest r with
    an eigenvalue in [E - r, E + r), bracketed on the counts at E - r and
    E + r: each is taken as exact for a matrix within its calibrated
    backward error eta of A (``_backward_error``), so a count that differs puts an eigenvalue within
    r + eta of E, and one that does not puts none within r - eta.  The
    bracket shrinks until it is at most max(1e-12 (1 + |E| + ||A||_inf),
    4 eta) wide, eta the largest backward error of the last round's counts,
    and its midpoint is returned: within half that width of the distance.
    Each round counts at the bracket's midpoint, so a round that does not
    stop shrinks the bracket by at least a third, and the loop ends.
    """
    _require_number(energy)
    if a.dim <= DENSE_LIMIT:
        return float(np.min(np.abs(full_spectrum(a).eigenvalues - energy)))
    if math.isinf(energy):
        return math.inf
    blocks, norm = _band_blocks(a), a.inf_norm()
    scale = 1.0 + abs(energy) + norm  # every eigenvalue is within scale - 1 of E
    lo, hi = 0.0, scale
    while True:
        r = 0.5 * (lo + hi)
        (below, above), etas = _inertia(blocks, norm, np.array([energy - r, energy + r]))
        eta = float(np.max(etas))
        # a hit puts an eigenvalue within r + eta of E, a miss none within r - eta
        if above > below:
            hi = min(hi, r + eta)
        else:
            lo = max(lo, r - eta)
        if hi - lo <= max(_DIST_TOL * scale, 4.0 * eta):
            return 0.5 * (lo + hi)


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
    place, so the package allocates a single dim x dim matrix; a non-finite
    energy raises ValueError first.  numpy's SVD copies its input into a
    LAPACK work buffer that tracemalloc does not see, so the resident peak
    is about two such matrices: ``ru_maxrss`` rose by 63.8 MiB over a call
    at dim 2001 (30.5 MiB per matrix).
    """
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    shifted = a.dense()
    shifted.reshape(-1)[:: a.dim + 1] -= energy
    return float(np.linalg.svd(shifted, compute_uv=False)[-1])
