"""1D transfer matrices and top Lyapunov exponent estimation.

The second-order eigenvalue recursion psi(x+1) = (2 + v - E) psi(x) -
psi(x-1) propagates through the unit-determinant matrix
[[2 + v - E, -1], [1, 0]].  The top Lyapunov exponent is estimated from the
norm growth of a single vector, renormalized after every multiplication;
only the leading exponent is needed so no QR of products is involved.

The recursion streams its potentials: it draws them _CHUNK steps at a
time, so memory is the log-norm array of 8 bytes per step plus one chunk.
The draw at step k is the hash of (seed, trial, k) and does not depend on
the chunking.  STEPS_LIMIT keeps the log-norm array at 1 GiB.
"""

import math
from dataclasses import dataclass

import numpy as np

from .randomfield import DistributionSpec, draw_values

_CHUNK = 1 << 16
STEPS_LIMIT = 1 << 27


def transfer_matrix(energy: float, v: float) -> np.ndarray:
    """One-step transfer matrix at on-site potential v; det == 1 exactly."""
    return np.array([[2.0 + v - energy, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class LyapunovEstimate:
    gamma_hat: float
    stderr: float
    steps: int
    batches: int


def lyapunov(
    energy: float,
    spec: DistributionSpec,
    steps: int,
    seed: int,
    trial: int = 0,
    batches: int = 20,
) -> LyapunovEstimate:
    """Estimate the top Lyapunov exponent at the given energy.

    gamma_hat = (1/steps) * sum_k ln ||T_k u_k|| with u_(k+1) = T_k u_k
    renormalized to unit length each step; the standard error comes from
    batch means over ``batches`` consecutive blocks.  Point-mass potentials
    are accepted here (unlike field sampling) because the closed-form
    diagnostics need them.
    """
    if steps < 1000:
        raise ValueError(f"steps must be >= 1000, got {steps}")
    if steps > STEPS_LIMIT:
        raise ValueError(f"steps must be <= {STEPS_LIMIT}, got {steps}")
    if batches < 2:
        raise ValueError(f"batches must be >= 2, got {batches}")
    if batches > steps:
        raise ValueError(f"batches must not exceed steps, got {batches} > {steps}")
    logs = np.empty(steps)
    shift = 2.0 - energy
    hypot = math.hypot
    a, b = 1.0, 0.0
    for start in range(0, steps, _CHUNK):
        stop = min(start + _CHUNK, steps)
        points = np.arange(start, stop, dtype=np.int64).reshape(-1, 1)
        coefficients = (shift + draw_values(spec, points, seed, trial)).tolist()
        norms = []
        for c in coefficients:
            na = c * a - b
            norm = hypot(na, a)
            norms.append(norm)
            a, b = na / norm, a / norm
        logs[start:stop] = list(map(math.log, norms))
    gamma = float(np.mean(logs))
    block = steps // batches
    means = logs[: batches * block].reshape(batches, block).mean(axis=1)
    stderr = float(np.std(means, ddof=1) / math.sqrt(batches))
    return LyapunovEstimate(gamma_hat=gamma, stderr=stderr, steps=steps, batches=batches)


def lyapunov_sweep(
    energies,
    spec: DistributionSpec,
    steps: int,
    seed: int,
) -> list[tuple[float, LyapunovEstimate]]:
    """Estimate the exponent over an energy grid, one replica per energy."""
    return [
        (float(e), lyapunov(float(e), spec, steps, seed, trial=k))
        for k, e in enumerate(energies)
    ]
