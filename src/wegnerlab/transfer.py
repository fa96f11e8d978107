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

A chunk whose coefficients c = (2 - E) + v are all one value steps the
deterministic map (a, b) -> (c a - b, a) / hypot(c a - b, a) on the float
state, so once a state repeats, every later norm repeats with the same
period.  Each such chunk steps until its state repeats, fills the rest of
its logs with copies of one period, in place, and steps the remainder of
a period to reach the chunk's final state.  The logs are bitwise those of
stepping every chunk.  With |c| > 2 the state settles on the expanding
direction and then repeats (found after 33 steps at c = -3, later as |c|
nears 2; a chunk that starts on the cycle finds it again within a few
periods); with |c| <= 2 it mostly never does (c = 0 and c = +-1 are
exceptions), and such a chunk pays one compare per step.
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


def _walk(coefficients, a, b):
    """The recursion from state (a, b) over the coefficients: its norms and final state."""
    hypot = math.hypot
    norms = []
    for c in coefficients:
        na = c * a - b
        norm = hypot(na, a)
        norms.append(norm)
        a, b = na / norm, a / norm
    return norms, a, b


def _walk_to_cycle(c, count, a, b):
    """Up to ``count`` steps of the constant coefficient c, stopping when the state repeats.

    Brent's search: each state is compared with the one saved at the last
    power-of-two step count, so memory stays O(1).  Returns the norms, the
    final state and the period it repeats with (0 when no state repeated).
    """
    hypot = math.hypot
    norms = []
    saved_a, saved_b = a, b
    power = 1
    while count > 0:
        for lam in range(1, min(power, count) + 1):
            na = c * a - b
            norm = hypot(na, a)
            norms.append(norm)
            a, b = na / norm, a / norm
            if a == saved_a and b == saved_b:
                return norms, a, b, lam
        count -= power
        saved_a, saved_b = a, b
        power *= 2
    return norms, a, b, 0


def _fill_periodic(logs, base, period, start, stop):
    """Extend logs[base:start], which repeats with the period, over logs[start:stop].

    Each copy takes a whole number of periods from the filled part, at most
    doubling it, so no temporary is allocated.
    """
    pos = start
    while pos < stop:
        span = (pos - base) // period * period
        count = min(span, stop - pos)
        logs[pos : pos + count] = logs[pos - span : pos - span + count]
        pos += count


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
    a, b = 1.0, 0.0
    for start in range(0, steps, _CHUNK):
        stop = min(start + _CHUNK, steps)
        points = np.arange(start, stop, dtype=np.int64).reshape(-1, 1)
        coefficients = shift + draw_values(spec, points, seed, trial)
        c = float(coefficients[0])
        if (coefficients == c).all():
            norms, a, b, period = _walk_to_cycle(c, stop - start, a, b)
            found = start + len(norms)
            logs[start:found] = list(map(math.log, norms))
            if period:
                _fill_periodic(logs, found - period, period, found, stop)
                _, a, b = _walk([c] * ((stop - found) % period), a, b)
        else:
            norms, a, b = _walk(coefficients.tolist(), a, b)
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
