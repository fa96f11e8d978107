"""1D transfer matrices and top Lyapunov exponent estimation.

The second-order eigenvalue recursion psi(x+1) = (2 + v - E) psi(x) -
psi(x-1) propagates through the unit-determinant matrix
[[2 + v - E, -1], [1, 0]].  The top Lyapunov exponent is estimated from the
norm growth of a single vector, renormalized after every multiplication;
only the leading exponent is needed so no QR of products is involved.

The recursion streams: it draws its potentials _CHUNK steps at a time into
a chunk of log norms, and _PairwiseSums adds each chunk, as it arrives, to
the sums numpy's pairwise summation forms for the mean of all logs and for
each batch mean.  No array as long as the chain exists; memory is one
chunk plus one _LEAF-long carry, whatever the steps.  The draw at step k is
the hash of (seed, trial, k), and the sums are added in numpy's order, so
neither the chunking nor the streaming changes a bit of the estimate.
STEPS_LIMIT bounds the run time, not memory: 2^27 steps of the scalar
recursion take about 35-45 s per energy.

A chunk whose coefficients c = (2 - E) + v are all one value steps the
deterministic map (a, b) -> (c a - b, a) / hypot(c a - b, a) on the float
state, so once a state repeats, every later norm repeats with the same
period.  Each such chunk steps until its state repeats, fills the rest of
its logs by repeating its last period cyclically (``np.tile``, one
chunk-sized temporary at most), and steps the remainder of a period to
reach the chunk's final state.  The logs are bitwise those of
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

_CHUNK = 1 << 14
_LEAF = 1 << 13  # at least numpy's 128-element pairwise block
STEPS_LIMIT = 1 << 27


def transfer_matrix(energy: float, v: float) -> np.ndarray:
    """One-step transfer matrix at on-site potential v; det == 1 exactly."""
    return np.array([[2.0 + v - energy, -1.0], [1.0, 0.0]])


def _walk(coefficients, a, b, out):
    """The recursion from state (a, b) over the coefficients, returning the final state.

    Step k's log norm goes to out[k], a memoryview of float64, so no step
    makes a float object that outlives it.
    """
    hypot, log = math.hypot, math.log
    for k, c in enumerate(coefficients):
        na = c * a - b
        norm = hypot(na, a)
        out[k] = log(norm)
        a, b = na / norm, a / norm
    return a, b


def _walk_to_cycle(c, a, b, out):
    """Up to len(out) steps of the constant coefficient c, stopping when the state repeats.

    Step k's log norm goes to out[k], as in ``_walk``.  Brent's search: each
    state is compared with the one saved at the last power-of-two step
    count, so memory stays O(1).  Returns the steps taken, the period the
    final state repeats with (0 when no state repeated) and that state.
    """
    hypot, log = math.hypot, math.log
    saved_a, saved_b = a, b
    count, done, power = len(out), 0, 1
    while done < count:
        for k in range(done, min(done + power, count)):
            na = c * a - b
            norm = hypot(na, a)
            out[k] = log(norm)
            a, b = na / norm, a / norm
            if a == saved_a and b == saved_b:
                return k + 1, k + 1 - done, a, b
        done += power
        saved_a, saved_b = a, b
        power *= 2
    return count, 0, a, b


def _pairwise(start, n):
    """numpy's pairwise sum of stream elements [start, start + n), as a generator.

    numpy sums a contiguous float64 run of more than 128 elements as the sum
    of its halves, the first n2 = n // 2 rounded down to a multiple of 8, and
    shorter runs in a fixed unrolled order (Higham, 1993).  A run of at most
    _LEAF elements is a subtree that ``np.add.reduce`` of the same slice sums
    bitwise alike, so each such leaf is yielded as (start, stop) and sent
    back its sum; the generator returns the leaves added in numpy's order.
    """
    if n <= _LEAF:
        return (yield start, start + n)
    half = n // 2
    half -= half % 8
    left = yield from _pairwise(start, half)
    return left + (yield from _pairwise(start + half, n - half))


def _pairwise_rows(block, rows):
    """The pairwise sums of ``rows`` consecutive runs of ``block`` elements, as a generator."""
    sums = []
    for row in range(rows):
        sums.append((yield from _pairwise(row * block, block)))
    return sums


class _PairwiseSums:
    """numpy's sums of a stream and of its batch rows, fed one chunk at a time.

    For ``logs`` of ``steps`` elements, ``estimate()`` is bitwise
    ``np.mean(logs)`` and the standard error of the batch means
    ``logs[: batches * block].reshape(batches, block).mean(axis=1)``, with
    ``block = steps // batches``.  Each leaf of either tree is summed as soon
    as the stream completes it, so the carry holds at most one leaf plus one
    chunk.
    """

    def __init__(self, steps, batches):
        self._block = steps // batches
        self._trees = [_pairwise(0, steps), _pairwise_rows(self._block, batches)]
        self._leaves = [next(tree) for tree in self._trees]
        self._sums = [None, None]
        self._carry = np.empty(_LEAF + _CHUNK)
        self._start = 0  # stream index of carry[0]
        self._stop = 0  # stream index past the carry's last element

    def add(self, values):
        held = self._stop - self._start
        self._carry[held : held + len(values)] = values
        self._stop += len(values)
        for k, tree in enumerate(self._trees):
            leaf = self._leaves[k]
            while leaf is not None and leaf[1] <= self._stop:
                lo, hi = leaf[0] - self._start, leaf[1] - self._start
                try:
                    leaf = tree.send(float(np.add.reduce(self._carry[lo:hi])))
                except StopIteration as done:
                    self._sums[k], leaf = done.value, None
            self._leaves[k] = leaf
        keep = min((leaf[0] for leaf in self._leaves if leaf is not None), default=self._stop)
        if keep > self._start:
            held = self._stop - self._start
            self._carry[: self._stop - keep] = self._carry[keep - self._start : held]
            self._start = keep

    def estimate(self):
        """The stream's mean and the standard error of its batch means, as numpy forms them."""
        total, rows = self._sums
        means = np.array(rows) / self._block
        return total / self._stop, float(np.std(means, ddof=1) / math.sqrt(len(rows)))


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
    sums = _PairwiseSums(steps, batches)
    logs = np.empty(_CHUNK)
    out = memoryview(logs)
    shift = 2.0 - energy
    a, b = 1.0, 0.0
    for start in range(0, steps, _CHUNK):
        count = min(_CHUNK, steps - start)
        points = np.arange(start, start + count, dtype=np.int64).reshape(-1, 1)
        coefficients = shift + draw_values(spec, points, seed, trial)
        c = float(coefficients[0])
        if (coefficients == c).all():
            found, period, a, b = _walk_to_cycle(c, a, b, out[:count])
            if period:
                cycle = logs[found - period : found]  # found >= period, so count // period suffice
                logs[found:count] = np.tile(cycle, count // period)[: count - found]
                # from the repeated state these steps rewrite logs[found:] unchanged
                a, b = _walk([c] * ((count - found) % period), a, b, out[found:])
        else:
            a, b = _walk(memoryview(coefficients), a, b, out)
        sums.add(logs[:count])
    gamma, stderr = sums.estimate()
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
