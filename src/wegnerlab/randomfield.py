"""Single-site disorder measures and reproducible i.i.d. field sampling.

Sampling is counter-based: the value at a lattice point is a pure function
of (seed, trial, point coordinates), obtained by chaining the SplitMix64
finalizer over those words and mapping the top 53 bits to [0, 1).  There is
no generator state, so a point reads the same value however many times and
wherever it is drawn: the hash is the shared field.  Potentials are drawn
directly at the points that need them, a cube's particle points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DistributionError

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INIT = np.uint64(0x9E3779B97F4A7C15)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TWO53 = float(1 << 53)
_MASK = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, a bijective scrambling of 64-bit words."""
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _chain(*words: int) -> int:
    """The hash state after absorbing ``words``: the scalar form of ``_mix64``."""
    z = int(_INIT)
    for w in words:
        z ^= int(w) & _MASK
        z = ((z ^ (z >> 30)) * int(_M1)) & _MASK
        z = ((z ^ (z >> 27)) * int(_M2)) & _MASK
        z ^= z >> 31
    return z


def _as_words(values) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(values, dtype=np.int64))
    return np.ascontiguousarray(arr).view(np.uint64)


def hash_uniform01(seed: int, trial, words) -> np.ndarray:
    """Uniform [0, 1) variates keyed by (seed, trial, words[k, :]).

    ``words`` is an (m, w) integer array; one variate per row, with 53-bit
    resolution.  ``trial`` is an integer or an integer array, each entry a
    64-bit word (signed or unsigned); the result has shape
    ``np.shape(trial) + (m,)``, and each trial's row is bitwise the
    variates of that trial alone.  Pure function of its arguments: uint64
    arithmetic only, no shared state.  The seed is absorbed once, in
    scalar arithmetic, and each trial once per trial.
    """
    w = _as_words(words)
    trials = np.asarray(trial).astype(np.uint64)
    h = _mix64(np.uint64(_chain(seed)) ^ trials[..., None])
    for k in range(w.shape[1]):
        h = _mix64(h ^ w[:, k])
    return (h >> _S11).astype(np.float64) / _TWO53


def derive_seed(seed: int, *words: int) -> int:
    """Deterministic 64-bit subseed from a seed and integer tags.

    Used to decouple sampling streams (one per campaign row) without any
    generator state.
    """
    return _chain(seed, *words)


@dataclass(frozen=True)
class DistributionSpec:
    """Single-site measure: two-point, uniform, or general finite support."""

    kind: str
    p: float = 0.5
    lo: float = 0.0
    hi: float = 1.0
    values: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()

    @classmethod
    def bernoulli(cls, p: float = 0.5, lo: float = 0.0, hi: float = 1.0):
        """Takes the value ``hi`` with probability p and ``lo`` otherwise."""
        return cls(kind="bernoulli", p=float(p), lo=float(lo), hi=float(hi))

    @classmethod
    def uniform(cls, lo: float, hi: float):
        return cls(kind="uniform", lo=float(lo), hi=float(hi))

    @classmethod
    def finite(cls, values, weights):
        return cls(
            kind="finite",
            values=tuple(float(v) for v in values),
            weights=tuple(float(w) for w in weights),
        )

    @classmethod
    def point_mass(cls, value: float):
        """Degenerate measure; fails validation, for diagnostics only."""
        return cls.finite((value,), (1.0,))


def validate(spec: DistributionSpec) -> list[str]:
    """Check the support conditions; returns the violated clauses ([] if ok).

    Admitted measures must have bounded support on at least two distinct
    points, so every absolute moment is automatically finite.
    """
    violations = []
    if spec.kind == "bernoulli":
        if not all(math.isfinite(v) for v in (spec.p, spec.lo, spec.hi)):
            violations.append("non-finite parameter")
        elif not 0.0 <= spec.p <= 1.0:
            violations.append(f"p must lie in [0, 1], got {spec.p}")
        elif not 0.0 < spec.p < 1.0 or spec.lo == spec.hi:
            violations.append("single-point support")
    elif spec.kind == "uniform":
        if not all(math.isfinite(v) for v in (spec.lo, spec.hi)):
            violations.append("unbounded support")
        elif spec.lo >= spec.hi:
            violations.append("single-point support" if spec.lo == spec.hi else "empty support")
        elif not math.isfinite(spec.hi - spec.lo):
            violations.append("support width hi - lo is not finite")
    elif spec.kind == "finite":
        if len(spec.values) != len(spec.weights) or not spec.values:
            violations.append("values/weights length mismatch")
            return violations
        if not all(math.isfinite(v) for v in spec.values):
            violations.append("unbounded support")
        if not all(math.isfinite(w) for w in spec.weights):
            violations.append("non-finite weight")
        if any(w < 0 for w in spec.weights):
            violations.append("negative weight")
        if abs(sum(spec.weights) - 1.0) > 1e-12:
            violations.append("weights do not sum to 1")
        support = {v for v, w in zip(spec.values, spec.weights) if w > 0}
        if len(support) < 2:
            violations.append("single-point support")
    else:
        violations.append(f"unknown distribution kind {spec.kind!r}")
    return violations


def require_valid(spec: DistributionSpec) -> None:
    """Raise DistributionError, naming every violated clause, for an invalid measure."""
    violations = validate(spec)
    if violations:
        raise DistributionError("invalid distribution: " + "; ".join(violations))


def support_sup(spec: DistributionSpec) -> float:
    """max |v| over the values a draw can take: the support ends, or every listed value."""
    if spec.kind == "finite":
        return max(map(abs, spec.values), default=0.0)
    return max(abs(spec.lo), abs(spec.hi))


def _transform(spec: DistributionSpec, u: np.ndarray) -> np.ndarray:
    if spec.kind == "bernoulli":
        return np.where(u < spec.p, spec.hi, spec.lo)
    if spec.kind == "uniform":
        return spec.lo + u * (spec.hi - spec.lo)
    if spec.kind == "finite":
        cum = np.cumsum(spec.weights)
        idx = np.minimum(
            np.searchsorted(cum, u, side="right"), len(spec.values) - 1
        )
        return np.asarray(spec.values, dtype=np.float64)[idx]
    raise DistributionError(f"unknown distribution kind {spec.kind!r}")


def draw_values(spec: DistributionSpec, points, seed: int, trial) -> np.ndarray:
    """i.i.d. draws from the measure at integer points, keyed by (seed, trial).

    ``points`` is an integer array of any leading shape whose last axis
    holds a point's coordinates; ``trial`` is an int or an integer array of
    trials.  The result has shape ``np.shape(trial) + points.shape[:-1]``,
    bitwise equal to one call per trial.  No validation is applied here;
    degenerate measures are allowed for diagnostics (transfer-matrix
    closed-form checks).
    """
    points = np.asarray(points, dtype=np.int64)
    u = hash_uniform01(seed, trial, points.reshape(-1, points.shape[-1]))
    return _transform(spec, u).reshape(np.shape(trial) + points.shape[:-1])


def sample_field(spec: DistributionSpec, points, seed: int, trial: int) -> np.ndarray:
    """The field at ``points`` for a validated measure, as ``draw_values``.

    ``sample_field(spec, cube.particle_points(), seed, trial)`` is the
    (n, side^d) potential array of a cube.  Raises DistributionError for an
    invalid measure.
    """
    require_valid(spec)
    return draw_values(spec, points, seed, trial)
