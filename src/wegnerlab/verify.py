"""Cross-checking suites pitting each computation against an independent oracle.

Every suite draws seeded random instances, compares two routes to the same
quantity (sumset vs direct diagonalization, banded vs dense distances,
exact event decisions vs grid scans and closed-interval membership,
resolvent identity vs Weyl stability, norm-growth Lyapunov estimates vs
closed forms), and reports the worst deviation seen.  Default parameters
match the bundled acceptance tests.

The tensor and perturbation suites check their instances in blocks: one
hash draw over all trials, then ``CubeAssembly.eigenvalues``, which solves
each distinct operator of the block once in stacked calls of bounded
size.  Each instance's potentials, coupling and energy are bitwise those
of drawing it alone, so a block changes how fast a suite runs, not what it
checks.  The dist, resolvent and events suites draw one instance at a time
from a shared generator; the Lyapunov suite streams its recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import CubeAssembly, InteractionSpec, build_hamiltonian
from .lattice import Cube, Site
from .randomfield import DistributionSpec, derive_seed, draw_values, hash_uniform01, sample_field
from .spectral import (
    Spectrum,
    dist_to_spectrum,
    full_spectrum,
    gershgorin_interval,
    resolvent_norm,
    smallest_singular_value,
)
from .tensor import verify_decomposition
from .transfer import lyapunov
from .wegner import (
    fixed_energy_event,
    h_star,
    interval_dist,
    perturbation_check,
    two_volume_event,
    variable_energy_event,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checked: int
    worst: float
    detail: str


def _random_instance(rng: np.random.Generator, seed: int, index: int):
    """One seeded Hamiltonian drawn from a rotation of model shapes."""
    shapes = [(1, 1, 40), (2, 1, 6), (1, 2, 5), (1, 1, 99), (2, 1, 3), (3, 1, 1)]
    n, d, L = shapes[index % len(shapes)]
    dists = [
        DistributionSpec.bernoulli(0.5, 0.0, 1.0),
        DistributionSpec.uniform(0.0, 2.0),
        DistributionSpec.finite((0.0, 0.5, 2.0), (0.25, 0.5, 0.25)),
    ]
    dist = dists[index % len(dists)]
    if n >= 2 and index % 2 == 0:
        inter = InteractionSpec.pair_contact(0, 1.0)
        h = float(rng.uniform(-0.5, 0.5))
    else:
        inter = InteractionSpec.none()
        h = 0.0
    cube = Cube(Site(n, d, (0,) * (n * d)), L)
    potentials = sample_field(dist, cube.particle_points(), derive_seed(seed, index), 0)
    return build_hamiltonian(cube, potentials, inter, h)


def tensor_suite(
    lengths=range(1, 7), fields_per_length: int = 50, seed: int = 20260801
) -> SuiteResult:
    """Sumset of single-particle spectra vs direct diagonalization, n=2, d=1."""
    worst = 0.0
    checked = 0
    dist = DistributionSpec.bernoulli(0.5, 0.0, 1.0)
    trials = np.arange(fields_per_length)
    for L in lengths:
        cube = Cube(Site(2, 1, (0, 0)), L)
        potentials = draw_values(dist, cube.particle_points(), derive_seed(seed, L), trials)
        worst = max(worst, verify_decomposition(cube, potentials))
        checked += fields_per_length
    return SuiteResult(
        name="tensor",
        passed=worst <= 1e-9,
        checked=checked,
        worst=worst,
        detail=f"max rank-matched deviation {worst:.3e} over {checked} fields",
    )


def dist_suite(instances: int = 100, seed: int = 20260802) -> SuiteResult:
    """Banded-eigenvalue distance vs the distance to the dense full spectrum."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(instances):
        a = _random_instance(rng, seed, k)
        lo, hi = gershgorin_interval(a)
        energy = float(rng.uniform(lo, hi))
        dense = float(np.min(np.abs(full_spectrum(a).eigenvalues - energy)))
        worst = max(worst, abs(dist_to_spectrum(a, energy) - dense))
    return SuiteResult(
        name="dist",
        passed=worst <= 1e-9,
        checked=instances,
        worst=worst,
        detail=f"max |banded - dense| = {worst:.3e} over {instances} instances",
    )


def resolvent_suite(instances: int = 100, seed: int = 20260803) -> SuiteResult:
    """resolvent_norm * smallest singular value of A - E against 1."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(instances):
        a = _random_instance(rng, seed, k)
        lo, hi = gershgorin_interval(a)
        floor = 1e-6 * (1.0 + a.inf_norm())
        energy = float(rng.uniform(lo, hi))
        while dist_to_spectrum(a, energy) < floor:
            energy = float(rng.uniform(lo, hi))
        product = resolvent_norm(a, energy) * smallest_singular_value(a, energy)
        worst = max(worst, abs(product - 1.0))
    return SuiteResult(
        name="resolvent",
        passed=worst <= 1e-8,
        checked=instances,
        worst=worst,
        detail=f"max |1/dist * sigma_min - 1| = {worst:.3e} over {instances} instances",
    )


_DYADIC = 64.0


def _dyadic_spectrum(rng: np.random.Generator) -> Spectrum:
    # Dyadic eigenvalues make every event margin an exact float, so the
    # boundary band catches exact ties and nothing else.
    m = int(rng.integers(1, 13))
    ev = np.sort(rng.integers(0, int(20 * _DYADIC) + 1, m) / _DYADIC)
    return Spectrum(eigenvalues=ev, dim=m)


def _dyadic_window(rng: np.random.Generator, eps: float) -> tuple[float, float]:
    lo = float(rng.integers(0, int(20 * _DYADIC) + 1)) / _DYADIC
    width = float(rng.integers(0, int(16 * eps * _DYADIC) + 1)) / _DYADIC
    return lo, lo + width

def _grid(window: tuple[float, float], eps: float) -> np.ndarray:
    lo, hi = window
    count = max(2, int(math.ceil((hi - lo) / (eps / 100.0))) + 1)
    return np.linspace(lo, hi, count)


def _two_volume_margin(sx: Spectrum, sy: Spectrum, window) -> float:
    """Exact min over the window of max(dist to x, dist to y).

    The pointwise max of two piecewise-linear distance functions attains
    its minimum at a window endpoint, an eigenvalue, or a pair midpoint;
    every candidate in the window is tried, all at once.
    """
    lo, hi = window
    x, y = sx.eigenvalues, sy.eigenvalues
    inside = np.concatenate([x, y, (0.5 * (x[:, None] + y)).ravel()])
    candidates = np.concatenate([[lo, hi], inside[(lo <= inside) & (inside <= hi)]])
    dx = np.min(np.abs(x[:, None] - candidates), axis=0)
    dy = np.min(np.abs(y[:, None] - candidates), axis=0)
    return float(np.min(np.maximum(dx, dy)))


def events_suite(instances: int = 1000, seed: int = 20260804) -> SuiteResult:
    """Exact event decisions vs endpoint-inclusive grid scans.

    The variable and two-volume kinds are scanned on a grid of step eps/100;
    instances whose exact margin sits within 1e-6*eps of the threshold are
    re-drawn (the boundary band, where a grid cannot be trusted to agree).
    The fixed kind is checked against membership of E in some closed
    interval [lambda - eps, lambda + eps].
    """
    rng = np.random.default_rng(seed)
    eps_choices = (0.25, 0.125, 0.0625)
    mismatches = 0
    excluded = 0
    true_count = 0
    checked = 0

    for k in range(instances):
        eps = eps_choices[k % len(eps_choices)]
        while True:
            spec = _dyadic_spectrum(rng)
            window = _dyadic_window(rng, eps)
            if abs(interval_dist(spec, window) - eps) > 1e-6 * eps:
                break
            excluded += 1
        exact = variable_energy_event(spec, window, eps)
        scanned = bool(
            np.any(np.min(np.abs(spec.eigenvalues[:, None] - _grid(window, eps)), axis=0) <= eps)
        )
        mismatches += exact != scanned
        true_count += exact
        checked += 1

    for k in range(instances):
        eps = eps_choices[k % len(eps_choices)]
        while True:
            sx = _dyadic_spectrum(rng)
            sy = _dyadic_spectrum(rng)
            window = _dyadic_window(rng, eps)
            if abs(_two_volume_margin(sx, sy, window) - eps) > 1e-6 * eps:
                break
            excluded += 1
        exact = two_volume_event(sx, sy, window, eps)
        grid = _grid(window, eps)
        dx = np.min(np.abs(sx.eigenvalues[:, None] - grid), axis=0)
        dy = np.min(np.abs(sy.eigenvalues[:, None] - grid), axis=0)
        scanned = bool(np.any(np.maximum(dx, dy) <= eps))
        mismatches += exact != scanned
        true_count += exact
        checked += 1

    for k in range(instances):
        eps = eps_choices[k % len(eps_choices)]
        spec = _dyadic_spectrum(rng)
        energy = float(rng.integers(0, int(20 * _DYADIC) + 1)) / _DYADIC
        ev = spec.eigenvalues
        exact = fixed_energy_event(spec, energy, eps)
        member = bool(np.any((ev - eps <= energy) & (energy <= ev + eps)))
        mismatches += exact != member
        checked += 1

    return SuiteResult(
        name="events",
        passed=mismatches == 0,
        checked=checked,
        worst=float(mismatches),
        detail=(
            f"{mismatches} mismatches over {checked} instances "
            f"({true_count} eventful, {excluded} re-drawn at the boundary band)"
        ),
    )


_WEAK = {"sigma": 1.0, "beta": 0.5, "L0": 3}


def _perturbation_block(instances: int, seed: int):
    """The perturbation suite's cube, interaction, potentials, h and energies.

    Instance t draws its n = 2, d = 1, L = 3 Bernoulli potentials at trial
    t, takes h = +-0.9 h_star by the parity of t, and takes its energy
    uniformly, by the hash of (seed, t), in the Gershgorin interval of its
    uncoupled Hamiltonian; all instances at once.
    """
    cube = Cube(Site(2, 1, (0, 0)), 3)
    inter = InteractionSpec.pair_contact(0, 1.0)
    trials = np.arange(instances)
    dist = DistributionSpec.bernoulli(0.5, 0.0, 1.0)
    potentials = draw_values(dist, cube.particle_points(), seed, trials)
    free = CubeAssembly.of(cube, inter, 0.0)
    diag = free.diagonals(potentials)
    radii = free.matrix(np.zeros(potentials.shape[1:])).gershgorin_radii()
    lo, hi = np.min(diag - radii, axis=-1), np.max(diag + radii, axis=-1)
    energy = lo + hash_uniform01(seed, trials, [[0x45]])[:, 0] * (hi - lo)
    h = 0.9 * h_star(1.0, **_WEAK) * np.where(trials % 2 == 0, 1.0, -1.0)
    return cube, inter, potentials, h, energy


def perturbation_suite(instances: int = 1000, seed: int = 20260805) -> SuiteResult:
    """Resolvent-identity norm bound and Weyl stability at 0.9 h_star."""
    cube, inter, potentials, h, energy = _perturbation_block(instances, seed)
    result = perturbation_check(cube, potentials, inter, h, energy, **_WEAK)
    skipped = int(np.count_nonzero(result.skipped))
    violations = int(np.count_nonzero(~result.ok & ~result.skipped))
    return SuiteResult(
        name="perturbation",
        passed=violations == 0,
        checked=instances,
        worst=float(violations),
        detail=f"{violations} violations, {skipped} skipped, over {instances} instances",
    )


def lyapunov_suite(steps: int = 10**6, seed: int = 20260806) -> SuiteResult:
    """Norm-growth estimates vs closed forms, plus disorder positivity."""
    free = DistributionSpec.point_mass(0.0)
    est5 = lyapunov(5.0, free, steps, seed, trial=0)
    target = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    dev5 = abs(est5.gamma_hat - target)
    est2 = lyapunov(2.0, free, steps, seed, trial=1)
    dev2 = abs(est2.gamma_hat)
    bern = DistributionSpec.bernoulli(0.5, 0.0, 1.0)
    est_b = lyapunov(2.5, bern, steps, seed, trial=2)
    positive = est_b.gamma_hat - 2.0 * est_b.stderr > 0.0
    worst = max(dev5, dev2)
    passed = dev5 <= 5e-3 and dev2 <= 5e-3 and positive
    return SuiteResult(
        name="lyapunov",
        passed=passed,
        checked=3,
        worst=worst,
        detail=(
            f"|gamma(5) - {target:.5f}| = {dev5:.2e}, |gamma(2)| = {dev2:.2e}, "
            f"gamma(2.5) = {est_b.gamma_hat:.5f} +- {est_b.stderr:.1e}"
        ),
    )


ALL_SUITES = {
    "tensor": tensor_suite,
    "dist": dist_suite,
    "resolvent": resolvent_suite,
    "events": events_suite,
    "perturbation": perturbation_suite,
    "lyapunov": lyapunov_suite,
}


def run_suites(names=None) -> list[SuiteResult]:
    if names:
        unknown = [n for n in names if n not in ALL_SUITES]
        if unknown:
            raise ValueError(
                f"unknown suites {unknown}; available: {sorted(ALL_SUITES)}"
            )
        picked = names
    else:
        picked = list(ALL_SUITES)
    return [ALL_SUITES[name]() for name in picked]
