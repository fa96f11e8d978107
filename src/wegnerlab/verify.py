"""Cross-checking suites pitting each computation against an independent oracle.

Every suite draws seeded random instances, compares two routes to the same
quantity (sumset vs direct diagonalization, band inertia counts vs dense
counts, exact event decisions vs grid scans and closed-interval membership,
resolvent identity vs Weyl stability, norm-growth Lyapunov estimates vs
closed forms), and reports the worst deviation seen.  A suite's only
parameter is its seed; its sizes (lengths, fields, instances, steps) are
module constants.

Every draw comes from the counter hash ``hash_uniform01``, keyed by (seed,
instance index, tag words), and a boundary-band redraw by the next attempt
word, so each instance is bitwise the one drawn alone and a suite can check
its instances in blocks, which change how fast it runs, not what it checks;
``numpy.random`` is never loaded.  The tensor and perturbation suites make
one hash draw over all trials, then call ``CubeAssembly.eigenvalues``,
which solves each distinct operator of the block once in stacked calls of
bounded size; ``perturbation_check`` takes its block in chunks of that
budget.  The dist suite counts the instances of each model shape, which
share their hopping triples, in one stacked ``band_inertia`` call.  The
events suite draws each kind for all instances at once, redraws the
boundary-band ones in rounds and decides each kind in one pass of the
campaign's margin kernels; its references (grid scans, closed-interval
membership, the brute two-volume margin) stay per instance, as do the dense
spectra.  Every dense solve allocates one matrix, or a stack within the
budget: the resolvent suite's SVD shifts its one dense matrix in place,
though numpy's SVD holds a second copy in LAPACK's work space.  The
Lyapunov suite streams its recursion: each chain's logs pass through one
chunk buffer into numpy's pairwise sums, so its memory does not grow with
its 10^6 steps.  Its two free chains have a constant coefficient, so
``lyapunov`` steps them only until their float state repeats and copies the
period from there, bitwise the logs of stepping all 10^6 steps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import CubeAssembly, InteractionSpec, SymMatrix, build_hamiltonian
from .lattice import Cube, Site
from .randomfield import DistributionSpec, derive_seed, draw_values, hash_uniform01, sample_field
from .spectral import band_inertia, full_spectrum, gershgorin_interval, smallest_singular_value
from .tensor import verify_decomposition
from .transfer import lyapunov
from .wegner import _interval_dists, h_star, perturbation_check, two_volume_margin


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checked: int
    worst: float
    detail: str


# Tag words of the hash draws: the model instances' h and energies, and the event kinds.
_H, _ENERGY, _VARIABLE, _TWO_VOLUME, _FIXED = 0x68, 0x45, 0x76, 0x74, 0x66
_SHAPES = ((1, 1, 40), (2, 1, 6), (1, 2, 5), (1, 1, 99), (2, 1, 3), (3, 1, 1))


def _uniform(seed: int, trials, *tag: int) -> np.ndarray:
    """One uniform [0, 1) variate per trial, keyed by (seed, trial, tag words)."""
    return hash_uniform01(seed, trials, [tag])[..., 0]


def _random_instance(seed: int, index: int) -> SymMatrix:
    """Instance ``index``'s Hamiltonian, from a rotation of model shapes.

    Its potentials are keyed by derive_seed(seed, index) and its h, for a
    coupled instance, by (seed, index, _H).
    """
    n, d, L = _SHAPES[index % len(_SHAPES)]
    dists = [
        DistributionSpec.bernoulli(0.5, 0.0, 1.0),
        DistributionSpec.uniform(0.0, 2.0),
        DistributionSpec.finite((0.0, 0.5, 2.0), (0.25, 0.5, 0.25)),
    ]
    dist = dists[index % len(dists)]
    if n >= 2 and index % 2 == 0:
        inter = InteractionSpec.pair_contact(0, 1.0)
        h = float(_uniform(seed, index, _H)) - 0.5
    else:
        inter = InteractionSpec.none()
        h = 0.0
    cube = Cube(Site(n, d, (0,) * (n * d)), L)
    potentials = sample_field(dist, cube.particle_points(), derive_seed(seed, index), 0)
    return build_hamiltonian(cube, potentials, inter, h)


def _shape_blocks(seed: int, instances: int):
    """Per model shape: its instance indices, their Hamiltonians and their stack.

    The instances of one shape share their hopping triples, so their
    diagonals stack into one SymMatrix.
    """
    for shape in range(min(instances, len(_SHAPES))):
        indices = np.arange(shape, instances, len(_SHAPES))
        mats = [_random_instance(seed, int(k)) for k in indices]
        stack = np.stack([m.diag for m in mats])
        yield indices, mats, SymMatrix(stack, mats[0].rows, mats[0].cols, mats[0].vals)


_TENSOR_LENGTHS = range(1, 7)
_TENSOR_FIELDS = 50
_DIST_INSTANCES = 100
_RESOLVENT_INSTANCES = 100
_EVENTS_INSTANCES = 1000
_PERTURBATION_INSTANCES = 1000
_LYAPUNOV_STEPS = 10**6


def tensor_suite(seed: int = 20260801) -> SuiteResult:
    """Sumset of single-particle spectra vs direct diagonalization, n=2, d=1."""
    worst = 0.0
    checked = 0
    dist = DistributionSpec.bernoulli(0.5, 0.0, 1.0)
    trials = np.arange(_TENSOR_FIELDS)
    for L in _TENSOR_LENGTHS:
        cube = Cube(Site(2, 1, (0, 0)), L)
        potentials = draw_values(dist, cube.particle_points(), derive_seed(seed, L), trials)
        worst = max(worst, verify_decomposition(cube, potentials))
        checked += _TENSOR_FIELDS
    return SuiteResult(
        name="tensor",
        passed=worst <= 1e-9,
        checked=checked,
        worst=worst,
        detail=f"max rank-matched deviation {worst:.3e} over {checked} fields",
    )


def dist_suite(seed: int = 20260802) -> SuiteResult:
    """Band inertia counts vs dense counts, just either side of the nearest eigenvalue.

    Each instance takes the dense distance d from a random energy E to its
    spectrum and counts at E -+ d -+ delta, delta = 1e-9 (1 + ||A||_inf):
    an eigenvalue lies at E - d or E + d, so two of the four points are
    within delta of it.  The recursion's raw counts, certified or not, are
    compared with the dense ones; the suite never falls back to dense.
    The instances of each shape are counted in one stacked call.
    """
    mismatches = uncertified = 0
    for indices, mats, a in _shape_blocks(seed, _DIST_INSTANCES):
        lo, hi = gershgorin_interval(a)
        energy = lo + _uniform(seed, indices, _ENERGY) * (hi - lo)
        ev = np.stack([full_spectrum(m).eigenvalues for m in mats])
        d = np.min(np.abs(ev - energy[:, None]), axis=1)
        delta = 1e-9 * (1.0 + a.inf_norm())
        points = energy[:, None] + np.stack([-d - delta, -d + delta, d - delta, d + delta], axis=1)
        counts, certified = band_inertia(a, points)
        dense = np.count_nonzero(ev[:, None, :] < points[..., None], axis=-1)
        mismatches += int(np.count_nonzero(counts != dense))
        uncertified += int(np.count_nonzero(~certified))
    return SuiteResult(
        name="dist",
        passed=mismatches == 0,
        checked=_DIST_INSTANCES,
        worst=float(mismatches),
        detail=(
            f"{mismatches} count mismatches over {4 * _DIST_INSTANCES} counts at E -+ d -+ delta "
            f"({uncertified} uncertified) over {_DIST_INSTANCES} instances"
        ),
    )


def resolvent_suite(seed: int = 20260803) -> SuiteResult:
    """1/dist (the resolvent norm) * smallest singular value of A - E against 1.

    Each instance is diagonalised once; its spectrum gives the distance for
    the floor check on the energy and for 1/dist, as ``resolvent_norm``
    takes it below DENSE_LIMIT.  An energy within the floor is redrawn
    with the next attempt word.
    """
    worst = 0.0
    for k in range(_RESOLVENT_INSTANCES):
        a = _random_instance(seed, k)
        ev = full_spectrum(a).eigenvalues
        lo, hi = gershgorin_interval(a)
        floor = 1e-6 * (1.0 + a.inf_norm())
        for attempt in itertools.count():
            energy = float(lo + _uniform(seed, k, _ENERGY, attempt) * (hi - lo))
            dist = float(np.min(np.abs(ev - energy)))
            if dist >= floor:
                break
        product = 1.0 / dist * smallest_singular_value(a, energy)
        worst = max(worst, abs(product - 1.0))
    return SuiteResult(
        name="resolvent",
        passed=worst <= 1e-8,
        checked=_RESOLVENT_INSTANCES,
        worst=worst,
        detail=f"max |1/dist * sigma_min - 1| = {worst:.3e} over {_RESOLVENT_INSTANCES} instances",
    )


_EPS = np.array([0.25, 0.125, 0.0625])
_DYADIC = 64.0
_TOP = int(20 * _DYADIC)
_WIDTH = 12
_VARIATES = 2 * (_WIDTH + 1) + 3


def _ints(u: np.ndarray, count) -> np.ndarray:
    """Integers uniform on 0..count - 1, one per uniform [0, 1) variate."""
    return np.minimum((u * count).astype(np.int64), count - 1)


def _dyadic_spectra(u: np.ndarray):
    """(spectra, sizes) from (k, _WIDTH + 1) variates: 1 to _WIDTH sorted eigenvalues j / 64.

    Each j is uniform on 0..20 * 64.  Dyadic eigenvalues make every event
    margin an exact float, so the boundary band catches exact ties and
    nothing else.  Each spectrum is edge-padded to _WIDTH columns with its
    largest eigenvalue, which leaves every distance minimum and two-volume
    margin bitwise unchanged.
    """
    sizes = 1 + _ints(u[:, 0], _WIDTH)
    columns = np.arange(_WIDTH)
    ev = np.where(columns < sizes[:, None], _ints(u[:, 1:], _TOP + 1) / _DYADIC, np.inf)
    ev.sort(axis=1)
    return np.take_along_axis(ev, np.minimum(columns, sizes[:, None] - 1), axis=1), sizes


def _dyadic_instances(u: np.ndarray, eps: np.ndarray):
    """Events instances from their variates: spectra x and y, a window and an energy.

    Returns x and y with their sizes (``_dyadic_spectra``), the window
    (lo, hi) with lo a dyadic point of [0, 20] and hi - lo a dyadic width
    of at most 16 eps, and a dyadic energy in [0, 20].
    """
    lo = _ints(u[:, -3], _TOP + 1) / _DYADIC
    hi = lo + _ints(u[:, -2], (16 * _DYADIC * eps).astype(np.int64) + 1) / _DYADIC
    energy = _ints(u[:, -1], _TOP + 1) / _DYADIC
    x, y = _dyadic_spectra(u[:, : _WIDTH + 1]), _dyadic_spectra(u[:, _WIDTH + 1 : -3])
    return x, y, (lo, hi), energy


def _events_instances(seed: int, kind: int, trials: np.ndarray, margin=None):
    """The ``_dyadic_instances`` of one kind and the number of boundary-band redraws.

    Attempt a of instance k draws its variates keyed by (seed, k, kind, a).
    Instance k, with eps = _EPS[k % 3], takes its first attempt whose
    ``margin`` is not within 1e-6 eps of eps (its first attempt when
    ``margin`` is None); the redrawn instances are drawn again in rounds.
    """
    eps = _EPS[trials % len(_EPS)]
    u, pending, redrawn = np.empty((len(trials), _VARIATES)), np.arange(len(trials)), 0
    for attempt in itertools.count():
        tags = [(kind, attempt, j) for j in range(_VARIATES)]
        u[pending] = hash_uniform01(seed, trials[pending], tags)
        if margin is None:
            break
        near = margin(_dyadic_instances(u[pending], eps[pending])) - eps[pending]
        pending = pending[np.abs(near) <= 1e-6 * eps[pending]]
        if not pending.size:
            break
        redrawn += pending.size
    return _dyadic_instances(u, eps), redrawn


def _variable_margins(instances) -> np.ndarray:
    (x, _), _, (lo, hi), _ = instances
    return np.min(_interval_dists(x, lo[:, None], hi[:, None]), axis=1)


def _brute_margins(instances) -> np.ndarray:
    (x, nx), (y, ny), (lo, hi), _ = instances
    return np.array(
        [_two_volume_margin(x[i, : nx[i]], y[i, : ny[i]], (lo[i], hi[i])) for i in range(len(lo))]
    )


def _grid(window: tuple[float, float], eps: float) -> np.ndarray:
    lo, hi = window
    count = max(2, int(math.ceil((hi - lo) / (eps / 100.0))) + 1)
    return np.linspace(lo, hi, count)


def _two_volume_margin(x: np.ndarray, y: np.ndarray, window) -> float:
    """Exact min over the window of max(dist to x, dist to y), for eigenvalues x and y.

    The pointwise max of two piecewise-linear distance functions attains
    its minimum at a window endpoint, an eigenvalue, or a pair midpoint;
    every candidate in the window is tried, all at once.
    """
    lo, hi = window
    inside = np.concatenate([x, y, (0.5 * (x[:, None] + y)).ravel()])
    candidates = np.concatenate([[lo, hi], inside[(lo <= inside) & (inside <= hi)]])
    dx = np.min(np.abs(x[:, None] - candidates), axis=0)
    dy = np.min(np.abs(y[:, None] - candidates), axis=0)
    return float(np.min(np.maximum(dx, dy)))


def events_suite(seed: int = 20260804) -> SuiteResult:
    """Exact event decisions vs endpoint-inclusive grid scans.

    The variable and two-volume kinds are scanned on a grid of step eps/100;
    instances whose exact margin sits within 1e-6*eps of the threshold are
    re-drawn (the boundary band, where a grid cannot be trusted to agree;
    the two-volume margin there is the brute ``_two_volume_margin``).
    The fixed kind is checked against membership of E in some closed
    interval [lambda - eps, lambda + eps].  Each kind is decided in one
    pass of ``_interval_dists`` or ``two_volume_margin`` over all its
    padded spectra; the references are taken per instance.
    """
    trials = np.arange(_EVENTS_INSTANCES)
    eps = _EPS[trials % len(_EPS)]
    variable, redrawn_v = _events_instances(seed, _VARIABLE, trials, _variable_margins)
    two, redrawn_2 = _events_instances(seed, _TWO_VOLUME, trials, _brute_margins)
    fixed, _ = _events_instances(seed, _FIXED, trials)
    (xv, nv), _, (lov, hiv), _ = variable
    (x2, n2), (y2, m2), (lo2, hi2), _ = two
    (xf, nf), _, _, energy = fixed
    exact_v = _variable_margins(variable) <= eps
    exact_2 = two_volume_margin(x2, y2, (lo2[:, None], hi2[:, None])) <= eps
    exact_f = np.min(_interval_dists(xf, energy[:, None], energy[:, None]), axis=1) <= eps

    mismatches = 0
    for i, e in enumerate(eps):
        ev, grid = xv[i, : nv[i]], _grid((lov[i], hiv[i]), e)
        scanned = np.any(np.min(np.abs(ev[:, None] - grid), axis=0) <= e)
        mismatches += int(exact_v[i] != scanned)
        grid = _grid((lo2[i], hi2[i]), e)
        dx = np.min(np.abs(x2[i, : n2[i], None] - grid), axis=0)
        dy = np.min(np.abs(y2[i, : m2[i], None] - grid), axis=0)
        mismatches += int(exact_2[i] != np.any(np.maximum(dx, dy) <= e))
        ev = xf[i, : nf[i]]
        mismatches += int(exact_f[i] != np.any((ev - e <= energy[i]) & (energy[i] <= ev + e)))
    checked, excluded = 3 * _EVENTS_INSTANCES, redrawn_v + redrawn_2
    true_count = int(np.count_nonzero(exact_v) + np.count_nonzero(exact_2))

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


def _perturbation_block(seed: int):
    """The perturbation suite's cube, interaction, potentials, h and energies.

    Instance t draws its n = 2, d = 1, L = 3 Bernoulli potentials at trial
    t, takes h = +-0.9 h_star by the parity of t, and takes its energy
    uniformly, by the hash of (seed, t), in the Gershgorin interval of its
    uncoupled Hamiltonian; all _PERTURBATION_INSTANCES instances at once.
    """
    cube = Cube(Site(2, 1, (0, 0)), 3)
    inter = InteractionSpec.pair_contact(0, 1.0)
    trials = np.arange(_PERTURBATION_INSTANCES)
    dist = DistributionSpec.bernoulli(0.5, 0.0, 1.0)
    potentials = draw_values(dist, cube.particle_points(), seed, trials)
    lo, hi = gershgorin_interval(CubeAssembly.of(cube, inter, 0.0).matrix(potentials))
    energy = lo + _uniform(seed, trials, _ENERGY) * (hi - lo)
    h = 0.9 * h_star(1.0, **_WEAK) * np.where(trials % 2 == 0, 1.0, -1.0)
    return cube, inter, potentials, h, energy


def perturbation_suite(seed: int = 20260805) -> SuiteResult:
    """Resolvent-identity norm bound and Weyl stability at 0.9 h_star."""
    cube, inter, potentials, h, energy = _perturbation_block(seed)
    result = perturbation_check(cube, potentials, inter, h, energy, **_WEAK)
    skipped = int(np.count_nonzero(result.skipped))
    violations = int(np.count_nonzero(~result.ok & ~result.skipped))
    return SuiteResult(
        name="perturbation",
        passed=violations == 0,
        checked=_PERTURBATION_INSTANCES,
        worst=float(violations),
        detail=f"{violations} violations, {skipped} skipped, over {_PERTURBATION_INSTANCES} instances",
    )


def lyapunov_suite(seed: int = 20260806) -> SuiteResult:
    """Norm-growth estimates vs closed forms, plus disorder positivity."""
    free = DistributionSpec.point_mass(0.0)
    est5 = lyapunov(5.0, free, _LYAPUNOV_STEPS, seed, trial=0)
    target = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    dev5 = abs(est5.gamma_hat - target)
    est2 = lyapunov(2.0, free, _LYAPUNOV_STEPS, seed, trial=1)
    dev2 = abs(est2.gamma_hat)
    bern = DistributionSpec.bernoulli(0.5, 0.0, 1.0)
    est_b = lyapunov(2.5, bern, _LYAPUNOV_STEPS, seed, trial=2)
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
    """Run the named suites, each once in the order first named; all of them when none.

    Raises ValueError, before any suite runs, for a name that is not in
    ALL_SUITES.
    """
    if names:
        unknown = [n for n in names if n not in ALL_SUITES]
        if unknown:
            raise ValueError(
                f"unknown suites {unknown}; available: {sorted(ALL_SUITES)}"
            )
        picked = dict.fromkeys(names)
    else:
        picked = list(ALL_SUITES)
    return [ALL_SUITES[name]() for name in picked]
