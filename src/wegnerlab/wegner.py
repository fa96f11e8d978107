"""Resonance events, perturbation thresholds, and Monte Carlo estimation.

The three event kinds (fixed energy, variable energy over an interval, and
the two-volume joint event) are decided exactly by comparisons on the
sorted sampled spectra; no grid approximation is involved.  All comparisons
are closed (<=) to match the defining inequalities.  Probabilities are
estimated by counting over counter-based trials, so the success count is
bit-identical for a fixed seed.

For n >= 2 a trial decides on the sumset of single-particle spectra (the
exact h = 0 spectrum, moved by at most max|h*U| under weak coupling, by
Weyl) whenever a certified margin clears the event boundary, and falls
back to the dense spectra otherwise, so every decision is the dense one.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DistributionError
from .hamiltonian import (
    CubeAssembly,
    InteractionSpec,
    build_hamiltonian,
    interaction_sup_norm,
)
from .lattice import Cube, Site
from .randomfield import (
    DistributionSpec,
    draw_values,
    sample_field,  # noqa: F401  (perfbench/spans.py wraps wegner.sample_field by name)
    support_sup,
    validate,
)
from .spectral import DENSE_LIMIT, Spectrum, dist_to_spectrum, full_spectrum
from .tensor import SumsetAssembly

_WILSON_Z = 1.96
_TOLERANCE = 1e-10


def interval_dist(spec: Spectrum, interval: tuple[float, float]) -> float:
    """min over eigenvalues of dist(lambda, [lo, hi])."""
    lo, hi = interval
    ev = spec.eigenvalues
    return float(np.min(np.maximum.reduce([lo - ev, ev - hi, np.zeros_like(ev)])))


def fixed_energy_event(spec: Spectrum, energy: float, eps: float) -> bool:
    """dist(E, spectrum) <= eps, boundary inclusive."""
    return interval_dist(spec, (energy, energy)) <= eps


def variable_energy_event(spec: Spectrum, interval, eps: float) -> bool:
    """Exists E in the interval with dist(E, spectrum) <= eps.

    Evaluated exactly: the witness set is nonempty iff some eigenvalue lies
    within eps of the interval.
    """
    lo, hi = interval
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return interval_dist(spec, (lo, hi)) <= eps


def two_volume_event(spec_x: Spectrum, spec_y: Spectrum, interval, eps: float) -> bool:
    """Exists E in the interval within eps of both spectra.

    Some E lies in [x - eps, x + eps], [y - eps, y + eps] and [lo, hi] iff
    the three closed intervals pairwise overlap.  Eigenvalues whose fattened
    interval misses the window are dropped; for each remaining x, the y with
    y + eps >= x - eps and y - eps <= x + eps form a contiguous run of the
    sorted y, located by two binary searches.
    """
    lo, hi = interval
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    x, y = spec_x.eigenvalues, spec_y.eigenvalues
    x = x[(x - eps <= hi) & (x + eps >= lo)]
    y = y[(y - eps <= hi) & (y + eps >= lo)]
    first = np.searchsorted(y + eps, x - eps, side="left")
    stop = np.searchsorted(y - eps, x + eps, side="right")
    return bool(np.any(first < stop))


def h_star(u_norm: float, sigma: float, L0: int, beta: float) -> float:
    """Coupling threshold 1 / (2 ||U|| e^(sigma L0^beta)); inf for ||U|| = 0."""
    if u_norm < 0.0:
        raise ValueError(f"u_norm must be >= 0, got {u_norm}")
    if u_norm == 0.0:
        return math.inf
    return 1.0 / (2.0 * u_norm * math.exp(sigma * L0**beta))


def delta0(sigma: float, L0: int, beta: float) -> float:
    """Half-width (1/2) e^(-sigma L0^beta) of the admissible energy window."""
    return 0.5 * math.exp(-sigma * L0**beta)


@dataclass(frozen=True)
class PerturbationCheck:
    """Outcome of the resolvent-identity and stability checks on one instance."""

    ok: bool
    skipped: bool
    failed_clause: str | None
    energy: float
    h: float
    u_norm: float
    threshold: float
    dist_free: float
    dist_coupled: float


def perturbation_check(
    cube: Cube,
    potentials: np.ndarray,
    inter: InteractionSpec,
    h: float,
    energy: float,
    sigma: float,
    beta: float,
    L0: int,
) -> PerturbationCheck:
    """Verify the weak-coupling stability of resonances on one instance.

    ``potentials`` is the cube's (n, side^d) potential array.
    Clause (a), the second-resolvent-identity norm bound: with G = (H-E)^-1
    and its norm 1/dist for self-adjoint H,

        ||G_h|| <= ||G_0|| + |h| ||U|| ||G_0|| ||G_h||

    whenever both resolvents exist.  Clause (b), the stability implication:

        dist(E, spec(H_0)) > e^(-sigma L0^beta)
            implies  dist(E, spec(H_h)) >= (1/2) e^(-sigma L0^beta),

    which eigenvalue perturbation (Weyl) guarantees for every |h| below
    h_star.  Returns the first violated clause with all computed
    quantities; an instance with a divergent resolvent is skipped.
    """
    u_norm = interaction_sup_norm(cube, inter)
    bound = h_star(u_norm, sigma, L0, beta)
    if abs(h) >= bound:
        raise ValueError(f"|h| = {abs(h)} is not below h_star = {bound}")
    threshold = math.exp(-sigma * L0**beta)
    h_free = build_hamiltonian(cube, potentials, inter, 0.0)
    h_coupled = build_hamiltonian(cube, potentials, inter, h)
    dist_free = dist_to_spectrum(h_free, energy)
    dist_coupled = dist_to_spectrum(h_coupled, energy)

    def result(ok, skipped=False, clause=None):
        return PerturbationCheck(
            ok=ok,
            skipped=skipped,
            failed_clause=clause,
            energy=energy,
            h=h,
            u_norm=u_norm,
            threshold=threshold,
            dist_free=dist_free,
            dist_coupled=dist_coupled,
        )

    if dist_free == 0.0 or dist_coupled == 0.0:
        return result(ok=False, skipped=True)
    slack = 1e-9
    norm_free = 1.0 / dist_free
    norm_coupled = 1.0 / dist_coupled
    rhs = norm_free + abs(h) * u_norm * norm_free * norm_coupled
    if norm_coupled > rhs * (1.0 + slack):
        return result(ok=False, clause="norm_inequality")
    if dist_free > threshold and dist_coupled < 0.5 * threshold * (1.0 - slack):
        return result(ok=False, clause="distance_stability")
    return result(ok=True)


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Wilson score 95% interval; non-degenerate upper bound at 0 successes."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = float(trials)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    spread = z * math.sqrt((p * (1.0 - p) + z * z / (4.0 * n)) / n) / denom
    return (max(0.0, center - spread), min(1.0, center + spread))


@dataclass(frozen=True)
class MCResult:
    """Estimated event probability with its Wilson 95% interval."""

    trials: int
    successes: int
    p_hat: float
    ci95: tuple[float, float]


class PreparedQuery(NamedTuple):
    """The trial-invariant part of an event query, all arrays read-only.

    ``points`` is the (cubes, n, side^d, d) array of each cube's particle
    points and ``assemblies`` holds one CubeAssembly per cube.  ``sumset``
    solves the single-particle operators of every cube (None for n = 1),
    and ``margin`` bounds how far a sumset eigenvalue and the rank-matched
    dense eigenvalue of the same cube can lie apart.
    """

    points: np.ndarray
    assemblies: tuple[CubeAssembly, ...]
    sumset: SumsetAssembly | None
    margin: float


@dataclass(frozen=True)
class EventQuery:
    """One fully specified event family: geometry, disorder, and thresholds.

    ``energy`` is used by the fixed-energy kind, ``window`` by the variable
    and two-volume kinds.  The first cube is centered at the origin and
    ``offset`` is the second cube center for the two-volume kind; when it
    is None there, it resolves on construction to 2L+1 along the first
    coordinate, which makes the two configuration cubes disjoint.
    Everything a trial needs that does not depend on the trial is computed
    on first use and cached (``prepared``).
    """

    kind: str
    n: int
    d: int
    L: int
    distribution: DistributionSpec
    interaction: InteractionSpec
    h: float
    eps: float
    energy: float | None = None
    window: tuple[float, float] | None = None
    offset: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind == "two_volume" and self.offset is None:
            nd = self.n * self.d
            object.__setattr__(self, "offset", (2 * self.L + 1,) + (0,) * (nd - 1))

    @cached_property
    def prepared(self) -> PreparedQuery:
        """Particle points and assemblies of the cubes, computed once.

        Raises DistributionError for an invalid distribution, as
        sample_field does.
        """
        violations = validate(self.distribution)
        if violations:
            raise DistributionError("invalid distribution: " + "; ".join(violations))
        cubes = _query_cubes(self)
        points = np.stack([c.particle_points() for c in cubes])
        points.flags.writeable = False
        assemblies = tuple(CubeAssembly.of(c, self.interaction, self.h) for c in cubes)
        sumset = SumsetAssembly.of(self.d, self.L) if self.n >= 2 else None
        return PreparedQuery(points, assemblies, sumset, _margin(self, assemblies))


def _diagonal_bound(query: EventQuery) -> float:
    """2nd + n*max|V| + |h|*sup|U|, a bound on every diagonal entry of H."""
    return (
        2.0 * query.n * query.d
        + query.n * support_sup(query.distribution)
        + abs(query.h) * query.interaction.sup_bound(query.n)
    )


def _margin(query: EventQuery, assemblies) -> float:
    """mu = tau + delta, by which sumset and dense eigenvalues can differ.

    delta = max|h*U| over the cubes moves each eigenvalue of the h = 0
    operator by at most delta (Weyl).  tau = 1e-10*(1 + ||H||), with
    ||H|| <= 2nd + the diagonal bound (Gershgorin), lies far above the
    dim*eps_machine*||H|| backward error of either eigensolver route.
    """
    tau = _TOLERANCE * (1.0 + 2.0 * query.n * query.d + _diagonal_bound(query))
    couplings = [a.coupling for a in assemblies if a.coupling is not None]
    return tau + max((float(np.max(np.abs(c))) for c in couplings), default=0.0)


def _query_cubes(query: EventQuery) -> list[Cube]:
    nd = query.n * query.d
    first = Cube(Site(query.n, query.d, (0,) * nd), query.L)
    if query.kind != "two_volume":
        return [first]
    return [first, Cube(Site(query.n, query.d, query.offset), query.L)]


def capacity_problems(
    n: int, d: int, L: int, limit: int = DENSE_LIMIT, name: str = "dense eigensolver"
) -> list[str]:
    """The capacity rule for a cube of radius L in (Z^d)^n, from (n, d, L) alone.

    The dimension (2L+1)^(n*d) is multiplied out one factor at a time and
    abandoned at the first partial product above ``limit`` (by default
    DENSE_LIMIT), so a huge n, d or L costs a few multiplications; the
    report then gives that partial product as a lower bound.
    """
    if L < 0:
        return [f"cube radius must be >= 0, got {L}"]
    dim, factors = 1, n * d
    while L > 0 and factors > 0 and dim <= limit:
        dim, factors = dim * (2 * L + 1), factors - 1
    if dim <= limit:
        return []
    relation = "=" if factors == 0 else ">="
    return [f"cube dim (2L+1)^(n*d) {relation} {dim} exceeds the {name} limit {limit}"]


def validate_query(query: EventQuery) -> list[str]:
    """Problems with one campaign row, all reported before any sampling."""
    distribution_problems = validate(query.distribution)
    problems = [f"distribution: {v}" for v in distribution_problems]
    if query.kind not in ("fixed", "variable", "two_volume"):
        problems.append(f"unknown event kind {query.kind!r}")
    problems += capacity_problems(query.n, query.d, query.L)
    if not 0.0 < query.eps < math.inf:
        problems.append(f"eps must be positive and finite, got {query.eps}")
    numbers = {"h": query.h, "energy": query.energy}
    if query.window is not None:
        numbers.update(window_lo=query.window[0], window_hi=query.window[1])
    problems += [
        f"{name} must be finite, got {value}"
        for name, value in numbers.items()
        if value is not None and not math.isfinite(value)
    ]
    if not distribution_problems and math.isfinite(query.h):
        bound = _diagonal_bound(query)
        if not math.isfinite(bound):
            problems.append(
                f"diagonal bound 2nd + n*max|V| + |h|*sup|U| = {bound} is not finite"
            )
    if query.kind == "fixed" and query.energy is None:
        problems.append("fixed-energy event needs an energy")
    if query.kind in ("variable", "two_volume"):
        if query.window is None:
            problems.append(f"{query.kind} event needs an interval")
        elif query.window[0] > query.window[1]:
            problems.append(f"empty interval {query.window}")
    return problems


def _decide(query: EventQuery, spectra, eps: float) -> bool:
    """The query's event on the cubes' spectra, at closeness ``eps``."""
    if query.kind == "fixed":
        return fixed_energy_event(spectra[0], query.energy, eps)
    if query.kind == "variable":
        return variable_energy_event(spectra[0], query.window, eps)
    return two_volume_event(spectra[0], spectra[1], query.window, eps)


def evaluate_event(query: EventQuery, seed: int, trial: int) -> bool:
    """Sample one field realization and decide the event exactly.

    One draw at the prepared particle points gives every cube its
    (n, side^d) potentials; cubes that share a lattice point read the same
    value, since the value is a pure function of (seed, trial, point).

    For n >= 2 the event is first decided on the sumset spectra.  Each
    dense eigenvalue lies within the prepared margin mu of the rank-matched
    sumset eigenvalue, so an event that fails on the sums at eps + mu fails
    on the dense spectra at eps, and one that holds at eps - mu holds there.
    Otherwise the dense spectra of the same potentials decide.  Either way
    the decision is the dense one.
    """
    prepared = query.prepared
    potentials = draw_values(query.distribution, prepared.points, seed, trial)
    if prepared.sumset is not None:
        sums = prepared.sumset.spectra(potentials)
        if not _decide(query, sums, query.eps + prepared.margin):
            return False
        if _decide(query, sums, query.eps - prepared.margin):
            return True
    spectra = [
        full_spectrum(assembly.matrix(v)) for assembly, v in zip(prepared.assemblies, potentials)
    ]
    return _decide(query, spectra, query.eps)


def mc_estimate(query: EventQuery, trials: int, seed: int) -> MCResult:
    """Estimate the event probability over counter-based trials.

    Trial t uses the field keyed by (seed, t), so the success count is a
    pure function of (query, trials, seed).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    problems = validate_query(query)
    if problems:
        raise DistributionError("invalid event query: " + "; ".join(problems))
    successes = sum(evaluate_event(query, seed, t) for t in range(trials))
    p_hat = successes / trials
    return MCResult(
        trials=trials,
        successes=successes,
        p_hat=p_hat,
        ci95=wilson_interval(successes, trials),
    )


@dataclass(frozen=True)
class DecayFit:
    """Fitted exponential decay rate and per-length polynomial checks.

    ``alpha_hat`` is defined only when at least two campaign points have a
    nonzero estimate; ``passes_polynomial`` compares Wilson upper bounds
    against L^(-q) either way.
    """

    points: tuple[tuple[int, float], ...]
    alpha_hat: float | None
    passes_polynomial: tuple[tuple[int, bool], ...]


def decay_fit(points, beta: float, q: float) -> DecayFit:
    """Least-squares decay rate of -ln p_hat against L^beta.

    ``points`` is a sequence of (L, MCResult).  The polynomial check per L
    is Wilson-upper(p_hat) <= L^(-q).
    """
    points = list(points)
    if len(points) < 2:
        raise ValueError("decay_fit needs at least two campaign points")
    fitted = [(L, r.p_hat) for L, r in points]
    checks = tuple(
        (L, r.ci95[1] <= float(L) ** (-q)) for L, r in points
    )
    positive = [(L, p) for L, p in fitted if p > 0.0]
    alpha = None
    if len(positive) >= 2:
        x = np.array([float(L) ** beta for L, _ in positive])
        y = np.array([-math.log(p) for _, p in positive])
        alpha = float(np.polyfit(x, y, 1)[0])
    return DecayFit(
        points=tuple(fitted),
        alpha_hat=alpha,
        passes_polynomial=checks,
    )
