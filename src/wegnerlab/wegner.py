"""Resonance events, perturbation thresholds, and Monte Carlo estimation.

The three event kinds (fixed energy, variable energy over an interval, and
the two-volume joint event) are each decided by one margin on the sampled
spectra, the smallest closeness at which the event holds: interval_dist
for the fixed and variable kinds, two_volume_margin for the two-volume
kind.  The event at eps is margin <= eps, closed to match the defining
inequalities, and no grid approximation is involved.  Probabilities are
estimated by counting over counter-based trials, so the success count is
bit-identical for a fixed seed.

All particles move in one field, so two particles whose single-particle
boxes coincide carry the same potentials.  A prepared query keeps the k
distinct particle boxes of its cubes and each particle's box index.  A
campaign decides its trials in blocks.  ``evaluate_event`` draws a block's
(trials, k, side^d) box potentials in one hash call and ``decide`` turns
them into one decision per trial.  The block makes one stacked solve of
the distinct single-particle operators among its trials' k boxes (a
finite-support measure repeats them), through the one-particle cube's
``CubeAssembly.eigenvalues``.  It then screens its trials in chunks:
each chunk gathers each cube's n rows of eigenvalues and forms the cubes'
sumset spectra, unsorted (the exact h = 0 spectra, moved by at most
max|h*U| under weak coupling, by Weyl; for n = 1 a cube is its own single
box, so its sums are its spectrum).  One vectorised pass computes each
trial's signed margin on the sums, the smallest closeness at which its
event holds there, sorting only the sums of the two-volume trials whose
margin needs the exact pairing; a trial whose margin clears eps by the
certified bound mu is decided by it.  The chunk's other trials are
solved densely together, one ``CubeAssembly.eigenvalues`` call per cube,
and decided by the same margin on those spectra, so every decision is the
dense one and a trial's decision does not depend on the block or chunk it
is drawn in.  A block's size is _BLOCK_ELEMENTS over its per-trial box
potentials, k * side^d floats, and a chunk's is _BLOCK_ELEMENTS over its
per-trial sums, cubes * side^(nd) floats; ``CubeAssembly.eigenvalues``
keeps each of its stacked solves within the same budget.

For a finite-support measure, ``exact_probability`` enumerates every field
on the distinct lattice points of the boxes and decides each through
``decide``: the exact event probability, as an oracle for the campaign.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DistributionError
from .hamiltonian import (
    _BLOCK_ELEMENTS,
    DENSE_LIMIT,
    CubeAssembly,
    InteractionSpec,
    build_hamiltonian,  # noqa: F401  (perfbench/spans.py wraps wegner.build_hamiltonian by name)
    interaction_sup_norm,
    require_dense,
    unsorted_sums,
)
from .lattice import Cube, Site
from .randomfield import (
    DistributionSpec,
    draw_values,
    require_valid,
    sample_field,  # noqa: F401  (perfbench/spans.py wraps wegner.sample_field by name)
    support_sup,
    validate,
)
from .spectral import (
    Spectrum,
    full_spectrum,  # noqa: F401  (perfbench/spans.py wraps wegner.full_spectrum by name)
)
from .tensor import particle_assembly

EVENT_KINDS = ("fixed", "variable", "two_volume")

_WILSON_Z = 1.96
_TOLERANCE = 1e-10
_EXACT_FIELDS = 1 << 20


def _interval_dists(ev: np.ndarray, lo, hi) -> np.ndarray:
    """dist(lambda, [lo, hi]) for each entry of ``ev`` (lo, hi broadcast), formed in place."""
    dist = np.subtract(lo, ev)
    np.maximum(dist, ev - hi, out=dist)
    return np.maximum(dist, 0.0, out=dist)


def interval_dist(spec: Spectrum, interval: tuple[float, float]) -> float:
    """min over eigenvalues of dist(lambda, [lo, hi])."""
    lo, hi = interval
    return float(np.min(_interval_dists(spec.eigenvalues, lo, hi)))


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
    """Exists E in the interval within eps of both spectra: two_volume_margin <= eps.

    The margin's differences x - y, x - hi and lo - x are exact whenever
    their operands lie within a factor of 2 of each other (Sterbenz), while
    comparisons of fattened endpoints, such as y + eps >= x - eps, round
    each endpoint first and can let a pair an ulp too far apart hold.  An
    empty spectrum has no eigenvalue near any E, so the event fails.
    """
    lo, hi = interval
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    x, y = spec_x.eigenvalues, spec_y.eigenvalues
    return bool(x.size and y.size and two_volume_margin(x, y, interval) <= eps)


def _searchsorted_rows(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.searchsorted(a[i], v[i], side="right") for every leading index i.

    Both arrays are sorted along the last axis.  One stable argsort merges
    each row of ``a`` with the row of ``v``; the count of ``a`` entries up
    to each ``v`` entry is its insertion point, and the ``v`` entries keep
    their order in the merge because the row is sorted.
    """
    order = np.argsort(np.concatenate([a, v], axis=-1), axis=-1, kind="stable")
    from_a = order < a.shape[-1]
    return np.cumsum(from_a, axis=-1)[~from_a].reshape(v.shape)


def two_volume_margin(x: np.ndarray, y: np.ndarray, interval) -> np.ndarray:
    """min over pairs of m(x, y) = max(|x - y|/2, dist(x, W), dist(y, W)).

    ``x`` and ``y`` are (..., N) and (..., M) arrays sorted along the last
    axis, with equal leading shapes; one margin per leading index.  Some E
    in W = [lo, hi] lies within eps of both x and y iff m(x, y) <= eps: in
    1D three intervals meet iff each two of them meet (Helly).  For fixed
    x, m(x, .) is convex and piecewise linear with its minimum at y*(x):
    x on W, (x + 2lo)/3 below lo, (x + 2hi)/3 above hi.  y* is
    non-decreasing in x, so one merge of the sorted y* into y finds each
    x's two sorted neighbours of y*, and the nearer of them minimises
    m(x, .) over the y.
    """
    lo, hi = interval
    dx = _interval_dists(x, lo, hi)
    ystar = np.where(x < lo, (x + 2.0 * lo) / 3.0, np.where(x > hi, (x + 2.0 * hi) / 3.0, x))
    upper = _searchsorted_rows(y, ystar)
    best = np.full(x.shape, np.inf)
    for j in (upper - 1, upper):
        yj = np.take_along_axis(y, np.clip(j, 0, y.shape[-1] - 1), axis=-1)
        pair = np.maximum(np.maximum(np.abs(x - yj) / 2.0, dx), _interval_dists(yj, lo, hi))
        best = np.minimum(best, pair)
    return best.min(axis=-1)


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
    """Outcome of the resolvent-identity and stability checks on a block.

    Every array holds one entry per instance: ``ok`` and ``skipped`` are
    bools, ``failed_clause`` is the name of the first violated clause or
    None (an object array), and ``energy``, ``h``, ``dist_free`` and
    ``dist_coupled`` are floats.  ``u_norm`` and ``threshold`` belong to
    the cube and hold for the whole block.
    """

    ok: np.ndarray
    skipped: np.ndarray
    failed_clause: np.ndarray
    energy: np.ndarray
    h: np.ndarray
    u_norm: float
    threshold: float
    dist_free: np.ndarray
    dist_coupled: np.ndarray


def perturbation_check(
    cube: Cube,
    potentials: np.ndarray,
    inter: InteractionSpec,
    h,
    energy,
    sigma: float,
    beta: float,
    L0: int,
) -> PerturbationCheck:
    """Verify the weak-coupling stability of resonances on a block of instances.

    ``potentials`` is a (T, n, side^d) block of the cube's potential
    arrays; ``h`` and ``energy`` are numbers or (T,) arrays, one per
    instance.  A single instance is a block of one.
    Clause (a), the second-resolvent-identity norm bound: with G = (H-E)^-1
    and its norm 1/dist for self-adjoint H,

        ||G_h|| <= ||G_0|| + |h| ||U|| ||G_0|| ||G_h||

    whenever both resolvents exist.  Clause (b), the stability implication:

        dist(E, spec(H_0)) > e^(-sigma L0^beta)
            implies  dist(E, spec(H_h)) >= (1/2) e^(-sigma L0^beta),

    which eigenvalue perturbation (Weyl) guarantees for every |h| below
    h_star.  Both spectra come from ``CubeAssembly.eigenvalues``: H_0 from
    the uncoupled assembly, H_h from one assembly per distinct h.  The
    block is solved in chunks of _BLOCK_ELEMENTS // dim instances, the
    budget ``decide`` keeps for its sums, into preallocated per-instance
    distances, so each dense solve holds one matrix (or a stack within the
    budget) and the working set beyond the outputs is one chunk's; each
    distinct operator of a chunk is solved once.  Reports each instance's
    first violated clause with all computed quantities; an instance with
    a divergent resolvent is skipped.  Raises ValueError, before any
    solve, when some h or energy is not finite or some |h| is not below
    h_star.
    """
    potentials = np.asarray(potentials, dtype=np.float64)
    shape = (cube.center.n, cube.side**cube.center.d)
    if potentials.ndim != 3 or potentials.shape[1:] != shape:
        raise ValueError(
            f"potentials must have shape (instances, n, side^d) = (T, {shape[0]}, {shape[1]}), "
            f"got {potentials.shape}"
        )
    count = len(potentials)
    h = np.broadcast_to(np.asarray(h, dtype=np.float64), (count,))
    energy = np.broadcast_to(np.asarray(energy, dtype=np.float64), (count,))
    for name, values in (("h", h), ("energy", energy)):
        if not np.all(np.isfinite(values)):
            t = np.argmin(np.isfinite(values))
            raise ValueError(f"{name} must be finite, got {values[t]} at instance {t}")
    u_norm = interaction_sup_norm(cube, inter)
    bound = h_star(u_norm, sigma, L0, beta)
    strongest = float(np.max(np.abs(h), initial=0.0))
    if strongest >= bound:
        raise ValueError(f"|h| = {strongest} is not below h_star = {bound}")
    threshold = math.exp(-sigma * L0**beta)
    free = CubeAssembly.of(cube, inter, 0.0)
    dist_free = np.empty(count)
    dist_coupled = np.empty(count)
    chunk = max(1, _BLOCK_ELEMENTS // cube.site_count)
    for start in range(0, count, chunk):
        part = slice(start, start + chunk)
        block, energies, hs = potentials[part], energy[part, None], h[part]
        ev = free.eigenvalues(block)
        dist_free[part] = np.min(_interval_dists(ev, energies, energies), axis=-1)
        coupled = dist_coupled[part]
        for value in np.unique(hs):
            at = hs == value
            ev = CubeAssembly.of(cube, inter, float(value)).eigenvalues(block[at])
            coupled[at] = np.min(_interval_dists(ev, energies[at], energies[at]), axis=-1)

    skipped = (dist_free == 0.0) | (dist_coupled == 0.0)
    slack = 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        norm_free = 1.0 / dist_free
        norm_coupled = 1.0 / dist_coupled
        rhs = norm_free + np.abs(h) * u_norm * norm_free * norm_coupled
        norm_fails = ~skipped & (norm_coupled > rhs * (1.0 + slack))
    stability_fails = (
        ~skipped
        & ~norm_fails
        & (dist_free > threshold)
        & (dist_coupled < 0.5 * threshold * (1.0 - slack))
    )
    clause = np.full(count, None, dtype=object)
    clause[norm_fails] = "norm_inequality"
    clause[stability_fails] = "distance_stability"
    return PerturbationCheck(
        ok=~(skipped | norm_fails | stability_fails),
        skipped=skipped,
        failed_clause=clause,
        energy=energy,
        h=h,
        u_norm=u_norm,
        threshold=threshold,
        dist_free=dist_free,
        dist_coupled=dist_coupled,
    )


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

    ``boxes`` is the (k, side^d, d) array of the distinct particle boxes
    (single-particle cubes) of the query's cubes and ``box_of`` the
    (cubes, n) box index of each particle, so ``boxes[box_of]`` holds each
    cube's particle points.  ``assemblies`` holds one CubeAssembly per
    cube, which solves the cube densely for the fallback.  ``box`` is the
    one-particle cube's CubeAssembly, which solves the single-particle
    operators of the boxes, and ``margin`` bounds how far a sumset
    eigenvalue and the rank-matched dense eigenvalue of the same cube can
    lie apart.  ``block`` is the number of trials a campaign draws and
    decides at once, _BLOCK_ELEMENTS over the k * side^d box potentials of
    a trial, and ``chunk`` the number of trials whose sums ``decide``
    screens at once, _BLOCK_ELEMENTS over the cubes * side^(nd) sums of a
    trial.
    """

    boxes: np.ndarray
    box_of: np.ndarray
    assemblies: tuple[CubeAssembly, ...]
    box: CubeAssembly
    margin: float
    block: int
    chunk: int


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
        """Particle boxes and assemblies of the cubes, computed once.

        Raises DistributionError for an invalid distribution, as
        sample_field does.
        """
        require_valid(self.distribution)
        cubes = _query_cubes(self)
        points = np.stack([c.particle_points() for c in cubes])
        rows = points.reshape((-1,) + points.shape[2:])
        boxes, box_of = np.unique(rows, axis=0, return_inverse=True)
        box_of = box_of.reshape(points.shape[:2])
        boxes.flags.writeable = box_of.flags.writeable = False
        assemblies = tuple(CubeAssembly.of(c, self.interaction, self.h) for c in cubes)
        box = particle_assembly(self.d, self.L)
        block = max(1, _BLOCK_ELEMENTS // math.prod(boxes.shape[:2]))
        chunk = max(1, _BLOCK_ELEMENTS // (len(cubes) * boxes.shape[1] ** self.n))
        margin = _margin(self, assemblies)
        return PreparedQuery(boxes, box_of, assemblies, box, margin, block, chunk)


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
    if query.kind not in EVENT_KINDS:
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


def _sums_margin(query: EventQuery, sums: np.ndarray, bound: float) -> np.ndarray:
    """Each trial's margin on its (cubes, N) sums or spectra, exact up to ``bound``.

    The margin is the smallest closeness at which the event holds:
    interval_dist for the fixed and variable kinds, two_volume_margin for
    the two-volume kind.  The latter is at least max(min dist(x, W),
    min dist(y, W)); a trial whose lower bound exceeds ``bound`` keeps it,
    since the event fails at every closeness up to ``bound`` either way.
    Only two_volume_margin needs sorted sums, so only the trials whose
    lower bound is within ``bound`` are sorted; the sums may come in any
    order along their last axis.
    """
    window = (query.energy, query.energy) if query.kind == "fixed" else query.window
    margin = np.min(_interval_dists(sums, *window), axis=-1).max(axis=-1)
    if query.kind == "two_volume":
        near = margin <= bound
        if near.any():
            x, y = np.sort(sums[near], axis=-1).transpose(1, 0, 2)
            margin[near] = two_volume_margin(x, y, window)
    return margin


def decide(query: EventQuery, potentials: np.ndarray) -> np.ndarray:
    """The event on each trial of a block, one bool per trial.

    ``potentials`` is the (trials, k, side^d) array ``draw_values`` gives
    at the prepared boxes; cube c's (n, side^d) potentials are its rows
    ``box_of[c]``.  Each distinct box potential of the block is solved
    once, in one call.  The trials are then screened in chunks of the
    prepared chunk size, so no chunk's sums exceed _BLOCK_ELEMENTS floats,
    and every trial of every kind is decided as its event margin <= eps on
    its dense spectra (``_decide_chunk``).  Raises CapacityError, with
    full_spectrum's message, before a fallback dense solve above
    DENSE_LIMIT.
    """
    prepared = query.prepared
    singles = prepared.box.eigenvalues(potentials[..., None, :])
    decisions = np.empty(len(potentials), dtype=bool)
    for start in range(0, len(potentials), prepared.chunk):
        part = slice(start, start + prepared.chunk)
        decisions[part] = _decide_chunk(query, potentials[part], singles[part])
    return decisions


def _decide_chunk(query: EventQuery, potentials: np.ndarray, singles: np.ndarray) -> np.ndarray:
    """The event on each trial of a chunk, from its box potentials and their eigenvalues.

    The sums are formed unsorted, and every dense eigenvalue lies within
    the prepared margin mu of the rank-matched sumset eigenvalue; each
    margin moves by at most mu with them, so a trial whose sums margin
    exceeds eps + mu fails on the dense spectra at eps and one whose
    margin is at most eps - mu holds there.  The other trials are solved
    densely together, one ``CubeAssembly.eigenvalues`` call per cube, and
    decided by the same margin on those spectra, which is the event
    functions' own rule, so the decision is the dense one.  Raises
    CapacityError, as full_spectrum does, before a dense solve above
    DENSE_LIMIT.
    """
    prepared = query.prepared
    upper = query.eps + prepared.margin
    sums = unsorted_sums(singles[:, prepared.box_of])
    margin = _sums_margin(query, sums, upper)
    decisions = margin <= query.eps - prepared.margin
    near = ~decisions & (margin <= upper)
    if near.any():
        require_dense(sums.shape[-1])
        fallen, cubes = potentials[near], zip(prepared.assemblies, prepared.box_of)
        dense = np.stack([a.eigenvalues(fallen[:, of]) for a, of in cubes], axis=1)
        decisions[near] = _sums_margin(query, dense, upper) <= query.eps
    return decisions


def evaluate_event(query: EventQuery, seed: int, trial: int, count: int = 1) -> int:
    """The number of successes among trials trial, ..., trial + count - 1.

    One draw at the prepared boxes gives every distinct particle box of
    every trial its side^d potentials, which serve every particle on that
    box; boxes that share a lattice point read the same value, since the
    value is a pure function of (seed, trial, point).  ``decide`` then
    decides the whole block.
    """
    trials = np.arange(trial, trial + count)
    potentials = draw_values(query.distribution, query.prepared.boxes, seed, trials)
    return int(np.count_nonzero(decide(query, potentials)))


def mc_estimate(query: EventQuery, trials: int, seed: int) -> MCResult:
    """Estimate the event probability over counter-based trials.

    Trial t uses the field keyed by (seed, t), so the success count is a
    pure function of (query, trials, seed).  The trials are decided in
    blocks of the prepared block size, one evaluate_event call per block.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    problems = validate_query(query)
    if problems:
        raise DistributionError("invalid event query: " + "; ".join(problems))
    block = query.prepared.block
    successes = sum(
        evaluate_event(query, seed, t, min(block, trials - t)) for t in range(0, trials, block)
    )
    p_hat = successes / trials
    return MCResult(
        trials=trials,
        successes=successes,
        p_hat=p_hat,
        ci95=wilson_interval(successes, trials),
    )


def exact_probability(query: EventQuery):
    """The exact event probability of a finite-support row, a Fraction.

    A trial's potentials are the field at the P distinct lattice points of
    the prepared boxes.  With s support values every one of the s^P fields
    is decided through ``decide``, in blocks of the prepared size.  A
    field's weight is the product of its values' weights, so it depends
    only on how many points take each value: successes are tallied by that
    count vector and summed as exact rationals of the measure's float
    weights.  Raises DistributionError, before any field is decided, for
    an invalid query, a measure without finite support, or more than
    _EXACT_FIELDS fields.
    """
    from fractions import Fraction  # here, so that no campaign command loads it

    problems = validate_query(query)
    if query.distribution.kind == "uniform":
        problems.append("exact enumeration needs a finite-support measure, got uniform")
    if not problems:
        prepared = query.prepared
        coords = prepared.boxes.reshape(-1, query.d)
        points, where = np.unique(coords, axis=0, return_inverse=True)
        spec = query.distribution
        if spec.kind == "bernoulli":
            support = [(spec.hi, Fraction(spec.p)), (spec.lo, 1 - Fraction(spec.p))]
        else:
            support = [(v, Fraction(w)) for v, w in zip(spec.values, spec.weights) if w > 0]
        s, count = len(support), len(points)
        fields = s**count
        if fields > _EXACT_FIELDS:
            problems.append(
                f"{s}^{count} = {fields} fields exceed the enumeration limit {_EXACT_FIELDS}"
            )
    if problems:
        raise DistributionError("cannot enumerate event query: " + "; ".join(problems))
    values = np.array([v for v, _ in support])
    where = where.reshape(prepared.boxes.shape[:2])
    place = s ** np.arange(count)
    tally = Counter()
    for start in range(0, fields, prepared.block):
        digits = np.arange(start, min(start + prepared.block, fields))[:, None] // place % s
        success = decide(query, values[digits][:, where])
        counts = np.sum(digits[success, :, None] == np.arange(s), axis=1)
        tally.update(map(tuple, counts.tolist()))
    weights = [w for _, w in support]
    return sum(
        (hits * math.prod(map(pow, weights, counts)) for counts, hits in tally.items()),
        Fraction(0),
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
