import dataclasses
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import wegnerlab.verify as verify
import wegnerlab.wegner as wegner
from wegnerlab.config import event_query_for, parse_config, row_seed
from wegnerlab.errors import DistributionError
from wegnerlab.hamiltonian import (
    CubeAssembly,
    InteractionSpec,
    SymMatrix,
    build_hamiltonian,
    interaction_sup_norm,
    unsorted_sums,
)
from wegnerlab.lattice import Cube, Site, coords_array, sup_norm
from wegnerlab.randomfield import DistributionSpec, draw_values, hash_uniform01, sample_field
from wegnerlab.spectral import Spectrum, dist_to_spectrum, full_spectrum, gershgorin_interval
from wegnerlab.tensor import sorted_sums
from wegnerlab.wegner import (
    EventQuery,
    decay_fit,
    decide,
    delta0,
    evaluate_event,
    exact_probability,
    fixed_energy_event,
    h_star,
    mc_estimate,
    perturbation_check,
    two_volume_event,
    two_volume_margin,
    validate_query,
    variable_energy_event,
    wilson_interval,
)

BERNOULLI = DistributionSpec.bernoulli(0.5, 0.0, 1.0)


def spectrum_of(*values):
    return Spectrum(eigenvalues=np.asarray(sorted(values), dtype=float), dim=len(values))


def test_fixed_event_boundary_inclusive():
    spec = spectrum_of(1.0, 3.0)
    assert not fixed_energy_event(spec, 2.0, 0.5)
    assert fixed_energy_event(spec, 2.0, 1.0)


def test_events_match_dyadic_brute_force():
    # Dyadic eigenvalues, energies, windows and eps make every comparison
    # exact, so exact ties (x - y == 2 eps, a window on a fattened
    # endpoint) are frequent; closed comparisons must count them.
    rng = np.random.default_rng(12)

    def dyadic_spectrum():
        ev = np.sort(rng.integers(0, 1281, int(rng.integers(1, 10))) / 64.0)
        return Spectrum(eigenvalues=ev, dim=ev.size)

    ties = 0
    for _ in range(1000):
        eps = [0.25, 0.125, 0.0625][int(rng.integers(0, 3))]
        spec = dyadic_spectrum()
        energy = float(rng.integers(0, 1281)) / 64.0
        ev = spec.eigenvalues
        member = any(lam - eps <= energy <= lam + eps for lam in ev.tolist())
        assert fixed_energy_event(spec, energy, eps) == member

        sx, sy = spec, dyadic_spectrum()
        lo = float(rng.integers(0, 1281)) / 64.0
        window = (lo, lo + float(rng.integers(0, 129)) / 64.0)
        brute = any(
            max(x - eps, y - eps, window[0]) <= min(x + eps, y + eps, window[1])
            for x in sx.eigenvalues.tolist()
            for y in sy.eigenvalues.tolist()
        )
        assert two_volume_event(sx, sy, window, eps) == brute
        ties += bool(np.any(np.abs(sx.eigenvalues[:, None] - sy.eigenvalues) == 2 * eps))
    assert ties > 0


def _brute_two_volume_margin(x, y, window):
    """min over all pairs of max(|x - y|/2, dist(x, W), dist(y, W)), O(NM)."""
    lo, hi = window
    xs, ys = x[..., :, None], y[..., None, :]
    dist_x = np.maximum(np.maximum(lo - xs, xs - hi), 0.0)
    dist_y = np.maximum(np.maximum(lo - ys, ys - hi), 0.0)
    pairs = np.maximum(np.maximum(np.abs(xs - ys) / 2.0, dist_x), dist_y)
    return pairs.min(axis=(-2, -1))


def test_two_volume_margin_matches_brute_force():
    # 2.4 * 10^4 instances in batches sharing a window: random floats, and
    # dyadic values whose margins are exact floats with frequent exact ties
    rng = np.random.default_rng(47)
    checked = ties = 0
    for batch in range(480):
        n_x, n_y = (int(k) for k in rng.integers(1, 30, 2))
        if batch % 2:
            x = np.sort(rng.integers(0, 1281, (50, n_x)) / 64.0, axis=-1)
            y = np.sort(rng.integers(0, 1281, (50, n_y)) / 64.0, axis=-1)
            lo = float(rng.integers(0, 1281)) / 64.0
            window = (lo, lo + float(rng.integers(0, 129)) / 64.0)
        else:
            x = np.sort(rng.uniform(-5.0, 25.0, (50, n_x)), axis=-1)
            y = np.sort(rng.uniform(-5.0, 25.0, (50, n_y)), axis=-1)
            window = tuple(sorted(rng.uniform(0.0, 20.0, 2)))
        brute = _brute_two_volume_margin(x, y, window)
        assert np.array_equal(two_volume_margin(x, y, window), brute), batch
        checked += len(x)
        if batch % 2:
            ties += int(np.count_nonzero(np.isin(brute, [0.25, 0.125, 0.0625])))
    assert checked >= 10**4
    assert ties > 0


def test_two_volume_margin_decides_the_events_suite_instances():
    # the events suite's dyadic instances, boundary band included: the
    # margin is the suite's exact margin, and margin <= eps is the event.
    # The same holds for the fixed (energy at the window's left end) and
    # variable kinds, whose margin on the dense spectra, _sums_margin,
    # decides a campaign's fallback trials
    rng = np.random.default_rng(20260804)
    at_boundary = [0, 0, 0]
    for k in range(3000):
        eps = (0.25, 0.125, 0.0625)[k % 3]
        sx, sy = verify._dyadic_spectrum(rng), verify._dyadic_spectrum(rng)
        window = verify._dyadic_window(rng, eps)
        margin = float(two_volume_margin(sx.eigenvalues, sy.eigenvalues, window))
        assert margin == verify._two_volume_margin(sx, sy, window)
        for e in (0.25, 0.125, 0.0625, margin):
            assert (margin <= e) == two_volume_event(sx, sy, window, e), (k, e)
        at_boundary[0] += margin == eps
        fixed = EventQuery("fixed", 1, 1, 1, BERNOULLI, InteractionSpec.none(), 0.0, eps,
                           energy=window[0])
        variable = dataclasses.replace(fixed, kind="variable", energy=None, window=window)
        events = (
            (fixed, lambda e: fixed_energy_event(sx, window[0], e)),
            (variable, lambda e: variable_energy_event(sx, window, e)),
        )
        for i, (query, event) in enumerate(events, 1):
            (margin,) = wegner._sums_margin(query, sx.eigenvalues[None, None], eps)
            for e in (0.25, 0.125, 0.0625, margin):
                assert (margin <= e) == event(e), (k, query.kind, e)
            at_boundary[i] += margin == eps
    assert min(at_boundary) > 0
    # the examples of test_two_volume_examples
    assert two_volume_margin(np.array([4.0]), np.array([6.0]), (0.0, 10.0)) == 1.0
    assert two_volume_margin(np.array([6.0]), np.array([4.0]), (5.0, 5.0)) == 1.0
    x, y = np.array([3.0, 9.0]), np.array([-4.0, 3.5])
    assert two_volume_margin(x, y, (3.5, 5.0)) == 0.5
    assert two_volume_margin(x, y, (1.0, 3.0)) == 0.5
    assert two_volume_margin(x, y, (3.515625, 5.0)) == 0.515625


def test_variable_event_examples():
    assert not variable_energy_event(spectrum_of(5.0), (0.0, 1.0), 0.5)
    assert variable_energy_event(spectrum_of(5.0), (0.0, 1.0), 4.0)  # boundary


def test_two_volume_examples():
    assert not two_volume_event(spectrum_of(0.0), spectrum_of(10.0), (0.0, 10.0), 1.0)
    # exact tie x - y == 2 eps: the fattened intervals share the point 5
    assert two_volume_event(spectrum_of(4.0), spectrum_of(6.0), (0.0, 10.0), 1.0)
    assert two_volume_event(spectrum_of(6.0), spectrum_of(4.0), (5.0, 5.0), 1.0)
    assert not two_volume_event(spectrum_of(4.0), spectrum_of(6.0), (0.0, 10.0), 0.984375)
    # the joint set of 3.0 and 3.5 at eps 0.5 is [3.0, 3.5]; windows touching
    # either endpoint count, windows one dyadic step away do not
    x, y = spectrum_of(3.0, 9.0), spectrum_of(-4.0, 3.5)
    assert two_volume_event(x, y, (3.5, 5.0), 0.5)
    assert two_volume_event(x, y, (1.0, 3.0), 0.5)
    assert not two_volume_event(x, y, (3.515625, 5.0), 0.5)
    assert not two_volume_event(x, y, (1.0, 2.984375), 0.5)


def test_event_monotone_in_eps():
    rng = np.random.default_rng(31)
    for _ in range(200):
        ev1 = np.sort(rng.uniform(0, 10, 5))
        ev2 = np.sort(rng.uniform(0, 10, 4))
        sx, sy = Spectrum(ev1, 5), Spectrum(ev2, 4)
        e1, e2 = sorted(rng.uniform(0.01, 2.0, 2))
        window = tuple(sorted(rng.uniform(0, 10, 2)))
        energy = float(rng.uniform(0, 10))
        if fixed_energy_event(sx, energy, e1):
            assert fixed_energy_event(sx, energy, e2)
        if variable_energy_event(sx, window, e1):
            assert variable_energy_event(sx, window, e2)
        if two_volume_event(sx, sy, window, e1):
            assert two_volume_event(sx, sy, window, e2)


def test_degenerate_interval_equals_fixed():
    rng = np.random.default_rng(41)
    for _ in range(300):
        ev = np.sort(rng.uniform(0, 10, 6))
        spec = Spectrum(ev, 6)
        energy = float(rng.uniform(0, 10))
        eps = float(rng.uniform(0.01, 1.0))
        assert variable_energy_event(spec, (energy, energy), eps) == fixed_energy_event(
            spec, energy, eps
        )


def test_two_volume_with_equal_spectra_reduces_to_variable():
    rng = np.random.default_rng(43)
    for _ in range(300):
        ev = np.sort(rng.uniform(0, 10, 6))
        spec = Spectrum(ev, 6)
        window = tuple(sorted(rng.uniform(0, 10, 2)))
        eps = float(rng.uniform(0.01, 1.0))
        assert two_volume_event(spec, spec, window, eps) == variable_energy_event(
            spec, window, eps
        )


def test_two_volume_symmetry():
    rng = np.random.default_rng(47)
    for _ in range(300):
        sx = Spectrum(np.sort(rng.uniform(0, 10, 5)), 5)
        sy = Spectrum(np.sort(rng.uniform(0, 10, 3)), 3)
        window = tuple(sorted(rng.uniform(0, 10, 2)))
        eps = float(rng.uniform(0.01, 1.0))
        assert two_volume_event(sx, sy, window, eps) == two_volume_event(
            sy, sx, window, eps
        )


def test_h_star_arithmetic():
    assert h_star(0.5, math.log(2.0), 1, 0.5) == pytest.approx(0.5, rel=1e-12)
    assert h_star(0.0, 1.0, 8, 0.5) == math.inf
    assert h_star(2.0, 1.0, 8, 0.5) == pytest.approx(h_star(1.0, 1.0, 8, 0.5) / 2.0)


def _scalar_two_volume_margin(sx, sy, window):
    """The events suite's margin as a scalar loop over the candidate set."""
    lo, hi = window
    candidates = [lo, hi]
    for ev in (sx.eigenvalues, sy.eigenvalues):
        candidates.extend(v for v in ev.tolist() if lo <= v <= hi)
    for vx in sx.eigenvalues.tolist():
        for vy in sy.eigenvalues.tolist():
            mid = 0.5 * (vx + vy)
            if lo <= mid <= hi:
                candidates.append(mid)
    return min(
        max(np.min(np.abs(sx.eigenvalues - e)), np.min(np.abs(sy.eigenvalues - e)))
        for e in candidates
    )


def test_events_suite_margin_is_bitwise_the_scalar_loop():
    # 10^4 instances: the events suite's dyadic draws, with exact ties,
    # and random floats whose midpoints round
    rng = np.random.default_rng(20260804)
    ties = 0
    for k in range(10**4):
        eps = (0.25, 0.125, 0.0625)[k % 3]
        if k % 2:
            sx, sy = verify._dyadic_spectrum(rng), verify._dyadic_spectrum(rng)
            window = verify._dyadic_window(rng, eps)
        else:
            sx, sy = (spectrum_of(*rng.uniform(-1.0, 21.0, int(rng.integers(1, 13))))
                      for _ in range(2))
            window = tuple(sorted(rng.uniform(0.0, 20.0, 2)))
        got = verify._two_volume_margin(sx, sy, window)
        want = float(_scalar_two_volume_margin(sx, sy, window))
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), k
        ties += got == eps
    assert ties > 0


def test_delta0_arithmetic():
    assert delta0(1.0, 1, 0.5) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)
    values = [delta0(1.0, L0, 0.5) for L0 in (1, 2, 4, 9)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert delta0(1e-9, 1, 0.5) == pytest.approx(0.5, abs=1e-8)


def _perturbation_setup():
    cube = Cube(Site(2, 1, (0, 0)), 3)
    potentials = sample_field(BERNOULLI, cube.particle_points(), 99, 0)
    inter = InteractionSpec.pair_contact(0, 1.0)
    return cube, potentials, inter


def test_perturbation_check_h_zero():
    cube, potentials, inter = _perturbation_setup()
    result = perturbation_check(cube, potentials[None], inter, 0.0, 3.7, 1.0, 0.5, 3)
    assert result.ok.shape == result.skipped.shape == (1,)
    assert result.ok[0] and not result.skipped[0]


def test_perturbation_check_scalar_case():
    # 1x1 cube: dist(E, spec(H_h)) = |a + h u - E| >= |a - E| - |h||u|;
    # one block of 33 energies, each instance the same potentials
    cube = Cube(Site(2, 1, (0, 0)), 0)
    potentials = sample_field(BERNOULLI, cube.particle_points(), 7, 0)
    inter = InteractionSpec.pair_contact(0, 1.0)
    bound = h_star(1.0, 1.0, 3, 0.5)
    energies = np.linspace(0.0, 8.0, 33)
    block = np.repeat(potentials[None], len(energies), axis=0)
    result = perturbation_check(cube, block, inter, 0.9 * bound, energies, 1.0, 0.5, 3)
    for k in range(len(energies)):
        assert result.skipped[k] or result.ok[k], (k, result)
    assert result.skipped.any()  # an energy on the uncoupled eigenvalue


def test_perturbation_check_requires_weak_coupling():
    cube, potentials, inter = _perturbation_setup()
    bound = h_star(1.0, 1.0, 3, 0.5)
    with pytest.raises(ValueError, match="h_star"):
        perturbation_check(cube, potentials[None], inter, 1.1 * bound, 2.0, 1.0, 0.5, 3)
    # one strong instance in a block is enough
    block = np.stack([potentials, potentials])
    with pytest.raises(ValueError, match="h_star"):
        perturbation_check(cube, block, inter, [0.0, -1.1 * bound], 2.0, 1.0, 0.5, 3)


def _reference_perturbation_check(cube, potentials, inter, h, energy, sigma, beta, L0):
    """One instance as the check was stated: banded distances, scalar clauses."""
    u_norm = interaction_sup_norm(cube, inter)
    threshold = math.exp(-sigma * L0**beta)
    free = build_hamiltonian(cube, potentials, InteractionSpec.none(), 0.0)
    coupled = build_hamiltonian(cube, potentials, inter, h)
    dist_free, dist_coupled = dist_to_spectrum(free, energy), dist_to_spectrum(coupled, energy)
    if dist_free == 0.0 or dist_coupled == 0.0:
        return False, True, None, dist_free, dist_coupled, coupled.inf_norm()
    norm_free, norm_coupled = 1.0 / dist_free, 1.0 / dist_coupled
    clause = None
    if norm_coupled > (norm_free + abs(h) * u_norm * norm_free * norm_coupled) * (1.0 + 1e-9):
        clause = "norm_inequality"
    elif dist_free > threshold and dist_coupled < 0.5 * threshold * (1.0 - 1e-9):
        clause = "distance_stability"
    return clause is None, False, clause, dist_free, dist_coupled, coupled.inf_norm()


@pytest.mark.parametrize("seed", [20260805, 31])
def test_block_perturbation_check_matches_the_per_instance_reference(seed):
    # the perturbation suite's block: each instance's potentials, h and
    # energy are bitwise those drawn alone (the per-instance Gershgorin/hash
    # energy), and the block check agrees with the banded per-instance
    # reference; the 1x1 cube adds skipped instances
    cube, inter, potentials, h, energy = verify._perturbation_block(1000, seed)
    free = CubeAssembly.of(cube, inter, 0.0)
    bound = h_star(1.0, 1.0, 3, 0.5)
    want = []
    for t in range(1000):
        v = sample_field(BERNOULLI, cube.particle_points(), seed, t)
        assert np.array_equal(potentials[t], v)
        assert h[t] == 0.9 * bound * (1 if t % 2 == 0 else -1)
        lo, hi = gershgorin_interval(free.matrix(v))
        want.append(lo + float(hash_uniform01(seed, t, [[0x45]])[0]) * (hi - lo))
    assert np.array_equal(energy.view(np.int64), np.array(want).view(np.int64))
    # the point cube's eigenvalue 4 + 2v (+ h) is exact; the grid hits 4 and 6
    point = Cube(Site(2, 1, (0, 0)), 0)
    grid = np.linspace(0.0, 8.0, 33)
    cases = [(cube, potentials, h, energy)]
    for v, sign in ((0.0, 1.0), (1.0, -1.0)):
        coupling = sign * 0.9 * h_star(1.0, 1.0, 3, 0.5)
        cases.append((point, np.full((len(grid), 2, 1), v), coupling, grid))
    checked = skipped = 0
    for c, block, hs, energies in cases:
        result = perturbation_check(c, block, inter, hs, energies, 1.0, 0.5, 3)
        hs = np.broadcast_to(hs, len(block))
        for t in range(len(block)):
            ok, skip, clause, dist_free, dist_coupled, norm = _reference_perturbation_check(
                c, block[t], inter, float(hs[t]), float(energies[t]), 1.0, 0.5, 3
            )
            assert (result.ok[t], result.skipped[t], result.failed_clause[t]) == (ok, skip, clause)
            assert abs(result.dist_free[t] - dist_free) <= 1e-12 * (1.0 + norm), t
            assert abs(result.dist_coupled[t] - dist_coupled) <= 1e-12 * (1.0 + norm), t
            checked += 1
            skipped += skip
    assert checked >= 1000 and skipped > 0


def test_wilson_interval_zero_successes():
    lo, hi = wilson_interval(0, 10**4)
    assert lo == 0.0
    assert hi == pytest.approx(1.96**2 / (10**4 + 1.96**2), rel=1e-12)
    assert hi < 4e-4


def test_wilson_interval_contains_p_hat():
    for successes, trials in [(0, 10), (3, 17), (17, 17), (500, 1000)]:
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0


def _query(eps, energy, trials_kind="fixed", L=2):
    return EventQuery(
        kind=trials_kind,
        n=1,
        d=1,
        L=L,
        distribution=BERNOULLI,
        interaction=InteractionSpec.none(),
        h=0.0,
        eps=eps,
        energy=energy,
    )


def test_mc_estimate_always_false():
    # energy far below the spectrum with a tiny eps: no successes
    result = mc_estimate(_query(1e-8, -50.0), trials=200, seed=1)
    assert result.successes == 0
    assert result.p_hat == 0.0
    assert result.ci95[0] == 0.0
    assert result.ci95[1] == pytest.approx(1.96**2 / (200 + 1.96**2), rel=1e-12)


def test_mc_estimate_always_true():
    # eps beyond the spectral diameter plus the offset of E from the center
    result = mc_estimate(_query(100.0, 2.0), trials=100, seed=1)
    assert result.successes == 100
    assert result.p_hat == 1.0


def test_mc_estimate_worker_invariance():
    # trials are independent of each other, so reruns and any split of the
    # trial range into chunks give the same count
    query = _query(math.exp(-math.sqrt(8.0)), 2.0, L=8)
    a = mc_estimate(query, trials=300, seed=4)
    b = mc_estimate(query, trials=300, seed=4)
    assert a == b
    assert 0 < a.successes < 300
    chunks = [range(200, 300), range(0, 200)]
    assert sum(evaluate_event(query, 4, t) for chunk in chunks for t in chunk) == a.successes


def test_mc_estimate_rejects_invalid_config_before_sampling():
    bad = EventQuery(
        kind="fixed",
        n=1,
        d=1,
        L=2,
        distribution=DistributionSpec.bernoulli(1.0),
        interaction=InteractionSpec.none(),
        h=0.0,
        eps=0.1,
        energy=2.0,
    )
    with pytest.raises(DistributionError, match="single-point support"):
        mc_estimate(bad, trials=10, seed=0)
    with pytest.raises(DistributionError, match="needs an interval"):
        mc_estimate(
            EventQuery(
                kind="variable",
                n=1,
                d=1,
                L=2,
                distribution=BERNOULLI,
                interaction=InteractionSpec.none(),
                h=0.0,
                eps=0.1,
            ),
            trials=10,
            seed=0,
        )


def test_mc_estimate_rejects_over_capacity_query_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a field for an over-capacity query")

    monkeypatch.setattr(wegner, "draw_values", no_sampling)
    # n=2, d=2, L=5: cube dim 11^4 = 14641
    query = dataclasses.replace(_query(0.1, 2.0, L=5), n=2, d=2)
    with pytest.raises(
        DistributionError,
        match=r"cube dim \(2L\+1\)\^\(n\*d\) = 14641 exceeds the dense eigensolver limit 4096",
    ):
        mc_estimate(query, trials=3, seed=0)


def test_validate_query_reports_non_finite_numbers():
    assert validate_query(_query(0.1, 2.0)) == []
    assert validate_query(_query(0.1, math.nan)) == ["energy must be finite, got nan"]
    assert validate_query(_query(math.inf, 2.0)) == ["eps must be positive and finite, got inf"]
    problems = validate_query(
        dataclasses.replace(_query(0.1, None, "variable"), h=math.nan, window=(0.0, math.inf))
    )
    assert problems == ["h must be finite, got nan", "window_hi must be finite, got inf"]


def test_two_volume_query_uses_disjoint_default_offset():
    query = EventQuery(
        kind="two_volume",
        n=2,
        d=1,
        L=2,
        distribution=BERNOULLI,
        interaction=InteractionSpec.none(),
        h=0.0,
        eps=math.exp(-math.sqrt(2.0)),
        window=(0.3 - 0.1, 0.3 + 0.1),
    )
    assert query.offset == (5, 0)
    first, second = Site(2, 1, (0, 0)), Site(2, 1, query.offset)
    assert sup_norm(first, second) > 2 * query.L  # the two cubes are disjoint
    result = mc_estimate(query, trials=50, seed=3)
    assert result.trials == 50
    explicit = dataclasses.replace(query, offset=(0, 7))
    assert explicit.offset == (0, 7)
    assert dataclasses.replace(query, kind="variable", offset=None).offset is None


def test_validate_query_rejects_non_finite_diagonal_bound():
    coupled = dataclasses.replace(
        _query(0.1, 2.0), n=2, h=1e200, interaction=InteractionSpec.pair_contact(0, 1e200)
    )
    wide = dataclasses.replace(
        _query(0.1, 2.0), n=2, distribution=DistributionSpec.bernoulli(0.5, 0.0, 1e308)
    )
    for query in (coupled, wide):
        assert validate_query(query) == [
            "diagonal bound 2nd + n*max|V| + |h|*sup|U| = inf is not finite"
        ]
        with pytest.raises(DistributionError, match="diagonal bound"):
            mc_estimate(query, trials=3, seed=0)
    # the same sizes stay admissible where the bound is finite
    assert validate_query(dataclasses.replace(coupled, h=0.0)) == []
    assert validate_query(dataclasses.replace(wide, n=1)) == []


def _mc(successes, trials):
    from wegnerlab.wegner import MCResult

    return MCResult(
        trials=trials,
        successes=successes,
        p_hat=successes / trials,
        ci95=wilson_interval(successes, trials),
    )


def test_decay_fit_exact_exponential():
    from wegnerlab.wegner import MCResult

    beta = 0.5
    points = [
        (
            L,
            MCResult(
                trials=1,
                successes=0,
                p_hat=math.exp(-2.0 * L**beta),
                ci95=(0.0, 1.0),
            ),
        )
        for L in (4, 9, 16, 25)
    ]
    fit = decay_fit(points, beta=beta, q=2.0)
    assert fit.alpha_hat == pytest.approx(2.0, abs=1e-10)


def test_decay_fit_single_positive_point():
    fit = decay_fit([(8, _mc(0, 100)), (16, _mc(3, 100))], beta=0.5, q=2.0)
    assert fit.alpha_hat is None
    assert len(fit.passes_polynomial) == 2


def test_decay_fit_zero_successes_polynomial_check():
    points = [(L, _mc(0, 10**4)) for L in (8, 16, 32)]
    fit = decay_fit(points, beta=0.5, q=2.0)
    assert fit.alpha_hat is None
    assert all(ok for _, ok in fit.passes_polynomial)
    # Wilson upper ~3.8e-4 stays below 32^-2 ~ 9.8e-4
    assert wilson_interval(0, 10**4)[1] < 32.0**-2


def test_decay_fit_needs_two_points():
    with pytest.raises(ValueError):
        decay_fit([(8, _mc(1, 10))], beta=0.5, q=1.0)


def test_decay_fit_q4_thresholds():
    points = [(L, _mc(0, 10**4)) for L in (2, 3)]
    fit = decay_fit(points, beta=0.5, q=4.0)
    assert all(ok for _, ok in fit.passes_polynomial)


def _brute_force_matrix(query, cube, seed, trial):
    """H on one cube, site by site from the model's definition.

    The diagonal at configuration x is 2nd + V(x_1) + ... + V(x_n) + h*U(x),
    summed in that order, each V(x_j) from its own one-point draw; the
    hopping joins each site to its successor along every coordinate axis,
    axis by axis in enumeration order.
    """
    n, d = query.n, query.d
    sites = [tuple(x) for x in coords_array(cube).tolist()]
    index = {x: k for k, x in enumerate(sites)}
    inter = query.interaction
    diag = []
    for x in sites:
        particles = [x[j * d : (j + 1) * d] for j in range(n)]
        total = 2.0 * n * d
        for p in particles:
            total += float(draw_values(query.distribution, [p], seed, trial)[0])
        pairs = sum(
            max(abs(a - b) for a, b in zip(particles[i], particles[j])) <= inter.radius
            for i in range(n)
            for j in range(i + 1, n)
        )
        total += query.h * (inter.amplitude * pairs if inter.kind == "pair_contact" else 0.0)
        diag.append(total)
    bonds = [
        (index[x], index[y])
        for axis in range(n * d)
        for x in sites
        if (y := x[:axis] + (x[axis] + 1,) + x[axis + 1 :]) in index
    ]
    rows, cols = (np.array(c, dtype=np.int64) for c in zip(*bonds))
    return SymMatrix(np.array(diag), rows, cols, np.full(len(bonds), -1.0))


def _event_on(query, spectra):
    """The query's event function on the cubes' spectra, at the query's eps."""
    if query.kind == "fixed":
        return fixed_energy_event(spectra[0], query.energy, query.eps)
    if query.kind == "variable":
        return variable_energy_event(spectra[0], query.window, query.eps)
    return two_volume_event(spectra[0], spectra[1], query.window, query.eps)


def _reference_trial(query, seed, trial):
    """A trial from the brute-force matrices, full_spectrum and the event."""
    matrices = [_brute_force_matrix(query, c, seed, trial) for c in wegner._query_cubes(query)]
    return _event_on(query, [full_spectrum(m) for m in matrices]), matrices


_PAIR = InteractionSpec.pair_contact(0, 1.0)
_EQUIVALENCE_QUERIES = {
    "fixed-bernoulli-n1d1": EventQuery(
        "fixed", 1, 1, 4, BERNOULLI, InteractionSpec.none(), 0.0, 0.15, energy=2.0
    ),
    "variable-uniform-n3d1": EventQuery(
        "variable", 3, 1, 1, DistributionSpec.uniform(0.0, 2.0), InteractionSpec.none(),
        0.0, 0.02, window=(6.0, 6.2),
    ),
    "variable-finite-n1d2-coupled": EventQuery(
        "variable", 1, 2, 2, DistributionSpec.finite([-1.0, 0.5, 2.0], [0.25, 0.5, 0.25]),
        _PAIR, 0.01, 0.01, window=(4.0, 4.05),
    ),
    "two_volume-finite-n2d1-coupled": EventQuery(
        "two_volume", 2, 1, 2, DistributionSpec.finite([0.0, 0.5, 1.0], [0.25, 0.5, 0.25]),
        _PAIR, 0.01, 0.05, window=(4.0, 4.4),
    ),
    "two_volume-bernoulli-n1d2-overlapping": EventQuery(
        "two_volume", 1, 2, 1, BERNOULLI, InteractionSpec.none(), 0.0, 0.02,
        window=(4.0, 4.1), offset=(0, 0),
    ),
    "fixed-uniform-n3d1-coupled": EventQuery(
        "fixed", 3, 1, 1, DistributionSpec.uniform(-1.0, 1.0), _PAIR, 0.01, 0.1, energy=6.0
    ),
}


@pytest.mark.parametrize("name", sorted(_EQUIVALENCE_QUERIES))
def test_prepared_trial_matches_reference_composition(monkeypatch, name):
    # the trial's draw, assembled by the prepared assemblies, is the
    # brute-force matrix of every cube, and the trial's decision (sumset
    # or dense route) is the brute-force one
    query = _EQUIVALENCE_QUERIES[name]
    assert validate_query(query) == []
    drawn = []

    def recording_draw_values(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    draw = wegner.draw_values
    monkeypatch.setattr(wegner, "draw_values", recording_draw_values)
    decisions = []
    for trial in range(60):
        drawn.clear()
        decision, matrices = _reference_trial(query, 23, trial)
        assert evaluate_event(query, 23, trial) == decision
        ((boxes,),) = drawn
        potentials = boxes[query.prepared.box_of]
        assert len(potentials) == len(matrices)
        for assembly, v, want in zip(query.prepared.assemblies, potentials, matrices):
            got = assembly.matrix(v)
            for field in ("diag", "rows", "cols", "vals"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
        decisions.append(decision)
    assert 0 < sum(decisions) < len(decisions)


def test_prepared_query_is_cached_and_read_only():
    query = _EQUIVALENCE_QUERIES["two_volume-finite-n2d1-coupled"]
    prepared = query.prepared
    assert query.prepared is prepared
    assert prepared.boxes[prepared.box_of].shape == (2, 2, 5, 1)
    arrays = [prepared.boxes, prepared.box_of, prepared.box.rows, prepared.box.cols]
    for assembly in prepared.assemblies:
        arrays += [assembly.rows, assembly.cols, assembly.vals, assembly.coupling]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0
    # a replaced query prepares afresh
    assert dataclasses.replace(query, h=0.0).prepared.assemblies[0].coupling is None


def test_overlapping_particle_boxes_read_one_shared_field(monkeypatch):
    # cube 1 has both particles at 0; cube 2 has them at 1 and 3, so boxes
    # overlap within the first cube and across the two cubes
    query = EventQuery(
        "two_volume", 2, 1, 2, DistributionSpec.uniform(0.0, 1.0), InteractionSpec.none(),
        0.0, 0.05, window=(4.0, 4.4), offset=(1, 3),
    )
    drawn = []

    def recording_draw_values(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    draw = wegner.draw_values
    monkeypatch.setattr(wegner, "draw_values", recording_draw_values)
    points = query.prepared.boxes.reshape(-1)
    for trial in range(5):
        drawn.clear()
        evaluate_event(query, 11, trial)
        values = np.concatenate(drawn).ravel()
        assert values.size == points.size == 15  # 3 distinct boxes of 5 points
        by_point = {}
        for p, v in zip(points.tolist(), values.tolist()):
            by_point.setdefault(p, set()).add(v)
        assert all(len(vs) == 1 for vs in by_point.values())
        assert sorted(by_point) == list(range(-2, 6))
        assert len(set(values.tolist())) == 8


@pytest.mark.parametrize(
    ("kind", "n", "offset", "k"),
    [
        ("variable", 2, None, 1),
        ("variable", 3, None, 1),
        ("two_volume", 2, None, 2),
        ("two_volume", 3, None, 2),
        ("two_volume", 2, (1, 3), 3),
    ],
)
def test_prepared_query_keeps_each_distinct_particle_box_once(kind, n, offset, k):
    # a single cube puts all n particles on one box; the default offset puts
    # the partner cube's particles 2..n back on it; (1, 3) moves both
    query = EventQuery(
        kind, n, 1, 2, BERNOULLI, InteractionSpec.none(), 0.0, 0.05, window=(4.0, 4.4),
        offset=offset,
    )
    prepared = query.prepared
    assert prepared.boxes.shape == (k, 5, 1)
    assert prepared.box_of.shape == (len(prepared.assemblies), n)
    assert np.array_equal(prepared.boxes[prepared.box_of], _cube_points(query))


def test_prepared_boxes_gather_to_each_cubes_particle_points():
    queries = list(_EQUIVALENCE_QUERIES.values()) + [q for q, _ in _ROUTE_QUERIES.values()]
    for query in queries:
        prepared = query.prepared
        assert np.array_equal(prepared.boxes[prepared.box_of], _cube_points(query))
        assert len(np.unique(prepared.boxes, axis=0)) == len(prepared.boxes)


def test_box_solves_gather_bitwise_to_the_per_particle_stack():
    # drawing and solving each distinct box once, then gathering, gives
    # bitwise the values and eigenvalues of every particle of every cube
    trials = np.arange(40)
    for name, (query, _) in _ROUTE_QUERIES.items():
        prepared = query.prepared
        by_box = draw_values(query.distribution, prepared.boxes, 43, trials)
        by_particle = draw_values(query.distribution, _cube_points(query), 43, trials)
        assert np.array_equal(by_box[:, prepared.box_of], by_particle), name
        solved = prepared.box.eigenvalues(by_box[..., None, :])[:, prepared.box_of]
        assert np.array_equal(solved, prepared.box.eigenvalues(by_particle[..., None, :])), name


def _cube_points(query):
    """Each cube's particle points, straight from the cubes."""
    return np.stack([c.particle_points() for c in wegner._query_cubes(query)])


def test_evaluate_event_rejects_invalid_distribution():
    bad = dataclasses.replace(
        _EQUIVALENCE_QUERIES["fixed-bernoulli-n1d1"], distribution=DistributionSpec.bernoulli(1.0)
    )
    with pytest.raises(DistributionError, match="single-point support"):
        evaluate_event(bad, 0, 0)


def _dense_decision(query, potentials):
    """The dense composition: full_spectrum of each assembled cube, then the event."""
    assemblies = query.prepared.assemblies
    return _event_on(query, [full_spectrum(a.matrix(v)) for a, v in zip(assemblies, potentials)])


def _recording_solves(monkeypatch):
    """Wrap CubeAssembly.eigenvalues to record each call's (assembly, potentials)."""
    calls = []
    solve = CubeAssembly.eigenvalues

    def recording(self, potentials):
        calls.append((self, np.array(potentials)))
        return solve(self, potentials)

    monkeypatch.setattr(CubeAssembly, "eigenvalues", recording)
    return calls


def _dense_solves(query, calls):
    """The recorded calls on the query's cube assemblies, as (cube, potentials).

    These are the dense fallback's solves; the box solves go to the
    one-particle assembly ``prepared.box``.
    """
    assemblies = query.prepared.assemblies
    return [(c, rows) for solver, rows in calls for c, a in enumerate(assemblies) if solver is a]


_UNIFORM = DistributionSpec.uniform(0.0, 2.0)
# (query, trials): every event kind, n = 1, 2 and 3, d = 1 and 2, Bernoulli
# and uniform, h = 0 and h = 0.01 with pair_contact, overlapping two-volume
# boxes; over 10^4 decisions in all
_ROUTE_QUERIES = {
    "fixed-bernoulli-n1d1-L4": (
        EventQuery("fixed", 1, 1, 4, BERNOULLI, InteractionSpec.none(), 0.0, 0.15, energy=2.0),
        400,
    ),
    "variable-uniform-n1d2-L2-coupled": (
        EventQuery("variable", 1, 2, 2, _UNIFORM, _PAIR, 0.01, 0.02, window=(4.0, 4.1)),
        400,
    ),
    "two_volume-bernoulli-n1d2-L1-overlapping": (
        EventQuery("two_volume", 1, 2, 1, BERNOULLI, InteractionSpec.none(), 0.0, 0.05,
                   window=(4.0, 4.3), offset=(0, 1)),
        400,
    ),
    "two_volume-bernoulli-n2d1-L4": (
        EventQuery("two_volume", 2, 1, 4, BERNOULLI, InteractionSpec.none(), 0.0,
                   math.exp(-2.0), window=(0.3 - delta0(1.0, 4, 0.5), 0.3 + delta0(1.0, 4, 0.5))),
        1500,
    ),
    "variable-bernoulli-n2d1-L3-coupled": (
        EventQuery("variable", 2, 1, 3, BERNOULLI, _PAIR, 0.01, math.exp(-math.sqrt(3.0)),
                   window=(0.3 - delta0(1.0, 3, 0.5), 0.3 + delta0(1.0, 3, 0.5))),
        1500,
    ),
    "fixed-uniform-n2d1-L2": (
        EventQuery("fixed", 2, 1, 2, _UNIFORM, InteractionSpec.none(), 0.0, 0.1, energy=4.0),
        1500,
    ),
    "fixed-bernoulli-n3d1-L1-coupled": (
        EventQuery("fixed", 3, 1, 1, BERNOULLI, _PAIR, 0.01, 0.1, energy=6.7),
        1500,
    ),
    "variable-uniform-n3d1-L1": (
        EventQuery("variable", 3, 1, 1, _UNIFORM, InteractionSpec.none(), 0.0, 0.02,
                   window=(6.0, 6.1)),
        1000,
    ),
    "two_volume-uniform-n2d2-L1-coupled": (
        EventQuery("two_volume", 2, 2, 1, _UNIFORM, _PAIR, 0.01, 0.05, window=(8.0, 8.3)),
        1000,
    ),
    "variable-bernoulli-n2d2-L1": (
        EventQuery("variable", 2, 2, 1, BERNOULLI, InteractionSpec.none(), 0.0, 0.05,
                   window=(9.0, 9.2)),
        1000,
    ),
    "two_volume-bernoulli-n3d1-L1": (
        EventQuery("two_volume", 3, 1, 1, BERNOULLI, InteractionSpec.none(), 0.0, 0.1,
                   window=(6.5, 7.0)),
        1000,
    ),
}


def test_sumset_route_matches_dense_composition(monkeypatch):
    calls = _recording_solves(monkeypatch)
    decisions = fallbacks = 0
    for name, (query, trials) in _ROUTE_QUERIES.items():
        assert validate_query(query) == [], name
        cubes = len(query.prepared.assemblies)
        successes = fallen_back = 0
        for trial in range(trials):
            points = query.prepared.boxes[query.prepared.box_of]
            potentials = draw_values(query.distribution, points, 29, trial)
            calls.clear()
            decided = evaluate_event(query, 29, trial)
            dense = _dense_solves(query, calls)
            fallen_back += len(dense) == cubes
            assert [c for c, _ in dense] in ([], list(range(cubes)))
            for c, rows in dense:
                assert np.array_equal(rows, potentials[None, c]), (name, trial)
            assert decided == _dense_decision(query, potentials), (name, trial)
            successes += decided
        assert 0 < successes < trials, name  # both outcomes occur on every query
        assert fallen_back == 0 if query.h == 0.0 else fallen_back < trials // 10, name
        decisions += trials
        fallbacks += fallen_back
    assert decisions >= 10**4
    assert 0 < fallbacks  # the weak-coupling rows reach the dense fallback


def _top_eigenvalues(query, seed, trial):
    points = query.prepared.boxes[query.prepared.box_of]
    potentials = draw_values(query.distribution, points, seed, trial)
    return [
        float(full_spectrum(a.matrix(v)).eigenvalues[-1])
        for a, v in zip(query.prepared.assemblies, potentials)
    ], potentials


@pytest.mark.parametrize(
    "name",
    ["two_volume-bernoulli-n2d1-L4", "fixed-bernoulli-n3d1-L1-coupled",
     "variable-bernoulli-n2d2-L1", "two_volume-uniform-n2d2-L1-coupled",
     "two_volume-bernoulli-n1d2-L1-overlapping"],
)
def test_sumset_route_falls_back_on_boundary_instances(monkeypatch, name):
    # Each instance puts the event boundary exactly on a dense eigenvalue:
    # the energy, or the window's lower end, at lambda_max + eps, and a
    # two-volume window starting at the right end min(x, y) + eps of the
    # joint fattened set of the two cubes' top eigenvalues.  No certified
    # margin clears such a boundary, so the dense fallback must decide.
    # At eps = 1/16 the boundary is an exact tie, dist = eps, on which the
    # closed comparisons hold.
    base, _ = _ROUTE_QUERIES[name]
    calls = _recording_solves(monkeypatch)
    tie = 0.0625
    for trial in range(20):
        tops, potentials = _top_eigenvalues(base, 31, trial)
        x = tops[0]
        assert (x + tie) - x == tie
        pair_eps = abs(tops[-1] - x) / 2.0 + 0.05
        instances = [
            dataclasses.replace(base, kind="fixed", eps=eps, energy=x + eps, window=None,
                                offset=None)
            for eps in (base.eps, tie)
        ] + [
            dataclasses.replace(base, kind="variable", eps=eps, energy=None,
                                window=(x + eps, x + eps + 0.25), offset=None)
            for eps in (base.eps, tie)
        ]
        if base.kind == "two_volume":
            lo = min(tops) + pair_eps
            instances.append(dataclasses.replace(base, eps=pair_eps, window=(lo, lo + 0.5)))
        for query in instances:
            calls.clear()
            decided = evaluate_event(query, 31, trial)
            dense = _dense_solves(query, calls)
            cubes = len(query.prepared.assemblies)
            assert [c for c, _ in dense] == list(range(cubes)), (query.kind, trial)
            assert all(len(rows) == 1 for _, rows in dense), (query.kind, trial)
            assert decided == _dense_decision(query, potentials), (query.kind, trial)
            assert decided or query.eps != tie, (query.kind, trial)


def test_sums_margin_sorts_only_the_near_trials():
    # decide hands _sums_margin unsorted sums.  Over 1.2 * 10^4 two-volume
    # trials and the boundary instances of the test above, its margins are
    # those of fully sorted sums, and every margin within eps + mu is the
    # exact two_volume_margin of the sorted sums
    def check(query, potentials):
        prepared = query.prepared
        singles = prepared.box.eigenvalues(potentials[..., None, :])[:, prepared.box_of]
        upper = query.eps + prepared.margin
        got = wegner._sums_margin(query, unsorted_sums(singles), upper)
        full = sorted_sums(singles)
        assert np.array_equal(got, wegner._sums_margin(query, full, upper))
        exact = two_volume_margin(full[:, 0], full[:, 1], query.window)
        near = exact <= upper
        assert np.array_equal(got <= upper, near)
        assert np.array_equal(got[near], exact[near])
        return len(got), int(np.count_nonzero(near))

    checked = near = 0
    for query, _ in _ROUTE_QUERIES.values():
        if query.kind == "two_volume":
            potentials = draw_values(query.distribution, query.prepared.boxes, 41, np.arange(3000))
            trials, close = check(query, potentials)
            checked, near = checked + trials, near + close
    assert checked >= 10**4 and near > 0
    boundary = 0
    for name in ("two_volume-bernoulli-n2d1-L4", "two_volume-uniform-n2d2-L1-coupled",
                 "two_volume-bernoulli-n1d2-L1-overlapping"):
        base, _ = _ROUTE_QUERIES[name]
        for trial in range(20):
            tops, _ = _top_eigenvalues(base, 31, trial)
            pair_eps = abs(tops[-1] - tops[0]) / 2.0 + 0.05
            lo = min(tops) + pair_eps
            query = dataclasses.replace(base, eps=pair_eps, window=(lo, lo + 0.5))
            potentials = draw_values(query.distribution, query.prepared.boxes, 31, [trial])
            boundary += check(query, potentials)[1]
    assert boundary == 60


@pytest.mark.parametrize("name", sorted(_ROUTE_QUERIES))
def test_trial_blocks_decide_as_single_trials(monkeypatch, name):
    # A block's count is the sum of its single-trial counts, and it sends
    # the same trials, in the same order, to the dense fallback, in at
    # most one solve per cube: the dense solves see the same potentials.
    # mc_estimate cuts its trials into blocks of the prepared size; one
    # below, at and one above that size, and any other split of the
    # range, give the same count.
    query, trials = _ROUTE_QUERIES[name]
    block = query.prepared.block
    cubes = len(query.prepared.assemblies)
    calls = _recording_solves(monkeypatch)

    def rows_by_cube():
        solves = _dense_solves(query, calls)
        return [[r.tobytes() for c, rows in solves if c == k for r in rows] for k in range(cubes)]

    singles, single_rows = [], []
    for trial in range(max(trials, block + 1)):
        calls.clear()
        singles.append(evaluate_event(query, 37, trial))
        single_rows.append(rows_by_cube())
    assert set(singles) <= {0, 1}
    counts = np.concatenate([[0], np.cumsum(singles)])

    calls.clear()
    assert evaluate_event(query, 37, 0, trials) == counts[trials]
    assert [c for c, _ in _dense_solves(query, calls)] in ([], list(range(cubes)))
    want = [[r for per_trial in single_rows[:trials] for r in per_trial[k]] for k in range(cubes)]
    assert rows_by_cube() == want
    for total in (block - 1, block, block + 1):
        if total >= 1:
            assert mc_estimate(query, total, 37).successes == counts[total], total
    rng = np.random.default_rng(len(name))
    for _ in range(3):
        cuts = np.unique(np.concatenate([[0, trials], rng.integers(0, trials, 6)]))
        split = sum(evaluate_event(query, 37, a, b - a) for a, b in zip(cuts[:-1], cuts[1:]))
        assert split == counts[trials]
    assert evaluate_event(query, 37, 5, 0) == 0


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _config_row(name, L):
    return event_query_for(parse_config((_CONFIGS / f"{name}.json").read_text()), L)


@pytest.mark.parametrize(
    ("name", "L", "successes", "fields"),
    [
        ("two_volume_edge", 2, 10, 2**10),
        ("two_volume_edge", 3, 371, 2**14),
        ("variable_edge_weak_coupling", 2, 3, 2**5),
        ("variable_edge_weak_coupling", 3, 14, 2**7),
        ("variable_edge_weak_coupling", 4, 75, 2**9),
        ("two_volume_edge", 4, 2353, 2**16),
        ("fixed_band_center", 8, 34862, 2**17),
    ],
)
def test_exact_probability_of_shipped_rows(name, L, successes, fields):
    assert exact_probability(_config_row(name, L)) == Fraction(successes, fields)


def test_two_volume_edge_block_solves_each_distinct_box_row_once(monkeypatch):
    # a full L = 2 block of the two-volume edge row (the row perfbench's
    # edge_pair workload runs) has 2 boxes of 5 Bernoulli sites per trial,
    # so its box rows take at most 2^5 patterns; one stack solves each once
    query = _config_row("two_volume_edge", 2)
    prepared = query.prepared
    potentials = draw_values(query.distribution, prepared.boxes, 7, np.arange(prepared.block))
    assert potentials.shape == (655, 2, 5)
    sizes = []

    def recording(a):
        sizes.append(len(a))
        return eigvalsh(a)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    decide(query, potentials)
    assert sizes == [len({row.tobytes() for row in potentials.reshape(-1, 5)})]
    assert sizes[0] <= 32


@pytest.mark.parametrize(
    "name", ["variable-bernoulli-n2d1-L3-coupled", "two_volume-uniform-n2d2-L1-coupled"]
)
def test_block_fallback_makes_one_stacked_dense_solve_per_cube(monkeypatch, name):
    # a full block with several fallback trials solves them all in one
    # eigenvalues call per cube, their potentials in trial order, and
    # every trial of the block gets the dense decision
    query, _ = _ROUTE_QUERIES[name]
    prepared = query.prepared
    potentials = draw_values(query.distribution, prepared.boxes, 5, np.arange(prepared.block))
    singles = prepared.box.eigenvalues(potentials[..., None, :])[:, prepared.box_of]
    margin = wegner._sums_margin(query, unsorted_sums(singles), query.eps + prepared.margin)
    near = (margin > query.eps - prepared.margin) & (margin <= query.eps + prepared.margin)
    assert np.count_nonzero(near) > 1
    calls = _recording_solves(monkeypatch)
    decisions = decide(query, potentials)
    dense = _dense_solves(query, calls)
    assert [c for c, _ in dense] == list(range(len(prepared.assemblies)))
    for c, rows in dense:
        assert np.array_equal(rows, potentials[near][:, prepared.box_of[c]])
    want = [_dense_decision(query, p[prepared.box_of]) for p in potentials]
    assert decisions.tolist() == want


def test_band_center_row_decides_without_dense_solves(monkeypatch):
    # every trial of the shipped n = 1, h = 0 row clears its certified
    # margin on the stacked box solve, so no trial reaches the dense path
    config = parse_config((_CONFIGS / "fixed_band_center.json").read_text())
    L = 8
    seed = row_seed(config.run.seed, L, config.model.L_list.index(L))
    calls = _recording_solves(monkeypatch)
    query = event_query_for(config, L)
    result = mc_estimate(query, config.run.trials, seed)
    assert result.trials == 10000
    assert calls and _dense_solves(query, calls) == []


_THREE_POINT = DistributionSpec.finite([0.0, 0.5, 1.0], [0.25, 0.5, 0.25])
_EXACT_QUERIES = {
    "two_volume-finite-n2d1-coupled": EventQuery(
        "two_volume", 2, 1, 1, _THREE_POINT, _PAIR, 0.01, 0.1, window=(3.9, 4.3)
    ),
    "variable-bernoulli-n3d1": EventQuery(
        "variable", 3, 1, 1, DistributionSpec.bernoulli(0.25, -1.0, 2.0),
        InteractionSpec.none(), 0.0, 0.05, window=(6.0, 6.4),
    ),
    "two_volume-finite-n1d2-overlapping": EventQuery(
        "two_volume", 1, 2, 1, DistributionSpec.finite([0.0, 1.0], [0.75, 0.25]),
        InteractionSpec.none(), 0.0, 0.05,
        window=(4.0, 4.3), offset=(0, 1),
    ),
}


@pytest.mark.parametrize("name", sorted(_EXACT_QUERIES))
def test_exact_probability_matches_field_by_field_enumeration(name):
    # every assignment of support values to the lattice points, decided
    # densely one field at a time, weighted by its product of weights
    query = _EXACT_QUERIES[name]
    spec = query.distribution
    if spec.kind == "bernoulli":
        support = [(spec.hi, Fraction(spec.p)), (spec.lo, 1 - Fraction(spec.p))]
    else:
        support = [(v, Fraction(w)) for v, w in zip(spec.values, spec.weights)]
    cube_points = _cube_points(query)
    points = sorted({tuple(p) for p in cube_points.reshape(-1, query.d).tolist()})
    index = np.array([points.index(tuple(p)) for p in cube_points.reshape(-1, query.d).tolist()])
    want = Fraction(0)
    for field in itertools.product(support, repeat=len(points)):
        values = np.array([v for v, _ in field])[index].reshape(cube_points.shape[:-1])
        if _dense_decision(query, values):
            want += math.prod(w for _, w in field)
    assert 0 < want < 1
    assert exact_probability(query) == want


def test_exact_probability_refuses_before_deciding(monkeypatch):
    def no_decisions(*args):
        raise AssertionError("decided a field")

    monkeypatch.setattr(wegner, "decide", no_decisions)
    too_many = EventQuery(
        "fixed", 1, 1, 10, BERNOULLI, InteractionSpec.none(), 0.0, 0.1, energy=2.0
    )
    with pytest.raises(DistributionError, match=r"2\^21 = 2097152 fields exceed"):
        exact_probability(too_many)
    uniform = dataclasses.replace(too_many, L=1, distribution=_UNIFORM)
    with pytest.raises(DistributionError, match="finite-support measure"):
        exact_probability(uniform)
    invalid = dataclasses.replace(too_many, L=1, eps=-1.0)
    with pytest.raises(DistributionError, match="eps must be positive"):
        exact_probability(invalid)


def test_wilson_intervals_cover_the_exact_probability():
    # 200 seeds of a 3/32 row: the share of intervals that cover the exact
    # p lies within four binomial standard deviations of 0.95
    query = _config_row("variable_edge_weak_coupling", 2)
    p = float(exact_probability(query))
    covered = 0
    for seed in range(200):
        lo, hi = mc_estimate(query, 1000, seed).ci95
        covered += lo <= p <= hi
    assert abs(covered - 190) <= 4 * math.sqrt(200 * 0.95 * 0.05)


def test_stacked_solves_stay_within_the_block_budget(monkeypatch):
    # every stacked eigvalsh call of the verify suites and of full campaign
    # blocks holds at most _BLOCK_ELEMENTS floats, or a single matrix, so
    # no block size or suite size can raise the peak memory of a solve
    calls = []

    def recording(a):
        calls.append(np.shape(a))
        return eigvalsh(a)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    assert all(r.passed for r in verify.run_suites())
    queries = [_config_row("two_volume_edge", L) for L in (2, 3, 4)]
    queries += [_config_row("variable_edge_weak_coupling", 4), _config_row("fixed_band_center", 32)]
    queries.append(EventQuery("fixed", 1, 1, 100, BERNOULLI, InteractionSpec.none(), 0.0, 0.1,
                              energy=2.0))
    for query in queries:
        block = query.prepared.block
        potentials = draw_values(query.distribution, query.prepared.boxes, 3, np.arange(block))
        decide(query, potentials)
    stacked = [shape for shape in calls if len(shape) == 3]
    assert len(stacked) > len(queries)
    assert max(k for k, _, _ in stacked) > 1
    for k, m, _ in stacked:
        assert k * m * m <= wegner._BLOCK_ELEMENTS or k == 1, (k, m)


def test_perfbench_tracer_installs_on_the_package():
    # the benchmark's span recorder wraps wegner.sample_field,
    # wegner.build_hamiltonian and wegner.full_spectrum by name, so a
    # traced run fails to start when one of them is not in wegner
    repo = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(str(repo / part) for part in ("src", "perfbench"))
    code = "import spans; t = spans.Tracer(); t.install_campaign(); t.install_oracles()"
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
