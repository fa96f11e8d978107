"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
failure report) and asserts the criterion.  Criterion 6 is asserted exactly
as stated; at these small lengths the measured band-center resonance
probabilities sit far above the polynomial threshold (the decay regime
starts at much larger L), so that test documents a real failure rather
than a loosened bound.
"""

import json
import math
import time

from click.testing import CliRunner

from wegnerlab.cli import main
from wegnerlab.hamiltonian import InteractionSpec
from wegnerlab.randomfield import DistributionSpec
from wegnerlab.verify import (
    dist_suite,
    events_suite,
    lyapunov_suite,
    perturbation_suite,
    resolvent_suite,
    tensor_suite,
)
from wegnerlab.wegner import EventQuery, decay_fit, delta0, mc_estimate

BERNOULLI = DistributionSpec.bernoulli(0.5, 0.0, 1.0)


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})", flush=True)
    return passed


def test_c1_tensor_decomposition_oracle():
    started = time.perf_counter()
    result = tensor_suite(lengths=range(1, 7), fields_per_length=50)
    elapsed = time.perf_counter() - started
    ok = report(
        "criterion 1, tensor decomposition",
        result.passed and elapsed < 60.0,
        f"{result.detail}, {elapsed:.1f}s",
    )
    assert ok


def test_c2_dist_oracle():
    started = time.perf_counter()
    result = dist_suite(instances=100)
    elapsed = time.perf_counter() - started
    ok = report(
        "criterion 2, banded-vs-dense dist oracle",
        result.passed and elapsed < 30.0,
        f"{result.detail}, {elapsed:.1f}s",
    )
    assert ok


def test_c3_resolvent_identity():
    result = resolvent_suite(instances=100)
    assert report("criterion 3, resolvent vs singular value", result.passed, result.detail)


def test_c4_perturbation_suite():
    result = perturbation_suite(instances=1000)
    assert report("criterion 4, Weyl/perturbation checks", result.passed, result.detail)


def test_c5_event_definitions_brute_force():
    result = events_suite(instances=1000)
    assert report("criterion 5, event grid oracles", result.passed, result.detail)


def test_c6_fixed_energy_wegner_decay():
    # n=1, d=1, two-point disorder, E = 2.0, beta = 0.5, sigma = 1, q = 2,
    # 1e4 trials per L in {8, 16, 32}: Wilson upper bound <= L^-2.
    beta, sigma, q = 0.5, 1.0, 2.0
    started = time.perf_counter()
    points = []
    for L in (8, 16, 32):
        query = EventQuery(
            kind="fixed",
            n=1,
            d=1,
            L=L,
            distribution=BERNOULLI,
            interaction=InteractionSpec.none(),
            h=0.0,
            eps=math.exp(-sigma * L**beta),
            energy=2.0,
        )
        points.append((L, mc_estimate(query, trials=10**4, seed=20260806 + L)))
    elapsed = time.perf_counter() - started
    fit = decay_fit(points, beta=beta, q=q)
    detail = ", ".join(
        f"L={L}: p_hat={r.p_hat:.4f} upper={r.ci95[1]:.2e} thr={L**-q:.2e}"
        for L, r in points
    )
    alpha = "undefined" if fit.alpha_hat is None else f"{fit.alpha_hat:.3f}"
    ok = all(passed for _, passed in fit.passes_polynomial) and elapsed < 600.0
    report(
        "criterion 6, fixed-energy decay at the band center",
        ok,
        f"{detail}, alpha_hat={alpha}, {elapsed:.1f}s",
    )
    assert ok


def test_c7_two_volume_decay():
    # n=2, d=1, disjoint cubes (default offset 2L+1), I0 = [E0 - d0, E0 + d0]
    # with d0 = delta0(sigma=1, L0=L, beta=0.5), eps = e^(-L^beta), 1e3
    # trials, L in {2, 3, 4}: Wilson upper bound <= L^-1.  E0 = 0.3 probes
    # the lower spectral edge, where the event is rare but not vacuous.
    beta, sigma, q, e0 = 0.5, 1.0, 1.0, 0.3
    started = time.perf_counter()
    points = []
    for L in (2, 3, 4):
        half = delta0(sigma, L, beta)
        query = EventQuery(
            kind="two_volume",
            n=2,
            d=1,
            L=L,
            distribution=BERNOULLI,
            interaction=InteractionSpec.none(),
            h=0.0,
            eps=math.exp(-sigma * L**beta),
            window=(e0 - half, e0 + half),
        )
        points.append((L, mc_estimate(query, trials=10**3, seed=20260807 + L)))
    elapsed = time.perf_counter() - started
    fit = decay_fit(points, beta=beta, q=q)
    detail = ", ".join(
        f"L={L}: p_hat={r.p_hat:.4f} upper={r.ci95[1]:.2e} thr={L**-q:.2e}"
        for L, r in points
    )
    ok = all(passed for _, passed in fit.passes_polynomial) and elapsed < 900.0
    report("criterion 7, two-volume decay at the spectral edge", ok, f"{detail}, {elapsed:.1f}s")
    assert ok


def test_c8_lyapunov_closed_forms():
    result = lyapunov_suite(steps=10**6)
    assert report("criterion 8, Lyapunov closed forms", result.passed, result.detail)


def test_c9_run_determinism_across_workers(tmp_path):
    doc = {
        "model": {
            "n": 1,
            "d": 1,
            "L_list": [2, 3],
            "distribution": {"kind": "bernoulli", "p": 0.5, "lo": 0.0, "hi": 1.0},
            "interaction": {"kind": "none"},
            "h": 0.0,
        },
        "wegner": {"beta": 0.5, "sigma": 1.0, "L0": None, "q": 2.0, "E0": 2.0, "half_width": None},
        "run": {"event": "fixed", "trials": 200, "seed": 7, "offset": None},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    runner = CliRunner()
    blobs = []
    for rerun in range(2):
        out = tmp_path / f"rerun{rerun}.csv"
        result = runner.invoke(
            main, ["run", "--config", str(config), "--out", str(out), "--seed", "7"]
        )
        assert result.exit_code in (0, 1), result.output
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1]
    assert report(
        "criterion 9, byte-identical CSV across reruns",
        ok,
        f"{len(blobs[0])} bytes each",
    )
