"""Golden outputs of ``run``, ``lyapunov-sweep`` and the ``verify`` suites.

The hashes pin each results CSV byte for byte (field draws, assembly,
spectra, event decisions, estimates and float formatting), so a change to
any layer of a trial cannot silently move a campaign result.
``fixed_band_center`` exits 1 by design: its rows fail the L^-2 threshold
(see the README).  The sweep hash pins the transfer-matrix draws, and the
suite pins pin every oracle's verdict and instance count, with the exact
detail lines of the suites whose details are counts, and the Lyapunov
suite's estimates.
"""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from wegnerlab.cli import main
from wegnerlab.verify import run_suites

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    "two_volume_edge": (0, "e66b9121d7b59cf512168e01b11b0ca8fe69bb826be0d0113d0971a78aa1ffbe"),
    "variable_edge_weak_coupling": (
        0,
        "7b0083835af5d7b70b2b4deff3c5c091ca48d2d510654ccd5b0a0df6c895f4fd",
    ),
    "fixed_band_center": (1, "a83170c503634e4762705243168ccd40d8b52880437e6be18f36fcec3c2dd5da"),
}


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_run_matches_golden_hash(tmp_path, config):
    out = tmp_path / "results.csv"
    result = CliRunner().invoke(
        main, ["run", "--config", str(CONFIGS / f"{config}.json"), "--out", str(out)]
    )
    status, digest = GOLDEN[config]
    assert result.exit_code == status, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# The benchmark's edge_pair workload (n = 2 two-volume, L = 2, 3, 4) at two
# seeds other than its config seed, so the campaign path the benchmark
# times is pinned on draws it was not tuned on.
EDGE_PAIR = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "edge_pair.json"
EDGE_PAIR_GOLDEN = {
    11: "ce7a204d6be33bb2f33531547c4cb476740d25ed7f603c1bd5b1a30946f7e123",
    12345: "d7ac986b838d0e9e9f458e1131a7bf45e5161090376adcfb444268c46f53bab0",
}


@pytest.mark.parametrize("seed", sorted(EDGE_PAIR_GOLDEN))
def test_edge_pair_workload_matches_golden_hash(tmp_path, seed):
    out = tmp_path / "results.csv"
    args = ["run", "--config", str(EDGE_PAIR), "--out", str(out), "--seed", str(seed)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EDGE_PAIR_GOLDEN[seed]


SWEEP_SHA256 = "0f3abb5504e9e28d58ee617cbe1bfa4d220ee7cd4286aedb13c69159a9ed2b34"

SUITES = {
    "tensor": (True, 300),
    "dist": (True, 100),
    "resolvent": (True, 100),
    "events": (True, 3000),
    "perturbation": (True, 1000),
    "lyapunov": (True, 3),
}

DETAILS = {
    "dist": "0 count mismatches over 400 counts at E -+ d -+ delta (0 uncertified) over 100 instances",
    "events": "0 mismatches over 3000 instances (414 eventful, 9 re-drawn at the boundary band)",
    "perturbation": "0 violations, 0 skipped, over 1000 instances",
    "lyapunov": (
        "|gamma(5) - 0.96242| = 2.26e-07, |gamma(2)| = 0.00e+00, gamma(2.5) = 0.02988 +- 1.8e-04"
    ),
}


def test_lyapunov_sweep_matches_golden_hash(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["lyapunov-sweep", "--config", str(CONFIGS / "lyapunov_sweep.json"), "--out", str(out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256


def test_verify_suites_match_golden_outcomes():
    results = {r.name: r for r in run_suites()}
    assert {name: (r.passed, r.checked) for name, r in results.items()} == SUITES
    assert {name: results[name].detail for name in DETAILS} == DETAILS
