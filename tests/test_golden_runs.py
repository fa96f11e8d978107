"""Golden sha256 hashes and exit statuses of ``run`` on the shipped configs.

The hashes pin each results CSV byte for byte (field draws, assembly,
spectra, event decisions, estimates and float formatting), so a change to
any layer of a trial cannot silently move a campaign result.
``fixed_band_center`` exits 1 by design: its rows fail the L^-2 threshold
(see the README).
"""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from wegnerlab.cli import main

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
