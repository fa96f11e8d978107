"""Golden sha256 hashes of ``dump-matrix`` output for the shipped configs.

The hashes pin the assembled Hamiltonians (field values, diagonal,
hoppings, entry order and float formatting) byte for byte, so a change to
the field or matrix representation cannot silently change a dump.
"""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from wegnerlab.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    ("fixed_band_center", 1, 0): "b9ca060796994f8ccd91455cac42f6e9820b507a010ab79896ac5bca67244358",
    ("fixed_band_center", 1, 5): "54492499435bdaa927fad25895d92a51a15fa1c4ba5055b9e53e07d75f20afa0",
    ("fixed_band_center", 2, 0): "3eba420679f07ae23bb64278aec8e83efa14f7c9b30399769b1190c5a5dffe81",
    ("fixed_band_center", 2, 5): "ce593293777238013ebe64b24c231ac0244aff79cb1dd264d5245808272c9df8",
    ("fixed_band_center", 3, 0): "f18cbf9ce66a74a19ed29b4b73bb3c7c2c64578f12c0a7f61c30fb1f210990df",
    ("fixed_band_center", 3, 5): "f9c5ddbef8c95734f61a674e217a21a108f46586a9bca42ef3d8178256816d2d",
    ("lyapunov_sweep", 1, 0): "b9ca060796994f8ccd91455cac42f6e9820b507a010ab79896ac5bca67244358",
    ("lyapunov_sweep", 1, 5): "54492499435bdaa927fad25895d92a51a15fa1c4ba5055b9e53e07d75f20afa0",
    ("lyapunov_sweep", 2, 0): "3eba420679f07ae23bb64278aec8e83efa14f7c9b30399769b1190c5a5dffe81",
    ("lyapunov_sweep", 2, 5): "ce593293777238013ebe64b24c231ac0244aff79cb1dd264d5245808272c9df8",
    ("lyapunov_sweep", 3, 0): "f18cbf9ce66a74a19ed29b4b73bb3c7c2c64578f12c0a7f61c30fb1f210990df",
    ("lyapunov_sweep", 3, 5): "f9c5ddbef8c95734f61a674e217a21a108f46586a9bca42ef3d8178256816d2d",
    ("two_volume_edge", 1, 0): "cce4582564914f9b71d0fe199d508ebdd450a7ae187fafc055ba15848fb7b6d0",
    ("two_volume_edge", 1, 5): "90e177ff52a726ac457b57d8b3ee92a7b81100f9a5daab48577e1e0c8241b9d5",
    ("two_volume_edge", 2, 0): "e85ef0c6a102e16f1226ab3f795b30f1f03e4e3a241dcb2acee603b7bd2eeb57",
    ("two_volume_edge", 2, 5): "1c7e575469e9f86698c6027e3873173b99bf7cf9ae5ab21a79a77b3258ef8c1f",
    ("two_volume_edge", 3, 0): "dea52acdd4f0ed6ca5833555e8f239fee29a8a419eee9f3fe2032bbc694383f2",
    ("two_volume_edge", 3, 5): "15c8b36f06f5a19b5d2d7f2763a4ad5333dcb3c214866753ab856c373bee7578",
    ("variable_edge_weak_coupling", 1, 0): "6769af282ca267b52e0cdd765409f09463bdf24589386d6f0c32dd26b77b20ac",
    ("variable_edge_weak_coupling", 1, 5): "8a2b484e81db75392c380a97574669073bc9b94acab3bfba33567a4690539bf5",
    ("variable_edge_weak_coupling", 2, 0): "e633f2f630a52b9a35529af77584d5800edb3237f55277126511cbbf8cd7cc30",
    ("variable_edge_weak_coupling", 2, 5): "0b8074b2bf6753c8f09285b2825d2a4779346bf1aaa752b36626b2a016ec210c",
    ("variable_edge_weak_coupling", 3, 0): "771be9ca15e21abca9f23f6bc31121a68ecade6d4a6c004118b6c4125515f72e",
    ("variable_edge_weak_coupling", 3, 5): "d7376b82b4f3efd74f9cba22250387aa96abaea627295b55fee3846dda3dde36",
}


@pytest.mark.parametrize("config,length,trial", sorted(GOLDEN))
def test_dump_matrix_matches_golden_hash(tmp_path, config, length, trial):
    out = tmp_path / "matrix.txt"
    result = CliRunner().invoke(
        main,
        [
            "dump-matrix",
            "--config",
            str(CONFIGS / f"{config}.json"),
            "--out",
            str(out),
            "--length",
            str(length),
            "--trial",
            str(trial),
        ],
    )
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[config, length, trial]
