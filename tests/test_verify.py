"""The verify suites' draws, and the hooks the benchmark harness times them by.

Every suite draws from the counter hash, so each instance is a pure
function of (seed, instance index) and no command loads numpy.random.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import wegnerlab
import wegnerlab.cli as cli
import wegnerlab.verify as verify
from wegnerlab.spectral import gershgorin_interval

PACKAGE = Path(wegnerlab.__file__).resolve().parent
CONFIG = PACKAGE.parents[1] / "configs" / "two_volume_edge.json"


def test_shape_blocks_stack_each_instance_drawn_alone():
    seen = []
    for indices, mats, a in verify._shape_blocks(20260802, 20):
        lo, hi = gershgorin_interval(a)
        norms = a.inf_norm()
        for i, k in enumerate(indices):
            alone = verify._random_instance(20260802, int(k))
            assert a.diag[i].tobytes() == alone.diag.tobytes() == mats[i].diag.tobytes()
            for name in ("rows", "cols", "vals"):
                assert np.array_equal(getattr(a, name), getattr(alone, name))
            assert (lo[i], hi[i]) == gershgorin_interval(alone)
            assert norms[i] == alone.inf_norm()
        seen += indices.tolist()
    assert sorted(seen) == list(range(20))


@pytest.mark.parametrize("kind", ["variable", "two_volume", "fixed"])
def test_events_instances_are_each_drawn_alone(kind):
    # redrawn instances included: instance k is the same drawn in the
    # suite's block or alone
    tag, margin = {
        "variable": (verify._VARIABLE, verify._variable_margins),
        "two_volume": (verify._TWO_VOLUME, verify._brute_margins),
        "fixed": (verify._FIXED, None),
    }[kind]
    trials = np.arange(1000)
    block, redrawn = verify._events_instances(20260804, tag, trials, margin)
    first, _ = verify._events_instances(20260804, tag, trials)
    changed = np.flatnonzero(np.any(block[0][0] != first[0][0], axis=1) | (block[2][0] != first[2][0]))
    assert changed.size <= redrawn and (changed.size > 0) == (margin is not None)
    for k in [0, 1, 2, *changed.tolist()]:
        alone, _ = verify._events_instances(20260804, tag, np.array([k]), margin)
        for got, want in zip(_leaves(alone), _leaves(block)):
            assert got[0].tobytes() == want[k].tobytes(), k


def _leaves(instances):
    (x, nx), (y, ny), (lo, hi), energy = instances
    return x, nx, y, ny, lo, hi, energy


def test_dyadic_spectra_are_sorted_and_edge_padded():
    trials = np.arange(3000)
    ((x, nx), (y, ny), (lo, hi), energy), _ = verify._events_instances(
        20260804, verify._TWO_VOLUME, trials
    )
    assert set(nx.tolist()) == set(ny.tolist()) == set(range(1, 13))
    for ev, size in ((x, nx), (y, ny)):
        assert np.all(np.diff(ev, axis=1) >= 0)
        assert np.all(ev == np.take_along_axis(ev, np.minimum(np.arange(12), size[:, None] - 1), axis=1))
        assert np.all((ev >= 0) & (ev <= 20) & (ev * 64 == np.round(ev * 64)))
    width = hi - lo
    assert np.all((lo >= 0) & (lo <= 20) & (width >= 0) & (width <= 16 * verify._EPS[trials % 3]))
    assert np.all(energy * 64 == np.round(energy * 64)) and energy.max() <= 20


@pytest.mark.parametrize("command", ["verify", "run"])
def test_commands_leave_numpy_random_unloaded(tmp_path, command):
    # a fresh process: pytest and the tests have already imported numpy.random
    args = {
        "verify": ["verify"],
        "run": ["run", "--config", str(CONFIG), "--out", str(tmp_path / "results.csv")],
    }[command]
    script = (
        "import sys\n"
        "from wegnerlab.cli import main\n"
        f"code = main.main(args={args!r}, prog_name='wegnerlab', standalone_mode=False)\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stdout


def test_no_module_uses_numpy_random():
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                uses.append((path.name, node.lineno))
            elif isinstance(node, ast.Import):
                uses += [(path.name, node.lineno) for a in node.names if a.name.startswith("numpy.random")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                if node.module.startswith("numpy.random") or any(a.name == "random" for a in node.names):
                    uses.append((path.name, node.lineno))
    assert len(list(PACKAGE.glob("*.py"))) >= 10
    assert uses == []


def test_every_suite_takes_a_seed_with_a_default():
    # the benchmark harness reruns each suite at its default seed + 1000 * slot
    for name, suite in verify.ALL_SUITES.items():
        assert type(inspect.signature(suite).parameters["seed"].default) is int, name


def test_timing_hooks_are_looked_up_at_call_time(monkeypatch, tmp_path):
    # the benchmark harness patches cli.run_suites, cli.mc_estimate and the
    # ALL_SUITES entries after import
    calls = []
    monkeypatch.setitem(verify.ALL_SUITES, "events", lambda: calls.append("events") or "result")
    real_run_suites = cli.run_suites

    def run_suites(names=None):
        calls.append(("run_suites", names))
        assert real_run_suites(names) == ["result"]
        return []

    monkeypatch.setattr(cli, "run_suites", run_suites)
    result = CliRunner().invoke(cli.main, ["verify", "--suite", "events"])
    assert result.exit_code == 0, result.output
    assert calls == [("run_suites", ["events"]), "events"]

    real_mc_estimate = cli.mc_estimate

    def mc_estimate(*args, **kwargs):
        calls.append("mc_estimate")
        return real_mc_estimate(*args, **kwargs)

    monkeypatch.setattr(cli, "mc_estimate", mc_estimate)
    out = tmp_path / "results.csv"
    result = CliRunner().invoke(cli.main, ["run", "--config", str(CONFIG), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = len(out.read_text().splitlines()) - 1
    assert rows > 0 and calls.count("mc_estimate") == rows
