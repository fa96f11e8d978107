import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import wegnerlab
from wegnerlab import cli
from wegnerlab.cli import main
from wegnerlab.config import (
    ConfigError,
    ExperimentConfig,
    ModelConfig,
    RunConfig,
    WegnerConfig,
    event_query_for,
    event_window,
    parse_config,
    row_seed,
    validate_config,
)
from wegnerlab.hamiltonian import InteractionSpec, read_matrix_dump
from wegnerlab.randomfield import DistributionSpec
from wegnerlab.wegner import delta0, validate_query

REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.json")) + sorted(
    REPO.glob("perfbench/workloads/*.json")
)


def make_config(**overrides):
    doc = {
        "model": {
            "n": 1,
            "d": 1,
            "L_list": [2, 3],
            "distribution": {"kind": "bernoulli", "p": 0.5, "lo": 0.0, "hi": 1.0},
            "interaction": {"kind": "none"},
            "h": 0.0,
        },
        "wegner": {
            "beta": 0.5,
            "sigma": 1.0,
            "L0": None,
            "q": 2.0,
            "E0": 2.0,
            "half_width": None,
        },
        "run": {"event": "fixed", "trials": 50, "seed": 7, "offset": None},
    }
    for key, value in overrides.items():
        section, _, inner = key.partition(".")
        doc[section][inner] = value
    return doc


def test_config_parses_every_field():
    config = parse_config(json.dumps(make_config()))
    assert config == ExperimentConfig(
        model=ModelConfig(
            n=1,
            d=1,
            L_list=(2, 3),
            distribution=DistributionSpec.bernoulli(p=0.5, lo=0.0, hi=1.0),
            interaction=InteractionSpec.none(),
            h=0.0,
        ),
        wegner=WegnerConfig(beta=0.5, sigma=1.0, L0=None, q=2.0, E0=2.0, half_width=None),
        run=RunConfig(event="fixed", trials=50, seed=7, offset=None),
        sweep=None,
    )
    assert validate_config(config) == []


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_config_rejects_non_finite_numbers(literal):
    text = json.dumps(make_config()).replace('"E0": 2.0', f'"E0": {literal}')
    with pytest.raises(ConfigError, match=f"config number {literal} is not finite"):
        parse_config(text)


WRONGLY_TYPED = {
    "n_string": (
        json.dumps(make_config(**{"model.n": "two"})),
        "model.n must be an integer, got 'two'",
    ),
    "E0_long_integer": (
        json.dumps(make_config()).replace('"E0": 2.0', '"E0": 1' + "0" * 400),
        "wegner.E0 must be a finite number, got 1000",
    ),
    "E0_too_many_digits": (
        json.dumps(make_config()).replace('"E0": 2.0', '"E0": 1' + "0" * 5000),
        "config is not valid JSON",
    ),
    "L_list_scalar": (
        json.dumps(make_config(**{"model.L_list": 5})),
        "model.L_list must be a JSON list, got 5",
    ),
    "finite_value_string": (
        json.dumps(
            make_config(
                **{"model.distribution": {"kind": "finite", "values": [0, "a"], "weights": [1, 0]}}
            )
        ),
        "model.distribution.values must be a finite number, got 'a'",
    ),
    "model_list": (
        json.dumps({**make_config(), "model": [make_config()["model"]]}),
        "model must be a JSON object",
    ),
    "trials_fraction": (
        json.dumps(make_config(**{"run.trials": 1000.7})),
        "run.trials must be an integer, got 1000.7",
    ),
    "L_list_string": (
        json.dumps(make_config(**{"model.L_list": ["3", 2.9]})),
        "model.L_list must be an integer, got '3'",
    ),
    "L_list_fraction": (
        json.dumps(make_config(**{"model.L_list": [3, 2.9]})),
        "model.L_list must be an integer, got 2.9",
    ),
    "n_bool": (
        json.dumps(make_config(**{"model.n": True})),
        "model.n must be an integer, got True",
    ),
    "E0_bool": (
        json.dumps(make_config()).replace('"E0": 2.0', '"E0": false'),
        "wegner.E0 must be a finite number, got False",
    ),
    "p_string": (
        json.dumps(
            make_config(**{"model.distribution": {"kind": "bernoulli", "p": "0.5"}})
        ),
        "model.distribution.p must be a finite number, got '0.5'",
    ),
}


@pytest.mark.parametrize("case", sorted(WRONGLY_TYPED))
def test_config_rejects_wrongly_typed_values(tmp_path, case):
    text, message = WRONGLY_TYPED[case]
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    config = tmp_path / "c.json"
    config.write_text(text)
    out = tmp_path / "r.csv"
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert message in result.output
    assert isinstance(result.exception, SystemExit)  # a report, not a raw error
    assert not out.exists()


def test_config_takes_integral_numbers_for_integer_keys():
    config = parse_config(json.dumps(make_config(**{"run.trials": 50.0, "model.L_list": [2.0]})))
    assert config.run.trials == 50 and type(config.run.trials) is int
    assert config.model.L_list == (2,) and type(config.model.L_list[0]) is int


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_configs_pass_every_check(path):
    config = parse_config(path.read_text())
    assert validate_config(config) == []
    for L in config.model.L_list:
        assert validate_query(event_query_for(config, L)) == []


def test_config_missing_key():
    doc = make_config()
    del doc["wegner"]["beta"]
    with pytest.raises(ConfigError, match="beta"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize(
    ("section", "old", "new", "doc"),
    [
        ("config", "run", "runs", make_config()),
        ("model", "h", "hh", make_config()),
        ("model.distribution", "p", "prob", make_config()),
        ("model.distribution", "hi", "high", make_config(
            **{"model.distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0}})),
        ("model.distribution", "weights", "weight", make_config(
            **{"model.distribution": {"kind": "finite", "values": [0, 1], "weights": [0.5, 0.5]}})),
        ("model.interaction", "range", "radius", make_config(
            **{"model.interaction": {"kind": "pair_contact", "range": 0, "amplitude": 1.0}})),
        ("wegner", "half_width", "halfwidth", make_config()),
        ("run", "seed", "sead", make_config()),
        ("sweep", "steps", "step", {
            **make_config(), "sweep": {"e_min": 0.0, "e_max": 1.0, "points": 3, "steps": 1000}}),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_config_rejects_unknown_keys(section, old, new, doc):
    # one renamed key per section: the error names the key and the section;
    # the same key with a leading underscore is a note and parses
    doc = json.loads(json.dumps(doc))
    parent = doc
    if section != "config":
        for part in section.split("."):
            parent = parent[part]
    parent["_" + old] = parent[old]
    parse_config(json.dumps(doc))
    parent[new] = parent.pop(old)
    with pytest.raises(ConfigError, match=rf"unknown key '{new}' in section '{section}'"):
        parse_config(json.dumps(doc))


def test_config_rejects_a_negative_contact_range(tmp_path):
    # a ConfigError naming the key, not the ValueError of InteractionSpec.pair_contact
    doc = make_config(
        **{"model.interaction": {"kind": "pair_contact", "range": -1, "amplitude": 1.0}}
    )
    message = "model.interaction.range must be >= 0, got -1"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(json.dumps(doc))
    config = write_config(tmp_path, doc)
    out = tmp_path / "out.txt"
    for command in ("run", "dump-matrix"):
        result = CliRunner().invoke(main, [command, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1, (command, result.output)
        assert isinstance(result.exception, SystemExit)  # a report, not a raw error
        assert message in result.output
        assert not out.exists()
    doc["model"]["interaction"]["range"] = 0
    assert parse_config(json.dumps(doc)).model.interaction == InteractionSpec.pair_contact(0, 1.0)


@pytest.mark.parametrize(
    ("old", "new", "key"),
    [
        ('"trials": 50', '"trials": 1000, "trials": 5', "trials"),
        ('"p": 0.5', '"p": 0.5, "p": 0.25', "p"),
        ('"model": {', '"run": {}, "model": {', "run"),
        ('"q": 2.0', '"_note": "a", "_note": "b", "q": 2.0', "_note"),
    ],
    ids=["run", "distribution", "root", "note"],
)
def test_config_rejects_a_key_given_twice(tmp_path, old, new, key):
    # json.loads would keep the last value, as silently as a misspelled key
    text = json.dumps(make_config())
    assert text.count(old) == 1
    text = text.replace(old, new)
    message = f"key {key!r} is given more than once in one object"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    config = tmp_path / "c.json"
    config.write_text(text)
    out = tmp_path / "r.csv"
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output
    assert not out.exists()


def test_run_rejects_a_misspelled_key_before_sampling(tmp_path, monkeypatch):
    doc = json.loads((REPO / "configs" / "variable_edge_weak_coupling.json").read_text())
    doc["model"]["hh"] = doc["model"].pop("h")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(cli, "mc_estimate", no_sampling)
    result = CliRunner().invoke(main, ["run", "--config", str(path), "--out", str(out)])
    assert result.exit_code != 0
    assert "unknown key 'hh' in section 'model'" in result.output
    assert not out.exists()


def test_config_violations_reported():
    doc = make_config(**{"model.L_list": [0], "run.trials": 0})
    config = parse_config(json.dumps(doc))
    problems = validate_config(config)
    assert any("L_list" in p or "L in L_list" in p for p in problems)
    assert any("trials" in p for p in problems)


def test_event_query_eps_and_window():
    config = parse_config(json.dumps(make_config(**{"run.event": "variable"})))
    query = event_query_for(config, 3)
    assert query.eps == pytest.approx(math.exp(-math.sqrt(3.0)))
    half = delta0(1.0, 3, 0.5)
    assert event_window(config, 3) == (2.0 - half, 2.0 + half)
    assert query.window == (2.0 - half, 2.0 + half)


def test_event_query_explicit_half_width_and_L0():
    doc = make_config(**{"wegner.L0": 2, "wegner.half_width": 0.125, "run.event": "variable"})
    config = parse_config(json.dumps(doc))
    assert event_window(config, 5) == (2.0 - 0.125, 2.0 + 0.125)
    query = event_query_for(config, 5)
    assert query.window == (1.875, 2.125)


def test_row_seed_is_stable_and_spread():
    assert row_seed(7, 8, 0) == row_seed(7, 8, 0)
    assert row_seed(7, 8, 0) != row_seed(7, 16, 1)
    assert row_seed(7, 8, 0) != row_seed(8, 8, 0)


def write_config(tmp_path: Path, doc) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def test_run_writes_deterministic_csv(tmp_path):
    runner = CliRunner()
    config = write_config(tmp_path, make_config())
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        result = runner.invoke(
            main, ["run", "--config", str(config), "--out", str(out), "--seed", "7"]
        )
        assert result.exit_code in (0, 1), result.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_rejects_the_legacy_workers_key(tmp_path, monkeypatch):
    # run.workers sized the removed thread pool; it is now an unknown key
    # like any other, reported before any sampling
    with pytest.raises(ConfigError, match="unknown key 'workers' in section 'run'"):
        parse_config(json.dumps(make_config(**{"run.workers": 4})))

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(cli, "mc_estimate", no_sampling)
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(make_config(**{"run.workers": 4})))
    out = tmp_path / "w.csv"
    result = CliRunner().invoke(main, ["run", "--config", str(legacy), "--out", str(out)])
    assert result.exit_code != 0
    assert "unknown key 'workers' in section 'run'" in result.output
    assert not out.exists()


def test_run_rejects_degenerate_distribution(tmp_path):
    runner = CliRunner()
    doc = make_config(**{"model.distribution": {"kind": "bernoulli", "p": 1.0}})
    config = write_config(tmp_path, doc)
    out = tmp_path / "r.csv"
    result = runner.invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code != 0
    assert "single-point support" in result.output
    assert not out.exists()  # no partial output


@pytest.mark.parametrize(
    "overrides",
    [
        {"wegner.E0": math.nan},
        {
            "model.interaction": {"kind": "pair_contact", "range": 0, "amplitude": 1.0},
            "model.h": math.nan,
        },
    ],
    ids=["E0", "h"],
)
def test_run_rejects_non_finite_config_numbers(tmp_path, overrides):
    # json.dumps writes the NaN literal, which json.loads accepts by default
    config = write_config(tmp_path, make_config(**overrides))
    out = tmp_path / "r.csv"
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "config number NaN is not finite" in result.output
    assert isinstance(result.exception, SystemExit)
    assert not out.exists()


def test_run_rejects_underflowing_eps_before_sampling(tmp_path):
    # exp(-600 * sqrt(L)) underflows to 0.0 for every L in L_list
    config = write_config(tmp_path, make_config(**{"wegner.sigma": 600.0}))
    out = tmp_path / "r.csv"
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "config violation" in result.output
    assert "L=2: eps must be positive" in result.output
    assert "L=3: eps must be positive" in result.output
    assert isinstance(result.exception, SystemExit)  # a violation report, not a raw error
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {
            "model.n": 2,
            "model.interaction": {"kind": "pair_contact", "range": 0, "amplitude": 1e200},
            "model.h": 1e200,
        },
        {
            "model.n": 2,
            "model.distribution": {"kind": "bernoulli", "p": 0.5, "lo": 0.0, "hi": 1e308},
        },
    ],
    ids=["coupling", "support"],
)
def test_run_rejects_overflowing_diagonal_before_sampling(tmp_path, overrides):
    config = write_config(tmp_path, make_config(**overrides))
    out = tmp_path / "r.csv"
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1, result.output
    for L in (2, 3):
        assert f"L={L}: diagonal bound 2nd + n*max|V| + |h|*sup|U| = inf" in result.output
    assert isinstance(result.exception, SystemExit)  # a violation report, not a raw error
    assert not out.exists()


def test_run_emits_one_row_per_length(tmp_path):
    runner = CliRunner()
    config = write_config(tmp_path, make_config(**{"model.L_list": [2, 3, 4]}))
    out = tmp_path / "rows.csv"
    result = runner.invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code in (0, 1), result.output
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    header = lines[0].split(",")
    for column in ("L", "successes", "p_hat", "ci_lo", "ci_hi", "threshold", "pass"):
        assert column in header
    assert "wall" not in lines[0]


def test_python_dash_m_matches_cli_runner(tmp_path):
    # a failing campaign: the module entry points must exit 1 and write the
    # same bytes as the click entry point, not exit 0 having done nothing
    config = write_config(tmp_path, make_config(**{"model.L_list": [2], "run.trials": 20}))
    expected = tmp_path / "runner.csv"
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(expected)])
    assert result.exit_code == 1, result.output
    src = str(Path(wegnerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    for module in ("wegnerlab", "wegnerlab.cli"):
        out = tmp_path / f"{module}.csv"
        argv = [sys.executable, "-m", module, "run", "--config", str(config), "--out", str(out)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, (module, proc.stdout, proc.stderr)
        assert out.read_bytes() == expected.read_bytes()


def test_run_two_volume_records_offset(tmp_path):
    doc = make_config(
        **{
            "model.n": 2,
            "model.L_list": [2],
            "run.event": "two_volume",
            "wegner.E0": 0.3,
            "wegner.q": 1.0,
            "run.trials": 20,
        }
    )
    runner = CliRunner()
    config = write_config(tmp_path, doc)
    out = tmp_path / "tv.csv"
    result = runner.invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code in (0, 1), result.output
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert rows[0]["offset"] == "5,0"
    assert rows[0]["event"] == "two_volume"
    assert rows[0]["window_lo"] != ""


@pytest.mark.parametrize("event", ["fixed", "variable"])
def test_offset_is_rejected_without_a_second_cube(tmp_path, event):
    # unchecked, a fixed run with an offset recorded it in the CSV although
    # only the two-volume event places a second cube
    doc = make_config(**{"model.n": 2, "run.event": event, "run.offset": [9, 9]})
    problems = validate_config(parse_config(json.dumps(doc)))
    assert problems == [
        f"run.offset places the second cube of the two_volume event; event {event!r} has "
        "no second cube"
    ]
    config = write_config(tmp_path, doc)
    out = tmp_path / "r.csv"
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert "config violation" in result.output
    assert not out.exists()
    doc["run"]["offset"] = None
    assert validate_config(parse_config(json.dumps(doc))) == []


def test_verify_single_suite_runs(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--suite", "tensor"])
    assert result.exit_code == 0, result.output
    assert "tensor" in result.output and "PASS" in result.output
    assert "dist" not in result.output


def test_dump_matrix_round_trip(tmp_path):
    runner = CliRunner()
    config = write_config(tmp_path, make_config())
    out = tmp_path / "m.txt"
    result = runner.invoke(
        main,
        ["dump-matrix", "--config", str(config), "--out", str(out), "--length", "2"],
    )
    assert result.exit_code == 0, result.output
    with open(out) as f:
        matrix = read_matrix_dump(f)
    assert matrix.dim == 5
    again = tmp_path / "m2.txt"
    result = runner.invoke(
        main,
        ["dump-matrix", "--config", str(config), "--out", str(again), "--length", "2"],
    )
    assert result.exit_code == 0
    assert out.read_bytes() == again.read_bytes()


def test_dump_matrix_trial_is_a_64_bit_word(tmp_path):
    # -2^63 and 2^63 are the same word, so the same field; a trial outside
    # 64 bits is a usage error, not a traceback
    runner = CliRunner()
    config = write_config(tmp_path, make_config())
    dumps = []
    for trial in (-(2**63), 2**63, 2**64 - 1):
        out = tmp_path / f"m{len(dumps)}.txt"
        args = ["dump-matrix", "--config", str(config), "--out", str(out), "--trial", str(trial)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        dumps.append(out.read_bytes())
    assert dumps[0] == dumps[1] != dumps[2]
    out = tmp_path / "huge.txt"
    args = ["dump-matrix", "--config", str(config), "--out", str(out), "--trial", str(2**64)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "--trial" in result.output and "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "lyapunov-sweep", "dump-matrix"])
def test_out_in_a_missing_directory_is_rejected_before_sampling(tmp_path, monkeypatch, command):
    # the CSV or dump would otherwise fail to open only after all the work,
    # as it would for an --out that is itself a directory
    def no_sampling(*args, **kwargs):
        raise AssertionError("the command started sampling")

    for name in ("mc_estimate", "sample_field"):
        monkeypatch.setattr(cli, name, no_sampling)
    monkeypatch.setattr(cli.transfer, "lyapunov_sweep", no_sampling)
    doc = make_config()
    doc["sweep"] = {"e_min": 1.0, "e_max": 3.0, "points": 3, "steps": 2000}
    config = write_config(tmp_path, doc)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    for out in (tmp_path / "missing" / "out.csv", afile / "out.csv", tmp_path):
        result = CliRunner().invoke(main, [command, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '--out': '{out}' is not a file in an existing directory" in (
            result.output
        )
        assert "Traceback" not in result.output
    assert not (tmp_path / "missing").exists() and afile.read_text() == "kept"


@pytest.mark.parametrize("seed", [2**64 + 5, -1], ids=["2^64+5", "-1"])
def test_seeds_outside_64_bits_are_rejected_before_sampling(tmp_path, monkeypatch, seed):
    # the field hash keeps a seed's low 64 bits, so 5 and 2^64 + 5 would draw
    # the same fields under different CSV seeds; -1 would alias 2^64 - 1
    def no_sampling(*args, **kwargs):
        raise AssertionError("the command started sampling")

    sample_field = cli.sample_field
    for name in ("mc_estimate", "sample_field"):
        monkeypatch.setattr(cli, name, no_sampling)
    monkeypatch.setattr(cli.transfer, "lyapunov_sweep", no_sampling)
    doc = make_config()
    doc["sweep"] = {"e_min": 1.0, "e_max": 3.0, "points": 3, "steps": 2000}
    good = write_config(tmp_path, doc)
    doc["run"]["seed"] = seed
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out.txt"
    message = f"run.seed (or --seed) must lie in [0, 2^64 - 1] = [0, {2**64 - 1}]"
    for command in ("run", "lyapunov-sweep", "dump-matrix"):
        for args in (["--config", str(bad)], ["--config", str(good), "--seed", str(seed)]):
            result = CliRunner().invoke(main, [command, *args, "--out", str(out)])
            assert result.exit_code == 1, (command, result.output)
            assert isinstance(result.exception, SystemExit)  # a violation report
            assert "config violation" in result.output and message in result.output
            assert f"got {seed}" in result.output
            assert not out.exists()
    # the range is exact, and a valid --seed overrides an invalid run.seed
    for edge, ok in [(0, True), (2**64 - 1, True), (2**64, False), (-1, False)]:
        doc["run"]["seed"] = edge
        assert (validate_config(parse_config(json.dumps(doc))) == []) == ok, edge
    monkeypatch.setattr(cli, "sample_field", sample_field)
    args = ["dump-matrix", "--config", str(bad), "--seed", "5", "--out", str(out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


def test_run_rejects_over_capacity_lengths_before_sampling(tmp_path):
    # n=2, d=2: L=2 gives dim 625, L=5 dim 14641 and L=6 dim 28561
    doc = make_config(**{"model.n": 2, "model.d": 2, "model.L_list": [2, 5, 6], "run.trials": 5})
    runner = CliRunner()
    config = write_config(tmp_path, doc)
    out = tmp_path / "r.csv"
    result = runner.invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1
    assert "config violation" in result.output
    assert "L=5: cube dim (2L+1)^(n*d) = 14641 exceeds" in result.output
    assert "L=6: cube dim (2L+1)^(n*d) = 28561 exceeds" in result.output
    assert "L=2:" not in result.output
    assert isinstance(result.exception, SystemExit)  # a violation report, not a raw error
    assert not out.exists()
    # dump-matrix stays usable at the same over-capacity length
    dump = tmp_path / "m.txt"
    result = runner.invoke(
        main, ["dump-matrix", "--config", str(config), "--out", str(dump), "--length", "5"]
    )
    assert result.exit_code == 0, result.output
    with open(dump) as f:
        assert read_matrix_dump(f).dim == 14641


@pytest.mark.parametrize("event", ["variable", "two_volume"])
def test_run_rejects_huge_particle_count_at_once(tmp_path, event):
    # (2L+1)^(n*d) for n = 10^30 has ~10^30 digits; the capacity rule must
    # give up after a few factors, before any EventQuery is built.  The
    # subprocess timeout turns a hang into a failure instead of a stuck run.
    doc = make_config(**{"model.n": 10**30, "run.event": event})
    config = write_config(tmp_path, doc)
    out = tmp_path / "r.csv"
    proc = _run_cli_subprocess(["run", "--config", str(config), "--out", str(out)])
    assert proc.returncode == 1, proc.stderr
    assert "config violation" in proc.stderr
    assert "L=2: cube dim (2L+1)^(n*d) >= 15625 exceeds" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    # in process, without the interpreter start-up, the rejection is immediate
    started = time.perf_counter()
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert time.perf_counter() - started < 2.0
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "config violation" in result.output


def _run_cli_subprocess(args):
    """``python -m wegnerlab ARGS`` on the package under test, with a timeout."""
    src = str(Path(wegnerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "wegnerlab", *args]
    return subprocess.run(
        argv, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=10
    )


def test_run_rejects_offset_outside_int64_before_sampling(tmp_path):
    # the second cube's coordinates reach |offset| + L; past the int64
    # range the particle points cannot be formed, so the config is rejected
    doc = make_config(
        **{"model.n": 2, "run.event": "two_volume", "run.offset": [10**30, 0], "run.trials": 5}
    )
    config = write_config(tmp_path, doc)
    out = tmp_path / "r.csv"
    proc = _run_cli_subprocess(["run", "--config", str(config), "--out", str(out)])
    assert proc.returncode == 1, proc.stderr
    assert "config violation" in proc.stderr
    assert "every offset entry o needs |o| + max(L_list) <= 9223372036854775807" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    # the bound is exact: the largest coordinate 2^63 - 1 still runs
    edge = (1 << 63) - 1 - 3
    for o, ok in [(edge, True), (edge + 1, False), (-edge, True), (-edge - 1, False)]:
        doc["run"]["offset"] = [0, o]
        problems = validate_config(parse_config(json.dumps(doc)))
        assert (problems == []) == ok, (o, problems)
    doc["run"]["offset"] = [0, edge]
    config = write_config(tmp_path, doc)
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert "wrote 2 rows" in result.output


def test_dump_matrix_rejects_huge_particle_count_at_once(tmp_path):
    # dump-matrix applies the capacity rule with the assembly's site limit,
    # so (0,) * (n*d) is never formed for n = 10^30
    config = write_config(tmp_path, make_config(**{"model.n": 10**30}))
    out = tmp_path / "m.txt"
    args = ["dump-matrix", "--config", str(config), "--out", str(out)]
    proc = _run_cli_subprocess(args)
    assert proc.returncode == 1, proc.stderr
    assert "config violation" in proc.stderr
    assert "cube dim (2L+1)^(n*d) >= 9765625 exceeds the assembly limit 4194304" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    started = time.perf_counter()
    result = CliRunner().invoke(main, args)
    assert time.perf_counter() - started < 2.0
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert not out.exists()


def test_run_rejects_length_too_large_for_a_float(tmp_path):
    # float(L) overflows for a 401-digit L; the capacity rule rejects the row
    # from the exact integer before eps = exp(-sigma * L^beta) is computed
    huge = 10**400
    config = write_config(tmp_path, make_config(**{"model.L_list": [2, huge]}))
    out = tmp_path / "r.csv"
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # a violation report, not a raw error
    assert "config violation" in result.output
    assert f"L={huge}: cube dim (2L+1)^(n*d) = {2 * huge + 1} exceeds" in result.output
    assert "L=2:" not in result.output
    assert not out.exists()


def test_lyapunov_sweep_writes_csv(tmp_path):
    doc = make_config()
    doc["sweep"] = {"e_min": 1.0, "e_max": 3.0, "points": 3, "steps": 2000}
    runner = CliRunner()
    config = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, ["lyapunov-sweep", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "energy,gamma_hat,stderr"
    assert len(lines) == 4


def test_lyapunov_sweep_requires_d1(tmp_path):
    doc = make_config(**{"model.d": 2})
    doc["sweep"] = {"e_min": 1.0, "e_max": 3.0, "points": 3, "steps": 2000}
    runner = CliRunner()
    config = write_config(tmp_path, doc)
    result = runner.invoke(
        main, ["lyapunov-sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")]
    )
    assert result.exit_code != 0
    assert "d = 1" in result.output


@pytest.mark.parametrize(
    "sweep, message",
    [
        ({"e_min": 1.0, "e_max": 3.0, "points": 3, "steps": 500}, "sweep.steps must be >= 1000"),
        ({"e_min": 1.0, "e_max": 3.0, "points": 0, "steps": 2000}, "sweep.points must be >= 1"),
        (
            {"e_min": 1.0, "e_max": 3.0, "points": 3, "steps": 10**15},
            "sweep.steps must be <= 134217728",
        ),
        (
            {"e_min": 1.0, "e_max": 3.0, "points": 10**15, "steps": 2000},
            "sweep.points must be <= 1048576",
        ),
    ],
    ids=["steps", "points", "steps_over_capacity", "points_over_capacity"],
)
def test_lyapunov_sweep_checks_section_before_writing(tmp_path, monkeypatch, sweep, message):
    # Without the caps, 10**15 steps or energies would be allocated at once
    # (np.arange, np.linspace): fail loudly if the sweep gets that far.
    def no_sampling(*args, **kwargs):
        raise AssertionError("the sweep started sampling")

    monkeypatch.setattr(cli.np, "linspace", no_sampling)
    monkeypatch.setattr(cli.transfer, "lyapunov_sweep", no_sampling)
    # the degenerate distribution stays allowed: only the sweep section is at fault
    doc = make_config(**{"model.distribution": {"kind": "bernoulli", "p": 1.0}})
    doc["sweep"] = sweep
    config = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(
        main, ["lyapunov-sweep", "--config", str(config), "--out", str(out)]
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # a violation report, not a raw error
    assert "config violation" in result.output
    assert message in result.output
    assert "single-point support" not in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "distribution, message",
    [
        ({"kind": "finite", "values": [], "weights": []}, "values/weights length mismatch"),
        (
            {"kind": "finite", "values": [0.0, 1.0, 2.0], "weights": [0.5, 0.5]},
            "values/weights length mismatch",
        ),
        (
            {"kind": "finite", "values": [0.0, 1.0], "weights": [0.1, 0.1]},
            "weights do not sum to 1",
        ),
        ({"kind": "finite", "values": [0.0, 1.0], "weights": [-1.0, 2.0]}, "negative weight"),
        ({"kind": "uniform", "lo": 2.0, "hi": 1.0}, "empty support"),
        ({"kind": "uniform", "lo": -1e308, "hi": 1e308}, "support width hi - lo is not finite"),
        ({"kind": "bernoulli", "p": 1.5}, "p must lie in [0, 1], got 1.5"),
    ],
    ids=[
        "empty", "unweighted_value", "weights_sum", "negative_weight", "lo_above_hi",
        "infinite_width", "p_above_one",
    ],
)
def test_lyapunov_sweep_checks_measure_before_writing(
    tmp_path, monkeypatch, distribution, message
):
    # unchecked, the empty measure raised IndexError mid-sweep and the
    # others wrote a CSV of a measure the config does not describe
    def no_sampling(*args, **kwargs):
        raise AssertionError("the sweep started sampling")

    monkeypatch.setattr(cli.np, "linspace", no_sampling)
    monkeypatch.setattr(cli.transfer, "lyapunov_sweep", no_sampling)
    doc = json.loads((REPO / "configs" / "lyapunov_sweep.json").read_text())
    doc["model"]["distribution"] = distribution
    config = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(
        main, ["lyapunov-sweep", "--config", str(config), "--out", str(out)]
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # a violation report, not a raw error
    assert "config violation" in result.output
    assert f"distribution: {message}" in result.output
    assert not out.exists()


def test_commands_never_load_scipy_or_numpy_random(tmp_path):
    # a fresh process: pytest itself has already imported both modules
    doc = make_config()
    doc["sweep"] = {"e_min": 1.0, "e_max": 3.0, "points": 2, "steps": 2000}
    sweep_config = write_config(tmp_path, doc)
    commands = [
        ["run", "--config", str(REPO / "configs" / "two_volume_edge.json"),
         "--out", str(tmp_path / "run.csv")],
        ["dump-matrix", "--config", str(REPO / "configs" / "fixed_band_center.json"),
         "--out", str(tmp_path / "matrix.txt"), "--length", "3"],
        ["lyapunov-sweep", "--config", str(sweep_config), "--out", str(tmp_path / "sweep.csv")],
    ]
    script = (
        "import json, sys\n"
        "from wegnerlab.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    main.main(args=args, prog_name='wegnerlab', standalone_mode=False)\n"
        "print(json.dumps([m for m in ('scipy', 'numpy.random') if m in sys.modules]))\n"
    )
    src = str(Path(wegnerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    for name in ("run.csv", "matrix.txt", "sweep.csv"):
        assert (tmp_path / name).stat().st_size > 0


def test_only_verify_loads_the_oracles(tmp_path):
    # a fresh process, as above: a campaign, a matrix dump and a sweep run
    # without wegnerlab.verify, which the verify command then loads
    doc = make_config()
    doc["sweep"] = {"e_min": 1.0, "e_max": 3.0, "points": 2, "steps": 2000}
    sweep_config = write_config(tmp_path, doc)
    commands = [
        ["run", "--config", str(REPO / "configs" / "two_volume_edge.json"),
         "--out", str(tmp_path / "run.csv")],
        ["dump-matrix", "--config", str(REPO / "configs" / "fixed_band_center.json"),
         "--out", str(tmp_path / "matrix.txt"), "--length", "3"],
        ["lyapunov-sweep", "--config", str(sweep_config), "--out", str(tmp_path / "sweep.csv")],
        ["verify", "--suite", "tensor"],
    ]
    script = (
        "import json, sys\n"
        "from wegnerlab.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    main.main(args=args, prog_name='wegnerlab', standalone_mode=False)\n"
        "    print(args[0], 'wegnerlab.verify' in sys.modules)\n"
    )
    src = str(Path(wegnerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line.endswith(("True", "False"))]
    assert loaded == [
        "run False", "dump-matrix False", "lyapunov-sweep False", "verify True"
    ], proc.stdout


def test_verify_never_loads_scipy():
    # a fresh process, as above: every suite, through the click entry point
    script = (
        "import sys\n"
        "from wegnerlab.cli import main\n"
        "code = main.main(args=['verify'], prog_name='wegnerlab', standalone_mode=False)\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    src = str(Path(wegnerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 7 and all(" PASS " in line for line in lines[:6]), proc.stdout
    assert lines[-1] == "0 False"


def test_no_module_imports_scipy():
    package = Path(wegnerlab.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 10
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), module.name
