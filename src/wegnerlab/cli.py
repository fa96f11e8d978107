"""Experiment runner: campaigns, verification suites, sweeps, matrix dumps.

The ``run`` command executes one Monte Carlo campaign per cube length and
writes a CSV result table that is a pure function of the config bytes and
the seed; wall times go to the console log only, so reruns produce
byte-identical output files.
"""

import csv
import dataclasses
import time
from pathlib import Path

import click
import numpy as np

from . import transfer
from .config import (
    SCHEMA_VERSION,
    ConfigError,
    effective_L0,
    event_query_for,
    parse_config,
    row_seed,
    validate_config,
    validate_seed,
    validate_sweep,
)
from .hamiltonian import SCAN_LIMIT, build_hamiltonian, write_matrix_dump
from .lattice import Cube, Site
from .randomfield import sample_field, validate
from .wegner import capacity_problems, mc_estimate, validate_query


def _load_config(path: str, seed: int | None = None):
    """The parsed config, with a ``--seed`` override in place of ``run.seed``."""
    try:
        config = parse_config(Path(path).read_text())
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc
    if seed is None:
        return config
    return dataclasses.replace(config, run=dataclasses.replace(config.run, seed=seed))


def _out_directory(ctx, param, value):
    """``--out``, checked to name a file in an existing directory before any work is done."""
    path = Path(value)
    if path.is_dir() or not path.parent.is_dir():
        raise click.BadParameter(f"{value!r} is not a file in an existing directory", ctx, param)
    return value


def _require_valid(problems):
    if problems:
        raise click.ClickException(
            "config violation:\n" + "\n".join(f"  - {p}" for p in problems)
        )


def _describe_distribution(spec) -> str:
    if spec.kind == "bernoulli":
        return f"bernoulli(p={spec.p!r},lo={spec.lo!r},hi={spec.hi!r})"
    if spec.kind == "uniform":
        return f"uniform(lo={spec.lo!r},hi={spec.hi!r})"
    values = ";".join(repr(v) for v in spec.values)
    weights = ";".join(repr(w) for w in spec.weights)
    return f"finite(values=[{values}],weights=[{weights}])"


def _describe_interaction(spec) -> str:
    if spec.kind == "none":
        return "none"
    return f"pair_contact(range={spec.radius},amplitude={spec.amplitude!r})"


@click.group()
def main():
    """Resonance statistics of disordered multi-particle lattice operators."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path(), callback=_out_directory)
@click.option("--seed", type=int, default=None, help="Override run.seed.")
@click.pass_context
def run(ctx, config_path, out_path, seed):
    """Run the configured Monte Carlo campaign and write the CSV table.

    Exit status is 0 exactly when every campaign row passes its polynomial
    threshold.
    """
    config = _load_config(config_path, seed)
    _require_valid(validate_config(config))
    model = config.model
    _require_valid(
        [f"L={L}: {p}" for L in model.L_list for p in capacity_problems(model.n, model.d, L)]
    )
    queries = [event_query_for(config, L) for L in model.L_list]
    _require_valid(
        [f"L={q.L}: {problem}" for q in queries for problem in validate_query(q)]
    )

    rows = []
    all_passed = True
    for idx, query in enumerate(queries):
        L = query.L
        started = time.perf_counter()
        result = mc_estimate(query, config.run.trials, row_seed(config.run.seed, L, idx))
        wall = time.perf_counter() - started
        threshold = float(L) ** (-config.wegner.q)
        passed = result.ci95[1] <= threshold
        all_passed = all_passed and passed
        click.echo(
            f"L={L}: successes={result.successes}/{result.trials} "
            f"p_hat={result.p_hat:.6g} ci95=[{result.ci95[0]:.3g}, {result.ci95[1]:.3g}] "
            f"threshold={threshold:.3g} pass={passed} wall={wall:.2f}s"
        )
        rows.append(
            {
                "schema_version": SCHEMA_VERSION,
                "event": query.kind,
                "n": config.model.n,
                "d": config.model.d,
                "L": L,
                "beta": repr(config.wegner.beta),
                "sigma": repr(config.wegner.sigma),
                "L0": effective_L0(config, L),
                "q": repr(config.wegner.q),
                "E0": repr(config.wegner.E0),
                "h": repr(config.model.h),
                "eps": repr(query.eps),
                "window_lo": "" if query.window is None else repr(query.window[0]),
                "window_hi": "" if query.window is None else repr(query.window[1]),
                "distribution": _describe_distribution(config.model.distribution),
                "interaction": _describe_interaction(config.model.interaction),
                "offset": ""
                if query.offset is None
                else ",".join(str(o) for o in query.offset),
                "trials": result.trials,
                "seed": config.run.seed,
                "successes": result.successes,
                "p_hat": repr(result.p_hat),
                "ci_lo": repr(result.ci95[0]),
                "ci_hi": repr(result.ci95[1]),
                "threshold": repr(threshold),
                "pass": "true" if passed else "false",
            }
        )

    with open(out_path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    click.echo(f"wrote {len(rows)} rows to {out_path}")
    ctx.exit(0 if all_passed else 1)


def run_suites(names=None):
    """``verify.run_suites``; the oracles are loaded only by the command that runs them."""
    from . import verify

    return verify.run_suites(names)


def _suite_names(ctx, param, value):
    """``--suite``, each name checked against the verify suites before any suite runs."""
    from .verify import ALL_SUITES

    unknown = [name for name in value if name not in ALL_SUITES]
    if unknown:
        available = ", ".join(sorted(ALL_SUITES))
        raise click.BadParameter(f"unknown suite {unknown[0]!r}; available: {available}", ctx, param)
    return value


@main.command()
@click.option(
    "--suite",
    "suites",
    multiple=True,
    callback=_suite_names,
    help="Run only the named suite; repeatable.",
)
@click.pass_context
def verify(ctx, suites):
    """Run the oracle-equivalence and invariant suites."""
    results = run_suites(list(suites) if suites else None)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"{r.name:<14} {status}  {r.detail}")
        failed += not r.passed
    ctx.exit(0 if failed == 0 else 1)


@main.command("lyapunov-sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path(), callback=_out_directory)
@click.option("--seed", type=int, default=None, help="Override run.seed.")
def lyapunov_sweep(config_path, out_path, seed):
    """Estimate the Lyapunov exponent over the configured energy grid.

    Uses the model distribution and the optional ``sweep`` config section.
    The measure is checked as ``run`` checks it, except that a single-point
    support is allowed here for closed-form diagnostics; every other
    violation is reported before any sampling.
    """
    config = _load_config(config_path, seed)
    if config.model.d != 1:
        raise click.ClickException("lyapunov-sweep requires a d = 1 model")
    sweep = config.sweep
    if sweep is None:
        raise click.ClickException("config has no 'sweep' section")
    measure = [
        f"distribution: {v}"
        for v in validate(config.model.distribution)
        if v != "single-point support"
    ]
    _require_valid(measure + validate_sweep(sweep) + validate_seed(config.run.seed))
    estimates = transfer.lyapunov_sweep(
        np.linspace(sweep.e_min, sweep.e_max, sweep.points),
        config.model.distribution,
        sweep.steps,
        config.run.seed,
    )
    with open(out_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["energy", "gamma_hat", "stderr"])
        for energy, est in estimates:
            writer.writerow([repr(energy), repr(est.gamma_hat), repr(est.stderr)])
    click.echo(f"wrote {len(estimates)} rows to {out_path}")


@main.command("dump-matrix")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path(), callback=_out_directory)
@click.option("--length", type=int, default=None, help="Cube radius; default first of L_list.")
@click.option(
    "--trial",
    type=click.IntRange(-(2**63), 2**64 - 1),
    default=0,
    help="Trial index of the field sample, a 64-bit word.",
)
@click.option("--seed", type=int, default=None, help="Override run.seed.")
def dump_matrix(config_path, out_path, length, trial, seed):
    """Assemble one Hamiltonian and dump its nonzeros for cross-checking."""
    config = _load_config(config_path, seed)
    _require_valid(validate_config(config))
    L = config.model.L_list[0] if length is None else length
    if L < 1:
        raise click.ClickException(f"length must be >= 1, got {L}")
    model = config.model
    _require_valid(capacity_problems(model.n, model.d, L, SCAN_LIMIT, "assembly"))
    cube = Cube(Site(model.n, model.d, (0,) * (model.n * model.d)), L)
    potentials = sample_field(model.distribution, cube.particle_points(), config.run.seed, trial)
    matrix = build_hamiltonian(cube, potentials, model.interaction, model.h)
    with open(out_path, "w") as f:
        write_matrix_dump(matrix, f)
    click.echo(f"wrote dim-{matrix.dim} matrix dump to {out_path}")


if __name__ == "__main__":
    main()
