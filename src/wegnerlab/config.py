"""Experiment configuration: JSON schema, validation, campaign parameters.

The config document is plain JSON with three required sections (``model``,
``wegner``, ``run``) and an optional ``sweep`` section for the Lyapunov
energy sweep; see the README for the full schema.  Non-finite numbers
(``NaN``, ``Infinity``, or a literal such as ``1e999`` that overflows) and
values of the wrong type are rejected while parsing, with a ConfigError
that names the key.  So is a key that no section knows, which would
otherwise leave a misspelled optional key at its default; keys that
start with ``_`` are notes and are ignored.
"""

import json
import math
from dataclasses import dataclass

from .hamiltonian import InteractionSpec
from .randomfield import DistributionSpec, derive_seed, validate
from .transfer import STEPS_LIMIT
from .wegner import EventQuery, delta0

SCHEMA_VERSION = 1

EVENT_KINDS = ("fixed", "variable", "two_volume")

_INT64_MAX = (1 << 63) - 1

# The field hash absorbs the seed as one 64-bit word, so seeds that agree
# modulo 2^64 would draw the same fields.
SEED_MAX = (1 << 64) - 1

# The sweep holds one energy and one estimate per point in memory.
SWEEP_POINTS_LIMIT = 1 << 20


class ConfigError(ValueError):
    """The config document is structurally or semantically invalid."""


@dataclass(frozen=True)
class ModelConfig:
    n: int
    d: int
    L_list: tuple[int, ...]
    distribution: DistributionSpec
    interaction: InteractionSpec
    h: float


@dataclass(frozen=True)
class WegnerConfig:
    """Resonance thresholds; ``L0 = None`` tracks the campaign length L."""

    beta: float
    sigma: float
    L0: int | None
    q: float
    E0: float
    half_width: float | None


@dataclass(frozen=True)
class RunConfig:
    event: str
    trials: int
    seed: int
    offset: tuple[int, ...] | None


@dataclass(frozen=True)
class SweepConfig:
    e_min: float
    e_max: float
    points: int
    steps: int


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    wegner: WegnerConfig
    run: RunConfig
    sweep: SweepConfig | None


def _get(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in section {where!r}")
    return section[key]


def _only(section: dict, where: str, *keys: str) -> dict:
    """``section``, or a ConfigError naming a key that is not one of ``keys``.

    Keys that start with ``_`` are notes and always allowed.
    """
    for key in section:
        if key not in keys and not key.startswith("_"):
            raise ConfigError(
                f"unknown key {key!r} in section {where!r}; known keys: {', '.join(keys)}"
            )
    return section


def _show(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {_show(value)}")
    return value


def _typed(kind, value, where: str):
    """``kind(value)`` for ``kind`` int or float, or a ConfigError naming the key.

    Only a JSON number is taken, never a boolean or a string, and an int
    key takes only an integral one, so no value is coerced.
    """
    result = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            result = kind(value)
        except (ValueError, OverflowError):
            pass
    if (
        result is None
        or (kind is int and result != value)
        or (kind is float and not math.isfinite(result))
    ):
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{where} must be {expected}, got {_show(value)}")
    return result


def _value(kind, section: dict, key: str, where: str):
    """The required ``section[key]`` as ``kind``."""
    return _typed(kind, _get(section, key, where), f"{where}.{key}")


def _optional(kind, value, where: str):
    return None if value is None else _typed(kind, value, where)


def _numbers(kind, value, where: str) -> tuple:
    """A JSON list of ``kind`` values, or a ConfigError naming the key."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a JSON list, got {_show(value)}")
    return tuple(_typed(kind, v, where) for v in value)


def _parse_distribution(obj: dict) -> DistributionSpec:
    where = "model.distribution"
    kind = _get(obj, "kind", where)
    if kind == "bernoulli":
        _only(obj, where, "kind", "p", "lo", "hi")
        return DistributionSpec.bernoulli(
            p=_typed(float, obj.get("p", 0.5), f"{where}.p"),
            lo=_typed(float, obj.get("lo", 0.0), f"{where}.lo"),
            hi=_typed(float, obj.get("hi", 1.0), f"{where}.hi"),
        )
    if kind == "uniform":
        _only(obj, where, "kind", "lo", "hi")
        return DistributionSpec.uniform(
            _value(float, obj, "lo", where),
            _value(float, obj, "hi", where),
        )
    if kind == "finite":
        _only(obj, where, "kind", "values", "weights")
        return DistributionSpec.finite(
            _numbers(float, _get(obj, "values", where), f"{where}.values"),
            _numbers(float, _get(obj, "weights", where), f"{where}.weights"),
        )
    raise ConfigError(f"unknown distribution kind {kind!r}")


def _parse_interaction(obj: dict) -> InteractionSpec:
    where = "model.interaction"
    kind = _get(obj, "kind", where)
    if kind == "none":
        _only(obj, where, "kind")
        return InteractionSpec.none()
    if kind == "pair_contact":
        _only(obj, where, "kind", "range", "amplitude")
        return InteractionSpec.pair_contact(
            _value(int, obj, "range", where),
            _value(float, obj, "amplitude", where),
        )
    raise ConfigError(f"unknown interaction kind {kind!r}")


def _reject_non_finite(literal: str):
    raise ConfigError(f"config number {literal} is not finite")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        _reject_non_finite(literal)
    return value


def parse_config(text: str) -> ExperimentConfig:
    """The config document as an ExperimentConfig.

    Raises ConfigError for invalid JSON, a missing or unknown key, a
    section that is not an object, or a value of the wrong type;
    ``validate_config`` then checks the values.
    """
    try:
        doc = json.loads(text, parse_float=_finite_float, parse_constant=_reject_non_finite)
    except ConfigError:
        raise
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    doc = _only(_object(doc, "config root"), "config", "model", "wegner", "run", "sweep")
    model = _only(
        _object(_get(doc, "model", "config"), "model"),
        "model", "n", "d", "L_list", "distribution", "interaction", "h",
    )
    wegner = _only(
        _object(_get(doc, "wegner", "config"), "wegner"),
        "wegner", "beta", "sigma", "L0", "q", "E0", "half_width",
    )
    run = _only(
        _object(_get(doc, "run", "config"), "run"), "run", "event", "trials", "seed", "offset"
    )
    offset = run.get("offset")
    sweep = doc.get("sweep")
    if sweep is not None:
        sweep = _only(_object(sweep, "sweep"), "sweep", "e_min", "e_max", "points", "steps")
    return ExperimentConfig(
        model=ModelConfig(
            n=_value(int, model, "n", "model"),
            d=_value(int, model, "d", "model"),
            L_list=_numbers(int, _get(model, "L_list", "model"), "model.L_list"),
            distribution=_parse_distribution(
                _object(_get(model, "distribution", "model"), "model.distribution")
            ),
            interaction=_parse_interaction(
                _object(_get(model, "interaction", "model"), "model.interaction")
            ),
            h=_typed(float, model.get("h", 0.0), "model.h"),
        ),
        wegner=WegnerConfig(
            beta=_value(float, wegner, "beta", "wegner"),
            sigma=_value(float, wegner, "sigma", "wegner"),
            L0=_optional(int, wegner.get("L0"), "wegner.L0"),
            q=_value(float, wegner, "q", "wegner"),
            E0=_value(float, wegner, "E0", "wegner"),
            half_width=_optional(float, wegner.get("half_width"), "wegner.half_width"),
        ),
        run=RunConfig(
            event=str(_get(run, "event", "run")),
            trials=_value(int, run, "trials", "run"),
            seed=_typed(int, run.get("seed", 0), "run.seed"),
            offset=None if offset is None else _numbers(int, offset, "run.offset"),
        ),
        sweep=None
        if sweep is None
        else SweepConfig(
            e_min=_value(float, sweep, "e_min", "sweep"),
            e_max=_value(float, sweep, "e_max", "sweep"),
            points=_value(int, sweep, "points", "sweep"),
            steps=_value(int, sweep, "steps", "sweep"),
        ),
    )


def validate_config(config: ExperimentConfig) -> list[str]:
    """All config violations, empty when runnable."""
    problems = [f"distribution: {v}" for v in validate(config.model.distribution)]
    if config.model.n < 1 or config.model.d < 1:
        problems.append(f"need n >= 1 and d >= 1, got n={config.model.n}, d={config.model.d}")
    if not config.model.L_list:
        problems.append("L_list must not be empty")
    if any(L < 1 for L in config.model.L_list):
        problems.append(f"every L in L_list must be >= 1, got {list(config.model.L_list)}")
    if not 0.0 < config.wegner.beta < 1.0:
        problems.append(f"beta must lie in (0, 1), got {config.wegner.beta}")
    if config.wegner.sigma <= 0.0:
        problems.append(f"sigma must be positive, got {config.wegner.sigma}")
    if config.wegner.L0 is not None and config.wegner.L0 < 1:
        problems.append(f"L0 must be a positive integer or null, got {config.wegner.L0}")
    if config.wegner.half_width is not None and config.wegner.half_width <= 0.0:
        problems.append(f"half_width must be positive or null, got {config.wegner.half_width}")
    if config.run.event not in EVENT_KINDS:
        problems.append(f"run.event must be one of {EVENT_KINDS}, got {config.run.event!r}")
    if config.run.trials < 1:
        problems.append(f"trials must be >= 1, got {config.run.trials}")
    nd = config.model.n * config.model.d
    offset = config.run.offset
    if offset is not None and len(offset) != nd:
        problems.append(f"offset length {len(offset)} does not match n*d = {nd}")
    reach = max(config.model.L_list, default=0)
    if offset is not None and any(abs(o) + reach > _INT64_MAX for o in offset):
        problems.append(
            f"every offset entry o needs |o| + max(L_list) <= {_INT64_MAX}, the int64 "
            f"range of lattice coordinates; got {_show(list(offset))}"
        )
    if config.sweep is not None:
        problems += validate_sweep(config.sweep)
    return problems + validate_seed(config.run.seed)


def validate_seed(seed: int) -> list[str]:
    """The violation of a run seed outside [0, SEED_MAX], empty when in range."""
    if 0 <= seed <= SEED_MAX:
        return []
    return [
        f"run.seed (or --seed) must lie in [0, 2^64 - 1] = [0, {SEED_MAX}], the "
        f"64-bit words the field hash absorbs; got {_show(seed)}"
    ]


def validate_sweep(sweep: SweepConfig) -> list[str]:
    """Violations of the ``sweep`` section, empty when runnable."""
    problems = []
    if sweep.points < 1:
        problems.append("sweep.points must be >= 1")
    if sweep.points > SWEEP_POINTS_LIMIT:
        problems.append(f"sweep.points must be <= {SWEEP_POINTS_LIMIT}")
    if sweep.steps < 1000:
        problems.append("sweep.steps must be >= 1000")
    if sweep.steps > STEPS_LIMIT:
        problems.append(
            f"sweep.steps must be <= {STEPS_LIMIT}, which keeps each energy's "
            "log-norm array at 1 GiB"
        )
    if sweep.e_min > sweep.e_max:
        problems.append("sweep.e_min must not exceed sweep.e_max")
    return problems


def effective_L0(config: ExperimentConfig, L: int) -> int:
    return L if config.wegner.L0 is None else config.wegner.L0


def event_window(config: ExperimentConfig, L: int) -> tuple[float, float]:
    """Energy interval [E0 - delta, E0 + delta] for a campaign at length L."""
    w = config.wegner
    half = (
        w.half_width
        if w.half_width is not None
        else delta0(w.sigma, effective_L0(config, L), w.beta)
    )
    return (w.E0 - half, w.E0 + half)


def event_query_for(config: ExperimentConfig, L: int) -> EventQuery:
    """The event family probed at one campaign length."""
    w = config.wegner
    eps = math.exp(-w.sigma * float(L) ** w.beta)
    kind = config.run.event
    return EventQuery(
        kind=kind,
        n=config.model.n,
        d=config.model.d,
        L=L,
        distribution=config.model.distribution,
        interaction=config.model.interaction,
        h=config.model.h,
        eps=eps,
        energy=w.E0 if kind == "fixed" else None,
        window=event_window(config, L) if kind != "fixed" else None,
        offset=config.run.offset,
    )


def row_seed(seed: int, L: int, row: int) -> int:
    """Per-row sampling stream; campaigns at different L stay decoupled."""
    return derive_seed(seed, 0x524F57, L, row)
