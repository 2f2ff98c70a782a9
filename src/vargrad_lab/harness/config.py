"""Experiment configuration: strict flat-key parsing.

Config files are plain text with one `key = value` assignment per line,
`#` comments, and dotted lowercase keys. Values are parsed as JSON where
possible (numbers, booleans, lists, `null` for an unset optional list) and
fall back to bare strings, so `experiment = variance-sweep` and
`sweep.replicates = 100000` both read naturally. Parsing is strict on
purpose: unknown keys are rejected with a suggestion, duplicates, malformed
lines and non-finite numbers error with their line number, and every value
is type-checked against the schema of the experiment it belongs to. The aim
is that a config file is a complete, auditable record of what a run did.
"""

from __future__ import annotations

import difflib
import json
import math
import re
from dataclasses import dataclass, field, replace
from typing import Any

from ..analysis import MIN_JACKKNIFE_N

_KEY_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


@dataclass(frozen=True)
class FieldSpec:
    kind: str  # int | float | list_int | list_float | list_str | grid | probs
    default: Any = _REQUIRED
    minimum: float | None = None


# A grid row's cells in order; the first four also name the delta.* and cv.* pair keys.
GRID_COLUMNS = ("mu", "mu_tilde", "sigma2", "sigma2_tilde", "S")

# The default sweep grid spans both signs of the variance difference and
# includes the S = 9 zero crossing and a point inside the interval where the
# plain estimator wins at large S.
_DEFAULT_SWEEP_GRID = [
    [1.0, 2.0, 1.0, 1.0, 9],
    [1.0, 2.0, 1.0, 1.0, 2],
    [1.0, 2.0, 1.0, 1.0, 100],
    [3.0, 1.0, 3.0, 1.0, 4],
    [0.0, 0.0, 2.0, 1.0, 4],
    [0.0, 0.0, 1.0, 2.0, 10],
    [1.0, 0.0, 0.5, 1.0, 1000],
    [1.0, 0.0, 0.5, 1.0, 10],
    [2.0, 1.0, 1.0, 1.0, 4],
    [2.0, 1.0, 1.0, 1.0, 20],
    [3.0, 1.0, 3.0, 1.0, 2],
    [0.5, 0.0, 1.0, 1.5, 50],
]

_DEFAULT_ORACLE_GRID = [
    [3.0, 1.0, 3.0, 1.0, 4],
    [1.0, 2.0, 1.0, 1.0, 9],
    [1.0, 0.0, 0.5, 1.0, 1000],
    [0.0, 0.0, 2.0, 1.0, 10],
    [2.0, 0.0, 1.0, 1.0, 100],
    [1.0, 1.0, 1.5, 0.5, 4],
]

_SCHEMAS: dict[str, dict[str, FieldSpec]] = {
    "train-logreg": {
        "logreg.dims": FieldSpec("int", minimum=1),
        "logreg.n_data": FieldSpec("int", 100, minimum=1),
        "logreg.steps": FieldSpec("int", 1000, minimum=1),
        "logreg.train_s": FieldSpec("int", 4, minimum=2),
        "optimizer.learning_rate": FieldSpec("float", 0.001, minimum=1e-12),
        "logging.every": FieldSpec("int", 10, minimum=1),
        "diagnostics.n_delta": FieldSpec("int", 2000, minimum=MIN_JACKKNIFE_N),
        "diagnostics.n_is": FieldSpec("int", 10000, minimum=2),
        "diagnostics.n_elbo": FieldSpec("int", 2000, minimum=2),
        "diagnostics.variance_replicates": FieldSpec("int", 1000, minimum=MIN_JACKKNIFE_N),
        "diagnostics.variance_s": FieldSpec("int", 4, minimum=2),
        "diagnostics.cv_extra_samples": FieldSpec("int", 2, minimum=2),
        "diagnostics.cv_oracle_samples": FieldSpec("int", 1000, minimum=2),
    },
    "variance-sweep": {
        "sweep.grid_points": FieldSpec("grid", _DEFAULT_SWEEP_GRID),
        "sweep.replicates": FieldSpec("int", 100000, minimum=MIN_JACKKNIFE_N),
    },
    "delta-ratio": {
        "delta.dims": FieldSpec("list_int", [1, 3, 10, 30], minimum=1),
        "delta.n_samples": FieldSpec("int", 2000, minimum=MIN_JACKKNIFE_N),
        "delta.mu": FieldSpec("float", 3.0),
        "delta.sigma2": FieldSpec("float", 3.0, minimum=1e-12),
        "delta.mu_tilde": FieldSpec("float", 1.0),
        "delta.sigma2_tilde": FieldSpec("float", 1.0, minimum=1e-12),
    },
    "gaussian-oracles": {
        "oracles.grid_points": FieldSpec("grid", _DEFAULT_ORACLE_GRID),
        "oracles.mc_draws": FieldSpec("int", 200000, minimum=MIN_JACKKNIFE_N),
    },
    "unbiasedness": {
        "toy.dims": FieldSpec("int", 1, minimum=1),
        "toy.posterior": FieldSpec("probs", None),
        "toy.logits": FieldSpec("list_float", None),
        "toy.s": FieldSpec("int", 4, minimum=2),
        "toy.replicates": FieldSpec("int", 100000, minimum=MIN_JACKKNIFE_N),
        "toy.estimators": FieldSpec("list_str", ["reinforce", "cv", "vargrad"]),
    },
    "cv-comparison": {
        "cv.dims": FieldSpec("list_int", [3, 30], minimum=1),
        "cv.s_grid": FieldSpec("list_int", [2, 4, 8, 16, 32], minimum=2),
        "cv.replicates": FieldSpec("int", 1000, minimum=MIN_JACKKNIFE_N),
        "cv.mu": FieldSpec("float", 3.0),
        "cv.sigma2": FieldSpec("float", 3.0, minimum=1e-12),
        "cv.mu_tilde": FieldSpec("float", 1.0),
        "cv.sigma2_tilde": FieldSpec("float", 1.0, minimum=1e-12),
        "cv.estimators": FieldSpec(
            "list_str", ["reinforce", "vargrad", "cv_oracle", "cv_sampled"]
        ),
        "cv.a_grid": FieldSpec("list_float", None),
    },
}

# The experiment names, in the CLI's subcommand order.
EXPERIMENTS = tuple(_SCHEMAS)

_COMMON_KEYS = ("experiment", "seed", "out")


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved configuration: defaults applied, everything checked."""

    experiment: str
    seed: int
    out: str | None
    options: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.options[key]

    def with_overrides(self, seed: int | None = None, out: str | None = None) -> "ExperimentConfig":
        cfg = self
        if seed is not None:
            if seed < 0:
                raise ConfigError("seed must be non-negative")
            cfg = replace(cfg, seed=seed)
        if out is not None:
            cfg = replace(cfg, out=out)
        return cfg


def _parse_value(raw: str, where: str) -> Any:
    def finite(text: str) -> float:
        # json.loads reads NaN, Infinity and -Infinity, and 1e999 as inf
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"{where}: numbers must be finite, got {text}")
        return value

    raw = raw.strip()
    try:
        return json.loads(raw, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError:
        return raw  # bare string, e.g. an experiment name or a path
    except ConfigError:
        raise
    except ValueError:  # int() refuses integers past the int-digit limit
        raise ConfigError(f"{where}: integer has too many digits") from None


def _is_number(v: Any, integer: bool = False) -> bool:
    """v is an int, or with integer False an int or a float, and not a bool."""
    return not isinstance(v, bool) and isinstance(v, int if integer else (int, float))


def _is_list_of(value: Any, entry_ok) -> bool:
    """value is a non-empty list whose entries all pass entry_ok."""
    return isinstance(value, list) and bool(value) and all(entry_ok(v) for v in value)


def _coerce(key: str, value: Any, spec: FieldSpec) -> Any:
    def fail(expected: str):
        raise ConfigError(f"key '{key}': expected {expected}, got {value!r}")

    def to_float(v) -> float:
        try:
            return float(v)
        except OverflowError:  # an integer literal past the float range
            raise ConfigError(f"key '{key}': number too large for a float") from None

    kind = spec.kind
    if value is None and spec.default is None:
        return None  # an optional list left unset
    if kind == "int":
        if not _is_number(value, integer=True):
            fail("an integer")
        if spec.minimum is not None and value < spec.minimum:
            raise ConfigError(f"key '{key}': must be >= {int(spec.minimum)}, got {value}")
        return value
    if kind == "float":
        if not _is_number(value):
            fail("a number")
        v = to_float(value)
        if spec.minimum is not None and v < spec.minimum:
            raise ConfigError(f"key '{key}': must be >= {spec.minimum}, got {v}")
        return v
    if kind == "list_int":
        if not _is_list_of(value, lambda v: _is_number(v, integer=True)):
            fail("a non-empty list of integers")
        if spec.minimum is not None and min(value) < spec.minimum:
            raise ConfigError(f"key '{key}': entries must be >= {int(spec.minimum)}, got {value}")
        # each entry keys its own stream, so a repeat would rerun the same draws
        if len(set(value)) != len(value):
            raise ConfigError(f"key '{key}': entries must be unique, got {value}")
        return list(value)
    if kind == "list_float":
        if not _is_list_of(value, _is_number):
            fail("a non-empty list of numbers")
        return [to_float(v) for v in value]
    if kind == "list_str":  # estimator names from the default list, each once
        if not _is_list_of(value, lambda v: isinstance(v, str)):
            fail("a non-empty list of strings")
        for name in value:
            if name not in spec.default:
                raise ConfigError(
                    f"key '{key}': unknown estimator {name!r}; choose from {', '.join(spec.default)}"
                )
        if len(set(value)) != len(value):
            raise ConfigError(f"key '{key}': estimator names must be unique, got {value}")
        return list(value)
    if kind == "probs":
        if not _is_list_of(value, _is_number):
            fail("a list of probabilities")
        probs = [to_float(v) for v in value]
        if any(p <= 0.0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigError(f"key '{key}': probabilities must be positive and sum to 1")
        return probs
    if kind == "grid":
        if not isinstance(value, list) or not value:
            fail(f"a non-empty list of [{', '.join(GRID_COLUMNS)}] rows")
        rows = []
        for row in value:
            if not _is_list_of(row, _is_number) or len(row) != len(GRID_COLUMNS):
                fail(f"rows of the form [{', '.join(GRID_COLUMNS)}]")
            mu, mut, s2, s2t, s = row
            if s2 <= 0.0 or s2t <= 0.0:
                raise ConfigError(f"key '{key}': variances must be positive in row {row}")
            if int(s) != s or int(s) < 2:
                raise ConfigError(f"key '{key}': S must be an integer >= 2 in row {row}")
            rows.append([to_float(mu), to_float(mut), to_float(s2), to_float(s2t), int(s)])
        return rows
    raise AssertionError(f"unhandled field kind {kind}")


def _suggest(key: str, allowed: list[str]) -> str:
    # Match against full dotted keys and against last segments, so a typo like
    # 'learnig_rate' still points at 'optimizer.learning_rate'.
    candidates = {k: k for k in allowed}
    for k in allowed:
        candidates.setdefault(k.rsplit(".", 1)[-1], k)
    hits = difflib.get_close_matches(key, list(candidates), n=1, cutoff=0.5)
    return f"; did you mean '{candidates[hits[0]]}'?" if hits else ""


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file. Raises ConfigError with the file name
    and line number on any malformed or unknown content."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    raw: dict[str, Any] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, rest = stripped.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"{path}:{lineno}: bad key '{key}' (lowercase dotted names only)")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        raw[key] = _parse_value(rest, f"{path}:{lineno}: key '{key}'")

    if "experiment" not in raw:
        raise ConfigError(f"{path}: missing required key 'experiment'")
    experiment = raw.pop("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"{path}: unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    if "seed" not in raw:
        raise ConfigError(f"{path}: missing required key 'seed'")
    seed = raw.pop("seed")
    if not _is_number(seed, integer=True) or seed < 0:
        raise ConfigError(f"{path}: key 'seed': expected a non-negative integer, got {seed!r}")
    out = raw.pop("out", None)
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"{path}: key 'out': expected a path string, got {out!r}")

    schema = _SCHEMAS[experiment]
    allowed = list(_COMMON_KEYS) + list(schema)
    for key in raw:
        if key not in schema:
            raise ConfigError(f"{path}: unknown key '{key}'{_suggest(key, allowed)}")
    # options follow the schema, not the file, so the CSV metadata written
    # from them depends only on the resolved values
    options: dict[str, Any] = {}
    for key, spec in schema.items():
        if key in raw:
            options[key] = _coerce(key, raw[key], spec)
        elif spec.default is _REQUIRED:
            raise ConfigError(f"{path}: missing required key '{key}' for experiment '{experiment}'")
        else:
            options[key] = spec.default
    return ExperimentConfig(experiment=experiment, seed=seed, out=out, options=options)
