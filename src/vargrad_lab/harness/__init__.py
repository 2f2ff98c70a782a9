"""Experiment harness: config parsing, RNG streams, CSV output, CLI."""

from .config import EXPERIMENTS, ConfigError, ExperimentConfig, parse_config
from .csvio import read_csv, write_csv
from .experiments import RUNNERS
from .rng import split_stream

__all__ = [
    "EXPERIMENTS",
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "read_csv",
    "write_csv",
    "RUNNERS",
    "split_stream",
]
