"""Experiment harness: config parsing, RNG streams, CSV output, CLI."""
