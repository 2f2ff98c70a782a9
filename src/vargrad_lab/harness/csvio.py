"""Deterministic CSV output for experiment runs.

Files start with '# key = value' metadata lines, written in the order
given (the experiment runners pass the resolved config, then the values
the run computed), then a header row, then data rows. Floats are written with 17 significant
digits so a round trip through text reproduces the exact double, newlines
are LF, and the encoding is UTF-8. Identical inputs must produce
byte-identical files.
"""

from __future__ import annotations

import csv
from typing import Any, Mapping

import numpy as np


def format_cell(value: Any) -> str:
    if type(value) is float:  # most cells; %.17g already spells nan, inf and -inf
        return f"{value:.17g}"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot format {type(value).__name__} cell: {value!r}")


def write_csv(
    path,
    rows: list[Mapping[str, Any]],
    metadata: Mapping[str, Any] | None = None,
) -> None:
    """Write rows under a header taken from the first row's keys, in order;
    every other row must have exactly the same keys."""
    if not rows or not rows[0]:
        raise ValueError("write_csv needs at least one row with at least one column")
    columns = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key} = {format_cell(value)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            if row.keys() != rows[0].keys():
                missing = set(columns) - set(row)
                extra = set(row) - set(columns)
                raise ValueError(f"row/header mismatch: missing {missing}, extra {extra}")
            writer.writerow([format_cell(row[c]) for c in columns])


def _parse_scalar(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path) -> tuple[dict[str, str], list[str], list[dict[str, Any]]]:
    """Return (metadata, header, rows); numeric cells come back as int/float."""
    metadata: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        data_lines = []
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                metadata[key.strip()] = value.strip()
            else:
                data_lines.append(line)
    reader = csv.reader(data_lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: no header row") from None
    rows = []
    for record in reader:
        if len(record) != len(header):
            raise ValueError(f"{path}: row width {len(record)} != header width {len(header)}")
        rows.append({name: _parse_scalar(cell) for name, cell in zip(header, record)})
    return metadata, header, rows
