"""Deterministic CSV output for experiment runs.

Files start with '# key = value' metadata lines, written in the order
given (the experiment runners pass the resolved config, then the values
the run computed), then the header, then the rows: tuples with one cell per
header column. A cell is a Python float (np.float64 is one), bool, int or
str. Floats are written with 17 significant digits so a round trip through
text reproduces the exact double, bools as 1 and 0, newlines are LF, and
the encoding is UTF-8. Identical inputs must produce byte-identical files.
"""

from __future__ import annotations

import csv
import os
from typing import Any, Mapping, Sequence


def format_cell(value: Any) -> str:
    if isinstance(value, float):  # most cells; %.17g already spells nan, inf and -inf
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    raise TypeError(f"cannot format {type(value).__name__} cell: {value!r}")


def write_csv(
    path, header: Sequence[str], rows: list[tuple], metadata: Mapping[str, Any]
) -> None:
    """Write the rows under header; every row must have the header's width.
    A failed write removes the partly written file if it is a regular file.
    It writes in place: renaming a temporary file over the path would
    replace an output such as /dev/null."""
    if not header or not rows:
        raise ValueError("write_csv needs at least one column and one row")
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            for key, value in metadata.items():
                fh.write(f"# {key} = {format_cell(value)}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                if len(row) != len(header):
                    raise ValueError(f"row width {len(row)} != header width {len(header)}")
                writer.writerow([format_cell(v) for v in row])
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


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
