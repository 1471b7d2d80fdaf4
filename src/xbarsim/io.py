"""Result serialization: CSV with stable numeric formatting and JSON
summaries carrying a config echo and version string."""

from __future__ import annotations

import csv
import functools
import itertools
import json
import os
import subprocess
from pathlib import Path

from . import __version__

# nA-scale signals need headroom: 12 significant digits everywhere.
_FLOAT_FMT = "{:.12g}"
_CSV_CHUNK_ROWS = 4096


def fmt_value(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return _FLOAT_FMT.format(v)
    return str(v)


# ``fmt_value`` of a value of exactly this type (a bool's type is bool, not int).
_TYPE_FMT = {float: _FLOAT_FMT.format, int: str, str: str}


def _fmt_column(values) -> list:
    """``fmt_value`` of each value; one bound formatter for the whole column
    when every value has the same type in ``_TYPE_FMT``."""
    types = set(map(type, values))
    fmt = _TYPE_FMT.get(types.pop(), fmt_value) if len(types) == 1 else fmt_value
    return list(map(fmt, values))


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and then ``rows`` (any iterable of equal-length rows).

    Rows are taken ``_CSV_CHUNK_ROWS`` at a time and formatted a column at
    a time, so a column of one type costs one bound formatter call per
    value and no type test; the chunk bound keeps a large map's text from
    being held whole."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = iter(rows)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        while chunk := list(itertools.islice(rows, _CSV_CHUNK_ROWS)):
            w.writerows(zip(*map(_fmt_column, zip(*chunk, strict=True))))
    return path


@functools.cache
def version_string() -> str:
    """Package version, extended with the git description when available.

    Asked of git once per process, not once per summary file."""
    try:
        desc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).parent,
        )
        if desc.returncode == 0 and desc.stdout.strip():
            return f"{__version__}+g{desc.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


def write_summary_json(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(payload)
    payload.setdefault("version", version_string())
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def default_output_dir(explicit: str | None = None) -> Path:
    """Resolution order: explicit argument, XBARSIM_OUTPUT_DIR, ./xbarsim-out."""
    if explicit:
        return Path(explicit)
    env = os.environ.get("XBARSIM_OUTPUT_DIR")
    return Path(env) if env else Path("xbarsim-out")
