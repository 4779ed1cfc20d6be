"""CSV/JSON rendering helpers shared by the file formats.

Numbers are rendered at full precision for the active arithmetic: 17
significant digits for doubles, and every digit an extended-precision
Decimal carries (34 or more: it is already rounded to its working
precision), so every file round-trips losslessly. Writes go through a
temp file plus rename so readers never observe partial output.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def fmt(x) -> str:
    """Full-precision decimal rendering of a scalar."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    if x is None:
        return ""
    return str(x)


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: list[str], rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header: list[str], rows: list) -> None:
    atomic_write_text(path, csv_text(header, rows))


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
