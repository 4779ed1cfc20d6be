"""CSV/JSON rendering helpers shared by the file formats.

Numbers are rendered at full precision for the active arithmetic: 17
significant digits for doubles, and every digit an extended-precision
Decimal carries (34 or more: it is already rounded to its working
precision), so every file round-trips losslessly.

Tables are passed by column: one sequence (ndarray, range, list or tuple)
per header name, all of one length. Each column is typed once. A column
of only floats (float or np.float64, or a float64 array) renders with
%.17g, one of only ints (or an integer array) with %d, and one of only
Decimals, or only strings already rendered (render), with %s. Any other
column (mixed types, None, bool) falls back to fmt value by value. The
whole table is then filled in by a single % on a template of those
conversions, so the typed columns make no Python-level call per value.
The output is the same as fmt applied to every value.

JSON is written compact (no indentation) with sorted keys, which keeps
the stdlib's C encoder, and strict: a non-finite float (an infinite
bound, say) is written as null, while the CSV keeps inf.

Writes go through a temp file plus rename so readers never observe
partial output. The temp file is created with mode 0o666 and the kernel
applies the umask, so the file gets the permissions a plain open() would
give, and the process umask is never read or changed.
"""

from __future__ import annotations

import json
import math
import os
from decimal import Decimal
from itertools import chain
from pathlib import Path

import numpy as np

_FLOAT_TYPES = frozenset({float, np.float64})


def fmt(x) -> str:
    """Full-precision decimal rendering of a scalar."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    if x is None:
        return ""
    return str(x)


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:  # a fresh random name until one is free, as mkstemp does
        tmp = path.with_name(f"{path.name}{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _typed_column(col) -> tuple[str, list | range]:
    """The % conversion of one column and the values it applies to."""
    if isinstance(col, range):
        return "%d", col
    if isinstance(col, np.ndarray):
        if col.dtype == np.float64:
            return "%.17g", col.tolist()
        if col.dtype.kind in "iu":
            return "%d", col.tolist()
        # other dtypes keep their numpy scalars, so fmt sees what a row would hold
        col = col.tolist() if col.dtype == object else list(col)
    kinds = set(map(type, col))
    if kinds <= _FLOAT_TYPES:
        return "%.17g", col
    if kinds == {int}:
        return "%d", col
    if kinds == {Decimal} or kinds == {str}:
        return "%s", col
    return "%s", list(map(fmt, col))


def render(col) -> list[str]:
    """fmt of every value of one column, typed and formatted in one % pass.

    The strings are split at newlines, so no rendered value may hold one
    (numbers never do).
    """
    spec, values = _typed_column(col)
    if not len(values):
        return []
    return ((spec + "\n") * len(values) % tuple(values))[:-1].split("\n")


def csv_text(header: list[str], columns: list) -> str:
    """CSV text of a table given as one value sequence per header name."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    head = ",".join(header) + "\n"
    if not n_rows:
        return head
    specs, values = zip(*map(_typed_column, columns))
    template = (",".join(specs) + "\n") * n_rows
    return head + template % tuple(chain.from_iterable(zip(*values)))


def write_csv(path, header: list[str], columns: list) -> None:
    atomic_write_text(path, csv_text(header, columns))


def _finite(obj):
    """obj with every non-finite float in its dicts and lists made None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def write_json(path, obj) -> None:
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError:  # a float that is not finite: walk the object to make each None
        text = json.dumps(_finite(obj), sort_keys=True, allow_nan=False)
    atomic_write_text(path, text + "\n")
